//! The semantic (AST-walking) lint passes and the policy that scopes
//! them.
//!
//! Where the token-level passes in [`crate::passes`] match identifiers,
//! these walk the [`crate::ast`] item tree, so they see method calls with
//! turbofish generics (`.sum::<f32>()`) and the head of their first
//! argument — and they know which functions are tests.
//!
//! * **float-reduction** — flags ad-hoc float `sum`/`fold`/accumulator
//!   loops outside the registered kernels. Reduction order is the one
//!   place f32 math silently loses bitwise determinism; every reduction
//!   must either live in `kernels.rs` (where it has a `_serial` parity
//!   twin) or carry `// om-lint: reduction-ok(<reason>)` arguing a fixed
//!   order (accepted on the line or on the enclosing `fn`). Tests
//!   (`#[test]` functions, `#[cfg(test)]` modules, files under `tests/`,
//!   `benches/` or `examples/`) are exempt.
//!
//! [`check_simd_tolerance`] extends kernel-parity registration: a kernel
//! marked `// om-lint: simd` must register a ULP tolerance via
//! `ulp_tolerance("<name>")` in `tests/parity.rs` — the contract ROADMAP
//! item 1 requires before any vectorised kernel lands.

use crate::ast::{self, ArgHead, FnItem, MethodCall};
use crate::lexer::{LexedFile, TokenKind};
use crate::passes::{self, Violation};

/// Per-crate scoping of the float-reduction pass. One instance —
/// [`Policy::default_policy`] — describes the whole workspace; fixtures
/// construct narrower ones.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Crate prefixes where ad-hoc float reductions are flagged.
    pub reduction_crates: &'static [&'static str],
    /// Files exempt from the reduction pass (the kernel suite, which has
    /// serial-twin parity oracles instead).
    pub reduction_exempt: &'static [&'static str],
}

/// Crates whose float math feeds model outputs.
pub const REDUCTION_CRATES: &[&str] = &[
    "crates/tensor/",
    "crates/nn/",
    "crates/core/",
    "crates/serve/",
];

/// Files exempt from the reduction pass: the kernel suite itself and its
/// AVX2 microkernel module — both define the fixed-order reductions the
/// parity suite oracles, so the pass would only flag the oracles.
pub const REDUCTION_EXEMPT: &[&str] = &["crates/tensor/src/kernels.rs", "crates/tensor/src/simd.rs"];

impl Policy {
    /// The workspace policy.
    pub fn default_policy() -> Policy {
        Policy {
            reduction_crates: REDUCTION_CRATES,
            reduction_exempt: REDUCTION_EXEMPT,
        }
    }
}

/// Whether `rel` is test or bench code by location.
fn is_test_path(rel: &str) -> bool {
    rel.contains("/tests/") || rel.contains("/benches/") || rel.contains("/examples/")
}

fn marked(lexed: &LexedFile, line: usize, marker: &str) -> bool {
    lexed.comment_block_above(line).contains(marker)
}

/// Whether a numeric literal is a float (`0.0`, `1e-3` is not lexed as a
/// single number here, but every real site uses a dot or a typed suffix).
fn is_float_literal(n: &str) -> bool {
    n.contains('.') || n.ends_with("f32") || n.ends_with("f64")
}

/// Whether the statement around token index `tok` mentions a float type
/// or float literal. The statement is the token span between the nearest
/// `;`/`{`/`}` on each side.
fn stmt_has_float(lexed: &LexedFile, tok: usize, body: (usize, usize)) -> bool {
    let toks = &lexed.tokens;
    let lo = (body.0..tok.min(toks.len()))
        .rev()
        .find(|&i| matches!(toks[i].kind, TokenKind::Punct(';' | '{' | '}')))
        .map(|i| i + 1)
        .unwrap_or(body.0);
    let hi = (tok..body.1.min(toks.len()))
        .find(|&i| matches!(toks[i].kind, TokenKind::Punct(';' | '{' | '}')))
        .unwrap_or(body.1.min(toks.len()));
    toks[lo..hi].iter().any(|t| match &t.kind {
        TokenKind::Ident(s) => s == "f32" || s == "f64",
        TokenKind::Num(n) => is_float_literal(n),
        _ => false,
    })
}

fn reduction_marked(lexed: &LexedFile, f: &FnItem, line: usize) -> bool {
    marked(lexed, line, "om-lint: reduction-ok") || marked(lexed, f.line, "om-lint: reduction-ok")
}

/// The float-reduction pass: ad-hoc float `sum`/`product`/`fold` calls
/// and `let mut acc = 0.0; ... acc += ...` loops outside the kernel
/// suite. The marker is accepted on the flagged line or on the enclosing
/// `fn` (an optimizer stats function may hold five accumulators; one
/// argued marker beats five copies).
pub fn check_float_reduction(
    rel: &str,
    lexed: &LexedFile,
    file: &ast::File,
    policy: &Policy,
) -> Vec<Violation> {
    if is_test_path(rel)
        || policy.reduction_exempt.contains(&rel)
        || !policy.reduction_crates.iter().any(|c| rel.starts_with(c))
    {
        return Vec::new();
    }
    let mut v = Vec::new();
    ast::walk_fns(file, |f, in_test| {
        if in_test {
            return;
        }
        for MethodCall {
            name,
            generics,
            first_arg,
            line,
            tok,
        } in &f.calls
        {
            let flagged = match name.as_str() {
                "sum" | "product" => {
                    if generics.iter().any(|g| g == "f32" || g == "f64") {
                        true
                    } else if !generics.is_empty() {
                        false // sum::<usize>() and friends
                    } else {
                        f.body
                            .map(|b| stmt_has_float(lexed, *tok, b))
                            .unwrap_or(false)
                    }
                }
                "fold" => matches!(
                    first_arg,
                    Some(ArgHead::Num(n)) if is_float_literal(n)
                ) || matches!(
                    first_arg,
                    Some(ArgHead::Ident(i)) if i == "f32" || i == "f64"
                ),
                _ => false,
            };
            if !flagged || reduction_marked(lexed, f, *line) {
                continue;
            }
            v.push(Violation {
                file: rel.to_string(),
                line: *line,
                rule: "float-reduction",
                msg: format!(
                    "ad-hoc float `.{name}(...)` outside the kernel suite: reduction \
                     order decides the bit pattern; use a kernel with a `_serial` \
                     parity twin, or mark the line or enclosing fn \
                     `// om-lint: reduction-ok(<reason>)` arguing a fixed order"
                ),
            });
        }
        // Scalar accumulator loops: `let mut x = <float>; ... x += ...`.
        let Some((lo, hi)) = f.body else {
            return;
        };
        let toks = &lexed.tokens;
        let hi = hi.min(toks.len());
        let idents_eq = |i: usize, s: &str| {
            matches!(toks.get(i).map(|t| &t.kind), Some(TokenKind::Ident(x)) if x == s)
        };
        for i in lo..hi {
            if !(idents_eq(i, "let") && idents_eq(i + 1, "mut")) {
                continue;
            }
            let Some(TokenKind::Ident(name)) = toks.get(i + 2).map(|t| &t.kind) else {
                continue;
            };
            // Scan `[: Type] = <init>` up to the statement end; float if
            // the annotation or the initialiser head is a float.
            let mut j = i + 3;
            let mut saw_eq = false;
            let mut is_float = false;
            while j < hi && j < i + 12 {
                match &toks[j].kind {
                    TokenKind::Punct(';') => break,
                    TokenKind::Punct('=') => saw_eq = true,
                    TokenKind::Ident(s) if s == "f32" || s == "f64" => is_float = true,
                    TokenKind::Num(n) if saw_eq => {
                        is_float = is_float || is_float_literal(n);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            if !is_float {
                continue;
            }
            // Accumulation: `name +=` or `name *=` later in the body.
            let accumulates = (j..hi.saturating_sub(2)).any(|k| {
                idents_eq(k, name)
                    && matches!(toks[k + 1].kind, TokenKind::Punct('+' | '*'))
                    && matches!(toks[k + 2].kind, TokenKind::Punct('='))
            });
            let line = toks[i].line;
            if !accumulates || reduction_marked(lexed, f, line) {
                continue;
            }
            v.push(Violation {
                file: rel.to_string(),
                line,
                rule: "float-reduction",
                msg: format!(
                    "scalar float accumulator `{name}` outside the kernel suite: \
                     reduction order decides the bit pattern; use a kernel with a \
                     `_serial` parity twin, or mark the line or enclosing fn \
                     `// om-lint: reduction-ok(<reason>)` arguing a fixed order"
                ),
            });
        }
    });
    v
}

/// SIMD tolerance registration: every top-level `pub fn` in `kernels.rs`
/// marked `// om-lint: simd` must appear in a `ulp_tolerance("<name>")`
/// call in `tests/parity.rs`, so the vectorised kernel's accepted ULP
/// drift is a reviewed constant, not an accident.
pub fn check_simd_tolerance(
    kernels_rel: &str,
    kernels: &LexedFile,
    parity: &LexedFile,
) -> Vec<Violation> {
    let mut v = Vec::new();
    for (line, name) in passes::top_level_pub_fns(kernels) {
        if !kernels.comment_block_above(line).contains("om-lint: simd") {
            continue;
        }
        let registered = parity.tokens.windows(3).any(|w| {
            matches!(&w[0].kind, TokenKind::Ident(i) if i == "ulp_tolerance")
                && matches!(w[1].kind, TokenKind::Punct('('))
                && matches!(&w[2].kind, TokenKind::Str(s) if s == &name)
        });
        if !registered {
            v.push(Violation {
                file: kernels_rel.to_string(),
                line,
                rule: "simd-ulp-tolerance",
                msg: format!(
                    "kernel `{name}` is marked `// om-lint: simd` but registers no \
                     ULP tolerance: add `ulp_tolerance(\"{name}\")` to \
                     tests/parity.rs with the accepted drift"
                ),
            });
        }
    }
    v
}

//! The token-level lint passes. Each pass takes a workspace-relative path
//! (with `/` separators) plus the lexed file and returns violations;
//! [`crate::lint_repo`] drives them over the tree.
//!
//! Escape hatches are explicit comment markers, so every exception is
//! greppable and reviewed:
//!
//! * `// om-lint: allow(print)` — permits a raw print on that line in a
//!   crate of [`PRINT_BANNED_CRATES`];
//! * `// om-lint: not-a-kernel` — exempts a `pub fn` in `kernels.rs`
//!   from the serial-sibling requirement;
//! * `// om-fault: kill-point` — required above every
//!   `om_obs::fault::kill_point` call site outside `crates/obs/`, so the
//!   full set of fault-injection sites stays greppable.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::lexer::{LexedFile, TokenKind};

/// Every path a policy list names must be a `.rs` file in the tree: an
/// entry for a deleted or renamed file silently checks nothing. `lists`
/// pairs each list's name with its entries; `present` holds the tree's
/// workspace-relative `.rs` paths.
pub fn check_policy_paths(lists: &[(&str, &[&str])], present: &BTreeSet<String>) -> Vec<Violation> {
    let mut v = Vec::new();
    for &(list, paths) in lists {
        for &path in paths {
            if !present.contains(path) {
                v.push(Violation {
                    file: path.to_string(),
                    line: 1,
                    rule: "policy-path",
                    msg: format!("`{list}` names this file, but it is not in the tree — the entry checks nothing"),
                });
            }
        }
    }
    v
}

/// Crates whose diagnostics must go through the om-obs logging facade
/// (`om_obs::info!` et al., gated by `OM_LOG`) instead of raw prints:
/// silent-by-default library code must stay silent, and everything it does
/// say must land in the run's event stream.
pub const PRINT_BANNED_CRATES: &[&str] = &[
    "crates/tensor/",
    "crates/nn/",
    "crates/core/",
    "crates/metrics/",
    "crates/serve/",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Stable rule name.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

pub(crate) fn idents_of(lexed: &LexedFile) -> impl Iterator<Item = (usize, &str)> {
    lexed.tokens.iter().filter_map(|t| match &t.kind {
        TokenKind::Ident(s) => Some((t.line, s.as_str())),
        _ => None,
    })
}

/// No raw `println!`/`eprintln!` (or `print!`/`eprint!`) in the crates of
/// [`PRINT_BANNED_CRATES`]: route diagnostics through the om-obs logging
/// facade so `OM_LOG` controls them and enabled runs capture them in the
/// event stream. Line-level escape: `// om-lint: allow(print)` — e.g. for
/// a binary's final table rendering, which *is* the program's output.
pub fn check_print(rel: &str, lexed: &LexedFile) -> Vec<Violation> {
    if !PRINT_BANNED_CRATES.iter().any(|c| rel.starts_with(c)) {
        return Vec::new();
    }
    let mut v = Vec::new();
    for (line, id) in idents_of(lexed) {
        if id != "println" && id != "eprintln" && id != "print" && id != "eprint" {
            continue;
        }
        if lexed
            .comment_block_above(line)
            .contains("om-lint: allow(print)")
        {
            continue;
        }
        v.push(Violation {
            file: rel.to_string(),
            line,
            rule: "print",
            msg: format!(
                "raw `{id}!` in a model-path crate: use the om-obs logging \
                 facade (`om_obs::info!` …) so OM_LOG gates it, or mark the \
                 line `// om-lint: allow(print)` with a rationale"
            ),
        });
    }
    v
}

/// Every fault-injection site must be visibly marked: a `kill_point` call
/// outside `crates/obs/` (where the primitive lives) needs an
/// `// om-fault: kill-point` comment directly above, so `grep` over the
/// marker enumerates the complete kill-site inventory and a reviewer can
/// tell a deliberate chaos hook from a stray call.
pub fn check_kill_points(rel: &str, lexed: &LexedFile) -> Vec<Violation> {
    if rel.starts_with("crates/obs/") {
        return Vec::new();
    }
    let mut v = Vec::new();
    for (line, id) in idents_of(lexed) {
        if id != "kill_point" {
            continue;
        }
        if lexed
            .comment_block_above(line)
            .contains("om-fault: kill-point")
        {
            continue;
        }
        v.push(Violation {
            file: rel.to_string(),
            line,
            rule: "kill-point-marker",
            msg: "`kill_point` call without an `// om-fault: kill-point` \
                  marker comment above: fault-injection sites must be \
                  greppable"
                .to_string(),
        });
    }
    v
}

/// Top-level `pub fn` names of a lexed file, with their lines, in order.
pub(crate) fn top_level_pub_fns(lexed: &LexedFile) -> Vec<(usize, String)> {
    let mut fns = Vec::new();
    let mut depth = 0i32;
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        match &t.kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => depth -= 1,
            TokenKind::Ident(s) if s == "fn" && depth == 0 => {
                let is_pub = i > 0
                    && matches!(&toks[i - 1].kind, TokenKind::Ident(p) if p == "pub");
                if !is_pub {
                    continue;
                }
                if let Some(TokenKind::Ident(name)) = toks.get(i + 1).map(|t| &t.kind) {
                    fns.push((t.line, name.clone()));
                }
            }
            _ => {}
        }
    }
    fns
}

/// Every parallel kernel (top-level `pub fn` in `kernels.rs` not itself a
/// `*_serial` function) must have a `{name}_serial` reference sibling, and
/// both names must appear in the parity suite so the pair is actually
/// compared. Exempt a non-kernel helper with `// om-lint: not-a-kernel`.
pub fn check_kernel_parity(
    kernels_rel: &str,
    kernels: &LexedFile,
    parity: &LexedFile,
) -> Vec<Violation> {
    let fns = top_level_pub_fns(kernels);
    let names: BTreeSet<&str> = fns.iter().map(|(_, n)| n.as_str()).collect();
    let parity_idents: BTreeSet<&str> = idents_of(parity).map(|(_, id)| id).collect();
    let mut v = Vec::new();
    for (line, name) in &fns {
        if name.ends_with("_serial") {
            continue;
        }
        if kernels
            .comment_block_above(*line)
            .contains("om-lint: not-a-kernel")
        {
            continue;
        }
        let sibling = format!("{name}_serial");
        if !names.contains(sibling.as_str()) {
            v.push(Violation {
                file: kernels_rel.to_string(),
                line: *line,
                rule: "kernel-parity",
                msg: format!(
                    "parallel kernel `{name}` has no serial reference sibling `{sibling}`"
                ),
            });
            continue;
        }
        if !parity_idents.contains(name.as_str()) || !parity_idents.contains(sibling.as_str()) {
            v.push(Violation {
                file: kernels_rel.to_string(),
                line: *line,
                rule: "kernel-parity",
                msg: format!(
                    "kernel pair `{name}`/`{sibling}` is not registered in the parity suite"
                ),
            });
        }
    }
    v
}

/// The lint levels the root manifest's `[workspace.lints.*]` tables must
/// set, as `(table, lint, level)`: the repo rules rustc and clippy enforce
/// (the clippy lists they feed are in `clippy.toml`).
pub const REQUIRED_WORKSPACE_LINTS: &[(&str, &str, &str)] = &[
    ("workspace.lints.rust", "unsafe_code", "\"deny\""),
    ("workspace.lints.rust", "unsafe_op_in_unsafe_fn", "\"deny\""),
    ("workspace.lints.clippy", "allow_attributes_without_reason", "\"deny\""),
    ("workspace.lints.clippy", "disallowed_macros", "\"allow\""),
    ("workspace.lints.clippy", "undocumented_unsafe_blocks", "\"deny\""),
];

/// The `key = value` entries of every `[table]` of a Cargo manifest, by
/// table name, comments and surrounding whitespace stripped — enough TOML
/// for the flat tables this pass reads.
pub fn toml_tables(manifest: &str) -> BTreeMap<String, Vec<(String, String)>> {
    let mut tables: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    let mut current = String::new();
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            current = name.trim().to_string();
            tables.entry(current.clone()).or_default();
        } else if let Some((key, value)) = line.split_once('=') {
            let entry = (key.trim().to_string(), value.trim().to_string());
            tables.entry(current.clone()).or_default().push(entry);
        }
    }
    tables
}

/// The workspace manifest must set every level of
/// [`REQUIRED_WORKSPACE_LINTS`], and every crate must opt in with
/// `workspace = true` in its own `[lints]` table — a crate that lists its
/// own levels there instead drops the workspace's.
pub fn check_workspace_lints(
    root_manifest: &str,
    crate_manifests: &[(String, String)],
) -> Vec<Violation> {
    let mut v = Vec::new();
    let root = toml_tables(root_manifest);
    for &(table, lint, level) in REQUIRED_WORKSPACE_LINTS {
        let set = root
            .get(table)
            .is_some_and(|entries| entries.iter().any(|(k, l)| k == lint && l == level));
        if !set {
            v.push(Violation {
                file: "Cargo.toml".to_string(),
                line: 1,
                rule: "workspace-lints",
                msg: format!("workspace manifest must set `{lint} = {level}` in [{table}]"),
            });
        }
    }
    for (rel, text) in crate_manifests {
        let opted_in = toml_tables(text)
            .get("lints")
            .is_some_and(|entries| entries.iter().any(|(k, l)| k == "workspace" && l == "true"));
        if !opted_in {
            v.push(Violation {
                file: rel.clone(),
                line: 1,
                rule: "workspace-lints",
                msg: "crate must opt into workspace lints with `[lints] workspace = true`"
                    .to_string(),
            });
        }
    }
    v
}

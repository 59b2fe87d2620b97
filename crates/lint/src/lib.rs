//! # om-lint
//!
//! Repo-invariant linter and concurrency model checker for the OmniMatch
//! workspace. Run it as `cargo lint` (alias for `cargo run -p om-lint`),
//! or in CI, where it is a required job.
//!
//! om-lint keeps the rules rustc and clippy cannot express. Those they
//! can — `unsafe` confinement and `// SAFETY:` arguments, no hash
//! collections, wall clocks or OS entropy, threads only from the tensor
//! pool, no panics in the serving hot path — are lint levels in the root
//! `Cargo.toml`'s `[workspace.lints]` and lists in the root
//! `clippy.toml`, with each exception an `#[expect(lint, reason = "…")]`
//! at its site; `tests/clippy_rules.rs` seeds a hit for every one.
//!
//! Token-level passes over every first-party `.rs` file plus one
//! manifest pass (see [`passes`]):
//!
//! | rule | guarantee |
//! |---|---|
//! | `print` | no raw `println!`/`eprintln!` in tensor/nn/core/metrics/serve — use om-obs |
//! | `kill-point-marker` | every `kill_point` site outside `crates/obs/` carries `// om-fault: kill-point` |
//! | `kernel-parity` | every kernel has a `_serial` twin in the parity suite |
//! | `workspace-lints` | the workspace sets the rustc/clippy rule levels, and every crate opts in |
//! | `policy-path` | every file a policy list names ([`POLICY_PATH_LISTS`]) exists |
//!
//! The [`ast`]-walking and registry passes (see [`semantic`],
//! [`env_registry`] and [`metric_registry`] for policies and escape
//! markers):
//!
//! | rule | guarantee |
//! |---|---|
//! | `float-reduction` | no ad-hoc float reductions outside the kernel suite |
//! | `simd-ulp-tolerance` | `// om-lint: simd` kernels register a ULP tolerance in parity.rs |
//! | `env-registry` | every `OM_*` literal is declared; every declaration is used |
//! | `metric-registry` | every `serve.*`/`train.*`/`load.*` metric name is declared; every declaration is emitted |
//!
//! The companion [`interleave`] module is the explicit-state model checker
//! used by `tests/pool_model.rs` (worker-pool latch protocol) and
//! `tests/frontend_model.rs` (bounded-queue shutdown protocol) to verify
//! every interleaving.

pub mod ast;
pub mod env_registry;
pub mod interleave;
pub mod lexer;
pub mod metric_registry;
pub mod passes;
pub mod semantic;

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

pub use passes::Violation;
pub use semantic::Policy;

/// The policy lists that name files by path; [`lint_repo`] reports an
/// entry whose file is not in the tree (`policy-path`).
pub const POLICY_PATH_LISTS: &[(&str, &[&str])] =
    &[("REDUCTION_EXEMPT", semantic::REDUCTION_EXEMPT)];

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".github"];

/// Outcome of linting a whole repository.
#[derive(Debug)]
pub struct LintReport {
    /// Number of `.rs` files checked.
    pub files: usize,
    /// All findings, sorted by file then line.
    pub violations: Vec<Violation>,
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !SKIP_DIRS.contains(&name) {
                rs_files(&path, out);
            }
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lint the workspace rooted at `root`.
pub fn lint_repo(root: &Path) -> LintReport {
    let mut files = Vec::new();
    rs_files(root, &mut files);

    let policy = Policy::default_policy();
    let mut violations = Vec::new();
    let mut kernels: Option<(String, lexer::LexedFile)> = None;
    let mut parity: Option<lexer::LexedFile> = None;
    let mut env_used: BTreeSet<String> = BTreeSet::new();
    let mut metric_used: BTreeSet<String> = BTreeSet::new();
    let present: BTreeSet<String> = files.iter().map(|path| rel_of(root, path)).collect();
    violations.extend(passes::check_policy_paths(POLICY_PATH_LISTS, &present));

    for path in &files {
        let rel = rel_of(root, path);
        let Ok(src) = fs::read_to_string(path) else {
            continue;
        };
        let lexed = lexer::lex(&src);
        violations.extend(passes::check_print(&rel, &lexed));
        violations.extend(passes::check_kill_points(&rel, &lexed));
        let parsed = ast::parse(&lexed);
        violations.extend(semantic::check_float_reduction(&rel, &lexed, &parsed, &policy));
        violations.extend(env_registry::scan_file(&rel, &lexed, &mut env_used));
        violations.extend(metric_registry::scan_file(&rel, &lexed, &mut metric_used));
        if rel == "crates/tensor/src/kernels.rs" {
            kernels = Some((rel, lexed));
        } else if rel == "crates/tensor/tests/parity.rs" {
            parity = Some(lexed);
        }
    }

    violations.extend(env_registry::check_stale(&env_used));
    violations.extend(metric_registry::check_stale(&metric_used));

    match (&kernels, &parity) {
        (Some((rel, k)), Some(p)) => {
            violations.extend(passes::check_kernel_parity(rel, k, p));
            violations.extend(semantic::check_simd_tolerance(rel, k, p));
        }
        _ => violations.push(Violation {
            file: "crates/tensor".to_string(),
            line: 1,
            rule: "kernel-parity",
            msg: "kernels.rs or tests/parity.rs missing — cannot verify kernel parity"
                .to_string(),
        }),
    }

    let root_manifest = fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
    let mut crate_manifests = Vec::new();
    for parent in ["crates", "vendor"] {
        let Ok(entries) = fs::read_dir(root.join(parent)) else {
            continue;
        };
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs {
            let manifest = dir.join("Cargo.toml");
            if let Ok(text) = fs::read_to_string(&manifest) {
                crate_manifests.push((rel_of(root, &manifest), text));
            }
        }
    }
    violations.extend(passes::check_workspace_lints(&root_manifest, &crate_manifests));

    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    LintReport {
        files: files.len(),
        violations,
    }
}

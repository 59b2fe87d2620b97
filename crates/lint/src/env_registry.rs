//! The central registry of every `OM_*` environment variable the
//! workspace reads, and the pass that keeps it honest.
//!
//! Every knob is declared here once — name, default, consuming crate,
//! one-line doc. The pass scans every string literal in the tree: a
//! literal spelling an `OM_*` name that is not declared fails the lint
//! (no undocumented knobs), and a declared variable with no remaining
//! call site fails too (no zombie docs). Because the scan matches the
//! *name literal* rather than the `env::var` call shape, indirect readers
//! like `env_usize("OM_SERVE_BATCH", 8)` are caught the same as direct
//! ones.
//!
//! `cargo lint -- --env-table` renders the registry as the markdown table
//! README embeds between `<!-- om-env-table:begin -->` /
//! `<!-- om-env-table:end -->`; `--env-table --check` diffs the rendered
//! table against that block so CI fails when they diverge.
//!
//! `crates/lint` itself is out of scope of the scan: this file *is* the
//! registry, and lint fixtures legitimately spell fake `OM_*` names.

use std::collections::BTreeSet;

use crate::lexer::{LexedFile, TokenKind};
use crate::passes::Violation;

/// One declared environment variable.
#[derive(Debug, Clone, Copy)]
pub struct EnvVar {
    /// Variable name (`OM_*`).
    pub name: &'static str,
    /// Default when unset, as documented to users.
    pub default: &'static str,
    /// The crate that reads it.
    pub consumer: &'static str,
    /// One-line description.
    pub doc: &'static str,
}

/// Every `OM_*` variable the workspace reads, alphabetical.
pub const REGISTRY: &[EnvVar] = &[
    EnvVar {
        name: "OM_CKPT",
        default: "off",
        consumer: "omnimatch-core",
        doc: "enable atomic per-epoch training checkpoints with bitwise kill-and-resume",
    },
    EnvVar {
        name: "OM_CKPT_DIR",
        default: "results/ckpt",
        consumer: "omnimatch-core",
        doc: "root directory for training checkpoints",
    },
    EnvVar {
        name: "OM_CKPT_EVERY",
        default: "1",
        consumer: "omnimatch-core",
        doc: "checkpoint cadence in epochs (the final epoch always saves)",
    },
    EnvVar {
        name: "OM_FAULT",
        default: "unset",
        consumer: "om-obs",
        doc: "fault injection: `<site>:<nth>` kills the process (exit 86) on the nth hit",
    },
    EnvVar {
        name: "OM_LOG",
        default: "info",
        consumer: "om-obs",
        doc: "stderr log level gate (error/warn/info/debug/trace)",
    },
    EnvVar {
        name: "OM_OBS",
        default: "off",
        consumer: "om-obs",
        doc: "enable telemetry artifacts (events.jsonl, trace.json, manifest.json)",
    },
    EnvVar {
        name: "OM_OBS_ADDR",
        default: "unset",
        consumer: "om-obs",
        doc: "`host:port` to serve `/metrics`, `/healthz` and `/statz` over HTTP (unset: no socket)",
    },
    EnvVar {
        name: "OM_OBS_DIR",
        default: "results/obs",
        consumer: "om-obs",
        doc: "root directory for observability artifacts",
    },
    EnvVar {
        name: "OM_SERVE_BATCH",
        default: "8",
        consumer: "om-serve",
        doc: "microbatch flush size",
    },
    EnvVar {
        name: "OM_SERVE_QUEUE",
        default: "256",
        consumer: "om-serve",
        doc: "front-end queue bound; past it submits get a typed QueueFull rejection",
    },
    EnvVar {
        name: "OM_SERVE_SHARD",
        default: "8192",
        consumer: "om-serve",
        doc: "item rows scored per shard (bounds the per-flush working set)",
    },
    EnvVar {
        name: "OM_SERVE_TOPK",
        default: "10",
        consumer: "om-serve",
        doc: "recommendations returned per request",
    },
    EnvVar {
        name: "OM_SERVE_WAIT_US",
        default: "2000",
        consumer: "om-serve",
        doc: "max queueing delay before a partial batch flushes (microseconds)",
    },
    EnvVar {
        name: "OM_SERVE_WARM_AFTER",
        default: "5",
        consumer: "om-serve",
        doc: "streamed interactions after which a cold user graduates to warm inference",
    },
    EnvVar {
        name: "OM_SIMD",
        default: "auto",
        consumer: "om-tensor",
        doc: "kernel dispatch: `auto` uses AVX2 when the CPU has it, `off` forces the scalar paths",
    },
    EnvVar {
        name: "OM_THREADS",
        default: "available parallelism",
        consumer: "om-tensor",
        doc: "worker-pool size; results are bit-identical at any value, 1 disables the pool",
    },
];

/// Whether `name` is declared.
pub fn declared(name: &str) -> bool {
    REGISTRY.iter().any(|v| v.name == name)
}

/// The `OM_*` variable name a string literal spells, if any: the leading
/// run of `[A-Z0-9_]` when it starts with `OM_` (so `"OM_FAULT=x:1"`
/// still references `OM_FAULT`).
fn om_name(literal: &str) -> Option<&str> {
    if !literal.starts_with("OM_") {
        return None;
    }
    let end = literal
        .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
        .unwrap_or(literal.len());
    // Require at least one character after the prefix.
    (end > 3).then(|| &literal[..end])
}

/// Scan one file's string literals: record declared-name usages into
/// `used`, flag undeclared names. `crates/lint/` is exempt (see module
/// docs).
pub fn scan_file(rel: &str, lexed: &LexedFile, used: &mut BTreeSet<String>) -> Vec<Violation> {
    if rel.starts_with("crates/lint/") {
        return Vec::new();
    }
    let mut v = Vec::new();
    for t in &lexed.tokens {
        let TokenKind::Str(s) = &t.kind else {
            continue;
        };
        let Some(name) = om_name(s) else {
            continue;
        };
        if declared(name) {
            used.insert(name.to_string());
        } else {
            v.push(Violation {
                file: rel.to_string(),
                line: t.line,
                rule: "env-registry",
                msg: format!(
                    "undeclared environment variable `{name}`: declare it in \
                     `om_lint::env_registry::REGISTRY` (name, default, consumer, doc) \
                     so `cargo lint -- --env-table` documents it"
                ),
            });
        }
    }
    v
}

/// Registry entries no file references any more.
pub fn check_stale(used: &BTreeSet<String>) -> Vec<Violation> {
    REGISTRY
        .iter()
        .filter(|var| !used.contains(var.name))
        .map(|var| Violation {
            file: "crates/lint/src/env_registry.rs".to_string(),
            line: 1,
            rule: "env-registry",
            msg: format!(
                "registry entry `{}` has no remaining usage in the tree: remove the \
                 entry (and its README table row via `cargo lint -- --env-table`)",
                var.name
            ),
        })
        .collect()
}

/// Render the registry as the markdown table README embeds.
pub fn render_table() -> String {
    let mut out = String::from("| variable | default | consumer | description |\n|---|---|---|---|\n");
    for var in REGISTRY {
        out.push_str(&format!(
            "| `{}` | {} | `{}` | {} |\n",
            var.name, var.default, var.consumer, var.doc
        ));
    }
    out
}

/// The README block between the `om-env-table` markers, if present.
pub fn readme_table_block(readme: &str) -> Option<String> {
    let mut lines = readme.lines();
    lines.by_ref().find(|l| l.contains("om-env-table:begin"))?;
    let mut block = String::new();
    for l in lines {
        if l.contains("om-env-table:end") {
            return Some(block);
        }
        block.push_str(l);
        block.push('\n');
    }
    None
}

/// Check README's embedded table against the registry. `Ok(())` when they
/// match; `Err` explains the drift.
pub fn check_readme(readme: &str) -> Result<(), String> {
    let Some(block) = readme_table_block(readme) else {
        return Err(
            "README.md has no `<!-- om-env-table:begin -->` / `<!-- om-env-table:end -->` \
             block to hold the generated table"
                .to_string(),
        );
    };
    let rendered = render_table();
    if block.trim() == rendered.trim() {
        Ok(())
    } else {
        Err(format!(
            "README.md env-var table has drifted from the registry.\n\
             Regenerate it: `cargo lint -- --env-table` and paste between the markers.\n\
             --- registry renders ---\n{rendered}\
             --- README contains ---\n{block}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        let names: Vec<&str> = REGISTRY.iter().map(|v| v.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted, "REGISTRY must stay alphabetical and unique");
    }

    #[test]
    fn om_name_extracts_prefixes() {
        assert_eq!(om_name("OM_THREADS"), Some("OM_THREADS"));
        assert_eq!(om_name("OM_FAULT=ckpt-save:1"), Some("OM_FAULT"));
        assert_eq!(om_name("OMAB"), None);
        assert_eq!(om_name("OM_"), None);
        assert_eq!(om_name("set OM_THREADS"), None);
    }

    #[test]
    fn readme_block_roundtrip() {
        let readme = format!(
            "# X\n<!-- om-env-table:begin -->\n{}<!-- om-env-table:end -->\n",
            render_table()
        );
        assert!(check_readme(&readme).is_ok());
        assert!(check_readme("# X\nno markers\n").is_err());
        let drifted = readme.replace("OM_THREADS", "OM_THREADZ");
        assert!(check_readme(&drifted).is_err());
    }
}

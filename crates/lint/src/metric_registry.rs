//! The central registry of every metric name the workspace emits, and
//! the pass that keeps it honest — the metric twin of
//! [`crate::env_registry`].
//!
//! Scope: the namespaced families `serve.*`, `train.*` and `load.*` —
//! the names that cross module boundaries into `events.jsonl`,
//! `/metrics` scrapes and run manifests, where a silent rename breaks
//! dashboards and baselines. (Kernel-internal series like `gemm.*` /
//! `runtime.*` stay local to their crate and out of scope.) Every such
//! name is declared here once — name, kind, emitting crate, one-line doc.
//!
//! The pass scans every string literal in the tree: a literal that *is*
//! a metric name in a scoped family but is not declared fails the lint
//! (no undocumented series), and a declared name with no remaining
//! emission site fails too (no zombie docs). Matching whole literals —
//! rather than `counter(...)` call shapes — catches indirect emission
//! through helpers, the [`om_obs::metrics`] registry, manifest keys and
//! health-probe names alike.
//!
//! `cargo lint -- --metric-table` renders the registry as the markdown
//! table README embeds between `<!-- om-metric-table:begin -->` /
//! `<!-- om-metric-table:end -->`; `--metric-table --check` diffs the
//! rendered table against that block so CI fails when they diverge.
//!
//! `crates/lint` itself is out of scope of the scan: this file *is* the
//! registry, and lint fixtures legitimately spell fake names.

use std::collections::BTreeSet;

use crate::lexer::{LexedFile, TokenKind};
use crate::passes::Violation;

/// One declared metric name.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Full dotted name (`serve.*`, `train.*` or `load.*`).
    pub name: &'static str,
    /// What it is: `counter`, `gauge`, `histogram`, `manifest` (a run
    /// manifest key) or `health` (a `/healthz` probe name).
    pub kind: &'static str,
    /// The crate that emits it.
    pub emitter: &'static str,
    /// One-line description.
    pub doc: &'static str,
}

/// Every scoped metric name the workspace emits, alphabetical.
pub const REGISTRY: &[Metric] = &[
    Metric {
        name: "serve.arena.items",
        kind: "counter",
        emitter: "om-serve",
        doc: "items encoded into the item arena at engine build",
    },
    Metric {
        name: "serve.arena.warm_users",
        kind: "counter",
        emitter: "om-serve",
        doc: "warm users cached in the user arena at engine build",
    },
    Metric {
        name: "serve.batch_wait",
        kind: "histogram",
        emitter: "om-serve",
        doc: "ns from worker dequeue to microbatch close, per request",
    },
    Metric {
        name: "serve.blob.opens",
        kind: "counter",
        emitter: "om-serve",
        doc: "OMAB arena blobs opened and verified",
    },
    Metric {
        name: "serve.catalogue",
        kind: "manifest",
        emitter: "om-experiments",
        doc: "catalogue size recorded by the serving smoke",
    },
    Metric {
        name: "serve.e2e",
        kind: "histogram",
        emitter: "om-serve",
        doc: "ns from admission to reply, per request (the front-end total)",
    },
    Metric {
        name: "serve.flush_ns",
        kind: "histogram",
        emitter: "om-serve",
        doc: "wall time of one engine flush (either engine)",
    },
    Metric {
        name: "serve.flushes",
        kind: "counter",
        emitter: "om-serve",
        doc: "microbatch flushes through either engine",
    },
    Metric {
        name: "serve.frontend.admitted",
        kind: "counter",
        emitter: "om-serve",
        doc: "requests accepted past the admission gate",
    },
    Metric {
        name: "serve.frontend.flushes",
        kind: "counter",
        emitter: "om-serve",
        doc: "microbatch flushes executed by the front-end worker",
    },
    Metric {
        name: "serve.frontend.in_flight",
        kind: "gauge",
        emitter: "om-serve",
        doc: "accepted requests not yet replied to",
    },
    Metric {
        name: "serve.frontend.interactions",
        kind: "counter",
        emitter: "om-serve",
        doc: "streamed interactions accepted through submit_interaction",
    },
    Metric {
        name: "serve.frontend.queue_depth",
        kind: "gauge",
        emitter: "om-serve",
        doc: "requests currently in the bounded queue",
    },
    Metric {
        name: "serve.frontend.queue_hwm",
        kind: "gauge",
        emitter: "om-serve",
        doc: "high-water mark of the bounded queue depth",
    },
    Metric {
        name: "serve.frontend.rejected",
        kind: "counter",
        emitter: "om-serve",
        doc: "submits shed by admission control (queue full)",
    },
    Metric {
        name: "serve.frontend.rejected_shutdown",
        kind: "counter",
        emitter: "om-serve",
        doc: "submits rejected because the front-end was shut (or shutting) down",
    },
    Metric {
        name: "serve.frontend.scorer_errors",
        kind: "counter",
        emitter: "om-serve",
        doc: "flushes whose scorer returned an error",
    },
    Metric {
        name: "serve.frontend.served",
        kind: "counter",
        emitter: "om-serve",
        doc: "requests scored and replied to by the front-end",
    },
    Metric {
        name: "serve.graduations",
        kind: "counter",
        emitter: "om-serve",
        doc: "users graduated cold→warm by crossing OM_SERVE_WARM_AFTER interactions",
    },
    Metric {
        name: "serve.merge",
        kind: "histogram",
        emitter: "om-serve",
        doc: "ns of the per-request top-K merge inside one flush",
    },
    Metric {
        name: "serve.mmap.maps",
        kind: "counter",
        emitter: "om-serve",
        doc: "arena blobs memory-mapped",
    },
    Metric {
        name: "serve.online_ok",
        kind: "manifest",
        emitter: "om-experiments",
        doc: "the online-graduation smoke completed all its checks",
    },
    Metric {
        name: "serve.quant.mae",
        kind: "manifest",
        emitter: "om-experiments",
        doc: "mean absolute quantized-vs-f32 score delta in the quantized serving smoke",
    },
    Metric {
        name: "serve.quant.rmse",
        kind: "manifest",
        emitter: "om-experiments",
        doc: "RMSE of quantized vs f32 scores in the quantized serving smoke",
    },
    Metric {
        name: "serve.queue_room",
        kind: "health",
        emitter: "om-serve",
        doc: "readiness probe: the bounded queue is below capacity",
    },
    Metric {
        name: "serve.queue_wait",
        kind: "histogram",
        emitter: "om-serve",
        doc: "ns from admission to worker dequeue, per request",
    },
    Metric {
        name: "serve.requests",
        kind: "counter",
        emitter: "om-serve",
        doc: "requests scored by either engine",
    },
    Metric {
        name: "serve.score",
        kind: "histogram",
        emitter: "om-serve",
        doc: "ns of the fused scoring forward inside one flush",
    },
    Metric {
        name: "serve.scorer_ready",
        kind: "health",
        emitter: "om-serve",
        doc: "readiness probe: scorer factory finished (model loaded, arena mapped)",
    },
    Metric {
        name: "serve.smoke_ok",
        kind: "manifest",
        emitter: "om-experiments",
        doc: "the serving smoke completed all its checks",
    },
    Metric {
        name: "serve.update.errors",
        kind: "counter",
        emitter: "om-serve",
        doc: "online updates refused (the old generation kept serving)",
    },
    Metric {
        name: "serve.update.events",
        kind: "counter",
        emitter: "om-serve",
        doc: "streamed interactions ingested by the engines",
    },
    Metric {
        name: "serve.update.generation",
        kind: "gauge",
        emitter: "om-serve",
        doc: "currently published user-arena generation number",
    },
    Metric {
        name: "serve.update.swaps",
        kind: "counter",
        emitter: "om-serve",
        doc: "user-arena generations hot-swapped in by online updates",
    },
    Metric {
        name: "serve.users",
        kind: "manifest",
        emitter: "om-experiments",
        doc: "scenario users recorded by the serving smoke",
    },
    Metric {
        name: "serve.worker_alive",
        kind: "health",
        emitter: "om-serve",
        doc: "readiness probe: the front-end worker thread is running",
    },
    Metric {
        name: "train.best_epoch",
        kind: "manifest",
        emitter: "omnimatch-core",
        doc: "best validation epoch of a fit",
    },
    Metric {
        name: "train.samples",
        kind: "manifest",
        emitter: "omnimatch-core",
        doc: "training samples consumed by a fit",
    },
    Metric {
        name: "train.seconds",
        kind: "manifest",
        emitter: "omnimatch-core",
        doc: "wall-clock seconds of a fit",
    },
];

/// Whether `name` is declared.
pub fn declared(name: &str) -> bool {
    REGISTRY.iter().any(|m| m.name == name)
}

/// The metric name a string literal spells, if any: the *whole* literal
/// must be a dotted lowercase name in a scoped family (so prose like
/// `"serve: arenas ready"` or error text never matches).
fn metric_name(literal: &str) -> Option<&str> {
    let scoped = ["serve.", "train.", "load."]
        .iter()
        .any(|fam| literal.starts_with(fam));
    if !scoped || literal.ends_with('.') || literal.contains("..") {
        return None;
    }
    literal
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
        .then_some(literal)
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
        let Some(name) = metric_name(s) else {
            continue;
        };
        if declared(name) {
            used.insert(name.to_string());
        } else {
            v.push(Violation {
                file: rel.to_string(),
                line: t.line,
                rule: "metric-registry",
                msg: format!(
                    "undeclared metric name `{name}`: declare it in \
                     `om_lint::metric_registry::REGISTRY` (name, kind, emitter, doc) \
                     so `cargo lint -- --metric-table` documents it"
                ),
            });
        }
    }
    v
}

/// Registry entries no file emits any more.
pub fn check_stale(used: &BTreeSet<String>) -> Vec<Violation> {
    REGISTRY
        .iter()
        .filter(|m| !used.contains(m.name))
        .map(|m| Violation {
            file: "crates/lint/src/metric_registry.rs".to_string(),
            line: 1,
            rule: "metric-registry",
            msg: format!(
                "registry entry `{}` has no remaining emission site in the tree: remove \
                 the entry (and its README table row via `cargo lint -- --metric-table`)",
                m.name
            ),
        })
        .collect()
}

/// Render the registry as the markdown table README embeds.
pub fn render_table() -> String {
    let mut out = String::from("| metric | kind | emitter | description |\n|---|---|---|---|\n");
    for m in REGISTRY {
        out.push_str(&format!(
            "| `{}` | {} | `{}` | {} |\n",
            m.name, m.kind, m.emitter, m.doc
        ));
    }
    out
}

/// The README block between the `om-metric-table` markers, if present.
pub fn readme_table_block(readme: &str) -> Option<String> {
    let mut lines = readme.lines();
    lines.by_ref().find(|l| l.contains("om-metric-table:begin"))?;
    let mut block = String::new();
    for l in lines {
        if l.contains("om-metric-table:end") {
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
            "README.md has no `<!-- om-metric-table:begin -->` / `<!-- om-metric-table:end -->` \
             block to hold the generated table"
                .to_string(),
        );
    };
    let rendered = render_table();
    if block.trim() == rendered.trim() {
        Ok(())
    } else {
        Err(format!(
            "README.md metric table has drifted from the registry.\n\
             Regenerate it: `cargo lint -- --metric-table` and paste between the markers.\n\
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
        let names: Vec<&str> = REGISTRY.iter().map(|m| m.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted, "REGISTRY must stay alphabetical and unique");
    }

    #[test]
    fn kinds_are_from_the_known_set() {
        for m in REGISTRY {
            assert!(
                matches!(m.kind, "counter" | "gauge" | "histogram" | "manifest" | "health"),
                "unknown kind `{}` on `{}`",
                m.kind,
                m.name
            );
        }
    }

    #[test]
    fn metric_name_matches_whole_literals_only() {
        assert_eq!(metric_name("serve.e2e"), Some("serve.e2e"));
        assert_eq!(metric_name("load.request_latency_ns"), Some("load.request_latency_ns"));
        assert_eq!(metric_name("train.best_epoch"), Some("train.best_epoch"));
        assert_eq!(metric_name("serve: arenas ready"), None, "prose never matches");
        assert_eq!(metric_name("serve queue full"), None);
        assert_eq!(metric_name("serve."), None);
        assert_eq!(metric_name("serve..x"), None);
        assert_eq!(metric_name("serve.E2E"), None, "names are lowercase");
        assert_eq!(metric_name("gemm.flops"), None, "out-of-scope family");
    }

    #[test]
    fn readme_block_roundtrip() {
        let readme = format!(
            "# X\n<!-- om-metric-table:begin -->\n{}<!-- om-metric-table:end -->\n",
            render_table()
        );
        assert!(check_readme(&readme).is_ok());
        assert!(check_readme("# X\nno markers\n").is_err());
        let drifted = readme.replace("serve.e2e", "serve.e2e_renamed");
        assert!(check_readme(&drifted).is_err());
    }
}

//! `cargo obs-report [DIR]` — summarize an observability run artifact.
//!
//! `DIR` may be a run directory (containing `events.jsonl`) or a parent
//! (e.g. `results/obs`), in which case the most recently modified run
//! below it is picked. With no argument, the default sink root is used.
//!
//! Exits non-zero when the artifact is missing or fails schema
//! validation, so CI can gate on it.

use std::path::{Path, PathBuf};

#[expect(clippy::disallowed_types, reason = "picks the newest run directory by file mtime; never enters a result")]
fn find_run_dir(path: &Path) -> Option<PathBuf> {
    if path.join("events.jsonl").is_file() {
        return Some(path.to_path_buf());
    }
    let entries = std::fs::read_dir(path).ok()?;
    let mut best: Option<(std::time::SystemTime, PathBuf)> = None;
    for entry in entries.flatten() {
        let dir = entry.path();
        let events = dir.join("events.jsonl");
        if !events.is_file() {
            continue;
        }
        let mtime = events
            .metadata()
            .and_then(|m| m.modified())
            .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        if best.as_ref().is_none_or(|(t, _)| mtime > *t) {
            best = Some((mtime, dir));
        }
    }
    best.map(|(_, d)| d)
}

fn main() {
    let arg = std::env::args().nth(1);
    let root = arg.map(PathBuf::from).unwrap_or_else(om_obs::out_root);
    let Some(run_dir) = find_run_dir(&root) else {
        eprintln!(
            "obs-report: no run artifact (events.jsonl) under {} — run something with OM_OBS=1 first",
            root.display()
        );
        std::process::exit(2);
    };
    match om_obs::report::summarize(&run_dir) {
        Ok(text) => {
            println!("artifact: {}", run_dir.display());
            println!("{text}");
        }
        Err(e) => {
            eprintln!("obs-report: invalid artifact {}: {e}", run_dir.display());
            std::process::exit(1);
        }
    }
}

//! Shared harness for the tests that run `om-smoke` as a child process.
//!
//! Faults and checkpointing are configured purely through each child's
//! environment, so no test mutates its own process env and all are safe
//! under the parallel test runner. Each child gets its own empty working
//! directory and its own OS temp dir, so their `results/` trees and
//! scratch directories cannot collide, and what a run leaves behind can
//! be checked.

#![allow(dead_code, reason = "each test binary uses a different subset of these helpers")]

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh, empty directory for one test, unique per test process.
pub fn tmp_root(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("om-smoke-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// `om-smoke <args>` with working directory `root/<cwd>` (created empty)
/// and OS temp dir `root/tmp`. Inherited `OM_FAULT`, `OM_CKPT*` and
/// `OM_OBS_DIR` are cleared; a test sets the ones it needs.
pub fn om_smoke(root: &Path, cwd: &str, args: &[&str]) -> Command {
    let dir = root.join(cwd);
    std::fs::create_dir_all(&dir).unwrap();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_om-smoke"));
    cmd.args(args)
        .current_dir(dir)
        .env("TMPDIR", root.join("tmp"));
    for var in [
        "OM_FAULT",
        "OM_CKPT",
        "OM_CKPT_DIR",
        "OM_CKPT_EVERY",
        "OM_OBS_DIR",
    ] {
        cmd.env_remove(var);
    }
    cmd
}

/// Sorted entry names of `dir` (empty if it does not exist).
pub fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

/// A finished clean run left nothing behind but `results/` in its working
/// directory `root/<cwd>`, and removed its scratch dir from `root/tmp`.
pub fn assert_only_results_left(root: &Path, cwd: &str) {
    assert_eq!(
        entries(&root.join(cwd)),
        ["results"],
        "stray files in the child's cwd"
    );
    assert!(
        entries(&root.join("tmp")).is_empty(),
        "the child left its scratch dir behind"
    );
}

/// Every file under `dir` (recursively) whose name satisfies `pred`.
pub fn find_files(dir: &Path, pred: impl Fn(&Path) -> bool) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(rd) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if pred(&p) {
                found.push(p);
            }
        }
    }
    found
}

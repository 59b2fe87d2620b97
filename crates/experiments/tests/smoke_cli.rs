//! `om-smoke`'s command line: a missing, unknown or malformed subcommand
//! exits 2 with the usage line on stderr — never a panic, and before any
//! training starts.

mod common;

use common::{om_smoke, tmp_root};

#[test]
fn bad_invocations_exit_2_with_usage() {
    let root = tmp_root("cli");
    for args in [&[][..], &["bogus"], &["train"], &["serve", "extra"]] {
        let out = om_smoke(&root, "cwd", args)
            .output()
            .expect("spawn om-smoke");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "om-smoke {args:?}: {stderr}");
        assert!(
            stderr.starts_with("usage: om-smoke"),
            "om-smoke {args:?}: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "om-smoke {args:?} panicked: {stderr}"
        );
        assert!(out.stdout.is_empty(), "om-smoke {args:?} wrote to stdout");
    }
    let _ = std::fs::remove_dir_all(&root);
}

//! Online graduation from the outside: run `om-smoke online` as a child
//! process and assert
//!
//! * a clean run exits 0, reports post-swap scores equal to the cold
//!   rebuild, and leaves nothing but `results/` in its working directory;
//! * a run killed by `OM_FAULT=swap:1` — after the first shadow arena is
//!   built, before its generation is installed — exits with the fault
//!   code having printed `pre-swap generation 0` and no `post-swap`
//!   line: a killed swap leaves the old generation serving.

mod common;

use common::{assert_only_results_left, om_smoke, tmp_root};

#[test]
fn clean_online_smoke_graduates_and_cleans_up() {
    let root = tmp_root("online-clean");
    let out = om_smoke(&root, "cwd", &["online"])
        .output()
        .expect("spawn online smoke");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "online smoke failed: {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("post-swap generation"),
        "no swap reported:\n{stdout}"
    );
    assert!(
        stdout.contains("equal the cold rebuild bitwise"),
        "no parity line:\n{stdout}"
    );
    assert_only_results_left(&root, "cwd");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn killed_swap_leaves_the_old_generation_serving() {
    let root = tmp_root("online-fault");
    let out = om_smoke(&root, "cwd", &["online"])
        .env("OM_FAULT", "swap:1")
        .output()
        .expect("spawn faulted online smoke");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(om_obs::fault::EXIT_CODE),
        "a killed swap must die with the fault-injection exit code:\n{stdout}"
    );
    assert!(
        stdout.contains("pre-swap generation 0"),
        "no pre-swap marker:\n{stdout}"
    );
    assert!(
        !stdout.contains("post-swap"),
        "a killed swap installed a generation:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

//! Kill-and-resume chaos test: run `om-smoke train` to completion, kill a
//! second copy mid-checkpoint-write with `OM_FAULT`, resume it from the
//! surviving checkpoints, and require the resumed run's final parameter
//! bytes to be **bitwise identical** to the uninterrupted run's.

mod common;

use std::path::Path;

use common::{assert_only_results_left, find_files, om_smoke, tmp_root};

/// Leftover `*.tmp` files (torn checkpoint writes) under `dir`.
fn tmp_strays(dir: &Path) -> Vec<std::path::PathBuf> {
    find_files(dir, |p| p.extension().is_some_and(|x| x == "tmp"))
}

#[test]
fn killed_and_resumed_run_matches_clean_run_bitwise() {
    let root = tmp_root("chaos");
    let ckpt_dir = root.join("ckpt");
    let clean_blob = root.join("clean.params");
    let faulted_blob = root.join("faulted.params");
    let resumed_blob = root.join("resumed.params");
    let train = |cwd: &str, out: &Path| om_smoke(&root, cwd, &["train", out.to_str().unwrap()]);

    // 1. Clean reference run: no checkpointing, no faults. It leaves only
    //    `results/` behind.
    let status = train("clean", &clean_blob)
        .status()
        .expect("spawn clean run");
    assert!(status.success(), "clean run failed: {status:?}");
    assert_only_results_left(&root, "clean");

    // 2. Faulted run: checkpoint every epoch, die on the 2nd checkpoint
    //    save — after the tmp file is written and fsynced, before the
    //    rename. The first epoch's checkpoint survives; the second is torn.
    let status = train("faulted", &faulted_blob)
        .env("OM_CKPT", "1")
        .env("OM_CKPT_DIR", &ckpt_dir)
        .env("OM_FAULT", "ckpt-save:2")
        .status()
        .expect("spawn faulted run");
    assert_eq!(
        status.code(),
        Some(om_obs::fault::EXIT_CODE),
        "faulted run must die with the fault-injection exit code"
    );
    assert!(
        !faulted_blob.exists(),
        "a killed run must not produce output"
    );
    assert!(
        !tmp_strays(&ckpt_dir).is_empty(),
        "the kill lands mid-save, so a torn .tmp must be on disk"
    );

    // 3. Resume: same checkpoint directory, fault disarmed. Training picks
    //    up from the surviving epoch-0 checkpoint and runs to completion.
    let status = train("resumed", &resumed_blob)
        .env("OM_CKPT", "1")
        .env("OM_CKPT_DIR", &ckpt_dir)
        .status()
        .expect("spawn resumed run");
    assert!(status.success(), "resumed run failed: {status:?}");

    let clean = std::fs::read(&clean_blob).unwrap();
    let resumed = std::fs::read(&resumed_blob).unwrap();
    assert!(!clean.is_empty());
    assert_eq!(
        clean, resumed,
        "resumed parameters must be bitwise identical to the clean run"
    );
    assert!(
        tmp_strays(&ckpt_dir).is_empty(),
        "the resume scan must clean torn .tmp files"
    );
    let _ = std::fs::remove_dir_all(&root);
}

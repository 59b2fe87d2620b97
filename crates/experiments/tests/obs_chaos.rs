//! Chaos coverage for the serving telemetry plane, from the outside: run
//! `om-smoke serve` as a child process and assert
//!
//! * a clean run exits 0, leaves the scraped `/metrics` body (with all
//!   five per-request stage histograms) in its artifact directory, and
//!   leaves nothing but `results/` in its working directory;
//! * a run killed by `OM_FAULT=scorer:2` — the injected fault on the
//!   front-end's second microbatch flush — exits with the fault code and
//!   dumps a parseable `flightrec.jsonl` postmortem holding the requests
//!   the first flush served.

mod common;

use std::path::{Path, PathBuf};

use common::{assert_only_results_left, find_files, om_smoke, tmp_root};

/// The one file named `name` under `dir`, if any.
fn find_file(dir: &Path, name: &str) -> Option<PathBuf> {
    find_files(dir, |p| p.file_name().is_some_and(|f| f == name)).pop()
}

#[test]
fn clean_smoke_exits_zero_and_archives_the_scrape() {
    let root = tmp_root("obs-clean");
    let out = om_smoke(&root, "cwd", &["serve"])
        .env("OM_OBS_ADDR", "127.0.0.1:0")
        .output()
        .expect("spawn clean smoke");
    assert!(
        out.status.success(),
        "clean smoke failed: {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    // The last stdout line is the artifact directory, relative to the
    // child's working directory.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rel = stdout.lines().last().expect("smoke prints its artifact dir");
    let dir = root.join("cwd").join(rel);
    let metrics = std::fs::read_to_string(dir.join("metrics.txt")).expect("archived scrape");
    for hist in
        ["serve_queue_wait", "serve_batch_wait", "serve_score", "serve_merge", "serve_e2e"]
    {
        assert!(
            metrics.contains(&format!("# TYPE {hist} histogram")),
            "archived /metrics is missing `{hist}`"
        );
    }
    assert!(dir.join("statz.json").is_file());
    assert!(dir.join("healthz.txt").is_file());
    assert!(
        find_file(&dir, "flightrec.jsonl").is_none(),
        "a clean run must not leave a postmortem"
    );
    assert_only_results_left(&root, "cwd");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn faulted_smoke_exits_86_and_dumps_the_flight_recorder() {
    let root = tmp_root("obs-fault");
    let status = om_smoke(&root, "cwd", &["serve"])
        .env("OM_OBS_ADDR", "127.0.0.1:0")
        // The 2nd flush dies, so the 1st flush's served records are in
        // the ring when the postmortem is written.
        .env("OM_FAULT", "scorer:2")
        .status()
        .expect("spawn faulted smoke");
    assert_eq!(
        status.code(),
        Some(om_obs::fault::EXIT_CODE),
        "faulted smoke must die with the fault-injection exit code"
    );

    let dump = find_file(&root, "flightrec.jsonl").expect("fault must dump flightrec.jsonl");
    let text = std::fs::read_to_string(&dump).expect("read postmortem");
    let (reason, records) =
        om_obs::flightrec::parse_dump(&text).expect("postmortem parses as flightrec JSONL");
    assert_eq!(reason, "fault:scorer");
    assert!(!records.is_empty(), "the first flush's records must be retained");
    assert!(
        records.iter().all(|r| {
            r.get("event").and_then(om_obs::json::Json::as_str) == Some("served")
                && r.get("e2e_ns").and_then(om_obs::json::Json::as_u64).is_some()
        }),
        "postmortem records carry the served event and stage timings:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

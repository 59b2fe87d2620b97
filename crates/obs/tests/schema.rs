//! JSONL event-schema round-trip: emit a representative mix of records
//! through the real sinks, then parse every emitted line back and validate
//! it against the schema — the same [`om_obs::report::validate_events`]
//! the CI smoke job and `obs-report` apply.

use std::collections::BTreeMap;
use std::path::Path;

use om_obs::json::Json;
use om_obs::report::validate_events;
use om_obs::{metrics, Value};

fn temp_root(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("om-obs-schema-{tag}-{}", std::process::id()))
}

/// Serialises the tests in this binary: both toggle the process-global
/// enable flag and sink root.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn emitted_stream_round_trips_through_the_schema() {
    let _g = lock();
    let root = temp_root("roundtrip");
    let _ = std::fs::remove_dir_all(&root);
    let prev_root = om_obs::set_out_root(&root);
    let prev = om_obs::set_enabled(true);

    // One of everything the sinks can write.
    assert!(om_obs::run_begin("schema-test"));
    om_obs::emit(
        "epoch",
        &[
            ("epoch", Value::from(0usize)),
            ("total", Value::from(1.25f64)),
            ("rating", Value::from(0.75f32)),
            ("scl", Value::from(0.25f64)),
            ("domain", Value::from(0.25f64)),
        ],
    );
    om_obs::emit(
        "weird chars",
        &[("msg", Value::from("quotes \" backslash \\ newline \n tab \t unicode →"))],
    );
    {
        let _outer = om_obs::span("test.outer");
        let _inner = om_obs::span("test.inner");
    }
    om_obs::trace::busy_add(12_345);
    metrics::counter("test.flops").add(1_000_000);
    metrics::gauge("test.depth").set(3);
    let h = metrics::histogram("test.latency");
    for v in [1u64, 10, 100, 1000, 10_000] {
        h.record(v);
    }
    om_obs::manifest_set("seed", Value::from(7u64));
    om_obs::info!("hello from the schema test");

    let dir = om_obs::run_finish().expect("run should write its artifact");
    om_obs::set_enabled(prev);
    match prev_root {
        Some(p) => {
            om_obs::set_out_root(p);
        }
        None => {
            om_obs::set_out_root(om_obs::out_root());
        }
    }

    // --- events.jsonl: every line parses and satisfies the schema ---
    let text = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
    let stats = validate_events(&text).unwrap_or_else(|e| panic!("schema violation: {e}"));
    assert!(stats.spans >= 2, "both spans present: {stats:?}");
    assert!(stats.metrics >= 3, "counter+gauge+hist present: {stats:?}");
    assert!(stats.logs >= 1, "log line present: {stats:?}");
    assert!(stats.events >= 3, "epoch + weird + thread_busy: {stats:?}");

    // Values survive the round trip exactly.
    let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    let epoch = lines
        .iter()
        .find(|l| l.get("kind").and_then(Json::as_str) == Some("epoch"))
        .expect("epoch event");
    assert_eq!(epoch.get("total").and_then(Json::as_f64), Some(1.25));
    assert_eq!(epoch.get("epoch").and_then(Json::as_u64), Some(0));
    let weird = lines
        .iter()
        .find(|l| l.get("kind").and_then(Json::as_str) == Some("weird chars"))
        .expect("weird event");
    assert_eq!(
        weird.get("msg").and_then(Json::as_str),
        Some("quotes \" backslash \\ newline \n tab \t unicode →")
    );
    let hist = lines
        .iter()
        .find(|l| l.get("kind").and_then(Json::as_str) == Some("hist"))
        .expect("hist snapshot");
    assert_eq!(hist.get("count").and_then(Json::as_u64), Some(5));
    assert_eq!(hist.get("sum").and_then(Json::as_u64), Some(11_111));

    // --- trace.json: valid JSON, Chrome trace shape ---
    let trace = Json::parse(&std::fs::read_to_string(dir.join("trace.json")).unwrap()).unwrap();
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let complete: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert!(complete.len() >= 2, "span events exported");
    for e in &complete {
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("ts").and_then(Json::as_f64).is_some());
        assert!(e.get("dur").and_then(Json::as_f64).is_some());
        assert!(e.get("tid").and_then(Json::as_u64).is_some());
    }
    assert!(
        events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("M")),
        "thread metadata exported"
    );

    // --- manifest.json ---
    let manifest = Json::parse(&std::fs::read_to_string(dir.join("manifest.json")).unwrap()).unwrap();
    assert_eq!(manifest.get("run").and_then(Json::as_str), Some("schema-test"));
    assert_eq!(
        manifest.get("meta").and_then(|m| m.get("seed")).and_then(Json::as_u64),
        Some(7)
    );

    // --- and the full report renders ---
    let report = om_obs::report::summarize(&dir).unwrap();
    assert!(report.contains("top spans by self-time"), "{report}");
    assert!(report.contains("test.outer"), "{report}");
    assert!(report.contains("loss curves"), "{report}");
    assert!(report.contains("test.latency"), "{report}");

    let _ = std::fs::remove_dir_all(&root);
}

/// The `counter` and `hist` lines of a run's `events.jsonl`, by name.
fn metric_lines(dir: &Path) -> BTreeMap<String, Json> {
    let text = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
    validate_events(&text).unwrap_or_else(|e| panic!("schema violation: {e}"));
    text.lines()
        .map(|l| Json::parse(l).unwrap())
        .filter(|l| matches!(l.get("kind").and_then(Json::as_str), Some("counter" | "hist")))
        .map(|l| (l.get("name").and_then(Json::as_str).unwrap().to_string(), l))
        .collect()
}

#[test]
fn consecutive_runs_each_write_only_their_own_metric_deltas() {
    let _g = lock();
    let root = temp_root("windows");
    let _ = std::fs::remove_dir_all(&root);
    let prev_root = om_obs::set_out_root(&root);
    let prev = om_obs::set_enabled(true);

    let count = metrics::counter("window.count");
    let lat = metrics::histogram("window.lat");
    // Recorded between runs: belongs to the next window only.
    metrics::counter("window.idle").add(1);

    assert!(om_obs::run_begin("window-a"));
    count.add(2);
    lat.record(10);
    let first = om_obs::run_finish().expect("first run written");

    assert!(om_obs::run_begin("window-b"));
    count.add(5);
    lat.record(1000);
    lat.record(1000);
    let second = om_obs::run_finish().expect("second run written");

    om_obs::set_enabled(prev);
    match prev_root {
        Some(p) => {
            om_obs::set_out_root(p);
        }
        None => {
            om_obs::set_out_root(om_obs::out_root());
        }
    }

    let (a, b) = (metric_lines(&first), metric_lines(&second));
    let field = |lines: &BTreeMap<String, Json>, name: &str, key: &str| {
        lines.get(name).and_then(|l| l.get(key)).and_then(Json::as_u64)
    };
    assert_eq!(field(&a, "window.count", "value"), Some(2));
    assert_eq!(field(&b, "window.count", "value"), Some(5));
    assert_eq!(field(&a, "window.lat", "count"), Some(1));
    assert_eq!(field(&a, "window.lat", "sum"), Some(10));
    assert_eq!(field(&b, "window.lat", "count"), Some(2));
    assert_eq!(field(&b, "window.lat", "sum"), Some(2000));
    assert_eq!(
        b.get("window.lat").and_then(|l| l.get("buckets")).map(Json::to_string),
        Some("[[10,2]]".to_string()),
        "the second window holds only its own samples"
    );
    assert_eq!(field(&a, "window.idle", "value"), Some(1));
    assert!(!b.contains_key("window.idle"), "a series that did not move is omitted");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn disabled_observability_emits_nothing() {
    let _g = lock();
    let root = temp_root("disabled");
    let _ = std::fs::remove_dir_all(&root);
    let prev_root = om_obs::set_out_root(&root);
    let prev = om_obs::set_enabled(false);

    om_obs::emit("epoch", &[("total", Value::from(1.0f64))]);
    let _s = om_obs::span("dead");
    assert!(!om_obs::run_begin("dead-run"));
    assert!(om_obs::run_finish().is_none());
    assert!(!root.exists(), "disabled sink must not touch the filesystem");

    om_obs::set_enabled(prev);
    if let Some(p) = prev_root {
        om_obs::set_out_root(p);
    }
}

//! The runtime's observability hooks, exercised against the real worker
//! pool: a pooled dispatch must record the dispatch/task/join spans, bump
//! the dispatch counters, and attribute per-worker busy time — all without
//! changing the kernel's result (the parity suite's bitwise contract).
//!
//! On a 1-core machine (`max_threads() == 1`, e.g. `OM_THREADS=1` CI) the
//! pool cannot engage, so only the inline-path accounting is checked.

use std::collections::BTreeSet;

use om_tensor::{kernels, runtime};

fn counter(window: &om_obs::metrics::Snapshot, name: &str) -> u64 {
    match window.metrics.get(name) {
        Some(om_obs::metrics::MetricValue::Counter(value)) => *value,
        _ => 0,
    }
}

#[test]
fn dispatch_records_spans_and_busy_time() {
    let prev = runtime::set_threads(4);
    om_obs::set_enabled(true);
    let _ = om_obs::trace::drain(); // discard spans from earlier warm-up
    let before = om_obs::metrics::snapshot();

    let n = 1 << 20; // many REDUCE_CHUNKs → dispatches whenever threads > 1
    let x: Vec<f32> = (0..n).map(|i| (i % 17) as f32 * 0.25).collect();
    let expected = kernels::sum_serial(&x);
    let got = kernels::sum(&x);

    om_obs::set_enabled(false);
    runtime::set_threads(prev);
    let threads = om_obs::trace::drain();
    let metrics = om_obs::metrics::snapshot().since(&before);

    // Instrumentation is result-neutral (and the sum is bit-exact anyway).
    assert_eq!(got.to_bits(), expected.to_bits());

    if runtime::max_threads() == 1 {
        // Pool can't engage on this machine: the run must be accounted as
        // inline, with no dispatch spans.
        assert!(counter(&metrics, "runtime.inline_runs") >= 1);
        assert_eq!(counter(&metrics, "runtime.dispatches"), 0);
        return;
    }

    let names: BTreeSet<&str> = threads
        .iter()
        .flat_map(|t| t.spans.iter().map(|s| s.name))
        .collect();
    assert!(names.contains("runtime.parallel_for"), "spans seen: {names:?}");
    assert!(names.contains("runtime.join"), "spans seen: {names:?}");
    assert!(
        names.contains("runtime.task"),
        "workers must record task spans: {names:?}"
    );
    let busy: u64 = threads.iter().map(|t| t.busy_ns).sum();
    assert!(busy > 0, "busy time must be attributed");
    let busy_threads = threads.iter().filter(|t| t.busy_ns > 0).count();
    assert!(
        busy_threads >= 2,
        "caller and at least one worker must log busy time ({busy_threads} did)"
    );

    // The dispatch counters moved too.
    assert!(counter(&metrics, "runtime.dispatches") >= 1);
    assert!(counter(&metrics, "runtime.tasks") >= 2);
}

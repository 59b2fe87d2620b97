//! Serving benchmark: replays a synthetic request trace through the
//! microbatching engine and writes `BENCH_serve.json`.
//!
//! Trace construction, the virtual-clock replay loop, and the summary
//! schema live in `om_bench::replay`, shared with `load_bench` (the
//! million-user sharded variant); this binary keeps the small-catalogue
//! single-arena measurement the committed baseline tracks. The reported
//! latency percentiles and the `bench_json`-schema summaries that
//! `bench_gate` compares read the same exact f64 samples.
//!
//! Usage: `cargo run --release -p om-bench --bin serve_bench [out_dir]`.

use std::collections::BTreeMap;
use std::time::Instant;

use om_bench::bench_scenario;
use om_bench::replay::{build_trace, percentile, replay_trace, sorted, summarize, Arrival};
use om_obs::json::Json;
use om_serve::{ServeEngine, ServeOptions};
use omnimatch_core::{OmniMatchConfig, Trainer};

const REQUESTS: usize = 400;
/// Mean virtual inter-arrival gap; ~1/3 of the batcher deadline so most
/// flushes fill up and a tail flushes on the deadline — both paths hot.
const MEAN_GAP_US: u64 = 650;
/// Trace replays: one discarded warmup, then this many measured. Flush
/// compute is tens of microseconds, so medians need the pooled samples
/// to be stable enough for the regression gate.
const REPLAYS: usize = 3;

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    std::fs::create_dir_all(&out_dir).expect("create benchmark output dir");

    // ---- model + engine -------------------------------------------------
    let scenario = bench_scenario();
    let trained = Trainer::new(OmniMatchConfig::fast().with_seed(5)).fit(&scenario);
    let warm = scenario.train_users.clone();
    let (model, views, _) = trained.into_parts();
    let users = views.users().to_vec();

    let t0 = Instant::now();
    let opts = ServeOptions::from_env().expect("serve env misconfigured");
    let engine = ServeEngine::new(model, views, &warm, opts.clone());
    let arena_ms = t0.elapsed().as_secs_f64() * 1e3;

    // ---- trace + replay --------------------------------------------------
    let trace = build_trace(REQUESTS, Arrival::Jittered { mean_gap_us: MEAN_GAP_US }, |h| {
        users[(h >> 32) as usize % users.len()]
    });
    let outcome = replay_trace(&engine, &trace, opts.batch, opts.wait_us, REPLAYS);

    // ---- report ----------------------------------------------------------
    let qps = outcome.served as f64 / outcome.compute_s;
    let lat = sorted(outcome.latency_ms.clone());
    let q = |p: f64| percentile(&lat, p);
    let mut serve = BTreeMap::new();
    serve.insert("requests".to_string(), Json::Num(outcome.served as f64));
    serve.insert("flushes".to_string(), Json::Num(outcome.flush_ms.len() as f64));
    serve.insert("batch".to_string(), Json::Num(opts.batch as f64));
    serve.insert("wait_us".to_string(), Json::Num(opts.wait_us as f64));
    serve.insert("catalogue".to_string(), Json::Num(engine.catalogue_len() as f64));
    serve.insert("qps".to_string(), Json::Num(qps));
    serve.insert("p50_ms".to_string(), Json::Num(q(0.50)));
    serve.insert("p95_ms".to_string(), Json::Num(q(0.95)));
    serve.insert("p99_ms".to_string(), Json::Num(q(0.99)));
    serve.insert("arena_build_ms".to_string(), Json::Num(arena_ms));

    let mut o = BTreeMap::new();
    o.insert("schema".to_string(), Json::Num(1.0));
    o.insert("group".to_string(), Json::Str("serve".to_string()));
    o.insert("unit".to_string(), Json::Str("ms".to_string()));
    o.insert(
        "benches".to_string(),
        Json::Arr(vec![
            summarize("serve_flush_compute", outcome.flush_ms),
            summarize("serve_request_latency", outcome.latency_ms),
        ]),
    );
    o.insert("serve".to_string(), Json::Obj(serve));

    let path = out_dir.join("BENCH_serve.json");
    std::fs::write(&path, format!("{}\n", Json::Obj(o))).expect("write benchmark report");
    println!("wrote {path} ({qps:.0} qps)", path = path.display());
}

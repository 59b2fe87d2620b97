//! Million-scale serving load harness: synthesizes a large warm-user /
//! item catalogue from an `om_data` arena preset, persists it through the
//! blob → mmap path, scores it with the engine (shard width `--shard`),
//! and writes `BENCH_serve_load.json`.
//!
//! Two load shapes run against the same catalogue:
//!
//! * **open loop** — the shared virtual-clock replay of `om_bench::replay`
//!   (arrivals never wait for responses): Zipfian user popularity over a
//!   configurable arrival process, flush compute and queue-wait latency
//!   measured exactly like `serve_bench`, so the two reports gate with the
//!   same machinery;
//! * **closed loop** — a bounded in-flight window of real requests through
//!   the threaded [`om_serve::Frontend`] (bounded queue, admission
//!   control), wall-clock end-to-end latency per request.
//!
//! The model is a real trained-then-checkpointed rating head (fast
//! config); the catalogue rows are counter-mode synthetic features —
//! semantically garbage, computationally the exact production shape.
//!
//! Usage:
//!   cargo run --release -p om-bench --bin load_bench -- \
//!     [--preset small|million] [--requests N] [--replays N] [--zipf S] \
//!     [--arrival poisson|uniform] [--mean-gap-us U] [--mode open|closed|both] \
//!     [--shard N] [--topk K] [--batch B] [--wait-us U] \
//!     [--queue-cap N] [--inflight W] [--out DIR]

use std::collections::BTreeMap;

use om_bench::bench_scenario;
use om_bench::replay::{
    build_trace, percentile, replay_trace, sorted, summarize, zipf_pick, Arrival,
};
use om_data::types::UserId;
use om_data::ArenaPreset;
use om_obs::clock::now_ns;
use om_obs::json::Json;
use om_serve::{
    load_model, Frontend, FrontendOptions, ItemArena, Request, ServeEngine, ServeOptions,
    UserArena, Verify,
};
use om_tensor::seeded_rng;
use omnimatch_core::{CorpusViews, OmniMatchConfig, Trainer};

struct Flags {
    preset: ArenaPreset,
    requests: usize,
    replays: usize,
    zipf: f64,
    arrival: Arrival,
    mode: String,
    queue_cap: usize,
    inflight: usize,
    out: std::path::PathBuf,
    opts: ServeOptions,
}

fn parse_flags() -> Result<Flags, String> {
    let mut f = Flags {
        preset: ArenaPreset::small(),
        requests: 400,
        replays: 2,
        zipf: 1.1,
        arrival: Arrival::Poisson { mean_gap_us: 650 },
        mode: "both".to_string(),
        queue_cap: 256,
        inflight: 32,
        out: std::path::PathBuf::from("."),
        opts: ServeOptions::from_env().map_err(|e| e.to_string())?,
    };
    let mut mean_gap_us = 650u64;
    let mut poisson = true;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |flag: &str, v: String| {
            v.parse::<usize>().map_err(|e| format!("{flag}: {e}"))
        };
        match a.as_str() {
            "--preset" => {
                let name = val("--preset")?;
                f.preset = ArenaPreset::by_name(&name)
                    .ok_or_else(|| format!("unknown preset '{name}' (small|million)"))?;
            }
            "--requests" => f.requests = num("--requests", val("--requests")?)?,
            "--replays" => f.replays = num("--replays", val("--replays")?)?,
            "--zipf" => {
                f.zipf = val("--zipf")?.parse().map_err(|e| format!("--zipf: {e}"))?
            }
            "--arrival" => {
                poisson = match val("--arrival")?.as_str() {
                    "poisson" => true,
                    "uniform" => false,
                    other => return Err(format!("unknown arrival '{other}'")),
                }
            }
            "--mean-gap-us" => {
                mean_gap_us = num("--mean-gap-us", val("--mean-gap-us")?)? as u64
            }
            "--mode" => {
                f.mode = val("--mode")?;
                if !matches!(f.mode.as_str(), "open" | "closed" | "both") {
                    return Err(format!("unknown mode '{}'", f.mode));
                }
            }
            "--shard" => f.opts.shard_items = num("--shard", val("--shard")?)?.max(1),
            "--topk" => f.opts.topk = num("--topk", val("--topk")?)?.max(1),
            "--batch" => f.opts.batch = num("--batch", val("--batch")?)?.max(1),
            "--wait-us" => f.opts.wait_us = num("--wait-us", val("--wait-us")?)? as u64,
            "--queue-cap" => f.queue_cap = num("--queue-cap", val("--queue-cap")?)?.max(1),
            "--inflight" => f.inflight = num("--inflight", val("--inflight")?)?.max(1),
            "--out" => f.out = std::path::PathBuf::from(val("--out")?),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    f.arrival = if poisson {
        Arrival::Poisson { mean_gap_us }
    } else {
        Arrival::Jittered { mean_gap_us }
    };
    Ok(f)
}

fn main() {
    let f = match parse_flags() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("load_bench: {e}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&f.out).expect("create benchmark output dir");

    // ---- a real trained rating head, checkpointed ------------------------
    let cfg = OmniMatchConfig::fast().with_seed(5);
    let scenario = bench_scenario();
    let trained = Trainer::new(cfg.clone()).fit(&scenario);
    let ckpt: Vec<u8> = trained.export_checkpoint().to_vec();
    let (model, views, _) = trained.into_parts();
    let vocab_size = views.vocab.len();
    let user_dim = cfg.invariant_dim + cfg.specific_dim;
    let item_dim = cfg.item_dim;

    // ---- synthesize the catalogue, persist it, map it back ---------------
    let preset = f.preset;
    println!(
        "load_bench: preset '{}' — {} users × {} items",
        preset.name, preset.users, preset.items
    );
    let t0 = now_ns();
    let items = ItemArena::from_raw(preset.item_ids(), preset.item_rows(item_dim), item_dim);
    let users = UserArena::from_raw(preset.user_ids(), preset.user_rows(user_dim), user_dim);
    let synth_ms = (now_ns() - t0) as f64 / 1e6;

    let blob_dir = f.out.join("arenas");
    std::fs::create_dir_all(&blob_dir).expect("create arena blob dir");
    let item_path = blob_dir.join(format!("{}-items.omab", preset.name));
    let user_path = blob_dir.join(format!("{}-users.omab", preset.name));
    let t0 = now_ns();
    items.write_blob(&item_path).expect("write item blob");
    users.write_blob(&user_path).expect("write user blob");
    let blob_write_ms = (now_ns() - t0) as f64 / 1e6;
    drop((items, users));

    // Server cold start: map the blobs back under Quick verification —
    // O(pages touched), the regime the mmap layer exists for.
    let t0 = now_ns();
    let items = ItemArena::load_blob(&item_path, Verify::Quick).expect("map item blob");
    let users = UserArena::load_blob(&user_path, Verify::Quick).expect("map user blob");
    let cold_start_ms = (now_ns() - t0) as f64 / 1e6;
    println!(
        "load_bench: arenas synth {synth_ms:.0} ms, write {blob_write_ms:.0} ms, \
         map {cold_start_ms:.2} ms"
    );

    let engine = ServeEngine::with_arenas(model, views, items, users, f.opts.clone());
    let shards = preset.items.div_ceil(f.opts.shard_items).max(1);

    // ---- Zipfian trace ---------------------------------------------------
    let n_users = preset.users;
    let zipf = f.zipf;
    let trace = build_trace(f.requests, f.arrival, |h| {
        UserId(zipf_pick(n_users, zipf, h) as u32)
    });

    let mut o = BTreeMap::new();
    let mut load = BTreeMap::new();
    let mut benches = Vec::new();

    // ---- open loop -------------------------------------------------------
    if f.mode == "open" || f.mode == "both" {
        let outcome = replay_trace(&engine, &trace, f.opts.batch, f.opts.wait_us, f.replays);
        let qps = outcome.served as f64 / outcome.compute_s;
        let lat = sorted(outcome.latency_ms.clone());
        let q = |p: f64| percentile(&lat, p);
        println!(
            "load_bench: open loop — {} served, {qps:.0} qps, p50 {:.3} ms, p99 {:.3} ms",
            outcome.served,
            q(0.50),
            q(0.99)
        );
        load.insert("qps".to_string(), Json::Num(qps));
        load.insert("p50_ms".to_string(), Json::Num(q(0.50)));
        load.insert("p95_ms".to_string(), Json::Num(q(0.95)));
        load.insert("p99_ms".to_string(), Json::Num(q(0.99)));
        load.insert("requests".to_string(), Json::Num(outcome.served as f64));
        load.insert("flushes".to_string(), Json::Num(outcome.flush_ms.len() as f64));
        benches.push(summarize("load_flush_compute", outcome.flush_ms));
        benches.push(summarize("load_request_latency", outcome.latency_ms));
    }

    // ---- closed loop: the threaded front-end under a real window ---------
    if f.mode == "closed" || f.mode == "both" {
        let fopts = FrontendOptions {
            queue_cap: f.queue_cap,
            batch: f.opts.batch,
            wait_us: f.opts.wait_us,
        };
        // Engines hold Rc tensors (not Send): the worker rebuilds the whole
        // stack from Send parts — checkpoint bytes, blob paths, the
        // deterministic scenario recipe — exactly as a server process would.
        let opts = f.opts.clone();
        let (cfg2, item_path2, user_path2) = (cfg.clone(), item_path.clone(), user_path.clone());
        let (tx, rx) = std::sync::mpsc::channel();
        // The closed loop measures the real front-end consumer thread.
        let fe = Frontend::spawn(
            move || {
                let model =
                    load_model(&cfg2, vocab_size, &ckpt).expect("decode checkpoint");
                let scenario = bench_scenario();
                let views = CorpusViews::build(&scenario, &cfg2, &mut seeded_rng(cfg2.seed));
                let items =
                    ItemArena::load_blob(&item_path2, Verify::Quick).expect("map item blob");
                let users =
                    UserArena::load_blob(&user_path2, Verify::Quick).expect("map user blob");
                ServeEngine::with_arenas(model, views, items, users, opts)
            },
            fopts,
            tx,
        )
        .expect("spawn front-end worker");
        let handle = fe.handle();
        let n = trace.len();
        // Warmup: the worker is still building its engine when the first
        // submit lands; don't let that cold construction pollute the
        // measured latencies.
        handle
            .try_send(Request { id: u64::MAX, user: trace[0].user, arrive_us: 0 })
            .expect("warmup submit");
        let warm = rx.recv().expect("warmup response");
        assert_eq!(warm.id, u64::MAX);
        let mut sent_at: Vec<Option<u64>> = vec![None; n];
        let mut closed_lat_ms: Vec<f64> = Vec::with_capacity(n);
        let (mut sent, mut done) = (0usize, 0usize);
        let t0 = now_ns();
        while done < n {
            while sent < n && sent - done < f.inflight {
                let req = Request { id: sent as u64, user: trace[sent].user, arrive_us: 0 };
                match handle.try_send(req) {
                    Ok(()) => {
                        sent_at[sent] = Some(now_ns());
                        sent += 1;
                    }
                    Err(om_serve::SubmitError::QueueFull { .. }) => break,
                    Err(e) => panic!("front-end refused a request: {e}"),
                }
            }
            let resp = rx.recv().expect("front-end dropped a response");
            let t_sent = sent_at[resp.id as usize].expect("response for unsent request");
            closed_lat_ms.push((now_ns() - t_sent) as f64 / 1e6);
            done += 1;
        }
        let wall_s = (now_ns() - t0) as f64 / 1e9;
        let stats = fe.shutdown().expect("front-end worker panicked");
        // +1 for the warmup request.
        assert_eq!(stats.served, n as u64 + 1, "closed loop dropped requests");
        let closed_lat_ms = sorted(closed_lat_ms);
        let pct = |q: f64| percentile(&closed_lat_ms, q);
        let closed_qps = n as f64 / wall_s;
        println!(
            "load_bench: closed loop — {} served in {wall_s:.2} s ({closed_qps:.0} qps), \
             p50 {:.3} ms, p99 {:.3} ms, {} rejected",
            stats.served,
            pct(0.50),
            pct(0.99),
            stats.rejected_full
        );
        let mut closed = BTreeMap::new();
        closed.insert("qps".to_string(), Json::Num(closed_qps));
        closed.insert("p50_ms".to_string(), Json::Num(pct(0.50)));
        closed.insert("p99_ms".to_string(), Json::Num(pct(0.99)));
        closed.insert("inflight".to_string(), Json::Num(f.inflight as f64));
        closed.insert("queue_cap".to_string(), Json::Num(f.queue_cap as f64));
        closed.insert("rejected".to_string(), Json::Num(stats.rejected_full as f64));
        closed.insert("flushes".to_string(), Json::Num(stats.flushes as f64));
        load.insert("closed".to_string(), Json::Obj(closed));
    }

    // ---- per-stage latency attribution -----------------------------------
    // The serving layers record per-request stage timings into the
    // metrics registry as they run (the same series `/metrics` scrapes):
    // score/merge from every engine flush, queue/batch-wait/e2e from the
    // front-end.
    // Report them as an informational block — outside `benches`, so the
    // regression gate keys on end-to-end medians only.
    let mut stages = BTreeMap::new();
    for (key, series) in [
        ("queue_wait", "serve.queue_wait"),
        ("batch_wait", "serve.batch_wait"),
        ("score", "serve.score"),
        ("merge", "serve.merge"),
        ("e2e", "serve.e2e"),
    ] {
        let snap = om_obs::metrics::histogram(series).snapshot();
        if snap.count == 0 {
            continue;
        }
        let q = |p: f64| snap.quantile(p).unwrap_or(0) as f64 / 1e6;
        let mut s = BTreeMap::new();
        s.insert("count".to_string(), Json::Num(snap.count as f64));
        s.insert("p50_ms".to_string(), Json::Num(q(0.50)));
        s.insert("p95_ms".to_string(), Json::Num(q(0.95)));
        s.insert("p99_ms".to_string(), Json::Num(q(0.99)));
        stages.insert(key.to_string(), Json::Obj(s));
    }
    if !stages.is_empty() {
        load.insert("stages".to_string(), Json::Obj(stages));
    }

    // ---- report ----------------------------------------------------------
    load.insert("preset".to_string(), Json::Str(preset.name.to_string()));
    load.insert("users".to_string(), Json::Num(preset.users as f64));
    load.insert("catalogue".to_string(), Json::Num(preset.items as f64));
    load.insert("shard_items".to_string(), Json::Num(f.opts.shard_items as f64));
    load.insert("shards".to_string(), Json::Num(shards as f64));
    load.insert("topk".to_string(), Json::Num(f.opts.topk as f64));
    load.insert("batch".to_string(), Json::Num(f.opts.batch as f64));
    load.insert("wait_us".to_string(), Json::Num(f.opts.wait_us as f64));
    load.insert("zipf".to_string(), Json::Num(f.zipf));
    load.insert(
        "arrival".to_string(),
        Json::Str(
            match f.arrival {
                Arrival::Poisson { .. } => "poisson",
                Arrival::Jittered { .. } => "uniform",
            }
            .to_string(),
        ),
    );
    load.insert("synth_ms".to_string(), Json::Num(synth_ms));
    load.insert("blob_write_ms".to_string(), Json::Num(blob_write_ms));
    load.insert("cold_start_ms".to_string(), Json::Num(cold_start_ms));

    o.insert("schema".to_string(), Json::Num(1.0));
    o.insert("group".to_string(), Json::Str("serve_load".to_string()));
    o.insert("unit".to_string(), Json::Str("ms".to_string()));
    o.insert("benches".to_string(), Json::Arr(benches));
    o.insert("load".to_string(), Json::Obj(load));

    let path = f.out.join("BENCH_serve_load.json");
    std::fs::write(&path, format!("{}\n", Json::Obj(o))).expect("write benchmark report");
    println!("wrote {}", path.display());
}

//! `om-smoke serve`: train, checkpoint, reload through
//! `om_serve::load_model_file`, then check, in order:
//!
//! 1. **Live telemetry.** Serve three rounds of every scenario user
//!    through the threaded front-end with the stats endpoint up
//!    (`OM_OBS_ADDR` when set, else an ephemeral loopback port), scrape
//!    `/metrics`, `/healthz` and `/statz` over real TCP, and assert the
//!    five per-request stage histograms and the admission counters are
//!    present and consistent. The bodies are archived in the run
//!    directory (`metrics.txt`, `healthz.txt`, `statz.json`). This phase
//!    runs first so `OM_FAULT=scorer:2` kills the process on the
//!    front-end's second flush with the first flush's requests in the
//!    flight recorder.
//! 2. **Engine parity.** The engine's scores are bitwise identical to
//!    `TrainedOmniMatch::predict`; at a shard width that splits the
//!    catalogue ([`SPLIT_SHARD`]), the top-K equals the one-shard engine's
//!    and the naive full-sort oracle's for every scenario user; a
//!    microbatched replay returns the same responses as unbatched
//!    serving.
//! 3. **Quantized arenas.** int8 per-row-scale arenas for the same
//!    checkpoint, the item arena round-tripped through an `OMAB` v2 blob:
//!    the score drift vs. the f32 engine stays under the committed
//!    `om_serve::quant::QUANT_MAX_SCORE_{RMSE,MAE,ABS}` bounds, and the
//!    quantized engine at [`SPLIT_SHARD`] is bitwise identical to the
//!    one-shard quantized engine.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::channel;
use std::time::Duration;

use om_data::UserId;
use om_obs::http::StatsServer;
use om_serve::{
    Frontend, FrontendOptions, ItemArena, Microbatcher, Request, ServeEngine, ServeOptions,
    UserArena, Verify,
};

use crate::{Checkpoint, Fixture};

/// Item rows per shard for the sharding checks: narrow enough to split
/// the smoke catalogue into several shards, so the per-shard top-K and
/// the merge are what gets compared (the default width holds the whole
/// catalogue in one shard).
const SPLIT_SHARD: usize = 8;

pub fn run() {
    let fx = Fixture::train("om-smoke-serve");
    let ckpt = fx.checkpoint();
    let users = fx.trained.views().users().to_vec();
    om_obs::manifest_set("serve.users", (users.len() as u64).into());
    let scrape = frontend_scrape(&ckpt, &users);
    let engine = ckpt.engine(ServeOptions::default());
    om_obs::manifest_set("serve.catalogue", (engine.catalogue_len() as u64).into());
    assert!(
        engine.catalogue_len() > SPLIT_SHARD,
        "a {SPLIT_SHARD}-row shard must split the {}-item catalogue",
        engine.catalogue_len()
    );
    engine_parity(&fx, &ckpt, &engine, &users);
    quantized(&ckpt, &engine, &users);
    om_obs::manifest_set("serve.smoke_ok", true.into());
    fx.finish(|dir| {
        for (file, body) in ["metrics.txt", "healthz.txt", "statz.json"].iter().zip(&scrape) {
            std::fs::write(dir.join(file), body).expect("write scrape artifact");
        }
    });
}

/// One blocking HTTP/1.0 GET against the stats endpoint; returns
/// `(status line, body)`.
fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect stats endpoint");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("response has a header block");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

/// Phase 1; returns the `/metrics`, `/healthz` and `/statz` bodies.
fn frontend_scrape(ckpt: &Checkpoint, users: &[UserId]) -> [String; 3] {
    let (resp_tx, resp_rx) = channel();
    let factory = ckpt.clone();
    // The factory reloads the checkpoint on the front-end's consumer
    // thread (the real deployment path — engines are built on the worker).
    let fe = Frontend::spawn(
        move || factory.engine(ServeOptions::default()),
        FrontendOptions { queue_cap: 256, batch: 8, wait_us: 200 },
        resp_tx,
    )
    .expect("spawn front-end");
    fe.register_health();

    let server = StatsServer::spawn_from_env().unwrap_or_else(|| {
        // No OM_OBS_ADDR: the smoke still needs an endpoint, so bind an
        // ephemeral loopback port.
        StatsServer::spawn("127.0.0.1:0").expect("bind loopback stats endpoint")
    });
    let addr = server.local_addr();
    om_obs::info!("serve smoke: stats endpoint on {addr}");

    // ---- drive a request stream ------------------------------------------
    let handle = fe.handle();
    let rounds = 3u64;
    let mut sent = 0u64;
    for round in 0..rounds {
        for (i, &user) in users.iter().enumerate() {
            let id = round * users.len() as u64 + i as u64;
            // The queue outlives any burst here; every submit must land.
            while handle.try_send(Request { id, user, arrive_us: 0 }).is_err() {
                std::thread::sleep(Duration::from_millis(1));
            }
            sent += 1;
        }
    }
    // A liveness timeout around the real threaded front-end; nothing
    // model-facing depends on it.
    let deadline_ns = om_obs::clock::now_ns() + 60_000_000_000;
    while handle.stats_snapshot().served < sent {
        assert!(om_obs::clock::now_ns() < deadline_ns, "front-end did not serve {sent} requests in time");
        std::thread::sleep(Duration::from_millis(1));
    }

    // ---- scrape and assert -----------------------------------------------
    let (status, metrics) = get(addr, "/metrics");
    assert!(status.contains("200"), "/metrics: {status}");
    for hist in
        ["serve_queue_wait", "serve_batch_wait", "serve_score", "serve_merge", "serve_e2e"]
    {
        assert!(
            metrics.contains(&format!("# TYPE {hist} histogram")),
            "/metrics is missing the `{hist}` stage histogram:\n{metrics}"
        );
        assert!(metrics.contains(&format!("{hist}_count")), "no `{hist}_count`:\n{metrics}");
    }
    for counter in ["serve_frontend_admitted", "serve_frontend_rejected", "serve_frontend_served"]
    {
        assert!(metrics.contains(counter), "/metrics is missing `{counter}`:\n{metrics}");
    }
    assert!(
        metrics.contains(&format!("serve_frontend_served {sent}")),
        "served counter must read {sent}:\n{metrics}"
    );

    let (status, healthz) = get(addr, "/healthz");
    assert!(status.contains("200"), "/healthz while serving: {status}\n{healthz}");
    for probe in ["serve.scorer_ready ok", "serve.worker_alive ok", "serve.queue_room ok"] {
        assert!(healthz.contains(probe), "/healthz is missing `{probe}`:\n{healthz}");
    }

    let (status, statz) = get(addr, "/statz");
    assert!(status.contains("200"), "/statz: {status}");
    let json = om_obs::json::Json::parse(statz.trim()).expect("/statz parses as JSON");
    assert_eq!(
        json.get("serve.frontend.served").and_then(om_obs::json::Json::as_u64),
        Some(sent),
        "/statz served counter must read {sent}"
    );

    // The live snapshot and the final one shutdown returns read the same
    // atomics; with every request served, the tallies cannot move.
    let snap = fe.stats_snapshot();
    let stats = fe.shutdown().expect("shutdown front-end");
    let tallies = |s: &om_serve::StatsSnapshot| (s.served, s.flushes, s.rejected_full, s.scorer_errors);
    assert_eq!(tallies(&snap), tallies(&stats), "snapshot and shutdown stats diverged");
    assert_eq!(stats.served, sent);
    assert_eq!(stats.scorer_errors, 0);
    assert_eq!(resp_rx.iter().count() as u64, sent, "every request got a response");

    // Once the front-end deregisters its probes, /healthz turns green-empty.
    let (status, _) = get(addr, "/healthz");
    assert!(status.contains("200"), "/healthz after shutdown: {status}");
    server.shutdown();
    [metrics, healthz, statz]
}

/// Phase 2: the reloaded engine against the training-side code path.
fn engine_parity(fx: &Fixture, ckpt: &Checkpoint, engine: &ServeEngine, users: &[UserId]) {
    let items = fx.trained.views().items();

    // ---- engine scores == trainer predict, bitwise ----------------------
    for &u in users {
        let scores = engine.score_user(u).expect("score user");
        let pairs: Vec<_> = items.iter().map(|&i| (u, i)).collect();
        let preds = fx.trained.predict(&pairs);
        assert_eq!(scores.len(), preds.len());
        for (s, p) in scores.iter().zip(&preds) {
            assert_eq!(
                s.to_bits(),
                p.to_bits(),
                "serving score diverged from training-side predict for user {u:?}"
            );
        }
    }
    om_obs::info!("serve smoke: scores match predict bitwise over {} users", users.len());

    // ---- sharded top-K == one-shard top-K == full-sort oracle ----------
    let sharded = ckpt.engine(ServeOptions { shard_items: SPLIT_SHARD, ..ServeOptions::default() });
    let k = engine.options().topk;
    for &u in users {
        let req = Request { id: 0, user: u, arrive_us: 0 };
        let oracle = engine.oracle_rank(u).expect("oracle rank");
        let one_shard = engine.serve_one(req).expect("serve one (one shard)");
        let resp = sharded.serve_one(req).expect("serve one (sharded)");
        assert_eq!(resp.top.len(), k.min(oracle.len()));
        assert_eq!(one_shard.top.len(), resp.top.len());
        for (((ia, sa), (ib, sb)), (ic, sc)) in resp.top.iter().zip(&oracle).zip(&one_shard.top) {
            assert_eq!(ia, ib, "sharded top-K diverged from the oracle for {u:?}");
            assert_eq!(sa.to_bits(), sb.to_bits());
            assert_eq!(ia, ic, "sharded top-K diverged from the one-shard engine for {u:?}");
            assert_eq!(sa.to_bits(), sc.to_bits());
        }
    }
    om_obs::info!(
        "serve smoke: top-K at {SPLIT_SHARD}-row shards equals the one-shard engine and the \
         full-sort oracle"
    );

    // ---- microbatched replay == unbatched serving -----------------------
    let opts = engine.options().clone();
    let mut batcher = Microbatcher::new(opts.batch, opts.wait_us);
    let mut batched = Vec::new();
    for (i, &u) in users.iter().enumerate() {
        let now = i as u64 * 700; // arrivals 700us apart → mixed flush causes
        if let Some(due) = batcher.poll(now) {
            batched.extend(engine.serve_batch(&due).expect("serve batch"));
        }
        let req = Request { id: i as u64, user: u, arrive_us: now };
        if let Some(full) = batcher.submit(req, now) {
            batched.extend(engine.serve_batch(&full).expect("serve batch"));
        }
    }
    if let Some(rest) = batcher.drain() {
        batched.extend(engine.serve_batch(&rest).expect("serve batch"));
    }
    assert_eq!(batched.len(), users.len());
    for (i, (&u, resp)) in users.iter().zip(&batched).enumerate() {
        let solo = engine
            .serve_one(Request { id: i as u64, user: u, arrive_us: 0 })
            .expect("serve one");
        assert_eq!(resp.user, u);
        assert_eq!(solo.top.len(), resp.top.len());
        for ((ia, sa), (ib, sb)) in resp.top.iter().zip(&solo.top) {
            assert_eq!(ia, ib);
            assert_eq!(sa.to_bits(), sb.to_bits(), "microbatched flush diverged for {u:?}");
        }
    }
    om_obs::info!("serve smoke: microbatched replay equals unbatched serving");
}

/// Phase 3: int8 arenas against the f32 engine.
fn quantized(ckpt: &Checkpoint, engine: &ServeEngine, users: &[UserId]) {
    let opts = ServeOptions::default();
    let (qmodel, qviews) = ckpt.reload();
    let item_arena = ItemArena::build(&qmodel, &qviews, opts.arena_batch);
    let user_arena =
        UserArena::build(&qmodel, &qviews, &ckpt.scenario.train_users, opts.arena_batch);
    let qitems = item_arena.quantized();
    assert!(qitems.is_quantized() && user_arena.quantized().is_quantized());

    // Round-trip the quantized item arena through an OMAB v2 blob so the
    // smoke exercises the on-disk quantized path too.
    let blob_path = ckpt.path.with_extension("q8.omab");
    qitems.write_blob(&blob_path).expect("write quantized blob");
    // One quantized engine per shard width, both over the reloaded blob.
    let qengine = |shard_items: usize| {
        let (model, views) = ckpt.reload();
        let qitems = ItemArena::load_blob(&blob_path, Verify::Full).expect("load quantized blob");
        assert!(qitems.is_quantized(), "v2 blob must reload as a quantized arena");
        let opts = ServeOptions { shard_items, ..opts.clone() };
        ServeEngine::with_arenas(model, views, qitems, user_arena.quantized(), opts)
    };
    let (qengine, qsharded) = (qengine(opts.shard_items), qengine(SPLIT_SHARD));

    let mut sum_sq = 0.0f64;
    let mut sum_abs = 0.0f64;
    let mut max_abs = 0.0f64;
    let mut count = 0usize;
    for &u in users {
        let f32_scores = engine.score_user(u).expect("score user (f32)");
        let q_scores = qengine.score_user(u).expect("score user (quantized)");
        let q_sharded = qsharded.score_user(u).expect("score user (quantized sharded)");
        assert_eq!(f32_scores.len(), q_scores.len());
        // Sharded quantized == unsharded quantized, bit for bit.
        for (a, b) in q_scores.iter().zip(&q_sharded) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "sharded quantized scoring diverged from unsharded for {u:?}"
            );
        }
        for (&f, &q) in f32_scores.iter().zip(&q_scores) {
            let d = (f as f64 - q as f64).abs();
            sum_sq += d * d;
            sum_abs += d;
            max_abs = max_abs.max(d);
            count += 1;
        }
    }
    let rmse = (sum_sq / count.max(1) as f64).sqrt();
    let mae = sum_abs / count.max(1) as f64;
    om_obs::info!(
        "serve smoke: quantized vs f32 over {count} pairs — rmse {rmse:.6}, mae {mae:.6}, max {max_abs:.6}"
    );
    om_obs::manifest_set("serve.quant.rmse", rmse.into());
    om_obs::manifest_set("serve.quant.mae", mae.into());
    assert!(
        rmse <= om_serve::quant::QUANT_MAX_SCORE_RMSE,
        "quantized score RMSE {rmse} exceeds committed bound {}",
        om_serve::quant::QUANT_MAX_SCORE_RMSE
    );
    assert!(
        mae <= om_serve::quant::QUANT_MAX_SCORE_MAE,
        "quantized score MAE {mae} exceeds committed bound {}",
        om_serve::quant::QUANT_MAX_SCORE_MAE
    );
    assert!(
        max_abs <= om_serve::quant::QUANT_MAX_SCORE_ABS,
        "quantized per-pair delta {max_abs} exceeds committed bound {}",
        om_serve::quant::QUANT_MAX_SCORE_ABS
    );
    om_obs::info!("serve smoke: quantized serving within committed error bounds");
}

//! Telemetry must be invisible in the results: serving with observability
//! enabled is **bitwise identical** to serving with it disabled. The
//! instrumentation only reads clocks and bumps atomics — it never draws
//! from an RNG, reorders work, or touches a tensor — so this is the
//! serving twin of `crates/core/tests/determinism.rs`.

use std::sync::mpsc::channel;
use std::time::Duration;

use om_data::types::UserId;
use om_data::{SplitConfig, SynthConfig, SynthWorld};
use om_serve::{
    load_model, BatchScorer, Frontend, FrontendOptions, Request, Response, ServeEngine, ServeError,
    ServeOptions,
};
use om_tensor::seeded_rng;
use omnimatch_core::{CorpusViews, OmniMatchConfig, Trainer};

fn assert_bitwise_equal(a: &[Response], b: &[Response]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.user, y.user);
        assert_eq!(x.top.len(), y.top.len());
        for ((ia, sa), (ib, sb)) in x.top.iter().zip(&y.top) {
            assert_eq!(ia, ib, "item mismatch for user {:?}", x.user);
            assert_eq!(
                sa.to_bits(),
                sb.to_bits(),
                "score bits differ for user {:?} item {:?}",
                x.user,
                ia
            );
        }
    }
}

#[test]
fn observability_does_not_perturb_serving() {
    let world = SynthWorld::generate(SynthConfig::tiny(), &["Books", "Movies"]);
    let scenario = world.scenario("Books", "Movies", SplitConfig::default());
    let cfg = OmniMatchConfig::fast().with_seed(31);
    let trained = Trainer::new(cfg.clone()).fit(&scenario);
    let ckpt = trained.export_checkpoint().to_vec();
    let (_, views, _) = trained.into_parts();
    let vocab_size = views.vocab.len();
    let users = views.users().to_vec();
    let reqs: Vec<Request> = users
        .iter()
        .enumerate()
        .map(|(i, &u)| Request { id: i as u64, user: u, arrive_us: 0 })
        .collect();

    // The default width holds the whole tiny catalogue in one shard; the
    // second width splits it into several, so the per-shard top-K and
    // the merge run under both telemetry settings too.
    for shard_items in [ServeOptions::default().shard_items, 7] {
        let model = load_model(&cfg, vocab_size, &ckpt).expect("decode checkpoint");
        let views = CorpusViews::build(&scenario, &cfg, &mut seeded_rng(cfg.seed));
        let opts = ServeOptions { shard_items, ..ServeOptions::default() };
        let engine = ServeEngine::new(model, views, &scenario.train_users, opts);
        if shard_items == 7 {
            assert!(engine.catalogue_len() > 2 * shard_items, "width 7 must split the catalogue");
        }
        let prev = om_obs::set_enabled(true);
        let on = engine.serve_batch(&reqs).expect("serve with telemetry on");
        om_obs::set_enabled(false);
        let off = engine.serve_batch(&reqs).expect("serve with telemetry off");
        om_obs::set_enabled(prev);
        assert_bitwise_equal(&on, &off);
    }
}

/// A deterministic stub scorer: responses are a pure function of the
/// request, so any on/off difference through the *front-end* path (the
/// stamping, the histograms, the flight-recorder pushes) would show.
struct EchoScorer;

impl BatchScorer for EchoScorer {
    fn serve_batch(&self, reqs: &[Request]) -> Result<Vec<Response>, ServeError> {
        Ok(reqs
            .iter()
            .map(|r| Response {
                id: r.id,
                user: r.user,
                top: vec![(om_data::types::ItemId(r.id as u32), r.id as f32 * 0.5)],
            })
            .collect())
    }
}

fn run_frontend_stream(n: u64) -> Vec<Response> {
    let (resp_tx, resp_rx) = channel();
    let fe = Frontend::spawn(
        || EchoScorer,
        FrontendOptions { queue_cap: 64, batch: 4, wait_us: 100 },
        resp_tx,
    )
    .expect("spawn front-end");
    let handle = fe.handle();
    for id in 0..n {
        // The queue is larger than the stream; every submit must land.
        while handle.try_send(Request { id, user: UserId(id as u32), arrive_us: 0 }).is_err() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let stats = fe.shutdown().expect("shutdown");
    assert_eq!(stats.served, n);
    let mut out: Vec<Response> = resp_rx.iter().collect();
    out.sort_by_key(|r| r.id);
    out
}

#[test]
fn frontend_telemetry_does_not_perturb_responses() {
    let prev = om_obs::set_enabled(true);
    let on = run_frontend_stream(40);
    om_obs::set_enabled(false);
    let off = run_frontend_stream(40);
    om_obs::set_enabled(prev);
    assert_bitwise_equal(&on, &off);
}

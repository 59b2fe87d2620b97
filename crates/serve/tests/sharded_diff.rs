//! Differential suite: the engine at a random shard width vs the same
//! engine with the whole catalogue in one shard, **bitwise**, across
//! random catalogue sizes, `k`, request groupings, and `OM_THREADS`
//! settings — NaN ordering and exact-tie index order included.
//!
//! Two layers:
//!
//! * a *real* trained scenario (warm + cold users, the tower in the loop)
//!   where the shard width and thread count are swept against a
//!   single-thread one-shard reference;
//! * *synthetic* catalogues built from counter-mode feature rows with
//!   injected NaN rows and duplicated rows (guaranteed exact score ties),
//!   where catalogue size, shard width, and `k` all vary per case.
//!
//! The width is fixed when an engine is built, so every case builds one
//! engine per width. The one-shard engine is the oracle: with a single
//! shard the per-shard top-K is the whole top-K and the merge has one
//! input.

use std::cell::OnceCell;
use std::sync::{Mutex, MutexGuard, OnceLock};

use om_data::types::{ItemId, UserId};
use om_data::{synth_feature_rows, SplitConfig, SynthConfig, SynthWorld};
use om_serve::{load_model, ItemArena, Request, Response, ServeEngine, ServeOptions, UserArena};
use om_tensor::{runtime, seeded_rng};
use omnimatch_core::{CorpusViews, OmniMatchConfig, Trainer};
use proptest::prelude::*;

/// A shard width no catalogue reaches: the whole arena is one shard.
const ONE_SHARD: usize = usize::MAX;

/// Serialise mutations of the global thread count across test threads.
fn thread_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn assert_same_response(a: &Response, b: &Response) {
    assert_eq!(a.id, b.id);
    assert_eq!(a.user, b.user);
    assert_eq!(a.top.len(), b.top.len(), "top-K length for user {:?}", a.user);
    for ((ia, sa), (ib, sb)) in a.top.iter().zip(&b.top) {
        assert_eq!(ia, ib, "item mismatch for user {:?}", a.user);
        assert_eq!(
            sa.to_bits(),
            sb.to_bits(),
            "score bits differ for user {:?} item {:?}",
            a.user,
            ia
        );
    }
}

// ---------------------------------------------------------------------------
// Layer 1: real trained scenario, shard width × threads × grouping.
// ---------------------------------------------------------------------------

/// Checkpoint + recipe to rebuild the trained engine at any shard width
/// (engines consume their model).
struct Ctx {
    cfg: OmniMatchConfig,
    ckpt: Vec<u8>,
    vocab_size: usize,
    scenario: om_data::split::CrossDomainScenario,
    users: Vec<UserId>,
    /// One-shard single-thread reference responses, in `users` order.
    reference: Vec<Response>,
}

impl Ctx {
    /// The trained engine (warm arena for the training users) at
    /// `shard_items` rows per shard.
    fn engine(&self, shard_items: usize) -> ServeEngine {
        let model = load_model(&self.cfg, self.vocab_size, &self.ckpt).expect("decode checkpoint");
        let views = CorpusViews::build(&self.scenario, &self.cfg, &mut seeded_rng(self.cfg.seed));
        let opts = ServeOptions { shard_items, ..ServeOptions::default() };
        ServeEngine::new(model, views, &self.scenario.train_users, opts)
    }
}

fn build_ctx() -> Ctx {
    let world = SynthWorld::generate(SynthConfig::tiny(), &["Books", "Movies"]);
    let scenario = world.scenario("Books", "Movies", SplitConfig::default());
    let cfg = OmniMatchConfig::fast().with_seed(31);
    let trained = Trainer::new(cfg.clone()).fit(&scenario);
    let ckpt = trained.export_checkpoint().to_vec();
    let (_, views, _) = trained.into_parts();
    let vocab_size = views.vocab.len();
    let users = views.users().to_vec();
    let mut ctx = Ctx { cfg, ckpt, vocab_size, scenario, users, reference: Vec::new() };
    let engine = ctx.engine(ONE_SHARD);
    ctx.reference = {
        let _g = thread_lock();
        let prev = runtime::set_threads(1);
        let r = ctx
            .users
            .iter()
            .enumerate()
            .map(|(i, &u)| {
                engine
                    .serve_one(Request { id: i as u64, user: u, arrive_us: 0 })
                    .expect("serve one")
            })
            .collect();
        runtime::set_threads(prev);
        r
    };
    ctx
}

// `Tensor` is an `Rc` handle, so the engine cannot live in a shared
// static; each test thread builds (and re-uses) its own.
thread_local! {
    static CTX: OnceCell<Ctx> = const { OnceCell::new() };
}

fn with_ctx<R>(f: impl FnOnce(&Ctx) -> R) -> R {
    CTX.with(|c| {
        if c.get().is_none() {
            let _ = c.set(build_ctx());
        }
        f(c.get().expect("ctx initialised"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_equals_single_arena_on_the_real_scenario(
        shard_width in 1usize..40,
        grouping_seed in 0u64..10_000,
        threads in 0usize..4,
    ) {
        with_ctx(|ctx| {
            // Arbitrary partition of the request list into microbatches.
            let mut groups: Vec<Vec<Request>> = Vec::new();
            let mut cur: Vec<Request> = Vec::new();
            let mut h = grouping_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut cut = (h % 5) as usize + 1;
            for (i, &u) in ctx.users.iter().enumerate() {
                cur.push(Request { id: i as u64, user: u, arrive_us: 0 });
                if cur.len() >= cut {
                    groups.push(std::mem::take(&mut cur));
                    h = h.wrapping_mul(0xD130_2B97_9AF6_2F05).rotate_left(17);
                    cut = (h % 5) as usize + 1;
                }
            }
            if !cur.is_empty() {
                groups.push(cur);
            }

            let sharded = ctx.engine(shard_width);
            let _g = thread_lock();
            let prev = runtime::set_threads(threads);
            let got: Vec<Response> = groups
                .iter()
                .flat_map(|g| sharded.serve_batch(g).expect("serve batch"))
                .collect();
            runtime::set_threads(prev);

            assert_eq!(got.len(), ctx.reference.len());
            for (a, b) in got.iter().zip(&ctx.reference) {
                assert_same_response(a, b);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Layer 2: synthetic catalogues — size, width, k, NaNs, exact ties.
// ---------------------------------------------------------------------------

/// Checkpoint + recipe to rebuild models cheaply per case (training once,
/// loading many times — engines consume their model).
struct SynthCtx {
    cfg: OmniMatchConfig,
    ckpt: Vec<u8>,
    vocab_size: usize,
    scenario: om_data::split::CrossDomainScenario,
    user_dim: usize,
    item_dim: usize,
}

fn build_synth_ctx() -> SynthCtx {
    let world = SynthWorld::generate(SynthConfig::tiny(), &["Books", "Movies"]);
    let scenario = world.scenario("Books", "Movies", SplitConfig::default());
    let cfg = OmniMatchConfig::fast().with_seed(37);
    let trained = Trainer::new(cfg.clone()).fit(&scenario);
    let ckpt = trained.export_checkpoint().to_vec();
    let (_, views, _) = trained.into_parts();
    let vocab_size = views.vocab.len();
    SynthCtx {
        user_dim: cfg.invariant_dim + cfg.specific_dim,
        item_dim: cfg.item_dim,
        cfg,
        ckpt,
        vocab_size,
        scenario,
    }
}

thread_local! {
    static SYNTH_CTX: OnceCell<SynthCtx> = const { OnceCell::new() };
}

fn with_synth_ctx<R>(f: impl FnOnce(&SynthCtx) -> R) -> R {
    SYNTH_CTX.with(|c| {
        if c.get().is_none() {
            let _ = c.set(build_synth_ctx());
        }
        f(c.get().expect("ctx initialised"))
    })
}

/// Build an engine at `shard_items` rows per shard over a synthetic
/// catalogue of `n_items` items and `n_users` warm users, with
/// NaN-poisoned and duplicated item rows.
fn synth_engine(
    ctx: &SynthCtx,
    n_users: usize,
    n_items: usize,
    k: usize,
    seed: u64,
    shard_items: usize,
) -> ServeEngine {
    let model = load_model(&ctx.cfg, ctx.vocab_size, &ctx.ckpt).expect("decode checkpoint");
    let views = CorpusViews::build(&ctx.scenario, &ctx.cfg, &mut seeded_rng(ctx.cfg.seed));

    let mut item_rows = synth_feature_rows(n_items, ctx.item_dim, seed);
    let mut h = seed | 1;
    for r in 0..n_items {
        h = h.wrapping_mul(0xD130_2B97_9AF6_2F05).rotate_left(23);
        match h % 7 {
            // NaN-poison a row: every pair through it scores NaN, which
            // must rank last in both engines, in index order.
            0 => item_rows[r * ctx.item_dim..(r + 1) * ctx.item_dim].fill(f32::NAN),
            // Duplicate an earlier row bit-for-bit: an exact score tie,
            // which must resolve by arena index in both engines.
            1 if r > 0 => {
                let src = (h >> 8) as usize % r;
                let copied: Vec<f32> =
                    item_rows[src * ctx.item_dim..(src + 1) * ctx.item_dim].to_vec();
                item_rows[r * ctx.item_dim..(r + 1) * ctx.item_dim].copy_from_slice(&copied);
            }
            _ => {}
        }
    }
    let items = ItemArena::from_raw(
        (0..n_items as u32).map(ItemId).collect(),
        item_rows,
        ctx.item_dim,
    );
    let users = UserArena::from_raw(
        (0..n_users as u32).map(UserId).collect(),
        synth_feature_rows(n_users, ctx.user_dim, seed ^ 0xABCD),
        ctx.user_dim,
    );
    let opts = ServeOptions { topk: k, shard_items, ..ServeOptions::default() };
    ServeEngine::with_arenas(model, views, items, users, opts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharded_equals_single_arena_on_synthetic_catalogues(
        n_items in 1usize..400,
        n_users in 1usize..12,
        shard_width in 1usize..96,
        k in 1usize..24,
        seed in 0u64..1_000,
        threads in 0usize..4,
    ) {
        with_synth_ctx(|ctx| {
            let engine = synth_engine(ctx, n_users, n_items, k, seed, shard_width);
            let one_shard = synth_engine(ctx, n_users, n_items, k, seed, ONE_SHARD);
            let reqs: Vec<Request> = (0..n_users)
                .map(|i| Request { id: i as u64, user: UserId(i as u32), arrive_us: 0 })
                .collect();

            let _g = thread_lock();
            let prev = runtime::set_threads(threads);
            // Oracle: the one-shard engine over the same arenas.
            let want: Vec<Response> = reqs
                .iter()
                .map(|&r| one_shard.serve_one(r).expect("serve one"))
                .collect();
            let got = engine.serve_batch(&reqs).expect("serve batch");

            // Full score rows must match bitwise too, shard by shard.
            for req in &reqs {
                let a = engine.score_user(req.user).expect("score user");
                let b = one_shard.score_user(req.user).expect("score user");
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            runtime::set_threads(prev);

            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                assert_same_response(a, b);
            }
            // NaN scores, when k reaches into them, still come back NaN —
            // never silently dropped from the page.
            for resp in &got {
                prop_assert!(resp.top.len() == k.min(n_items));
            }
        });
    }
}

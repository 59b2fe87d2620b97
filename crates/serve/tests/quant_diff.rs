//! Differential proptest suite for the int8 quantized scorer: random
//! arenas are quantized, dequantized, and scored, and every result is
//! held against the f32 path.
//!
//! Three contracts:
//!
//! * **Round trip** — quantize → dequantize moves no element by more than
//!   half a quantization step (`scale / 2`), and the dispatched
//!   `om_tensor::kernels::dequant_rows` is bitwise identical to its
//!   lint-registered serial twin `kernels::dequant_rows_serial`.
//! * **Score drift** — a quantized engine's expected-star score for any
//!   (user, item) pair stays within the committed
//!   [`om_serve::quant::QUANT_MAX_SCORE_ABS`] of the f32 engine's.
//! * **Shard invariance** — the quantized engine at any shard width is
//!   bitwise identical to the quantized engine with one shard
//!   (dequantization is per-element, so partitioning cannot move a bit).
//!
//! One trained checkpoint is shared per test thread (training is the
//! expensive part); cases vary the arenas, not the model.

use std::cell::OnceCell;

use om_data::synth_feature_rows;
use om_data::types::{ItemId, UserId};
use om_data::{CrossDomainScenario, SplitConfig, SynthConfig, SynthWorld};
use om_serve::{load_model, quant, ItemArena, ServeEngine, ServeOptions, UserArena};
use om_tensor::{kernels, seeded_rng};
use omnimatch_core::{CorpusViews, OmniMatchConfig, Trainer};
use proptest::prelude::*;

const ITEM_DIM: usize = 12; // OmniMatchConfig::fast() dims
const USER_DIM: usize = 24;
/// A shard width no catalogue reaches: the whole arena is one shard.
const ONE_SHARD: usize = usize::MAX;

struct Ctx {
    cfg: OmniMatchConfig,
    ckpt: Vec<u8>,
    vocab_size: usize,
    scenario: CrossDomainScenario,
}

fn build_ctx() -> Ctx {
    let world = SynthWorld::generate(SynthConfig::tiny(), &["Books", "Movies"]);
    let scenario = world.scenario("Books", "Movies", SplitConfig::default());
    let cfg = OmniMatchConfig::fast().with_seed(23);
    let trained = Trainer::new(cfg.clone()).fit(&scenario);
    let ckpt = trained.export_checkpoint().to_vec();
    let (_, views, _) = trained.into_parts();
    let vocab_size = views.vocab.len();
    Ctx { cfg, ckpt, vocab_size, scenario }
}

// `Tensor` is an `Rc` handle, so the trained state cannot live in a
// shared static; each test thread builds (and re-uses) its own.
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

/// An engine at `shard_items` rows per shard over the given arenas, with
/// a fresh model decode from the shared checkpoint (engines consume
/// their model).
fn mk_engine(ctx: &Ctx, items: ItemArena, users: UserArena, shard_items: usize) -> ServeEngine {
    let model = load_model(&ctx.cfg, ctx.vocab_size, &ctx.ckpt).expect("decode checkpoint");
    let views = CorpusViews::build(&ctx.scenario, &ctx.cfg, &mut seeded_rng(ctx.cfg.seed));
    let opts = ServeOptions { shard_items, ..ServeOptions::default() };
    ServeEngine::with_arenas(model, views, items, users, opts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn quantize_dequantize_moves_nothing_more_than_half_a_step(
        rows in 1usize..48,
        dim in 1usize..64,
        seed in 0u64..100_000,
    ) {
        let data = synth_feature_rows(rows, dim, seed);
        let (q, scales) = quant::quantize_rows(&data, rows, dim);
        prop_assert_eq!(q.len(), rows * dim);
        prop_assert_eq!(scales.len(), rows);

        // The dispatched kernel (AVX2 when active) must agree bitwise
        // with the serial twin — dequantization is exact in f32.
        let deq = kernels::dequant_rows(&q, &scales, dim);
        let reference = kernels::dequant_rows_serial(&q, &scales, dim);
        prop_assert_eq!(deq.len(), reference.len());
        for (a, b) in deq.iter().zip(&reference) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "dequant kernel diverged from scalar");
        }

        for r in 0..rows {
            let scale = scales[r];
            for c in 0..dim {
                let v = data[r * dim + c];
                let d = deq[r * dim + c];
                prop_assert!(
                    (v - d).abs() <= scale * 0.5 + 1e-7,
                    "row {} col {}: {} -> {} exceeds half step {}",
                    r, c, v, d, scale * 0.5
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn quantized_scores_stay_within_the_committed_pair_bound(
        n_items in 1usize..80,
        n_users in 1usize..10,
        seed in 0u64..100_000,
        shard_items in 1usize..97,
    ) {
        with_ctx(|ctx| {
            let item_ids: Vec<ItemId> = (0..n_items as u32).map(ItemId).collect();
            let user_ids: Vec<UserId> = (0..n_users as u32).map(UserId).collect();
            let item_data = synth_feature_rows(n_items, ITEM_DIM, seed ^ 0xA11C);
            let user_data = synth_feature_rows(n_users, USER_DIM, seed ^ 0xB22D);

            let arenas = || {
                (
                    ItemArena::from_raw(item_ids.clone(), item_data.clone(), ITEM_DIM),
                    UserArena::from_raw(user_ids.clone(), user_data.clone(), USER_DIM),
                )
            };
            let quantized = || {
                let (items, users) = arenas();
                (items.quantized(), users.quantized())
            };
            let (qitems, qusers) = quantized();
            prop_assert!(qitems.is_quantized() && qusers.is_quantized());

            let (items, users) = arenas();
            let f32_engine = mk_engine(ctx, items, users, ONE_SHARD);
            let q_engine = mk_engine(ctx, qitems, qusers, ONE_SHARD);
            let (qitems, qusers) = quantized();
            let q_sharded_engine = mk_engine(ctx, qitems, qusers, shard_items);

            for &u in &user_ids {
                let f = f32_engine.score_user(u).expect("score f32");
                let q = q_engine.score_user(u).expect("score quantized");
                let q_sharded = q_sharded_engine.score_user(u).expect("score quantized sharded");
                prop_assert_eq!(f.len(), q.len());
                // Shard invariance of the quantized path, bit for bit.
                for (a, b) in q.iter().zip(&q_sharded) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "sharded quantized diverged");
                }
                // Per-pair drift against the f32 engine.
                for (i, (&a, &b)) in f.iter().zip(&q).enumerate() {
                    let d = (a as f64 - b as f64).abs();
                    prop_assert!(
                        d <= quant::QUANT_MAX_SCORE_ABS,
                        "user {:?} item row {}: |{} - {}| = {} exceeds {}",
                        u, i, a, b, d, quant::QUANT_MAX_SCORE_ABS
                    );
                }
            }
        });
    }
}

//! Differential suite for the serving head: engine scores against the
//! reference decomposition `pair_rows` → `rating_logits_from_pairs` →
//! `expected_stars`, **bitwise**.
//!
//! The engine never builds the cross join. They resume layer 1's sum
//! from a per-request user partial (`omnimatch_core::PairBlockScorer`),
//! which is exact only because `gemm` continues each element's sum in `p`
//! order from the value already in `c`. These cases hold that to the
//! reference over random batch sizes, catalogue sizes, shard widths and
//! thread counts, on f32 and int8 arenas. Arena rows are ReLU-like: many
//! exact zeros, plus whole zero rows, so both sides add exact-zero
//! products. A second test pins the typed error for arenas whose row
//! widths do not match the model.

use std::cell::OnceCell;
use std::sync::{Mutex, MutexGuard, OnceLock};

use om_data::synth_feature_rows;
use om_data::types::{ItemId, UserId};
use om_data::{CrossDomainScenario, SplitConfig, SynthConfig, SynthWorld};
use om_serve::{load_model, ItemArena, Request, ServeEngine, ServeError, ServeOptions, UserArena};
use om_tensor::{kernels, runtime, seeded_rng, Tensor};
use omnimatch_core::{CorpusViews, OmniMatchConfig, OmniMatchModel, Trainer};
use proptest::prelude::*;

/// Serialise mutations of the global thread count across test threads.
fn thread_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

struct Ctx {
    cfg: OmniMatchConfig,
    ckpt: Vec<u8>,
    vocab_size: usize,
    scenario: CrossDomainScenario,
}

fn build_ctx() -> Ctx {
    let world = SynthWorld::generate(SynthConfig::tiny(), &["Books", "Movies"]);
    let scenario = world.scenario("Books", "Movies", SplitConfig::default());
    let cfg = OmniMatchConfig::fast().with_seed(41);
    let trained = Trainer::new(cfg.clone()).fit(&scenario);
    let ckpt = trained.export_checkpoint().to_vec();
    let (_, views, _) = trained.into_parts();
    let vocab_size = views.vocab.len();
    Ctx {
        cfg,
        ckpt,
        vocab_size,
        scenario,
    }
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

impl Ctx {
    fn user_dim(&self) -> usize {
        self.cfg.invariant_dim + self.cfg.specific_dim
    }

    fn model(&self) -> OmniMatchModel {
        load_model(&self.cfg, self.vocab_size, &self.ckpt).expect("decode checkpoint")
    }

    fn engine(&self, items: ItemArena, users: UserArena, opts: ServeOptions) -> ServeEngine {
        let views = CorpusViews::build(&self.scenario, &self.cfg, &mut seeded_rng(self.cfg.seed));
        ServeEngine::with_arenas(self.model(), views, items, users, opts)
    }
}

/// A shard width no catalogue reaches: the whole arena is one shard.
const ONE_SHARD: usize = usize::MAX;

/// ReLU-like feature rows: negatives clamp to exact zeros, and every
/// `zero_row_every`-th row is zero throughout.
fn relu_rows(n: usize, dim: usize, seed: u64, zero_row_every: usize) -> Vec<f32> {
    let mut rows = synth_feature_rows(n, dim, seed);
    for v in rows.iter_mut() {
        *v = v.max(0.0);
    }
    for r in (0..n).step_by(zero_row_every) {
        rows[r * dim..(r + 1) * dim].fill(0.0);
    }
    rows
}

/// The reference decomposition over the `[b, du]` × `[n, di]` cross join,
/// `b·n` scores, request-major.
fn reference(
    model: &OmniMatchModel,
    users: &[f32],
    items: &[f32],
    du: usize,
    di: usize,
) -> Vec<f32> {
    let _mode = om_nn::inference_mode();
    let pairs = kernels::pair_rows(users, items, du, di);
    let rows = pairs.len() / (du + di);
    let pairs = Tensor::from_vec(pairs, &[rows, du + di]);
    let logits = model.rating_logits_from_pairs(&pairs, false, &mut seeded_rng(0));
    OmniMatchModel::expected_stars(&logits)
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: row {i}: {a} vs {b}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engine_scores_equal_the_pair_rows_reference_bitwise(
        n_users in 1usize..10,
        n_items in 1usize..300,
        shard_width in 1usize..128,
        k in 1usize..16,
        zero_row_every in 2usize..9,
        quantized in 0u8..2,
        seed in 0u64..1_000,
        threads in 0usize..4,
    ) {
        with_ctx(|ctx| {
            let (du, di) = (ctx.user_dim(), ctx.cfg.item_dim);
            let user_ids: Vec<UserId> = (0..n_users as u32).map(UserId).collect();
            let arenas = || {
                let items = ItemArena::from_raw(
                    (0..n_items as u32).map(ItemId).collect(),
                    relu_rows(n_items, di, seed, zero_row_every),
                    di,
                );
                let users = UserArena::from_raw(
                    user_ids.clone(),
                    relu_rows(n_users, du, seed ^ 0x5EED, zero_row_every),
                    du,
                );
                if quantized == 1 {
                    (items.quantized(), users.quantized())
                } else {
                    (items, users)
                }
            };
            let (items, users) = arenas();
            // The reference reads exactly what the engine reads: int8 rows
            // dequantized through the same arena accessors.
            let mut scratch = Vec::new();
            let item_rows = items.rows_f32(0, n_items, &mut scratch).to_vec();
            let mut user_rows = vec![0.0f32; n_users * du];
            for (&u, dst) in user_ids.iter().zip(user_rows.chunks_exact_mut(du)) {
                prop_assert!(users.copy_row_into(u, dst));
            }
            let want = reference(&ctx.model(), &user_rows, &item_rows, du, di);

            let opts = ServeOptions { topk: k, shard_items: shard_width, ..ServeOptions::default() };
            let engine = ctx.engine(items, users, opts.clone());
            let (items, users) = arenas();
            let one_shard = ctx.engine(items, users, ServeOptions { shard_items: ONE_SHARD, ..opts });
            let reqs: Vec<Request> = user_ids
                .iter()
                .enumerate()
                .map(|(i, &user)| Request { id: i as u64, user, arrive_us: 0 })
                .collect();

            let _g = thread_lock();
            let prev = runtime::set_threads(threads);
            let served = engine.serve_batch(&reqs).expect("serve batch");
            let single = one_shard.serve_batch(&reqs).expect("serve batch (one shard)");
            for (b, &u) in user_ids.iter().enumerate() {
                let row = &want[b * n_items..(b + 1) * n_items];
                assert_bits(&engine.score_user(u).expect("score user"), row, "sharded score_user");
                assert_bits(
                    &one_shard.score_user(u).expect("score user"),
                    row,
                    "one-shard score_user",
                );
                // Both widths' top-K must be the reference row's top-K.
                let top: Vec<(ItemId, f32)> = om_metrics::top_k_indices(row, k)
                    .into_iter()
                    .map(|i| (ItemId(i as u32), row[i]))
                    .collect();
                for resp in [&served[b], &single[b]] {
                    prop_assert_eq!(resp.user, u);
                    prop_assert_eq!(resp.top.len(), top.len());
                    for ((ia, sa), (ib, sb)) in resp.top.iter().zip(&top) {
                        prop_assert_eq!(ia, ib);
                        prop_assert_eq!(sa.to_bits(), sb.to_bits());
                    }
                }
            }
            runtime::set_threads(prev);
        });
    }
}

#[test]
fn arena_width_mismatch_is_a_typed_error_not_a_panic() {
    with_ctx(|ctx| {
        let (du, di) = (ctx.user_dim(), ctx.cfg.item_dim);
        let user = UserId(0);
        let req = Request {
            id: 0,
            user,
            arrive_us: 0,
        };
        let err = |arena, expected, got| ServeError::ArenaWidth {
            arena,
            expected,
            got,
        };
        // (user arena width, item arena width, the error every path owes)
        let cases = [
            (0, di, err("user", du, 0)),
            (du + 1, di, err("user", du, du + 1)),
            (du - 1, di, err("user", du, du - 1)),
            (du, di + 3, err("item", di, di + 3)),
        ];
        for (user_dim, item_dim, want) in cases {
            let items = ItemArena::from_raw(
                (0..5).map(ItemId).collect(),
                synth_feature_rows(5, item_dim, 7),
                item_dim,
            );
            let users = UserArena::from_raw(vec![user], vec![0.5; user_dim], user_dim);
            let engine = ctx.engine(
                items,
                users,
                ServeOptions {
                    shard_items: 2,
                    ..ServeOptions::default()
                },
            );
            assert_eq!(
                engine.serve_batch(&[req]).err(),
                Some(want.clone()),
                "serve_batch"
            );
            assert_eq!(
                engine.score_user(user).err(),
                Some(want.clone()),
                "score_user"
            );
            assert_eq!(engine.serve_one(req).err(), Some(want.clone()), "serve_one");
            assert_eq!(engine.oracle_rank(user).err(), Some(want), "oracle_rank");
        }
    });
}

//! The batched scoring engine.
//!
//! A flush of `B` requests against an arena of `N` items runs:
//!
//! 1. user rows — arena lookups for warm users, one *batched* tower pass
//!    for the cold ones (their auxiliary target documents);
//! 2. the rating head's layer-1 user partial `P = u·W1[..user_dim]`, once
//!    per request (`omnimatch_core::PairBlockScorer`);
//! 3. item shard by item shard of [`ServeOptions::shard_items`] rows, per
//!    request: layer 1 resumed from `P` over the shard's item rows, then
//!    bias, ReLU, layer 2 and per-row expected stars — no
//!    `[B·N, user_dim + item_dim]` cross join is ever built — and a
//!    *per-shard* top-K via `om_metrics::topk` (the selection code path
//!    the offline eval tables share);
//! 4. per request, one `om_metrics::merge_top_k` of the per-shard
//!    winners — at most `k` per shard, tagged with their global arena row.
//!
//! Shards bound the per-flush working set (one `[shard_items, hidden]`
//! layer-1 block and, for int8 arenas, one dequantized shard)
//! independently of `N`. A catalogue no wider than one shard is the
//! one-shard case of the same path.
//!
//! Bitwise determinism is a theorem, not a tuning goal:
//!
//! * resuming layer 1 from `P` keeps each element's sum in the `p` order
//!   of the reference `pair_rows` → `rating_logits_from_pairs` →
//!   `expected_stars` (`gemm` accumulates into its output in `p` order);
//! * every step is per-row independent (the GEMM fixes its reduction
//!   order per output element regardless of how many rows the batch or
//!   shard has), so an item's score does not depend on its shard or its
//!   batch;
//! * top-K uses a strict total order (`cmp_nan_last_desc`, ties by
//!   ascending arena row), under which each shard's top-`k` is a superset
//!   of that shard's contribution to the global top-`k`, so merging
//!   per-shard winners loses nothing.
//!
//! Hence `serve_batch([a, b, c])` equals `[serve_one(a), serve_one(b),
//! serve_one(c)]` bit for bit, at any shard width and thread count —
//! property-tested in `tests/batching_parity.rs` and
//! `tests/sharded_diff.rs` (NaNs and ties included), and against the
//! reference decomposition in `tests/fused_head_diff.rs`.

// Serving hot path: a panic kills the worker and its queue. Tests may panic.
#![cfg_attr(not(test), deny(
    clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo,
    clippy::unimplemented, clippy::indexing_slicing, clippy::string_slice, clippy::disallowed_macros,
))]

use std::sync::{Arc, Mutex, MutexGuard};

use om_data::types::{ItemId, UserId};
use om_tensor::seeded_rng;
use omnimatch_core::model::DomainSide;
use omnimatch_core::{CorpusViews, OmniMatchModel};

use crate::arena::{ItemArena, UserArena};
use crate::error::ServeError;
use crate::update::{ArenaGeneration, ArenaSwap, InteractionStore, UpdateOutcome, UserEvent};

/// Engine knobs; [`ServeOptions::from_env`] reads the `OM_SERVE_*`
/// variables documented in the README.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Microbatch flush size (`OM_SERVE_BATCH`, default 8).
    pub batch: usize,
    /// Max queueing delay before a partial batch flushes, in microseconds
    /// (`OM_SERVE_WAIT_US`, default 2000).
    pub wait_us: u64,
    /// Recommendations returned per request (`OM_SERVE_TOPK`, default 10).
    pub topk: usize,
    /// Document batch size for the offline arena precompute.
    pub arena_batch: usize,
    /// Item rows per scoring shard (`OM_SERVE_SHARD`, default 8192).
    /// Partitioning is a throughput/footprint knob only; it cannot
    /// affect any bit of the result.
    pub shard_items: usize,
    /// Streamed target-domain interactions after which a cold user
    /// graduates to warm inference (`OM_SERVE_WARM_AFTER`, default 5).
    pub warm_after: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            batch: 8,
            wait_us: 2_000,
            topk: 10,
            arena_batch: 64,
            shard_items: 8_192,
            warm_after: 5,
        }
    }
}

impl ServeOptions {
    /// Defaults overridden by the `OM_SERVE_*` variables. A set variable
    /// that does not parse — or parses to zero where the knob needs at
    /// least 1 (`OM_SERVE_BATCH=0` would livelock the batcher,
    /// `OM_SERVE_SHARD=0` would divide the arena into nothing) — is a
    /// [`ServeError::BadEnv`] at parse time, not a panic deep in the
    /// batcher an hour later. Only `OM_SERVE_WAIT_US` accepts 0 (flush
    /// immediately — a duration, not a size).
    pub fn from_env() -> Result<ServeOptions, ServeError> {
        fn env_usize(key: &'static str, default: usize, min: usize) -> Result<usize, ServeError> {
            match std::env::var(key) {
                Ok(raw) => match raw.trim().parse::<usize>() {
                    Ok(v) if v >= min => Ok(v),
                    _ => Err(ServeError::BadEnv { var: key, value: raw }),
                },
                Err(_) => Ok(default),
            }
        }
        let d = ServeOptions::default();
        Ok(ServeOptions {
            batch: env_usize("OM_SERVE_BATCH", d.batch, 1)?,
            wait_us: env_usize("OM_SERVE_WAIT_US", d.wait_us as usize, 0)? as u64,
            topk: env_usize("OM_SERVE_TOPK", d.topk, 1)?,
            arena_batch: d.arena_batch,
            shard_items: env_usize("OM_SERVE_SHARD", d.shard_items, 1)?,
            warm_after: env_usize("OM_SERVE_WARM_AFTER", d.warm_after, 1)?,
        })
    }
}

/// One scoring request: rank the catalogue for `user`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Caller's correlation id, echoed in the [`Response`].
    pub id: u64,
    /// The user to serve (warm or cold; must be a scenario user).
    pub user: UserId,
    /// Arrival time on the caller's clock, microseconds (drives the
    /// microbatcher's wait deadline; not used by scoring).
    pub arrive_us: u64,
}

/// Top-K recommendations for one request, best first.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of [`Request::id`].
    pub id: u64,
    /// Echo of [`Request::user`].
    pub user: UserId,
    /// `(item, expected_stars)`, descending score, NaN-last, ties by
    /// arena order.
    pub top: Vec<(ItemId, f32)>,
}

/// A loaded model plus its precomputed arenas, ready to score.
///
/// The user arena lives behind an [`ArenaSwap`]: scoring pins one
/// generation per microbatch, and [`ServeEngine::apply_event`] publishes
/// re-encoded shadow arenas as new generations without ever blocking or
/// tearing an in-flight batch. The item arena is immutable between model
/// versions, so it stays a plain field.
pub struct ServeEngine {
    model: OmniMatchModel,
    views: CorpusViews,
    items: ItemArena,
    users: ArenaSwap,
    opts: ServeOptions,
    store: Mutex<InteractionStore>,
}

/// Lock the interaction store, recovering from poison: the store is a
/// map of append-only `Vec`s, every mutation of which completes or never
/// happened, so the poison flag carries no information here.
fn store_lock(cell: &Mutex<InteractionStore>) -> MutexGuard<'_, InteractionStore> {
    match cell.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl ServeEngine {
    /// Precompute the arenas and assemble the engine. `warm` lists users
    /// whose target-side features may be cached (typically the training
    /// users); everyone else runs the user tower per request — the
    /// cold-start path.
    pub fn new(
        model: OmniMatchModel,
        views: CorpusViews,
        warm: &[UserId],
        opts: ServeOptions,
    ) -> ServeEngine {
        let t0 = om_obs::clock::now_ns();
        let items = ItemArena::build(&model, &views, opts.arena_batch);
        let users = UserArena::build(&model, &views, warm, opts.arena_batch);
        om_obs::info!(
            "serve: arenas ready — {} items, {} warm users, {} ms",
            items.len(),
            users.len(),
            om_obs::clock::now_ns().saturating_sub(t0) / 1_000_000
        );
        om_obs::metrics::counter("serve.arena.items").add(items.len() as u64);
        om_obs::metrics::counter("serve.arena.warm_users").add(users.len() as u64);
        ServeEngine::with_arenas(model, views, items, users, opts)
    }

    /// Assemble an engine from pre-built arenas — the path the serving
    /// bench and the blob loader use, where arenas come from synthesis or
    /// a memory-mapped `OMAB` blob instead of a tower precompute. Users
    /// absent from `users` still run the cold tower through `views`.
    pub fn with_arenas(
        model: OmniMatchModel,
        views: CorpusViews,
        items: ItemArena,
        users: UserArena,
        opts: ServeOptions,
    ) -> ServeEngine {
        let width = opts.shard_items.max(1);
        om_obs::info!(
            "serve: engine — {} items in {} shards of {}",
            items.len(),
            items.len().div_ceil(width).max(1),
            width
        );
        ServeEngine {
            model,
            views,
            items,
            users: ArenaSwap::new(users),
            opts,
            store: Mutex::new(InteractionStore::new()),
        }
    }

    /// The engine's options (the microbatcher is built from these).
    pub fn options(&self) -> &ServeOptions {
        &self.opts
    }

    /// Number of items in the arena (the catalogue being ranked).
    pub fn catalogue_len(&self) -> usize {
        self.items.len()
    }

    /// Is this user served from the warm-user cache (of the generation
    /// current at the time of the call)?
    pub fn is_warm(&self, user: UserId) -> bool {
        self.users.pin().arena().contains(user)
    }

    /// Pin the current user-arena generation. Holding the returned handle
    /// keeps that generation alive and unchanged across any number of
    /// concurrent [`ServeEngine::apply_event`] installs.
    pub fn pin_users(&self) -> Arc<ArenaGeneration> {
        self.users.pin()
    }

    /// The currently published user-arena generation number (0 at build).
    pub fn user_generation(&self) -> u64 {
        self.users.generation()
    }

    /// Interactions seen from `user` so far via
    /// [`ServeEngine::apply_event`].
    pub fn interactions_seen(&self, user: UserId) -> usize {
        store_lock(&self.store).seen(user)
    }

    /// Expected-star scores of `user` against the whole arena, in arena
    /// (dense item) order, assembled shard by shard. Bitwise equal to the
    /// rows [`ServeEngine::serve_batch`] ranks, for any grouping.
    pub fn score_user(&self, user: UserId) -> Result<Vec<f32>, ServeError> {
        let mut scores = Vec::with_capacity(self.items.len());
        let req = [Request { id: 0, user, arrive_us: 0 }];
        self.score_shards(&req, |_, _, stars| scores.extend(stars))?;
        Ok(scores)
    }

    /// Serve one request: a microbatch of one.
    pub fn serve_one(&self, req: Request) -> Result<Response, ServeError> {
        self.serve_batch(std::slice::from_ref(&req))?
            .pop()
            .ok_or(ServeError::ScoreShape { expected: 1, got: 0 })
    }

    /// Serve a microbatch: per item shard, the rating head and a bounded
    /// top-K per request; then one merge per request. Each flush records
    /// `serve.requests`, `serve.flushes`, `serve.flush_ns` and the stage
    /// histograms `serve.score` (scoring with per-shard top-K) /
    /// `serve.merge`, once.
    pub fn serve_batch(&self, reqs: &[Request]) -> Result<Vec<Response>, ServeError> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        let k = self.opts.topk;
        let t0 = om_obs::clock::now_ns();
        // Per-request candidate pools: ≤ k winners per shard, tagged with
        // the global arena row so the merge's tie order is arena order.
        let mut pools: Vec<Vec<(f32, usize)>> = vec![Vec::new(); reqs.len()];
        self.score_shards(reqs, |b, base, stars| {
            if let Some(pool) = pools.get_mut(b) {
                pool.extend(
                    om_metrics::top_k_indices(&stars, k)
                        .into_iter()
                        .filter_map(|i| stars.get(i).map(|&s| (s, base + i))),
                );
            }
        })?;
        let t_scored = om_obs::clock::now_ns();
        let out = reqs
            .iter()
            .zip(pools)
            .map(|(&req, pool)| {
                let top = om_metrics::merge_top_k(pool, k)
                    .into_iter()
                    .map(|(score, i)| (self.items.id_at(i), score))
                    .collect();
                Response { id: req.id, user: req.user, top }
            })
            .collect();
        let t_merged = om_obs::clock::now_ns();
        om_obs::metrics::counter("serve.requests").add(reqs.len() as u64);
        om_obs::metrics::counter("serve.flushes").add(1);
        om_obs::metrics::histogram("serve.flush_ns").record(t_merged.saturating_sub(t0));
        om_obs::metrics::histogram("serve.score").record(t_scored.saturating_sub(t0));
        om_obs::metrics::histogram("serve.merge").record(t_merged.saturating_sub(t_scored));
        Ok(out)
    }

    /// Per-request combined user feature rows, `[reqs.len(), user_dim]`:
    /// warm → arena copy; cold → one batched tower pass. `users` is the
    /// caller's pinned generation — one pin per microbatch, so a batch
    /// never mixes generations.
    fn user_rows_for(&self, reqs: &[Request], users: &UserArena) -> Vec<f32> {
        let user_dim = users.dim();
        let mut user_rows = vec![0.0f32; reqs.len() * user_dim];
        if user_dim == 0 {
            return user_rows;
        }
        let mut cold: Vec<(usize, UserId)> = Vec::new();
        for ((i, req), dst) in reqs
            .iter()
            .enumerate()
            .zip(user_rows.chunks_exact_mut(user_dim))
        {
            // Warm rows copy straight out of the arena (dequantized on
            // the fly when the arena is int8); cold users batch into one
            // tower pass below.
            if !users.copy_row_into(req.user, dst) {
                cold.push((i, req.user));
            }
        }
        if !cold.is_empty() {
            let docs: Vec<&[usize]> = cold
                .iter()
                .map(|&(_, user)| self.views.target_doc(user))
                .collect();
            // Inference mode: nothing is drawn from this RNG.
            let mut rng = seeded_rng(0);
            let feats = self
                .model
                .user_features(&docs, DomainSide::Target, false, &mut rng);
            let combined = feats.combined.data();
            for (&(i, _), src) in cold.iter().zip(combined.chunks_exact(user_dim)) {
                if let Some(dst) = user_rows.get_mut(i * user_dim..(i + 1) * user_dim) {
                    dst.copy_from_slice(src);
                }
            }
        }
        user_rows
    }

    /// Refuse arenas whose row widths differ from the model's: the head
    /// splits its first weight matrix at the model's user width.
    fn check_widths(&self, users: &UserArena) -> Result<(), ServeError> {
        let cfg = self.model.config();
        let want = [
            ("user", cfg.invariant_dim + cfg.specific_dim, users.dim()),
            ("item", cfg.item_dim, self.items.dim()),
        ];
        for (arena, expected, got) in want {
            if expected != got {
                return Err(ServeError::ArenaWidth {
                    arena,
                    expected,
                    got,
                });
            }
        }
        Ok(())
    }

    /// The one scoring path. User rows are assembled once (warm → arena
    /// copy, cold → one batched tower pass) and folded into the rating
    /// head's per-user partials; then, item shard by item shard of
    /// [`ServeOptions::shard_items`] rows, every request's expected stars
    /// go to `sink(request index, shard's first arena row, stars)`. Runs
    /// under inference mode throughout.
    fn score_shards(
        &self,
        reqs: &[Request],
        mut sink: impl FnMut(usize, usize, Vec<f32>),
    ) -> Result<(), ServeError> {
        let _mode = om_nn::inference_mode();
        let n = self.items.len();
        if n == 0 || self.items.dim() == 0 {
            return Err(ServeError::EmptyArena);
        }
        // Pin exactly one user-arena generation for the whole batch: an
        // install racing this flush flips only *future* pins, so the
        // batch can neither tear nor mix generations, and the pin keeps
        // a superseded arena alive until this flush returns.
        let pinned = self.users.pin();
        let users = pinned.arena();
        self.check_widths(users)?;
        let user_rows = self.user_rows_for(reqs, users);
        let mut head = self.model.pair_block_scorer(&user_rows);
        // `rows_f32` borrows the arena when it is f32 and dequantizes the
        // shard into the scratch when it is int8.
        let mut scratch = Vec::new();
        let width = self.opts.shard_items.max(1);
        for base in (0..n).step_by(width) {
            let hi = base.saturating_add(width).min(n);
            let rows = self.items.rows_f32(base, hi, &mut scratch);
            for b in 0..reqs.len() {
                let stars = head.score(b, rows);
                if stars.len() != hi - base {
                    return Err(ServeError::ScoreShape {
                        expected: hi - base,
                        got: stars.len(),
                    });
                }
                sink(b, base, stars);
            }
        }
        Ok(())
    }

    /// Naive oracle for tests/smoke: score, then *full* stable sort by
    /// `cmp_nan_last_desc` — the pre-topk code path. The engine's sharded
    /// selection must reproduce its prefix exactly.
    pub fn oracle_rank(&self, user: UserId) -> Result<Vec<(ItemId, f32)>, ServeError> {
        let scores = self.score_user(user)?;
        let mut ranked: Vec<(ItemId, f32)> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| (self.items.id_at(i), s))
            .collect();
        ranked.sort_by(|a, b| om_metrics::cmp_nan_last_desc(a.1, b.1));
        Ok(ranked)
    }

    /// Ingest one streamed target-domain interaction — the online
    /// cold→warm graduation path.
    ///
    /// The event's review text is buffered per user; once the user has
    /// [`ServeOptions::warm_after`] interactions, every further event
    /// re-encodes that user's row (user tower only, over the accumulated
    /// texts through the *frozen* training vocabulary) into a shadow
    /// arena, which is atomically published as the next generation.
    /// In-flight batches keep their pinned generation; the superseded
    /// arena is freed when its last pin drops. The first crossing of the
    /// threshold is a graduation, counted in `serve.graduations`.
    ///
    /// Determinism: the re-encoded row flows through the same
    /// `user_target_rows` entry point as the offline arena precompute,
    /// so a post-swap engine is bitwise identical to a cold rebuild at
    /// the same interaction state (`tests/online_update.rs`).
    pub fn apply_event(&self, ev: &UserEvent) -> Result<UpdateOutcome, ServeError> {
        om_obs::metrics::counter("serve.update.events").add(1);
        let seen = store_lock(&self.store).record(ev);
        if seen < self.opts.warm_after {
            return Ok(UpdateOutcome { user: ev.user, seen, graduated: false, generation: None });
        }
        // Re-encode this user's combined target-side row over everything
        // they have said so far. Clone the texts out so the store lock is
        // not held across the tower forward.
        let texts: Vec<String> = store_lock(&self.store).texts(ev.user).to_vec();
        let text_refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let doc = self.views.encode_reviews(&text_refs);
        let row = self.model.user_target_rows(&[&doc]);
        let pinned = self.users.pin();
        let live = pinned.arena();
        if row.len() != live.dim() {
            om_obs::metrics::counter("serve.update.errors").add(1);
            return Err(ServeError::UpdateDim { arena: live.dim(), row: row.len() });
        }
        let shadow = live.with_row(ev.user, &row);
        // om-fault: kill-point — sits *before* the install so a killed
        // swap provably leaves the old generation serving (CI chaos run).
        om_obs::fault::kill_point("swap");
        let generation = self.users.install(shadow);
        let graduated = seen == self.opts.warm_after;
        if graduated {
            om_obs::metrics::counter("serve.graduations").add(1);
        }
        om_obs::metrics::counter("serve.update.swaps").add(1);
        om_obs::metrics::gauge("serve.update.generation").set(generation);
        om_obs::info!(
            "serve: user {} row re-encoded at {} interaction(s) → generation {}{}",
            ev.user.0,
            seen,
            generation,
            if graduated { " (graduated cold→warm)" } else { "" }
        );
        Ok(UpdateOutcome { user: ev.user, seen, graduated, generation: Some(generation) })
    }
}

/// The pre-merge name of the engine, kept only because the frozen
/// benchmark harness (`perfbench/`) still names it: a newtype over
/// [`ServeEngine`] (which already scores shard by shard at
/// [`ServeOptions::shard_items`]) with one-line delegations. ROADMAP
/// item 6, the next benchmark change, moves perfbench to `ServeEngine`
/// and deletes this shim.
pub struct ShardedEngine(ServeEngine);

impl ShardedEngine {
    /// Wrap `engine`.
    pub fn new(engine: ServeEngine) -> ShardedEngine {
        ShardedEngine(engine)
    }

    /// [`ServeEngine::serve_batch`].
    pub fn serve_batch(&self, reqs: &[Request]) -> Result<Vec<Response>, ServeError> {
        self.0.serve_batch(reqs)
    }

    /// [`ServeEngine::apply_event`].
    pub fn apply_event(&self, ev: &UserEvent) -> Result<UpdateOutcome, ServeError> {
        self.0.apply_event(ev)
    }
}

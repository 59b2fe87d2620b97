//! The batched scoring engine.
//!
//! A flush of `B` requests against an arena of `N` items runs:
//!
//! 1. user rows — arena lookups for warm users, one *batched* tower pass
//!    for the cold ones (their auxiliary target documents);
//! 2. the rating head's layer-1 user partial `P = u·W1[..user_dim]`, once
//!    per request (`omnimatch_core::PairBlockScorer`);
//! 3. per item shard and request, layer 1 resumed from `P` over the item
//!    rows, then bias, ReLU, layer 2 and per-row expected stars — no
//!    `[B·N, user_dim + item_dim]` cross join is ever built;
//! 4. per-request top-K via `om_metrics::topk` — the selection code path
//!    the offline eval tables share.
//!
//! [`ServeEngine`] scores the whole arena as one shard; [`crate::ShardedEngine`]
//! runs the same path (`ServeEngine::score_shards`) shard by shard.
//!
//! Bitwise determinism: resuming layer 1 from `P` keeps each element's
//! sum in the `p` order of the reference `pair_rows` →
//! `rating_logits_from_pairs` → `expected_stars` (`gemm` accumulates into
//! its output in `p` order). Every step is per-row independent (the GEMM
//! fixes its reduction order per output element regardless of how many
//! rows the batch has), and top-K uses a strict total order. Hence
//! `serve_batch([a, b, c])` equals `[serve_one(a), serve_one(b),
//! serve_one(c)]` bit for bit, at any thread count — property-tested in
//! `tests/batching_parity.rs`, and against the reference decomposition in
//! `tests/fused_head_diff.rs`.

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
    /// Item rows per shard for the sharded engine (`OM_SERVE_SHARD`,
    /// default 8192). Partitioning is a throughput/footprint knob only;
    /// it cannot affect any bit of the result.
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
    pub(crate) model: OmniMatchModel,
    pub(crate) views: CorpusViews,
    pub(crate) items: ItemArena,
    pub(crate) users: ArenaSwap,
    pub(crate) opts: ServeOptions,
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

/// Run and record one engine flush — the one recorder behind both
/// engines' `serve_batch`. `score` is the scoring forward (for the
/// sharded engine, per-shard top-K included), `merge` turns its output
/// into one response per request. Each flush records `serve.requests`,
/// `serve.flushes`, `serve.flush_ns`, and the stage histograms
/// `serve.score` / `serve.merge`, once.
pub(crate) fn timed_flush<S>(
    reqs: &[Request],
    score: impl FnOnce() -> Result<S, ServeError>,
    merge: impl FnOnce(S) -> Vec<Response>,
) -> Result<Vec<Response>, ServeError> {
    if reqs.is_empty() {
        return Ok(Vec::new());
    }
    let t0 = om_obs::clock::now_ns();
    let scored = score()?;
    let t_scored = om_obs::clock::now_ns();
    let out = merge(scored);
    let t_merged = om_obs::clock::now_ns();
    om_obs::metrics::counter("serve.requests").add(reqs.len() as u64);
    om_obs::metrics::counter("serve.flushes").add(1);
    om_obs::metrics::histogram("serve.flush_ns").record(t_merged.saturating_sub(t0));
    om_obs::metrics::histogram("serve.score").record(t_scored.saturating_sub(t0));
    om_obs::metrics::histogram("serve.merge").record(t_merged.saturating_sub(t_scored));
    Ok(out)
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
        ServeEngine {
            model,
            views,
            items,
            users: ArenaSwap::new(users),
            opts,
            store: Mutex::new(InteractionStore::new()),
        }
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
    /// (dense item) order. Single-request path; [`ServeEngine::serve_batch`]
    /// produces bitwise-identical rows for any grouping.
    pub fn score_user(&self, user: UserId) -> Result<Vec<f32>, ServeError> {
        let req = [Request { id: 0, user, arrive_us: 0 }];
        self.score_batch(&req)?
            .pop()
            .ok_or(ServeError::ScoreShape { expected: 1, got: 0 })
    }

    /// Serve one request (unbatched path — used as the parity oracle).
    pub fn serve_one(&self, req: Request) -> Result<Response, ServeError> {
        let scores = self.score_user(req.user)?;
        Ok(self.respond(req, &scores))
    }

    /// Serve a microbatch: one fused forward, then per-request top-K.
    pub fn serve_batch(&self, reqs: &[Request]) -> Result<Vec<Response>, ServeError> {
        timed_flush(
            reqs,
            || self.score_batch(reqs),
            |rows| {
                reqs.iter()
                    .zip(&rows)
                    .map(|(&req, scores)| self.respond(req, scores))
                    .collect()
            },
        )
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

    /// The one scoring path both engines share. User rows are assembled
    /// once (warm → arena copy, cold → one batched tower pass) and folded
    /// into the rating head's per-user partials; then, item shard by item
    /// shard of `shard_items` rows, every request's expected stars go to
    /// `sink(request index, shard's first arena row, stars)`. The
    /// single-arena engine is the one-shard case. Runs under inference
    /// mode throughout.
    pub(crate) fn score_shards(
        &self,
        reqs: &[Request],
        shard_items: usize,
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
        let width = shard_items.max(1);
        for base in (0..n).step_by(width) {
            let hi = (base + width).min(n);
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

    /// Per-request score rows against the whole arena (arena order) —
    /// `ServeEngine::score_shards` with a single shard.
    fn score_batch(&self, reqs: &[Request]) -> Result<Vec<Vec<f32>>, ServeError> {
        let mut rows: Vec<Vec<f32>> = vec![Vec::new(); reqs.len()];
        self.score_shards(reqs, self.items.len(), |b, _, stars| {
            if let Some(row) = rows.get_mut(b) {
                row.extend(stars);
            }
        })?;
        Ok(rows)
    }

    /// Sharded top-K over one score row → a [`Response`].
    fn respond(&self, req: Request, scores: &[f32]) -> Response {
        let top = om_metrics::top_k_indices(scores, self.opts.topk)
            .into_iter()
            .filter_map(|i| scores.get(i).map(|&s| (self.items.id_at(i), s)))
            .collect();
        Response { id: req.id, user: req.user, top }
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

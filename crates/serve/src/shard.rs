//! Sharded catalogue scoring — the million-item form of the engine.
//!
//! [`ShardedEngine`] partitions the item arena into fixed-width shards of
//! [`ServeOptions::shard_items`] rows and scores one shard at a time
//! through the engine's one scoring path (`ServeEngine::score_shards`):
//! the rating head resumed from each request's user partial over the
//! shard's item rows (each GEMM still fans out across the
//! `om_tensor::runtime` worker pool), then a *per-shard* top-K through the
//! same bounded worst-out heap the offline tables use. Per-shard winners —
//! at most `k` per shard, tagged with their global arena row — are merged
//! by [`om_metrics::merge_top_k`] into the final top-K. Shards bound the
//! per-flush working set (one `[shard_items, hidden]` layer-1 block and,
//! for int8 arenas, one dequantized shard) independently of `N`.
//!
//! Bitwise parity with [`ServeEngine`] is a theorem, not a tuning goal:
//!
//! * every kernel in the forward is row-independent with a fixed
//!   per-element reduction order, so an item's score does not depend on
//!   which shard (or batch) it was computed in;
//! * top-K uses a strict total order (`cmp_nan_last_desc`, ties by
//!   ascending arena row), under which each shard's top-`k` is a superset
//!   of that shard's contribution to the global top-`k`, so merging
//!   per-shard winners loses nothing.
//!
//! `tests/sharded_diff.rs` property-tests the equality — bit for bit,
//! NaNs and ties included — across random catalogue sizes, shard widths,
//! `k`, and thread counts.

use om_data::types::UserId;

use crate::engine::{timed_flush, Request, Response, ServeEngine};
use crate::error::ServeError;

/// A [`ServeEngine`] that scores the catalogue shard by shard. Same
/// requests in, bitwise-identical responses out; only the per-flush
/// working set changes (one shard's rows instead of the whole arena's).
pub struct ShardedEngine {
    inner: ServeEngine,
    shard_items: usize,
}

impl ShardedEngine {
    /// Wrap `engine`, scoring `engine.options().shard_items` rows per
    /// shard (clamped to at least 1).
    pub fn new(engine: ServeEngine) -> ShardedEngine {
        let shard_items = engine.opts.shard_items.max(1);
        om_obs::info!(
            "serve: sharded engine — {} items in {} shards of {}",
            engine.items.len(),
            engine.items.len().div_ceil(shard_items.max(1)).max(1),
            shard_items
        );
        ShardedEngine { inner: engine, shard_items }
    }

    /// The wrapped single-arena engine (the parity oracle).
    pub fn inner(&self) -> &ServeEngine {
        &self.inner
    }

    /// Item rows per shard.
    pub fn shard_items(&self) -> usize {
        self.shard_items
    }

    /// Change the shard width — a pure performance knob that cannot move
    /// a result bit, which is exactly what the differential suite sweeps
    /// it to prove.
    pub fn set_shard_items(&mut self, width: usize) {
        self.shard_items = width.max(1);
    }

    /// Number of shards the catalogue splits into.
    pub fn shard_count(&self) -> usize {
        self.inner.items.len().div_ceil(self.shard_items).max(1)
    }

    /// Number of items in the arena (the catalogue being ranked).
    pub fn catalogue_len(&self) -> usize {
        self.inner.catalogue_len()
    }

    /// Is this user served from the warm-user cache?
    pub fn is_warm(&self, user: UserId) -> bool {
        self.inner.is_warm(user)
    }

    /// Ingest one streamed interaction — delegates to
    /// [`ServeEngine::apply_event`]; both engines share the one
    /// generation pointer, so a swap published here is what the next
    /// sharded batch pins.
    pub fn apply_event(
        &self,
        ev: &crate::update::UserEvent,
    ) -> Result<crate::update::UpdateOutcome, ServeError> {
        self.inner.apply_event(ev)
    }

    /// Serve one request through the sharded path.
    pub fn serve_one(&self, req: Request) -> Result<Response, ServeError> {
        self.serve_batch(std::slice::from_ref(&req))?
            .pop()
            .ok_or(ServeError::ScoreShape { expected: 1, got: 0 })
    }

    /// Serve a microbatch: per shard, the rating head and a bounded top-K
    /// per request; then one merge per request.
    pub fn serve_batch(&self, reqs: &[Request]) -> Result<Vec<Response>, ServeError> {
        let k = self.inner.opts.topk;
        timed_flush(
            reqs,
            || {
                // Per-request candidate pools: ≤ k winners per shard,
                // tagged with the global arena row so the merge's tie
                // order matches the single-arena engine's.
                let mut candidates: Vec<Vec<(f32, usize)>> = vec![Vec::new(); reqs.len()];
                self.inner
                    .score_shards(reqs, self.shard_items, |b, base, stars| {
                        if let Some(pool) = candidates.get_mut(b) {
                            pool.extend(
                                om_metrics::top_k_indices(&stars, k)
                                    .into_iter()
                                    .filter_map(|i| stars.get(i).map(|&s| (s, base + i))),
                            );
                        }
                    })?;
                Ok(candidates)
            },
            |candidates| {
                reqs.iter()
                    .zip(candidates)
                    .map(|(&req, pool)| {
                        let top = om_metrics::merge_top_k(pool, k)
                            .into_iter()
                            .map(|(score, i)| (self.inner.items.id_at(i), score))
                            .collect();
                        Response { id: req.id, user: req.user, top }
                    })
                    .collect()
            },
        )
    }

    /// Expected-star scores of `user` against the whole arena, in arena
    /// order, assembled shard by shard — bitwise equal to
    /// [`ServeEngine::score_user`].
    pub fn score_user(&self, user: UserId) -> Result<Vec<f32>, ServeError> {
        let mut scores = Vec::with_capacity(self.inner.items.len());
        let req = [Request { id: 0, user, arrive_us: 0 }];
        self.inner
            .score_shards(&req, self.shard_items, |_, _, stars| scores.extend(stars))?;
        Ok(scores)
    }
}

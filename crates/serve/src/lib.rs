//! # om-serve
//!
//! Batched inference serving for trained OmniMatch checkpoints — the
//! first end-to-end *read* path through the stack, and the deployment
//! shape the paper's cold-start scenario implies: a new user arrives in
//! the target domain, and the system must rank the full target catalogue
//! for them, now.
//!
//! Pipeline:
//!
//! 1. [`loader`] — rebuild the model from an OMCK v2 checkpoint (either a
//!    trainer epoch checkpoint or [`export_checkpoint`]'s minimal file);
//! 2. [`arena`] — offline precompute: every target-domain item (and every
//!    warm user) is encoded **once** into a contiguous `[n, dim]` f32
//!    arena, so a request never re-runs the item tower;
//! 3. [`batcher`] — microbatching: requests accumulate until
//!    `OM_SERVE_BATCH` are pending or the oldest has waited
//!    `OM_SERVE_WAIT_US`, then score as one batch;
//! 4. [`engine`] — per flush, each request's rating-head user partial
//!    once, then per item shard the head resumed from it over the item
//!    rows (no cross join is built; scores stay bitwise equal to the
//!    `pair_rows` → `rating_logits_from_pairs` reference), then sharded
//!    top-K per request via `om_metrics::topk` (the same selection the
//!    offline tables use).
//!
//! Million-scale serving layers three more pieces on top, none of which
//! may change a single result bit:
//!
//! 5. [`blob`]/[`mmap`] — arenas persist as length/CRC-framed `OMAB`
//!    blobs, loaded all-or-nothing and memory-mapped so cold start is
//!    O(pages touched), not O(catalogue);
//! 6. [`shard`] — [`ShardedEngine`] scores the catalogue in fixed-width
//!    item shards with per-shard top-K merged by `om_metrics::merge_top_k`
//!    (bitwise identical to the single-arena path — see `shard`'s docs
//!    for the argument and `tests/sharded_diff.rs` for the proof);
//! 7. [`frontend`] — a bounded-queue threaded front-end with admission
//!    control: full queue means a typed rejection, shutdown drains every
//!    accepted request.
//!
//! Live traffic closes the cold-start loop:
//!
//! 8. [`update`] — streamed target-domain interactions
//!    ([`FrontendHandle::submit_interaction`]) buffer per user; at
//!    `OM_SERVE_WARM_AFTER` interactions the user's row is re-encoded
//!    (user tower only) into a shadow [`UserArena`] and hot-swapped in as
//!    a new generation — no request ever observes a torn or
//!    mixed-generation arena, and the user has graduated cold→warm
//!    (`serve.graduations`).
//!
//! The hot path (`engine`/`shard`/`frontend`/`batcher`) is panic-free by
//! policy — om-lint's `panic-freedom` pass bans `unwrap`/`expect`/
//! panicking macros/direct indexing there — so every fallible step
//! surfaces as a typed [`ServeError`] instead of killing the worker.
//!
//! Everything runs under [`om_nn::inference_mode`]: no autograd tape, no
//! dropout masks, nothing drawn from any RNG — which is also why batched
//! results are **bitwise identical** to one-request-at-a-time results at
//! any `OM_THREADS` setting (every kernel in the forward is row-
//! independent with a fixed per-element reduction order).
//!
//! [`export_checkpoint`]: omnimatch_core::TrainedOmniMatch::export_checkpoint

pub mod arena;
pub mod batcher;
pub mod blob;
pub mod engine;
pub mod error;
pub mod frontend;
pub mod loader;
pub mod mmap;
pub mod quant;
pub mod shard;
pub mod update;

pub use arena::{ItemArena, UserArena};
pub use batcher::Microbatcher;
pub use blob::{ArenaBlob, BlobError, BlobKind, Verify};
pub use engine::{Request, Response, ServeEngine, ServeOptions};
pub use error::ServeError;
pub use frontend::{
    BatchScorer, Frontend, FrontendHandle, FrontendOptions, FrontendStats, StatsSnapshot,
    SubmitError,
};
pub use loader::{load_model, load_model_file};
pub use shard::ShardedEngine;
pub use update::{ArenaGeneration, ArenaSwap, InteractionStore, UpdateOutcome, UserEvent};

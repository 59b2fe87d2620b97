//! Typed serving errors — the panic-freedom contract of the hot path.
//!
//! `engine.rs`/`frontend.rs`/`batcher.rs`/`update.rs` deny clippy's
//! `unwrap_used`/`expect_used`/panicking-macro/`indexing_slicing` lints
//! outside tests: a panic there kills the worker thread and with it every
//! queued request. Every fallible step in those modules returns a
//! [`ServeError`] instead, so one malformed request (or a scorer bug)
//! degrades exactly one response and the worker keeps draining.

use std::fmt;

/// Why scoring or the front-end failed, without panicking the worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The item arena is empty (or zero-width) — there is no catalogue to
    /// rank.
    EmptyArena,
    /// The scoring forward produced a different number of rows than the
    /// batch requested — a model/arena shape mismatch.
    ScoreShape {
        /// Rows the batch expected.
        expected: usize,
        /// Rows the forward produced.
        got: usize,
    },
    /// A pinned arena's rows are not as wide as the model expects. The
    /// rating head splits its first weight matrix at the model's user
    /// width, so a mismatched arena would misalign that split (silently
    /// wrong scores) or overrun it; the batch is refused instead.
    ArenaWidth {
        /// Which arena: `"user"` or `"item"`.
        arena: &'static str,
        /// Row width the model expects.
        expected: usize,
        /// Row width the arena holds.
        got: usize,
    },
    /// The OS refused to spawn the front-end worker thread.
    WorkerSpawn(String),
    /// The front-end worker panicked before reporting its tallies — a bug
    /// by definition, surfaced as an error so shutdown still returns.
    WorkerPanicked,
    /// An `OM_SERVE_*` environment variable was set to a degenerate value
    /// (unparsable, or zero where the knob needs at least 1). Failing fast
    /// at parse time beats the alternative: `OM_SERVE_BATCH=0` or
    /// `OM_SERVE_QUEUE=0` would otherwise panic or livelock deep inside
    /// the batcher/front-end, long after the misconfiguration happened.
    BadEnv {
        /// The variable that was set.
        var: &'static str,
        /// The rejected value, verbatim.
        value: String,
    },
    /// An online user-row update produced a feature row whose width does
    /// not match the live arena — a model/arena generation mismatch; the
    /// update is refused and the current generation keeps serving.
    UpdateDim {
        /// Row width of the live user arena.
        arena: usize,
        /// Row width the re-encode produced.
        row: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::EmptyArena => write!(f, "serve: empty item arena — nothing to rank"),
            ServeError::ScoreShape { expected, got } => write!(
                f,
                "serve: scoring returned {got} row(s) for a batch of {expected}"
            ),
            ServeError::ArenaWidth {
                arena,
                expected,
                got,
            } => write!(
                f,
                "serve: {arena} arena rows are {got} wide but the model expects {expected}"
            ),
            ServeError::WorkerSpawn(err) => {
                write!(f, "serve: cannot spawn front-end worker: {err}")
            }
            ServeError::WorkerPanicked => {
                write!(f, "serve: front-end worker panicked before reporting stats")
            }
            ServeError::BadEnv { var, value } => write!(
                f,
                "serve: {var}={value:?} is not a positive integer — unset it \
                 for the default, or set a value of at least 1"
            ),
            ServeError::UpdateDim { arena, row } => write!(
                f,
                "serve: online update produced a row of width {row} against a \
                 user arena of width {arena}"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

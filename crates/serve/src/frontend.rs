//! Threaded serving front-end: a bounded queue feeding the microbatcher.
//!
//! The engines and the [`crate::Microbatcher`] are synchronous and
//! caller-clocked; this module adds the missing production shape — many
//! request producers, one scoring consumer — without any new dependency:
//!
//! * producers hold a cloneable [`FrontendHandle`] over a **bounded**
//!   `std::sync::mpsc::sync_channel`; [`FrontendHandle::try_send`] never
//!   blocks and never panics — a full queue is an explicit, typed
//!   [`SubmitError::QueueFull`] rejection (admission control: shed load at
//!   the door instead of growing an unbounded queue until the process
//!   dies);
//! * one worker thread owns the scorer (engines hold `Rc`-based tensors
//!   and are not `Send`, so the worker *builds* the scorer itself from a
//!   `Send` factory closure), pumps arrivals into a microbatcher, and
//!   flushes on size or deadline exactly like the synchronous loop;
//! * producers can also stream interactions through
//!   [`FrontendHandle::submit_interaction`] — events ride the same
//!   bounded FIFO and the worker applies them via
//!   [`BatchScorer::apply_event`], which on the engines re-encodes the
//!   user's row and hot-swaps the user-arena generation (see
//!   [`crate::update`]); accepted events are applied before shutdown for
//!   the same gate + FIFO reason accepted requests are served;
//! * [`Frontend::shutdown`] closes the admission gate, then enqueues a
//!   stop marker **behind** every accepted request, so in-flight work
//!   drains — every accepted request gets a response before the worker
//!   exits — and returns the tallies.
//!
//! The shutdown protocol needs the gate, not just the marker: without it
//! a producer's `try_send` can race `shutdown` and land a request *after*
//! the stop marker, where the worker's final sweep may already have run —
//! an accepted-but-never-served request. [`FrontendHandle::try_send`]
//! therefore sends while holding a shared `closed` lock that `shutdown`
//! flips before it enqueues the marker; channel FIFO then guarantees
//! every accepted request precedes the marker. Every interleaving of this
//! protocol is model-checked in `crates/lint/tests/frontend_model.rs`.
//!
//! Backpressure, then, is the queue bound itself: a slow consumer can
//! hold at most `queue_cap` requests plus one in-progress microbatch in
//! memory, and everything beyond that is rejected at submit time where
//! the caller can retry, degrade, or shed. `tests/frontend_backpressure.rs`
//! pins the queue behaviours.
//!
//! ## Telemetry
//!
//! Every accepted request is stamped with a monotone admission sequence
//! number and clock readings at admission, dequeue, batch close and
//! reply; the deltas feed the per-stage latency histograms
//! `serve.queue_wait`, `serve.batch_wait` and `serve.e2e` (the engines
//! record `serve.score` / `serve.merge` inside the flush), each recorded
//! once into the [`om_obs::metrics`] registry, which `/metrics` scrapes
//! and each run's `events.jsonl` windows. All per-front-end tallies live
//! in one set of shared atomics ([`StatsSnapshot`] via
//! [`FrontendHandle::stats_snapshot`]), and the shutdown
//! [`FrontendStats`] is derived from the *same* atomics, so the two views
//! cannot disagree. Served, rejected and scorer-error events
//! also land in the [`om_obs::flightrec`] ring, which is dumped on a
//! scorer error, on [`Frontend::shutdown`] with errors, and when the
//! `scorer` kill point fires. None of this touches the scoring inputs:
//! responses are bitwise identical with telemetry enabled or disabled
//! (`tests/obs_parity.rs`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use om_obs::flightrec::FlightRecord;

use crate::batcher::Microbatcher;
use crate::engine::{Request, Response, ServeEngine};
use crate::error::ServeError;
use crate::shard::ShardedEngine;
use crate::update::{UpdateOutcome, UserEvent};

/// Anything that can score a microbatch of requests. Both engines
/// qualify; tests substitute stubs to pin queue behaviour without a
/// model.
pub trait BatchScorer {
    /// Score a flushed microbatch, one [`Response`] per request, in
    /// request order. A scoring failure degrades that flush, not the
    /// worker: the front-end counts it and keeps draining.
    fn serve_batch(&self, reqs: &[Request]) -> Result<Vec<Response>, ServeError>;

    /// Ingest one streamed interaction (the online graduation path).
    /// Engines re-encode and hot-swap; the default no-op keeps stub
    /// scorers compiling — they accept events and do nothing.
    fn apply_event(&self, _ev: &UserEvent) -> Result<Option<UpdateOutcome>, ServeError> {
        Ok(None)
    }
}

impl BatchScorer for ServeEngine {
    fn serve_batch(&self, reqs: &[Request]) -> Result<Vec<Response>, ServeError> {
        ServeEngine::serve_batch(self, reqs)
    }

    fn apply_event(&self, ev: &UserEvent) -> Result<Option<UpdateOutcome>, ServeError> {
        ServeEngine::apply_event(self, ev).map(Some)
    }
}

impl BatchScorer for ShardedEngine {
    fn serve_batch(&self, reqs: &[Request]) -> Result<Vec<Response>, ServeError> {
        ShardedEngine::serve_batch(self, reqs)
    }

    fn apply_event(&self, ev: &UserEvent) -> Result<Option<UpdateOutcome>, ServeError> {
        ShardedEngine::apply_event(self, ev).map(Some)
    }
}

/// Front-end knobs; [`FrontendOptions::from_env`] also reads
/// `OM_SERVE_QUEUE` for the queue bound.
#[derive(Debug, Clone)]
pub struct FrontendOptions {
    /// Bounded queue capacity (`OM_SERVE_QUEUE`, default 256). Submits
    /// beyond this are rejected, not blocked.
    pub queue_cap: usize,
    /// Microbatch flush size (see [`crate::ServeOptions::batch`]).
    pub batch: usize,
    /// Max queueing delay before a partial batch flushes, microseconds.
    pub wait_us: u64,
}

impl Default for FrontendOptions {
    fn default() -> FrontendOptions {
        FrontendOptions { queue_cap: 256, batch: 8, wait_us: 2_000 }
    }
}

impl FrontendOptions {
    /// Batch/wait from `opts`, queue bound from `OM_SERVE_QUEUE` (default
    /// 256). A set `OM_SERVE_QUEUE` that does not parse to an integer of
    /// at least 1 is a [`ServeError::BadEnv`]: a zero-capacity bounded
    /// channel would reject every submit forever — fail at parse, not in
    /// production.
    pub fn from_serve(opts: &crate::ServeOptions) -> Result<FrontendOptions, ServeError> {
        let queue_cap = match std::env::var("OM_SERVE_QUEUE") {
            Ok(raw) => match raw.trim().parse::<usize>() {
                Ok(v) if v >= 1 => v,
                _ => return Err(ServeError::BadEnv { var: "OM_SERVE_QUEUE", value: raw }),
            },
            Err(_) => FrontendOptions::default().queue_cap,
        };
        Ok(FrontendOptions { queue_cap, batch: opts.batch, wait_us: opts.wait_us })
    }

    /// Defaults overridden by the `OM_SERVE_*` environment.
    pub fn from_env() -> Result<FrontendOptions, ServeError> {
        FrontendOptions::from_serve(&crate::ServeOptions::from_env()?)
    }
}

/// Why a submit was not accepted. Both cases are the caller's signal to
/// back off; neither ever panics or blocks the producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control: the bounded queue is at capacity.
    QueueFull {
        /// The configured bound the queue is at.
        capacity: usize,
    },
    /// The worker has shut down; no further requests will be scored.
    Shutdown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "serve queue full (capacity {capacity})")
            }
            SubmitError::Shutdown => write!(f, "serve front-end is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// End-of-run tallies from [`Frontend::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendStats {
    /// Requests scored (every accepted request is served, even on
    /// shutdown).
    pub served: u64,
    /// Microbatch flushes executed.
    pub flushes: u64,
    /// Submits rejected by admission control.
    pub rejected: u64,
    /// Flushes whose scorer returned an error (those requests got no
    /// response; the worker kept draining).
    pub scorer_errors: u64,
}

/// A point-in-time view of the front-end, readable from any thread at any
/// moment via [`FrontendHandle::stats_snapshot`] — no shutdown required.
/// Backed by the same atomics the shutdown [`FrontendStats`] is built
/// from, so the two can never disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests accepted past the admission gate (equal to the highest
    /// admission sequence number handed out).
    pub admitted: u64,
    /// Requests scored and replied to.
    pub served: u64,
    /// Microbatch flushes executed.
    pub flushes: u64,
    /// Submits rejected because the bounded queue was at capacity.
    pub rejected_full: u64,
    /// Submits rejected because the front-end was shut (or shutting) down.
    pub rejected_shutdown: u64,
    /// Flushes whose scorer returned an error.
    pub scorer_errors: u64,
    /// Accepted requests that never got a response (their flush errored).
    pub dropped: u64,
    /// Accepted requests not yet replied to (queued, batching or scoring).
    pub in_flight: u64,
    /// Requests currently sitting in the bounded queue.
    pub queue_depth: u64,
    /// High-water mark of `queue_depth` over the front-end's lifetime.
    pub queue_hwm: u64,
    /// Interactions accepted through [`FrontendHandle::submit_interaction`].
    pub interactions: u64,
    /// Cold→warm graduations the worker's scorer reported.
    pub graduations: u64,
    /// User-arena generation swaps the worker's scorer reported.
    pub swaps: u64,
    /// Interactions whose apply failed (the old generation kept serving).
    pub update_errors: u64,
    /// Is the worker thread still running?
    pub worker_alive: bool,
    /// Has the factory finished building the scorer (for engine scorers:
    /// model loaded, item arena mapped)?
    pub scorer_ready: bool,
}

impl StatsSnapshot {
    /// The shutdown-shaped view of this snapshot ([`FrontendStats`] keeps
    /// its historical field set; `rejected` counts queue-full rejections).
    pub fn stats(&self) -> FrontendStats {
        FrontendStats {
            served: self.served,
            flushes: self.flushes,
            rejected: self.rejected_full,
            scorer_errors: self.scorer_errors,
        }
    }
}

/// The shared tallies behind both [`StatsSnapshot`] and the shutdown
/// [`FrontendStats`]: plain per-front-end atomics, updated on the
/// admission and worker paths with relaxed ordering (each field is an
/// independent monotone tally or gauge; cross-field consistency is not
/// promised and not needed).
struct FrontendLive {
    admitted: AtomicU64,
    served: AtomicU64,
    flushes: AtomicU64,
    rejected_full: AtomicU64,
    rejected_shutdown: AtomicU64,
    scorer_errors: AtomicU64,
    dropped: AtomicU64,
    in_flight: AtomicU64,
    queue_depth: AtomicU64,
    queue_hwm: AtomicU64,
    interactions: AtomicU64,
    graduations: AtomicU64,
    swaps: AtomicU64,
    update_errors: AtomicU64,
    worker_alive: AtomicBool,
    scorer_ready: AtomicBool,
    health_registered: AtomicBool,
}

impl FrontendLive {
    fn new() -> FrontendLive {
        FrontendLive {
            admitted: AtomicU64::new(0),
            served: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            rejected_full: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            scorer_errors: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_hwm: AtomicU64::new(0),
            interactions: AtomicU64::new(0),
            graduations: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            update_errors: AtomicU64::new(0),
            worker_alive: AtomicBool::new(true),
            scorer_ready: AtomicBool::new(false),
            health_registered: AtomicBool::new(false),
        }
    }

    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            admitted: self.admitted.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            rejected_full: self.rejected_full.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            scorer_errors: self.scorer_errors.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_hwm: self.queue_hwm.load(Ordering::Relaxed),
            interactions: self.interactions.load(Ordering::Relaxed),
            graduations: self.graduations.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
            update_errors: self.update_errors.load(Ordering::Relaxed),
            worker_alive: self.worker_alive.load(Ordering::Relaxed),
            scorer_ready: self.scorer_ready.load(Ordering::Relaxed),
        }
    }

    fn sub_in_flight(&self, n: usize) {
        let _ = self
            .in_flight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n as u64))
            });
    }
}

/// Cached handles into the process-global [`om_obs::metrics`] registry
/// that mirror the per-front-end tallies (with several front-ends in one
/// process — tests, mostly — the global series sum over them;
/// [`StatsSnapshot`] stays per-front-end).
#[derive(Clone)]
struct Mirror {
    admitted: om_obs::metrics::Counter,
    served: om_obs::metrics::Counter,
    flushes: om_obs::metrics::Counter,
    rejected: om_obs::metrics::Counter,
    rejected_shutdown: om_obs::metrics::Counter,
    scorer_errors: om_obs::metrics::Counter,
    interactions: om_obs::metrics::Counter,
    in_flight: om_obs::metrics::Gauge,
    queue_depth: om_obs::metrics::Gauge,
    queue_hwm: om_obs::metrics::Gauge,
}

impl Mirror {
    fn new() -> Mirror {
        Mirror {
            admitted: om_obs::metrics::counter("serve.frontend.admitted"),
            served: om_obs::metrics::counter("serve.frontend.served"),
            flushes: om_obs::metrics::counter("serve.frontend.flushes"),
            rejected: om_obs::metrics::counter("serve.frontend.rejected"),
            rejected_shutdown: om_obs::metrics::counter("serve.frontend.rejected_shutdown"),
            scorer_errors: om_obs::metrics::counter("serve.frontend.scorer_errors"),
            interactions: om_obs::metrics::counter("serve.frontend.interactions"),
            in_flight: om_obs::metrics::gauge("serve.frontend.in_flight"),
            queue_depth: om_obs::metrics::gauge("serve.frontend.queue_depth"),
            queue_hwm: om_obs::metrics::gauge("serve.frontend.queue_hwm"),
        }
    }
}

/// An accepted request plus its admission stamps. Internal: the public
/// [`Request`] is unchanged; stamps ride alongside it through the queue
/// and the (generic) microbatcher, which provably cannot change a flush
/// boundary based on them.
struct Tracked {
    req: Request,
    /// Monotone admission sequence number, 1-based, gap-free (assigned
    /// under the admission gate, only on successful enqueue).
    seq: u64,
    /// Clock at admission (ns since the process anchor).
    admit_ns: u64,
    /// Clock when the worker dequeued it; stamped by the worker.
    dequeue_ns: u64,
}

enum Msg {
    Req(Tracked),
    /// A streamed interaction for the online graduation path. Events ride
    /// the same bounded FIFO as requests, so an event and the requests
    /// around it are applied in exactly the order they were accepted —
    /// and admission control sheds interactions the same way it sheds
    /// requests.
    Event(UserEvent),
    Stop,
}

/// Lock the admission gate, recovering from a poisoned mutex: the gate
/// holds a plain `bool`, which cannot be left in a torn state, so the
/// poison flag carries no information here.
fn gate_lock(gate: &Mutex<bool>) -> MutexGuard<'_, bool> {
    match gate.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A producer's handle: clone freely, submit from any thread.
#[derive(Clone)]
pub struct FrontendHandle {
    tx: SyncSender<Msg>,
    capacity: usize,
    live: Arc<FrontendLive>,
    mirror: Mirror,
    /// The admission gate: once `shutdown` sets it, no further request
    /// can enter the channel, so the stop marker is provably last.
    closed: Arc<Mutex<bool>>,
}

impl FrontendHandle {
    /// Try to enqueue `req`. Never blocks: a full queue or a stopped
    /// worker returns a typed error immediately. The send happens under
    /// the admission gate so it cannot land behind the stop marker
    /// (`try_send` on a bounded channel with free space never blocks, so
    /// the critical section is a check plus an enqueue). Accepted
    /// requests are stamped here: admission sequence number and clock.
    pub fn try_send(&self, req: Request) -> Result<(), SubmitError> {
        let closed = gate_lock(&self.closed);
        if *closed {
            self.live.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
            self.mirror.rejected_shutdown.add(1);
            return Err(SubmitError::Shutdown);
        }
        let admit_ns = om_obs::clock::now_ns();
        // All senders hold the gate, so load-then-store is race-free and
        // the sequence stays gap-free: a seq is consumed only on accept.
        let seq = self.live.admitted.load(Ordering::Relaxed) + 1;
        let tracked = Tracked { req, seq, admit_ns, dequeue_ns: 0 };
        // The depth gauge must go up *before* the send: once the message
        // is in the channel the worker may dequeue-and-decrement it at any
        // moment, and an increment landing after that decrement would wrap
        // the gauge below zero. A rejected send rolls its increment back.
        self.live.queue_depth.fetch_add(1, Ordering::Relaxed);
        self.mirror.queue_depth.inc();
        match self.tx.try_send(Msg::Req(tracked)) {
            Ok(()) => {
                self.live.admitted.store(seq, Ordering::Relaxed);
                self.live.in_flight.fetch_add(1, Ordering::Relaxed);
                let depth = self.live.queue_depth.load(Ordering::Relaxed);
                self.live.queue_hwm.fetch_max(depth, Ordering::Relaxed);
                self.mirror.admitted.add(1);
                self.mirror.in_flight.inc();
                self.mirror.queue_hwm.raise(depth);
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                self.live.queue_depth.fetch_sub(1, Ordering::Relaxed);
                self.mirror.queue_depth.dec();
                self.live.rejected_full.fetch_add(1, Ordering::Relaxed);
                self.mirror.rejected.add(1);
                om_obs::flightrec::record(FlightRecord {
                    seq: 0,
                    req_id: req.id,
                    user: u64::from(req.user.0),
                    event: "rejected",
                    t_ns: admit_ns,
                    stages: Vec::new(),
                    detail: String::new(),
                });
                Err(SubmitError::QueueFull { capacity: self.capacity })
            }
            Err(TrySendError::Disconnected(_)) => {
                self.live.queue_depth.fetch_sub(1, Ordering::Relaxed);
                self.mirror.queue_depth.dec();
                self.live.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
                self.mirror.rejected_shutdown.add(1);
                Err(SubmitError::Shutdown)
            }
        }
    }

    /// Try to enqueue a streamed interaction. Same admission discipline
    /// as [`FrontendHandle::try_send`]: never blocks, rejects typed when
    /// the queue is full or the front-end is shut down, and the send
    /// happens under the admission gate so an accepted event is provably
    /// applied before the worker exits (channel FIFO puts it ahead of the
    /// stop marker). Events occupy queue slots like requests do, but they
    /// are not requests: they don't get a sequence number, a response, or
    /// an `in_flight` entry.
    pub fn submit_interaction(&self, ev: UserEvent) -> Result<(), SubmitError> {
        let closed = gate_lock(&self.closed);
        if *closed {
            self.live.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
            self.mirror.rejected_shutdown.add(1);
            return Err(SubmitError::Shutdown);
        }
        // Depth up before the send, same as try_send — the worker may
        // dequeue-and-decrement the moment the message lands.
        self.live.queue_depth.fetch_add(1, Ordering::Relaxed);
        self.mirror.queue_depth.inc();
        match self.tx.try_send(Msg::Event(ev)) {
            Ok(()) => {
                self.live.interactions.fetch_add(1, Ordering::Relaxed);
                self.mirror.interactions.add(1);
                let depth = self.live.queue_depth.load(Ordering::Relaxed);
                self.live.queue_hwm.fetch_max(depth, Ordering::Relaxed);
                self.mirror.queue_hwm.raise(depth);
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                self.live.queue_depth.fetch_sub(1, Ordering::Relaxed);
                self.mirror.queue_depth.dec();
                self.live.rejected_full.fetch_add(1, Ordering::Relaxed);
                self.mirror.rejected.add(1);
                Err(SubmitError::QueueFull { capacity: self.capacity })
            }
            Err(TrySendError::Disconnected(_)) => {
                self.live.queue_depth.fetch_sub(1, Ordering::Relaxed);
                self.mirror.queue_depth.dec();
                self.live.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
                self.mirror.rejected_shutdown.add(1);
                Err(SubmitError::Shutdown)
            }
        }
    }

    /// Submits rejected by admission control so far (shared across
    /// clones).
    pub fn rejected(&self) -> u64 {
        self.live.rejected_full.load(Ordering::Relaxed)
    }

    /// A point-in-time [`StatsSnapshot`], readable at any moment — before,
    /// during or after shutdown (the handle outlives the worker).
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.live.snapshot()
    }
}

/// The worker end: owns the scoring thread; [`Frontend::shutdown`] drains
/// and joins it.
pub struct Frontend {
    handle: FrontendHandle,
    worker: std::thread::JoinHandle<()>,
}

impl Frontend {
    /// Spawn the consumer thread. `factory` runs *on the worker* to build
    /// the scorer there (engines are not `Send`); `responses` receives
    /// every scored [`Response`] in flush order. Errors only if the OS
    /// refuses the thread.
    // om-lint: allow(thread-spawn) — this *is* the sanctioned spawn point:
    // the one long-lived consumer thread of the serving front-end.
    pub fn spawn<S, F>(
        factory: F,
        opts: FrontendOptions,
        responses: Sender<Response>,
    ) -> Result<Frontend, ServeError>
    where
        S: BatchScorer,
        F: FnOnce() -> S + Send + 'static,
    {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Msg>(opts.queue_cap.max(1));
        let batch = opts.batch.max(1);
        let wait_us = opts.wait_us;
        let live = Arc::new(FrontendLive::new());
        let mirror = Mirror::new();
        let worker_live = Arc::clone(&live);
        let worker_mirror = mirror.clone();
        let worker = std::thread::Builder::new()
            .name("om-serve-frontend".into())
            // om-lint: allow(thread-spawn) — the front-end consumer is the
            // one long-lived thread the serving shape requires; scoring
            // inside it still fans out over the om_tensor::runtime pool.
            .spawn(move || {
                let live = worker_live;
                let mirror = worker_mirror;
                let scorer = factory();
                live.scorer_ready.store(true, Ordering::Relaxed);
                let mut batcher: Microbatcher<Tracked> = Microbatcher::new(batch, wait_us);
                // All deadlines are relative to the process clock anchor,
                // so the sanctioned monotonic clock suffices.
                let now_us = || om_obs::clock::now_ns() / 1_000;
                let q_wait = om_obs::metrics::histogram("serve.queue_wait");
                let b_wait = om_obs::metrics::histogram("serve.batch_wait");
                let e2e_hist = om_obs::metrics::histogram("serve.e2e");
                let flush = |reqs: Vec<Tracked>| {
                    // om-fault: kill-point
                    om_obs::fault::kill_point("scorer");
                    let close_ns = om_obs::clock::now_ns();
                    for t in &reqs {
                        b_wait.record(close_ns.saturating_sub(t.dequeue_ns));
                    }
                    live.flushes.fetch_add(1, Ordering::Relaxed);
                    mirror.flushes.add(1);
                    let plain: Vec<Request> = reqs.iter().map(|t| t.req).collect();
                    match scorer.serve_batch(&plain) {
                        Ok(out) => {
                            let reply_ns = om_obs::clock::now_ns();
                            live.served.fetch_add(out.len() as u64, Ordering::Relaxed);
                            mirror.served.add(out.len() as u64);
                            for (t, resp) in reqs.iter().zip(out) {
                                // A dropped receiver just discards
                                // responses; the worker still drains so
                                // shutdown stays orderly.
                                let _ = responses.send(resp);
                                let e2e = reply_ns.saturating_sub(t.admit_ns);
                                e2e_hist.record(e2e);
                                om_obs::flightrec::record(FlightRecord {
                                    seq: t.seq,
                                    req_id: t.req.id,
                                    user: u64::from(t.req.user.0),
                                    event: "served",
                                    t_ns: reply_ns,
                                    stages: vec![
                                        (
                                            "queue_wait_ns",
                                            t.dequeue_ns.saturating_sub(t.admit_ns),
                                        ),
                                        (
                                            "batch_wait_ns",
                                            close_ns.saturating_sub(t.dequeue_ns),
                                        ),
                                        ("e2e_ns", e2e),
                                    ],
                                    detail: String::new(),
                                });
                            }
                        }
                        Err(err) => {
                            live.scorer_errors.fetch_add(1, Ordering::Relaxed);
                            live.dropped.fetch_add(reqs.len() as u64, Ordering::Relaxed);
                            mirror.scorer_errors.add(1);
                            om_obs::error!(
                                "serve: front-end flush of {} request(s) failed: {err}",
                                reqs.len()
                            );
                            let err_ns = om_obs::clock::now_ns();
                            let detail = err.to_string();
                            for t in &reqs {
                                om_obs::flightrec::record(FlightRecord {
                                    seq: t.seq,
                                    req_id: t.req.id,
                                    user: u64::from(t.req.user.0),
                                    event: "scorer_error",
                                    t_ns: err_ns,
                                    stages: vec![(
                                        "queue_wait_ns",
                                        t.dequeue_ns.saturating_sub(t.admit_ns),
                                    )],
                                    detail: detail.clone(),
                                });
                            }
                            // Dump immediately: the postmortem should hold
                            // the state *at* the failure, not at shutdown.
                            let _ = om_obs::flightrec::dump("scorer_error");
                        }
                    }
                    live.sub_in_flight(reqs.len());
                    for _ in 0..reqs.len() {
                        mirror.in_flight.dec();
                    }
                };
                let dequeue = |mut t: Tracked| {
                    t.dequeue_ns = om_obs::clock::now_ns();
                    live.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    mirror.queue_depth.dec();
                    q_wait.record(t.dequeue_ns.saturating_sub(t.admit_ns));
                    t
                };
                // Apply one streamed interaction. Pending microbatch
                // entries are *not* flushed first: an install only flips
                // what future pins observe, so requests batched across an
                // event still score against exactly one generation — the
                // one their flush pins.
                let apply = |ev: UserEvent| {
                    live.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    mirror.queue_depth.dec();
                    match scorer.apply_event(&ev) {
                        Ok(Some(outcome)) => {
                            if outcome.graduated {
                                live.graduations.fetch_add(1, Ordering::Relaxed);
                            }
                            if outcome.generation.is_some() {
                                live.swaps.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Ok(None) => {}
                        Err(err) => {
                            live.update_errors.fetch_add(1, Ordering::Relaxed);
                            om_obs::error!(
                                "serve: online update for user {} failed \
                                 (old generation keeps serving): {err}",
                                ev.user.0
                            );
                        }
                    }
                };
                loop {
                    let timeout = if batcher.pending() > 0 {
                        let deadline = batcher.oldest_us().saturating_add(wait_us);
                        Duration::from_micros(deadline.saturating_sub(now_us()))
                    } else {
                        // Idle: nothing is pending, so nothing can time
                        // out; wake occasionally to stay responsive to a
                        // dropped producer side.
                        Duration::from_millis(50)
                    };
                    match rx.recv_timeout(timeout) {
                        Ok(Msg::Req(t)) => {
                            let t = dequeue(t);
                            let arrived_us = t.dequeue_ns / 1_000;
                            if let Some(batch) = batcher.submit(t, arrived_us) {
                                flush(batch);
                            }
                        }
                        Ok(Msg::Event(ev)) => apply(ev),
                        Ok(Msg::Stop) => break,
                        Err(RecvTimeoutError::Timeout) => {
                            if let Some(batch) = batcher.poll(now_us()) {
                                flush(batch);
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
                // The admission gate means nothing can follow the stop
                // marker; this sweep is belt-and-braces for the
                // disconnected-exit path.
                loop {
                    match rx.try_recv() {
                        Ok(Msg::Req(t)) => {
                            let t = dequeue(t);
                            let arrived_us = t.dequeue_ns / 1_000;
                            if let Some(batch) = batcher.submit(t, arrived_us) {
                                flush(batch);
                            }
                        }
                        Ok(Msg::Event(ev)) => apply(ev),
                        Ok(Msg::Stop) | Err(_) => break,
                    }
                }
                if let Some(rest) = batcher.drain() {
                    flush(rest);
                }
                live.worker_alive.store(false, Ordering::Relaxed);
            })
            .map_err(|err| ServeError::WorkerSpawn(err.to_string()))?;
        let handle = FrontendHandle {
            tx,
            capacity: opts.queue_cap.max(1),
            live,
            mirror,
            closed: Arc::new(Mutex::new(false)),
        };
        Ok(Frontend { handle, worker })
    }

    /// A producer handle (clone per producer thread).
    pub fn handle(&self) -> FrontendHandle {
        self.handle.clone()
    }

    /// A point-in-time [`StatsSnapshot`] (see
    /// [`FrontendHandle::stats_snapshot`]).
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.handle.stats_snapshot()
    }

    /// Register this front-end's readiness probes with the
    /// [`om_obs::http`] `/healthz` endpoint: `serve.scorer_ready` (the
    /// factory finished — model loaded and item arena mapped, for engine
    /// scorers), `serve.worker_alive`, and `serve.queue_room` (the
    /// bounded queue is below capacity, i.e. admission control is not
    /// currently shedding). [`Frontend::shutdown`] deregisters them.
    pub fn register_health(&self) {
        self.handle.live.health_registered.store(true, Ordering::Relaxed);
        let ready = Arc::clone(&self.handle.live);
        om_obs::http::set_health(
            "serve.scorer_ready",
            Box::new(move || ready.scorer_ready.load(Ordering::Relaxed)),
        );
        let alive = Arc::clone(&self.handle.live);
        om_obs::http::set_health(
            "serve.worker_alive",
            Box::new(move || alive.worker_alive.load(Ordering::Relaxed)),
        );
        let depth = Arc::clone(&self.handle.live);
        let cap = self.handle.capacity as u64;
        om_obs::http::set_health(
            "serve.queue_room",
            Box::new(move || depth.queue_depth.load(Ordering::Relaxed) < cap),
        );
    }

    /// Stop accepting work, drain everything already accepted, join the
    /// worker, and return the tallies. Closing the admission gate first
    /// and *then* enqueueing the stop marker guarantees the marker queues
    /// behind every accepted request — none are dropped. If any flush
    /// errored, the flight recorder is dumped as a postmortem. Errors
    /// only if the worker itself panicked.
    pub fn shutdown(self) -> Result<FrontendStats, ServeError> {
        {
            let mut closed = gate_lock(&self.handle.closed);
            *closed = true;
        }
        // A blocking send: waits for queue space behind the accepted
        // backlog. If the worker already exited (disconnected), join
        // anyway.
        let _ = self.handle.tx.send(Msg::Stop);
        self.worker.join().map_err(|_| ServeError::WorkerPanicked)?;
        if self.handle.live.health_registered.swap(false, Ordering::Relaxed) {
            om_obs::http::clear_health("serve.scorer_ready");
            om_obs::http::clear_health("serve.worker_alive");
            om_obs::http::clear_health("serve.queue_room");
        }
        let snap = self.handle.stats_snapshot();
        if snap.scorer_errors > 0 {
            let _ = om_obs::flightrec::dump("shutdown_with_errors");
        }
        Ok(snap.stats())
    }
}

//! The `serve-warm` and `serve-coldstart` workloads.
//!
//! The run is `SEGMENTS` segments. Each starts with a set-up: train the
//! model on the fixed scenario, build the arenas, write them as OMAB blobs
//! and map them back inside the threaded front-end's worker, exactly as a
//! server process would. One generator thread (this one) then drives two
//! phases through the front-end's public handle:
//!
//! 1. an open loop: a seeded Poisson schedule at a fixed absolute request
//!    rate; each request's latency runs from its *due* time to receipt of
//!    its response, so a stall is charged to every request it delays;
//! 2. a closed loop with an in-flight window of one batch; one batch per
//!    fastest-tenth round time is `capacity_qps`.
//!
//! `serve-coldstart` interleaves streamed interactions at a fixed share of
//! the operations; they go to warm users who are never requested, so every
//! event re-encodes a row and installs a new arena generation while the
//! requested rows stay untouched, and the oracle below stays valid.
//!
//! After the run, outside the timed region, a fixed sample of responses is
//! checked bit for bit against `ServeEngine::oracle_rank`'s top-K prefix.
//! The traced run also replays every traced flush layer by layer through
//! the public API; that decomposition must reproduce the front-end's
//! responses bit for bit.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use om_data::split::CrossDomainScenario;
use om_data::types::{ItemId, UserId};
use om_data::ArenaPreset;
use om_serve::{
    load_model, ArenaSwap, BatchScorer, Frontend, FrontendHandle, FrontendOptions,
    InteractionStore, ItemArena, Microbatcher, Request, Response, ServeEngine, ServeError,
    ServeOptions, ShardedEngine, StatsSnapshot, SubmitError, UpdateOutcome, UserArena, UserEvent,
    Verify,
};
use om_tensor::{kernels, seeded_rng, Tensor};
use omnimatch_core::{CorpusViews, OmniMatchConfig, OmniMatchModel, TrainedOmniMatch, Trainer};

use crate::common::{model_config, scenario, secs, Ctx, Report, SplitMix};
use crate::stats::{mean, median, quantile, windowed_p95};
use crate::train;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Warm,
    Cold,
}

/// Open-loop request rate, requests per second (fixed, not derived from
/// a measured capacity, so parent and change see the same load).
fn rate_qps(kind: Kind) -> f64 {
    match kind {
        Kind::Warm => 50.0,
        Kind::Cold => 500.0,
    }
}

/// Share of operations that are streamed interactions.
fn event_share(kind: Kind) -> f64 {
    match kind {
        Kind::Warm => 0.0,
        Kind::Cold => 0.1,
    }
}

const BATCH: usize = 8;
const WAIT_US: u64 = 2_000;
const TOPK: usize = 10;
const SHARD_ITEMS: usize = 512;
const WARM_AFTER: usize = 5;
const QUEUE_CAP: usize = 256;
/// Zipf exponent of user popularity.
const ZIPF_S: f64 = 1.1;
/// Synthetic warm users of `serve-coldstart` start here, disjoint from the
/// scenario's user ids.
const COLD_ARENA_BASE: u32 = 1_000_000;
/// Warm users of `serve-coldstart` that receive the streamed events.
const EVENT_USERS: u32 = 64;
/// Responses checked against the oracle per run.
const ORACLE_SAMPLE: usize = 64;
/// Traced flushes replayed layer by layer.
const DECOMPOSE_FLUSHES: usize = 240;
/// A run whose generator sent its p99 request later than this after the
/// request was due is rejected: its open loop was not the stated load.
const GEN_LATE_BOUND_MS: f64 = 5.0;
/// Requests sent to warm each front-end up before timing starts.
const WARMUP_REQUESTS: usize = 32;

fn serve_options() -> ServeOptions {
    ServeOptions {
        batch: BATCH,
        wait_us: WAIT_US,
        topk: TOPK,
        arena_batch: 64,
        shard_items: SHARD_ITEMS,
        warm_after: WARM_AFTER,
    }
}

/// What the traced front-end worker recorded: one entry per flush and per
/// applied event, with wall-clock bounds.
#[derive(Default)]
struct WorkerLog {
    flushes: Vec<(Instant, Instant, Vec<Request>)>,
    events: Vec<(Instant, Instant, UserEvent)>,
}

fn lock(log: &Mutex<WorkerLog>) -> MutexGuard<'_, WorkerLog> {
    log.lock().unwrap_or_else(|p| p.into_inner())
}

/// The benchmark's `BatchScorer` wrapper: forwards to the sharded engine
/// and, while `on`, records each `serve_batch` and `apply_event` call.
struct Probe {
    engine: ShardedEngine,
    on: Arc<AtomicBool>,
    log: Arc<Mutex<WorkerLog>>,
}

impl BatchScorer for Probe {
    fn serve_batch(&self, reqs: &[Request]) -> Result<Vec<Response>, ServeError> {
        if !self.on.load(Ordering::Relaxed) {
            return self.engine.serve_batch(reqs);
        }
        let t0 = Instant::now();
        let out = self.engine.serve_batch(reqs);
        let t1 = Instant::now();
        lock(&self.log).flushes.push((t0, t1, reqs.to_vec()));
        out
    }

    fn apply_event(&self, ev: &UserEvent) -> Result<Option<UpdateOutcome>, ServeError> {
        if !self.on.load(Ordering::Relaxed) {
            return self.engine.apply_event(ev).map(Some);
        }
        let t0 = Instant::now();
        let out = self.engine.apply_event(ev);
        let t1 = Instant::now();
        lock(&self.log).events.push((t0, t1, ev.clone()));
        out.map(Some)
    }
}

/// The `Send` recipe every engine copy is rebuilt from: checkpoint bytes,
/// blob paths and the deterministic scenario.
#[derive(Clone)]
struct Recipe {
    cfg: OmniMatchConfig,
    sc: CrossDomainScenario,
    ckpt: Arc<Vec<u8>>,
    vocab: usize,
    items: PathBuf,
    users: PathBuf,
}

impl Recipe {
    fn parts(&self) -> (OmniMatchModel, CorpusViews, ItemArena, UserArena) {
        let model = load_model(&self.cfg, self.vocab, &self.ckpt).expect("decode checkpoint");
        let views = CorpusViews::build(&self.sc, &self.cfg, &mut seeded_rng(self.cfg.seed));
        assert_eq!(
            views.vocab.len(),
            self.vocab,
            "rebuilt views disagree with the checkpoint"
        );
        let items = ItemArena::load_blob(&self.items, Verify::Quick).expect("map item blob");
        let users = UserArena::load_blob(&self.users, Verify::Quick).expect("map user blob");
        (model, views, items, users)
    }
}

/// One operation of a generated trace.
#[derive(Clone)]
enum Op {
    Req(UserId),
    Event(UserEvent),
}

/// A live front-end plus everything needed to rebuild or check it.
struct Stack {
    recipe: Recipe,
    trained: TrainedOmniMatch,
    fe: Frontend,
    handle: FrontendHandle,
    rx: Receiver<Response>,
    on: Arc<AtomicBool>,
    log: Arc<Mutex<WorkerLog>>,
    /// The events that brought each event user to `WARM_AFTER - 1`.
    seed_events: Vec<UserEvent>,
    /// Users requests are drawn from, most popular first after the seeded
    /// permutation.
    request_users: Vec<UserId>,
    /// Held-out target review texts the events carry.
    texts: Vec<String>,
}

fn set_up(kind: Kind, cfg: &OmniMatchConfig, dir: &Path, fit_s: &mut Vec<f64>) -> Stack {
    let sc = scenario();
    let t = Instant::now();
    let trained = Trainer::new(cfg.clone()).fit(&sc);
    fit_s.push(secs(t));
    let ud = cfg.invariant_dim + cfg.specific_dim;
    let idim = cfg.item_dim;
    let preset = ArenaPreset::small();
    let (items, users, request_users) = match kind {
        Kind::Warm => (
            ItemArena::from_raw(preset.item_ids(), preset.item_rows(idim), idim),
            UserArena::from_raw(preset.user_ids(), preset.user_rows(ud), ud),
            preset.user_ids(),
        ),
        Kind::Cold => {
            let ids = (0..preset.users as u32)
                .map(|u| UserId(COLD_ARENA_BASE + u))
                .collect();
            (
                ItemArena::build(trained.model(), trained.views(), 64),
                UserArena::from_raw(ids, preset.user_rows(ud), ud),
                sc.cold_start_users(),
            )
        }
    };
    let recipe = Recipe {
        cfg: cfg.clone(),
        sc: sc.clone(),
        ckpt: Arc::new(trained.export_checkpoint().to_vec()),
        vocab: trained.views().vocab.len(),
        items: dir.join("items.omab"),
        users: dir.join("users.omab"),
    };
    items.write_blob(&recipe.items).expect("write item blob");
    users.write_blob(&recipe.users).expect("write user blob");
    drop((items, users));

    let on = Arc::new(AtomicBool::new(false));
    let log = Arc::new(Mutex::new(WorkerLog::default()));
    let (tx, rx) = std::sync::mpsc::channel();
    let (r2, on2, log2) = (recipe.clone(), Arc::clone(&on), Arc::clone(&log));
    let fe = Frontend::spawn(
        move || {
            let (model, views, items, users) = r2.parts();
            let engine = ShardedEngine::new(ServeEngine::with_arenas(
                model,
                views,
                items,
                users,
                serve_options(),
            ));
            Probe {
                engine,
                on: on2,
                log: log2,
            }
        },
        FrontendOptions {
            queue_cap: QUEUE_CAP,
            batch: BATCH,
            wait_us: WAIT_US,
        },
        tx,
    )
    .expect("spawn front-end");
    let handle = fe.handle();

    let field = cfg.text_field;
    let mut texts: Vec<String> = sc
        .test_pairs()
        .iter()
        .map(|it| it.text(field).to_string())
        .collect();
    texts.extend(
        sc.validation_pairs()
            .iter()
            .map(|it| it.text(field).to_string()),
    );
    let mut seed_events = Vec::new();
    if kind == Kind::Cold {
        for u in 0..EVENT_USERS {
            for k in 0..WARM_AFTER - 1 {
                seed_events.push(UserEvent {
                    user: UserId(COLD_ARENA_BASE + u),
                    item: ItemId(0),
                    stars: 4.0,
                    text: texts[(u as usize * 7 + k) % texts.len()].clone(),
                });
            }
        }
    }
    let stack = Stack {
        recipe,
        trained,
        fe,
        handle,
        rx,
        on,
        log,
        seed_events,
        request_users,
        texts,
    };
    // Warm-up: the worker builds its engine on the first request. Set-up
    // traffic is paced so the queue's high-water mark stays that of the
    // measured phases.
    for round in 0..WARMUP_REQUESTS / BATCH {
        warm_up(&stack, round);
    }
    for ev in &stack.seed_events {
        while stack.handle.stats_snapshot().queue_depth >= 4 {
            std::thread::sleep(Duration::from_micros(200));
        }
        stack
            .handle
            .submit_interaction(ev.clone())
            .expect("seed event accepted");
    }
    // Queued behind the seed events, these responses prove they applied.
    warm_up(&stack, 0);
    stack
}

/// Send one batch of warm-up requests and wait for their responses.
fn warm_up(st: &Stack, round: usize) {
    for k in 0..BATCH {
        let n = round * BATCH + k;
        let user = st.request_users[n % st.request_users.len()];
        let req = Request {
            id: u64::MAX - n as u64,
            user,
            arrive_us: 0,
        };
        st.handle.try_send(req).expect("warm-up request accepted");
    }
    for _ in 0..BATCH {
        st.rx
            .recv_timeout(Duration::from_secs(120))
            .expect("warm-up response");
    }
}

/// Seeded traces: the open-loop schedule (due time in µs, operation) and
/// the closed loop's operation sequence.
fn traces(kind: Kind, st: &Stack, seed: u64, open_s: f64) -> (Vec<(u64, Op)>, Vec<Op>) {
    let mut rng = SplitMix::new(seed ^ 0x5E4E);
    let by_rank = rng.permutation(st.request_users.len());
    let share = event_share(kind);
    let event = |rng: &mut SplitMix| {
        Op::Event(UserEvent {
            user: UserId(COLD_ARENA_BASE + rng.below(EVENT_USERS as usize) as u32),
            item: ItemId(0),
            stars: 4.0,
            text: st.texts[rng.below(st.texts.len())].clone(),
        })
    };
    let request = |rng: &mut SplitMix| {
        let rank = rng.zipf(st.request_users.len(), ZIPF_S);
        Op::Req(st.request_users[by_rank[rank]])
    };
    // Operations arrive at rate / (1 - share), so requests arrive at `rate`.
    let op_rate = rate_qps(kind) / (1.0 - share);
    let n_open = (op_rate * open_s).round() as usize;
    let mut t_us = 0.0;
    let mut open = Vec::with_capacity(n_open);
    for gap in rng.exp_gaps(n_open, 1e6 / op_rate) {
        t_us += gap;
        let op = if share > 0.0 && rng.unit() < share {
            event(&mut rng)
        } else {
            request(&mut rng)
        };
        open.push((t_us as u64, op));
    }
    // The closed loop places its events at a fixed stride, so every round
    // of it carries the same share of update work.
    let every = if share > 0.0 {
        (1.0 / share).round() as usize
    } else {
        usize::MAX
    };
    let closed = (1..=60_000)
        .map(|i| {
            if i % every == 0 {
                event(&mut rng)
            } else {
                request(&mut rng)
            }
        })
        .collect();
    (open, closed)
}

/// Per-run tallies of the generator.
#[derive(Default)]
struct Tally {
    /// Request id → (due time, user).
    due: Vec<(Instant, UserId)>,
    /// Request id → (receipt time, response).
    got: Vec<Option<(Instant, Response)>>,
    rejected: u64,
    events: u64,
    events_rejected: u64,
    wrong_user: u64,
}

impl Tally {
    fn send(&mut self, h: &FrontendHandle, op: &Op, due: Instant) -> bool {
        match op {
            Op::Req(user) => {
                let id = self.due.len() as u64;
                match h.try_send(Request {
                    id,
                    user: *user,
                    arrive_us: 0,
                }) {
                    Ok(()) => {
                        self.due.push((due, *user));
                        self.got.push(None);
                        true
                    }
                    Err(SubmitError::QueueFull { .. } | SubmitError::Shutdown) => {
                        self.rejected += 1;
                        false
                    }
                }
            }
            Op::Event(ev) => {
                self.events += 1;
                if h.submit_interaction(ev.clone()).is_err() {
                    self.events_rejected += 1;
                }
                false
            }
        }
    }

    fn take(&mut self, resp: Response, at: Instant) {
        match self.due.get(resp.id as usize) {
            Some(&(_, user)) if user == resp.user => {
                let id = resp.id as usize;
                self.got[id] = Some((at, resp));
            }
            _ => self.wrong_user += 1,
        }
    }

    fn outstanding(&self) -> usize {
        self.got.iter().filter(|g| g.is_none()).count()
    }

    /// Wait until every accepted request is answered (or `limit` passes).
    fn drain(&mut self, rx: &Receiver<Response>, limit: Duration) {
        let until = Instant::now() + limit;
        let mut missing = self.outstanding();
        while missing > 0 {
            match recv_until(rx, until) {
                Ok(r) => {
                    let fresh = self.got.get(r.id as usize).is_some_and(Option::is_none);
                    self.take(r, Instant::now());
                    if fresh {
                        missing -= 1;
                    }
                }
                Err(_) => break,
            }
        }
    }
}

/// The next response, or an error once `until` passes. The generator polls
/// rather than sleeps: it has a core of its own (`OM_THREADS=1` leaves the
/// other to the scoring worker), and a sleeping core would add its wake-up
/// time, which a shared host makes long and erratic, to every latency.
fn recv_until(rx: &Receiver<Response>, until: Instant) -> Result<Response, RecvTimeoutError> {
    loop {
        match rx.try_recv() {
            Ok(r) => return Ok(r),
            Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
            Err(TryRecvError::Empty) if Instant::now() >= until => {
                return Err(RecvTimeoutError::Timeout)
            }
            Err(TryRecvError::Empty) => std::hint::spin_loop(),
        }
    }
}

/// The run is this many segments. Each builds a fresh stack (the set-up:
/// fit, arenas, blobs, front-end warm-up) and drives it through an
/// open-loop and then a closed-loop phase. Set-up, fit, latency and
/// capacity samples therefore all spread over the whole run, and drift in
/// the host's speed during one stretch of it moves no median much.
const SEGMENTS: usize = 4;
/// Share of `--seconds` given to the open loop; the closed loop has the
/// rest. Set-ups come on top.
const OPEN_SHARE: f64 = 0.8;

/// One segment of the open loop: `ops` on its own schedule, then a drain.
/// Returns (latencies ms, generator lateness ms).
fn open_loop(st: &Stack, tally: &mut Tally, ops: &[(u64, Op)]) -> (Vec<f64>, Vec<f64>) {
    let first = tally.due.len();
    let origin = Instant::now() + Duration::from_millis(5);
    let base_us = ops.first().map_or(0, |(t, _)| *t);
    let mut late_ms = Vec::with_capacity(ops.len());
    for (due_us, op) in ops {
        let due = origin + Duration::from_micros(due_us - base_us);
        // Wait for the due time on the response channel, so a response is
        // stamped when it arrives, not when the generator next looks.
        let now = loop {
            let now = Instant::now();
            if now >= due {
                break now;
            }
            match recv_until(&st.rx, due) {
                Ok(r) => tally.take(r, Instant::now()),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break Instant::now(),
            }
        };
        late_ms.push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
        tally.send(&st.handle, op, due);
    }
    tally.drain(&st.rx, Duration::from_secs(60));
    let lat = (first..tally.due.len())
        .filter_map(|i| {
            let (due, _) = tally.due[i];
            tally.got[i]
                .as_ref()
                .map(|(at, _)| at.saturating_duration_since(due).as_secs_f64() * 1e3)
        })
        .collect();
    (lat, late_ms)
}

/// One segment of the closed loop. One batch of requests is in flight at
/// a time: the generator sends `BATCH` requests (and the events the
/// sequence interleaves), waits for all their responses, and repeats.
/// Pushes the seconds of every round that completed inside the segment onto
/// `rounds`; `next` is the cursor into the cyclic op sequence.
fn closed_loop(
    st: &Stack,
    tally: &mut Tally,
    ops: &[Op],
    next: &mut usize,
    seconds: f64,
    rounds: &mut Vec<f64>,
) {
    let stop = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < stop {
        let t0 = Instant::now();
        let mut in_flight = 0usize;
        while in_flight < BATCH {
            let op = &ops[*next % ops.len()];
            *next += 1;
            if tally.send(&st.handle, op, Instant::now()) {
                in_flight += 1;
            }
        }
        let mut got = 0usize;
        for _ in 0..in_flight {
            let Ok(r) = recv_until(&st.rx, Instant::now() + Duration::from_secs(30)) else {
                break;
            };
            got += 1;
            tally.take(r, Instant::now());
        }
        let at = Instant::now();
        if got == in_flight && at <= stop {
            rounds.push(at.duration_since(t0).as_secs_f64());
        }
    }
}

/// Closed-loop capacity: one batch per round, at the round time the run's
/// fastest tenth of rounds reaches (nearest rank over every round). That is
/// the rate the engine sustains when the host does not get in its way: a
/// shared host slows a varying share of rounds, which moves a median or a
/// total-time rate from run to run, while a change to the program moves
/// every round.
fn round_capacity(rounds: &[f64]) -> f64 {
    BATCH as f64 / quantile(rounds, CAPACITY_ROUND_Q).map_or(f64::NAN, |q| q.value)
}

/// The round-time quantile `round_capacity` reads.
const CAPACITY_ROUND_Q: f64 = 0.1;

pub fn run(kind: Kind, ctx: &Ctx, rep: &mut Report) {
    let cfg = model_config();

    let open_s = ctx.seconds * OPEN_SHARE;
    let closed_seg = ctx.seconds * (1.0 - OPEN_SHARE) / SEGMENTS as f64;
    let mut setup_s = Vec::new();
    let mut fit_s = Vec::new();
    let mut rmse_bits = Vec::new();
    let mut tally = Tally::default();
    let (mut lat_ms, mut late_ms) = (Vec::new(), Vec::new());
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut cursor = 0usize;
    // Per segment, the front-end's counters and the worker's log.
    let mut counters = Vec::new();
    let mut logs = Vec::new();
    let mut inputs = None;
    let mut last = None;
    for seg in 0..SEGMENTS {
        // ---- set-up: timed from process start the first time -------------
        let t = if seg == 0 { ctx.start } else { Instant::now() };
        let st = set_up(kind, &cfg, &ctx.dir, &mut fit_s);
        setup_s.push(secs(t));
        rmse_bits.push(
            st.trained
                .evaluate(&st.recipe.sc.test_pairs())
                .rmse
                .to_bits(),
        );
        // Every input is generated from the seed before the first timed
        // operation.
        let (open_ops, closed_ops) =
            inputs.get_or_insert_with(|| traces(kind, &st, ctx.seed, open_s));
        let ops = open_ops
            .chunks(open_ops.len().div_ceil(SEGMENTS).max(1))
            .nth(seg)
            .unwrap_or_default();

        // ---- timed: the open loop, then the closed loop ------------------
        let before = st.handle.stats_snapshot();
        st.on.store(ctx.trace, Ordering::Relaxed);
        let (lat, late) = open_loop(&st, &mut tally, ops);
        lat_ms.extend(lat);
        late_ms.extend(late);
        if ctx.trace {
            // The traced run measures its own overhead: half of each
            // closed-loop segment untraced, half traced.
            st.on.store(false, Ordering::Relaxed);
            let half = closed_seg / 2.0;
            closed_loop(&st, &mut tally, closed_ops, &mut cursor, half, &mut plain);
            st.on.store(true, Ordering::Relaxed);
            closed_loop(&st, &mut tally, closed_ops, &mut cursor, half, &mut traced);
        } else {
            closed_loop(
                &st,
                &mut tally,
                closed_ops,
                &mut cursor,
                closed_seg,
                &mut plain,
            );
        }
        tally.drain(&st.rx, Duration::from_secs(60));
        st.on.store(false, Ordering::Relaxed);
        st.fe.shutdown().expect("front-end shut down");
        let after = st.handle.stats_snapshot();
        counters.push((before, after));
        logs.push(std::mem::take(&mut *lock(&st.log)));
        last = Some((st.recipe, st.trained, st.seed_events));
    }
    let (recipe, trained, seed_events) = last.expect("at least one segment");
    let (capacity, overhead) = if ctx.trace {
        let traced = round_capacity(&traced);
        (traced, round_capacity(&plain) / traced - 1.0)
    } else {
        (round_capacity(&plain), 0.0)
    };
    rep.attempted += rmse_bits.len() as u64;
    let rmse = f32::from_bits(rmse_bits[0]) as f64;
    let differing = rmse_bits.iter().filter(|&&b| b != rmse_bits[0]).count();
    rep.fail(
        differing as u64,
        format!("cold_rmse differs across {differing} fits"),
    );
    if !rmse.is_finite() {
        rep.fail(1, format!("cold_rmse is not finite: {rmse}"));
    }

    // ---- failures: refused, dropped, missing or misrouted operations -----
    rep.attempted += tally.due.len() as u64 + tally.rejected + tally.events;
    rep.fail(
        tally.rejected,
        format!("{} requests refused by the front-end", tally.rejected),
    );
    rep.fail(
        tally.events_rejected,
        format!("{} events refused", tally.events_rejected),
    );
    let missing = tally.outstanding() as u64;
    rep.fail(
        missing,
        format!("{missing} accepted requests got no response"),
    );
    rep.fail(
        tally.wrong_user,
        format!("{} responses for an unknown request", tally.wrong_user),
    );
    let delta =
        |f: fn(&StatsSnapshot) -> u64| -> u64 { counters.iter().map(|(b, a)| f(a) - f(b)).sum() };
    let update_errors = delta(|s| s.update_errors);
    rep.fail(
        update_errors,
        format!("{update_errors} events failed to apply"),
    );

    // ---- correctness: a fixed sample against the exact oracle ------------
    let (model, views, items, users) = recipe.parts();
    let oracle = ServeEngine::with_arenas(model, views, items, users, serve_options());
    let answered: Vec<&Response> = tally.got.iter().flatten().map(|(_, r)| r).collect();
    let stride = (answered.len() / ORACLE_SAMPLE).max(1);
    let mut wrong = 0u64;
    for r in answered.iter().step_by(stride).take(ORACLE_SAMPLE) {
        match oracle.oracle_rank(r.user) {
            Ok(rank) if same_top(&r.top, &rank[..TOPK.min(rank.len())]) => {}
            _ => wrong += 1,
        }
    }
    drop(oracle);
    rep.fail(
        wrong,
        format!("{wrong} sampled responses differ from the oracle's top-{TOPK}"),
    );

    let p50 = quantile(&lat_ms, 0.5).expect("open-loop samples");
    let (p95, windows, beyond) = windowed_p95(&lat_ms).expect("open-loop samples");
    let p99 = quantile(&lat_ms, 0.99).expect("open-loop samples");
    let late = quantile(&late_ms, 0.99).expect("open-loop schedule");
    if late.value > GEN_LATE_BOUND_MS {
        rep.fail(
            1,
            format!(
                "generator p99 lateness {:.3} ms exceeds {GEN_LATE_BOUND_MS} ms",
                late.value
            ),
        );
    }
    println!(
        "{}: open loop {} req at {} req/s (p95 median of {windows} windows, ≥{beyond} beyond p95 \
         each; whole-run p99 {:.3} ms, {} beyond), closed loop {} rounds, {:.1} req/s, {} events, \
         generator p99 late {:.3} ms",
        if kind == Kind::Warm {
            "serve-warm"
        } else {
            "serve-coldstart"
        },
        p50.n,
        rate_qps(kind),
        p99.value,
        p99.beyond,
        if ctx.trace { traced.len() } else { plain.len() },
        capacity,
        tally.events,
        late.value
    );
    if !ctx.trace {
        rep.put("setup_s", median(&setup_s), "s");
        rep.put("fit_s", median(&fit_s), "s");
        rep.put("cold_rmse", rmse, "stars");
        rep.put("p50_ms", p50.value, "ms");
        rep.put("p95_ms", p95, "ms");
        rep.put("capacity_qps", capacity, "req/s");
        return;
    }

    // ---- traced: per-layer attribution -----------------------------------
    let flushes: Vec<_> = logs.iter_mut().flat_map(|l| l.flushes.drain(..)).collect();
    for (k, (a, b, _)) in flushes.iter().enumerate() {
        ctx.rec
            .push_closed("frontend.serve_batch", k as u64, *a, *b);
    }
    for (k, (a, b, _)) in logs.iter().flat_map(|l| &l.events).enumerate() {
        ctx.rec
            .push_closed("frontend.apply_event", k as u64, *a, *b);
    }
    let flush_ms = ctx.rec.durations_ms("frontend.serve_batch");
    rep.put(
        "serve.flush_p50_ms",
        quantile(&flush_ms, 0.5).map_or(0.0, |q| q.value),
        "ms",
    );
    rep.put(
        "serve.flush_p99_ms",
        quantile(&flush_ms, 0.99).map_or(0.0, |q| q.value),
        "ms",
    );
    decompose(rep, &ctx.rec, &recipe, &flushes, &tally);
    let apply_ms = ctx.rec.durations_ms("frontend.apply_event");
    rep.put(
        "serve.update.apply_p50_ms",
        quantile(&apply_ms, 0.5).map_or(0.0, |q| q.value),
        "ms",
    );
    rep.put(
        "serve.update.apply_p99_ms",
        quantile(&apply_ms, 0.99).map_or(0.0, |q| q.value),
        "ms",
    );
    let events: Vec<&[_]> = logs.iter().map(|l| l.events.as_slice()).collect();
    replay_updates(rep, &ctx.rec, &recipe, &seed_events, &events);
    let open_ops = inputs.map(|(open, _)| open).unwrap_or_default();
    let (wait_ms, deadline_frac) = replay_batcher(&open_ops);
    rep.put("serve.batch_wait_ms", wait_ms, "ms");
    rep.put("serve.deadline_flush_frac", deadline_frac, "ratio");
    rep.put(
        "serve.batch_fill",
        delta(|s| s.served) as f64 / delta(|s| s.flushes).max(1) as f64,
        "req/flush",
    );
    let hwm = counters.iter().map(|(_, a)| a.queue_hwm).max().unwrap_or(0);
    rep.put("serve.queue_hwm", hwm as f64, "count");
    rep.put("serve.swaps", delta(|s| s.swaps) as f64, "count");
    rep.put("bench.gen_late_p99_ms", late.value, "ms");
    rep.put("bench.trace_overhead_frac", overhead, "ratio");
    // The set-up fit's training-side profile.
    let replay = train::replay_epoch(&recipe.sc, &cfg, Some(&ctx.rec));
    train::check_replay(rep, &trained, replay.mean_loss);
    train::core_profile(&ctx.rec, &recipe.sc, &cfg);
    train::put_train_layers(rep, &ctx.rec);
}

/// Bitwise equality of two top-K lists.
fn same_top(a: &[(ItemId, f32)], b: &[(ItemId, f32)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Replay traced flushes layer by layer through the public API — user
/// rows (arena copy or cold tower), then per shard the cross join, the
/// rating head and top-K, then the merge — and check every replayed
/// ranking against the response the front-end returned for that request.
fn decompose(
    rep: &mut Report,
    rec: &crate::spans::Recorder,
    recipe: &Recipe,
    flushes: &[(Instant, Instant, Vec<Request>)],
    tally: &Tally,
) {
    let (model, views, items, users) = recipe.parts();
    let _mode = om_nn::inference_mode();
    let (ud, idim, n) = (users.dim(), items.dim(), items.len());
    let pd = ud + idim;
    let stride = (flushes.len() / DECOMPOSE_FLUSHES).max(1);
    let (mut replayed, mut flops, mut bytes, mut wrong) = (0usize, 0.0f64, 0.0f64, 0u64);
    for (f, (_, _, reqs)) in flushes
        .iter()
        .enumerate()
        .step_by(stride)
        .take(DECOMPOSE_FLUSHES)
    {
        let id = f as u64;
        let tops = rec.span("serve.flush", id, || {
            let mut rows = vec![0.0f32; reqs.len() * ud];
            let cold: Vec<(usize, UserId)> = rec.span("serve.warm_rows", id, || {
                let mut cold = Vec::new();
                for ((i, r), dst) in reqs.iter().enumerate().zip(rows.chunks_exact_mut(ud)) {
                    if !users.copy_row_into(r.user, dst) {
                        cold.push((i, r.user));
                    }
                }
                cold
            });
            if !cold.is_empty() {
                rec.span("nn.cold_tower", id, || {
                    let docs: Vec<&[usize]> =
                        cold.iter().map(|&(_, u)| views.target_doc(u)).collect();
                    let feats = model.user_target_rows(&docs);
                    for (&(i, _), src) in cold.iter().zip(feats.chunks_exact(ud)) {
                        rows[i * ud..(i + 1) * ud].copy_from_slice(src);
                    }
                });
            }
            let mut pools: Vec<Vec<(f32, usize)>> = vec![Vec::new(); reqs.len()];
            let mut scratch = Vec::new();
            for base in (0..n).step_by(SHARD_ITEMS) {
                let hi = (base + SHARD_ITEMS).min(n);
                let block = items.rows_f32(base, hi, &mut scratch);
                let pairs = rec.span("serve.cross_join", id, || {
                    kernels::pair_rows(&rows, block, ud, idim)
                });
                let stars = rec.span("serve.head", id, || {
                    let pairs = Tensor::from_vec(pairs, &[reqs.len() * (hi - base), pd]);
                    let logits = model.rating_logits_from_pairs(&pairs, false, &mut seeded_rng(0));
                    OmniMatchModel::expected_stars(&logits)
                });
                rec.span("serve.topk", id, || {
                    for (pool, row) in pools.iter_mut().zip(stars.chunks(hi - base)) {
                        pool.extend(
                            om_metrics::top_k_indices(row, TOPK)
                                .into_iter()
                                .map(|i| (row[i], base + i)),
                        );
                    }
                });
            }
            rec.span("serve.topk", id, || {
                pools
                    .into_iter()
                    .map(|p| {
                        om_metrics::merge_top_k(p, TOPK)
                            .into_iter()
                            .map(|(s, i)| (items.id_at(i), s))
                            .collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>()
            })
        });
        for (req, top) in reqs.iter().zip(&tops) {
            rep.attempted += 1;
            let served = tally.got.get(req.id as usize).and_then(Option::as_ref);
            if !served.is_some_and(|(_, r)| same_top(&r.top, top)) {
                wrong += 1;
            }
        }
        replayed += 1;
        let pairs = (reqs.len() * n) as f64;
        flops += pairs * (2 * pd * pd + 2 * pd * 5) as f64;
        bytes += pairs * (pd * 4) as f64;
    }
    rep.fail(
        wrong,
        format!("{wrong} replayed rankings differ from the served ones"),
    );
    let per = |span: &str| rec.total_ms(span) / replayed.max(1) as f64;
    rep.put("serve.cross_join_ms", per("serve.cross_join"), "ms");
    rep.put("serve.head_ms", per("serve.head"), "ms");
    rep.put("serve.topk_ms", per("serve.topk"), "ms");
    rep.put("serve.warm_rows_us", per("serve.warm_rows") * 1e3, "us");
    rep.put("nn.cold_tower_ms", per("nn.cold_tower"), "ms");
    let unattributed = rec.self_ms("serve.flush") / replayed.max(1) as f64;
    if unattributed < 0.0 {
        rep.fail(
            1,
            format!("serve.unattributed_ms is negative: {unattributed}"),
        );
    }
    rep.put("serve.unattributed_ms", unattributed, "ms");
    let head_s = rec.total_ms("serve.head") / 1e3;
    rep.put(
        "tensor.head_gflops",
        if head_s > 0.0 {
            flops / head_s / 1e9
        } else {
            0.0
        },
        "GFLOP/s",
    );
    rep.put(
        "tensor.pair_bytes_per_flush",
        bytes / replayed.max(1) as f64,
        "bytes",
    );
}

/// Replay the traced events through the update path's public pieces —
/// re-encode (`encode_reviews` + `user_target_rows`), shadow copy
/// (`UserArena::with_row`) and publish (`ArenaSwap::install`).
fn replay_updates(
    rep: &mut Report,
    rec: &crate::spans::Recorder,
    recipe: &Recipe,
    seed_events: &[UserEvent],
    segments: &[&[(Instant, Instant, UserEvent)]],
) {
    let (model, views, _items, _users) = recipe.parts();
    let mut encoded = 0usize;
    let mut id = 0u64;
    // Every segment served a fresh stack, seeded with the same events.
    for events in segments {
        let users = UserArena::load_blob(&recipe.users, Verify::Quick).expect("map user blob");
        let swap = ArenaSwap::new(users);
        let mut store = InteractionStore::new();
        for ev in seed_events {
            store.record(ev);
        }
        for (_, _, ev) in events.iter() {
            id += 1;
            rec.span("serve.update.apply", id, || {
                if store.record(ev) < WARM_AFTER {
                    return;
                }
                encoded += 1;
                let row = rec.span("serve.update.encode", id, || {
                    let texts: Vec<&str> =
                        store.texts(ev.user).iter().map(String::as_str).collect();
                    let doc = views.encode_reviews(&texts);
                    model.user_target_rows(&[&doc])
                });
                let shadow = rec.span("serve.update.shadow", id, || {
                    swap.pin().arena().with_row(ev.user, &row)
                });
                rec.span("serve.update.install", id, || swap.install(shadow));
            });
        }
    }
    let per = |span: &str| rec.total_ms(span) / encoded.max(1) as f64;
    rep.put("serve.update.encode_ms", per("serve.update.encode"), "ms");
    rep.put("serve.update.shadow_ms", per("serve.update.shadow"), "ms");
    rep.put(
        "serve.update.install_us",
        per("serve.update.install") * 1e3,
        "us",
    );
}

/// Replay the open-loop request arrivals through a fresh `Microbatcher`
/// on the schedule's virtual clock. Returns the mean batch wait (ms) and
/// the share of flushes that closed on the wait deadline.
fn replay_batcher(ops: &[(u64, Op)]) -> (f64, f64) {
    let mut b: Microbatcher<u64> = Microbatcher::new(BATCH, WAIT_US);
    let (mut waits, mut flushes, mut deadline) = (Vec::new(), 0usize, 0usize);
    let mut flush = |batch: Vec<u64>, at: u64, by_deadline: bool| {
        flushes += 1;
        deadline += usize::from(by_deadline);
        waits.extend(batch.iter().map(|&t| (at - t) as f64 / 1e3));
    };
    for &(t, ref op) in ops {
        if !matches!(op, Op::Req(_)) {
            continue;
        }
        if let Some(due) = b.poll(t) {
            let at = due[0] + WAIT_US;
            flush(due, at, true);
        }
        if let Some(full) = b.submit(t, t) {
            flush(full, t, false);
        }
    }
    if let Some(rest) = b.drain() {
        let at = rest[0] + WAIT_US;
        flush(rest, at, true);
    }
    (mean(&waits), deadline as f64 / flushes.max(1) as f64)
}

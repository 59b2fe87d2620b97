//! Backpressure contract of the threaded front-end, pinned with a
//! gated stub scorer (no model in the loop):
//!
//! * a full queue is a **typed rejection** (`SubmitError::QueueFull`) —
//!   never a panic, never a blocked producer;
//! * shutdown drains: every accepted request gets a response before the
//!   worker exits;
//! * a slow consumer bounds queue memory — accepted-but-unserved requests
//!   never exceed the queue bound plus the one batch in flight;
//! * a handle outliving the front-end reports `SubmitError::Shutdown`;
//! * interleaved `submit` / `submit_interaction` streams never lose a
//!   request, never serve a mixed-generation batch, and order flips
//!   before the requests admitted after them (property-tested with a
//!   stub scorer tagging every flush by generation).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use om_data::types::{ItemId, UserId};
use om_serve::{
    BatchScorer, Frontend, FrontendOptions, Request, Response, ServeError, SubmitError,
    UpdateOutcome, UserEvent,
};
use proptest::prelude::*;

/// A scorer that blocks inside `serve_batch` until the test releases it:
/// `entered` fires once per flush as the worker goes busy; each flush
/// then waits on `gate` (released wholesale by dropping the sender).
struct GatedScorer {
    entered: Sender<usize>,
    gate: Mutex<Receiver<()>>,
}

impl BatchScorer for GatedScorer {
    fn serve_batch(&self, reqs: &[Request]) -> Result<Vec<Response>, ServeError> {
        // The test may have stopped listening for entry signals.
        let _ = self.entered.send(reqs.len());
        // Err means the test dropped the gate: everything is released.
        let _ = self.gate.lock().expect("gate").recv();
        Ok(reqs
            .iter()
            .map(|r| Response { id: r.id, user: r.user, top: Vec::new() })
            .collect())
    }
}

fn req(id: u64) -> Request {
    Request { id, user: UserId(id as u32), arrive_us: 0 }
}

/// Spawn a front-end around a gated scorer. Returns the front-end, the
/// response stream, the per-flush entry signal, and the gate's sender
/// (drop it to release every blocked flush).
fn gated_frontend(
    opts: FrontendOptions,
) -> (Frontend, Receiver<Response>, Receiver<usize>, Sender<()>) {
    let (entered_tx, entered_rx) = channel();
    let (gate_tx, gate_rx) = channel();
    let (resp_tx, resp_rx) = channel();
    let fe = Frontend::spawn(
        move || GatedScorer { entered: entered_tx, gate: Mutex::new(gate_rx) },
        opts,
        resp_tx,
    )
    .expect("spawn front-end");
    (fe, resp_rx, entered_rx, gate_tx)
}

#[test]
fn full_queue_is_a_typed_rejection_not_a_panic_or_a_block() {
    let cap = 3usize;
    let (fe, resp_rx, entered_rx, gate_tx) = gated_frontend(FrontendOptions {
        queue_cap: cap,
        batch: 1,
        wait_us: 0,
    });
    let handle = fe.handle();

    // First request: the worker takes it and blocks inside the scorer.
    handle.try_send(req(0)).expect("first submit");
    let first_flush = entered_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("worker entered the scorer");
    assert_eq!(first_flush, 1);

    // The worker is stuck, so the next `cap` submits fill the queue...
    for id in 1..=cap as u64 {
        handle.try_send(req(id)).expect("queue has room");
    }
    // ...and the one after that is rejected, typed, immediately.
    let err = handle.try_send(req(99)).expect_err("queue is full");
    assert_eq!(err, SubmitError::QueueFull { capacity: cap });
    assert_eq!(handle.rejected(), 1);
    // Rejection is stateless: still rejecting, still counting.
    assert!(handle.try_send(req(100)).is_err());
    assert_eq!(handle.rejected(), 2);

    // The live snapshot sees the same world, mid-run, without shutdown.
    let snap = handle.stats_snapshot();
    assert_eq!(snap.admitted, 1 + cap as u64);
    assert_eq!(snap.rejected_full, 2);
    assert_eq!(snap.in_flight, 1 + cap as u64, "accepted but not yet replied");
    assert!(snap.worker_alive, "worker is alive (blocked in the scorer)");
    assert!(snap.queue_hwm >= cap as u64, "queue reached its bound");

    // Release the scorer; every *accepted* request is served.
    drop(gate_tx);
    let stats = fe.shutdown().expect("shutdown");
    assert_eq!(stats.served, 1 + cap as u64);
    assert_eq!(stats.rejected_full, 2);
    let mut got: Vec<u64> = resp_rx.iter().map(|r| r.id).collect();
    got.sort_unstable();
    assert_eq!(got, vec![0, 1, 2, 3]);

    // The handle outlives the front-end; its post-shutdown snapshot must
    // equal the final snapshot shutdown returned *exactly* — both read
    // the same atomics, so disagreement is impossible by construction.
    let after = handle.stats_snapshot();
    assert_eq!(after, stats);
    assert_eq!(after.in_flight, 0, "everything accepted was replied to");
    assert_eq!(after.queue_depth, 0);
    assert!(!after.worker_alive, "worker exited at shutdown");
}

#[test]
fn shutdown_drains_every_accepted_request() {
    // Huge batch and a huge deadline: nothing would flush on its own —
    // only the shutdown drain can produce these responses.
    let (fe, resp_rx, _entered_rx, gate_tx) = gated_frontend(FrontendOptions {
        queue_cap: 64,
        batch: 1_000,
        wait_us: u64::MAX,
    });
    drop(gate_tx); // scorer never blocks in this test
    let handle = fe.handle();
    for id in 0..10 {
        handle.try_send(req(id)).expect("submit");
    }
    let snapshot = fe.stats_snapshot();
    assert_eq!(snapshot.admitted, 10);
    let stats = fe.shutdown().expect("shutdown");
    assert_eq!(stats.served, 10, "shutdown must drain accepted requests");
    assert_eq!(stats.flushes, 1, "a single drain flush");
    let mut got: Vec<u64> = resp_rx.iter().map(|r| r.id).collect();
    got.sort_unstable();
    assert_eq!(got, (0..10).collect::<Vec<_>>());
}

#[test]
fn slow_consumer_bounds_accepted_backlog_to_queue_plus_in_flight() {
    let cap = 2usize;
    let (fe, resp_rx, entered_rx, gate_tx) = gated_frontend(FrontendOptions {
        queue_cap: cap,
        batch: 1,
        wait_us: 0,
    });
    let handle = fe.handle();

    // Hammer the front-end with far more work than the stuck consumer
    // can hold. Memory stays bounded: accepted ≤ queue_cap + the single
    // batch the worker may have already pulled out of the queue.
    let total = 500u64;
    let mut accepted = 0u64;
    for id in 0..total {
        if handle.try_send(req(id)).is_ok() {
            accepted += 1;
        }
    }
    assert!(
        accepted <= (cap + 1) as u64,
        "accepted {accepted} requests against a queue bound of {cap}"
    );
    assert_eq!(handle.rejected(), total - accepted);

    // Every accepted request still completes once the consumer recovers.
    drop(gate_tx);
    drop(entered_rx);
    let stats = fe.shutdown().expect("shutdown");
    assert_eq!(stats.served, accepted);
    assert_eq!(resp_rx.iter().count() as u64, accepted);
}

#[test]
fn handles_outliving_the_frontend_get_a_shutdown_error() {
    let (fe, resp_rx, _entered_rx, gate_tx) = gated_frontend(FrontendOptions {
        queue_cap: 4,
        batch: 1,
        wait_us: 0,
    });
    drop(gate_tx);
    let handle = fe.handle();
    handle.try_send(req(1)).expect("submit while alive");
    let stats = fe.shutdown().expect("shutdown");
    assert_eq!(stats.served, 1);
    assert_eq!(
        handle.try_send(req(2)).expect_err("front-end is gone"),
        SubmitError::Shutdown
    );
    assert_eq!(resp_rx.iter().count(), 1);
}

/// A scorer whose `apply_event` *is* a generation flip: each event bumps
/// a shared counter, the way the engine installs a new user-arena
/// generation. Each flush records the generation it observed entering
/// and leaving `serve_batch` plus the request ids it served — the
/// property test's evidence for single-generation batches and
/// event-before-request ordering.
/// Per flush: (generation at entry, generation at exit, request ids).
type FlushLog = Arc<Mutex<Vec<(u64, u64, Vec<u64>)>>>;

struct FlipScorer {
    generation: Arc<AtomicU64>,
    flushes: FlushLog,
}

impl BatchScorer for FlipScorer {
    fn serve_batch(&self, reqs: &[Request]) -> Result<Vec<Response>, ServeError> {
        // One generation read per batch, like the engine's single pin.
        let entry = self.generation.load(Ordering::SeqCst);
        let resps = reqs
            .iter()
            .map(|r| Response { id: r.id, user: r.user, top: Vec::new() })
            .collect();
        let exit = self.generation.load(Ordering::SeqCst);
        self.flushes
            .lock()
            .expect("flush log")
            .push((entry, exit, reqs.iter().map(|r| r.id).collect()));
        Ok(resps)
    }

    fn apply_event(&self, ev: &UserEvent) -> Result<Option<UpdateOutcome>, ServeError> {
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        Ok(Some(UpdateOutcome {
            user: ev.user,
            seen: generation as usize,
            graduated: generation == 1,
            generation: Some(generation),
        }))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving of request submits and interaction submits:
    /// every accepted request is served exactly once, every flush sees
    /// exactly one generation, generations never run backwards across
    /// flushes, and a request admitted after `k` events is never served
    /// from a generation older than `k` (events ride the same FIFO).
    #[test]
    fn interleaved_requests_and_flips_lose_nothing_and_never_mix_generations(
        ops in proptest::collection::vec(0u8..2, 1..48),
        batch in 1usize..4,
    ) {
        let generation = Arc::new(AtomicU64::new(0));
        let flushes = Arc::new(Mutex::new(Vec::new()));
        let (resp_tx, resp_rx) = channel();
        let scorer_generation = Arc::clone(&generation);
        let scorer_flushes = Arc::clone(&flushes);
        let fe = Frontend::spawn(
            move || FlipScorer { generation: scorer_generation, flushes: scorer_flushes },
            FrontendOptions { queue_cap: 4, batch, wait_us: 0 },
            resp_tx,
        )
        .expect("spawn front-end");
        let handle = fe.handle();

        // Drive the script; retry on QueueFull only (the scorer never
        // blocks, so the worker always drains).
        let mut events_admitted = 0u64;
        let mut next_id = 0u64;
        let mut floor: BTreeMap<u64, u64> = BTreeMap::new();
        for &op in &ops {
            let is_event = op == 1;
            if is_event {
                let ev = UserEvent {
                    user: UserId(7),
                    item: ItemId(events_admitted as u32),
                    stars: 5.0,
                    text: String::from("loved it"),
                };
                loop {
                    match handle.submit_interaction(ev.clone()) {
                        Ok(()) => break,
                        Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                        Err(e) => panic!("interaction rejected: {e}"),
                    }
                }
                events_admitted += 1;
            } else {
                loop {
                    match handle.try_send(req(next_id)) {
                        Ok(()) => break,
                        Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                        Err(e) => panic!("request rejected: {e}"),
                    }
                }
                floor.insert(next_id, events_admitted);
                next_id += 1;
            }
        }

        let stats = fe.shutdown().expect("shutdown");
        prop_assert_eq!(stats.served, next_id, "front-end lost a request");
        let mut got: Vec<u64> = resp_rx.iter().map(|r| r.id).collect();
        got.sort_unstable();
        prop_assert_eq!(got, (0..next_id).collect::<Vec<_>>());

        let snap = handle.stats_snapshot();
        prop_assert_eq!(snap.interactions, events_admitted, "front-end lost an event");
        prop_assert_eq!(snap.swaps, events_admitted);
        prop_assert_eq!(snap.graduations, u64::from(events_admitted > 0));
        prop_assert_eq!(snap.update_errors, 0);
        prop_assert_eq!(generation.load(Ordering::SeqCst), events_admitted);

        let log = flushes.lock().expect("flush log");
        let mut last_generation = 0u64;
        let mut served_ids = Vec::new();
        for (entry, exit, ids) in log.iter() {
            prop_assert_eq!(entry, exit, "a generation flip landed mid-batch");
            prop_assert!(*entry >= last_generation, "generations ran backwards across flushes");
            last_generation = *entry;
            for id in ids {
                prop_assert!(
                    *entry >= floor[id],
                    "request {} admitted after {} event(s) served from generation {}",
                    id, floor[id], entry
                );
                prop_assert!(*entry <= events_admitted);
                served_ids.push(*id);
            }
        }
        served_ids.sort_unstable();
        prop_assert_eq!(served_ids, (0..next_id).collect::<Vec<_>>());
    }
}

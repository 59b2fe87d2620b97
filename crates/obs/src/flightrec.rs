//! The crash flight recorder: a fixed-size ring of the most recent
//! per-request event records, dumped to disk when something goes wrong.
//!
//! The metrics registry ([`crate::metrics`]) answers "how is the server
//! doing"; the flight recorder answers "what exactly happened just before
//! it stopped doing it". The serving front-end appends one compact record
//! per noteworthy request event (served with its stage timings, rejected,
//! scorer error); the ring keeps the last [`DEFAULT_CAPACITY`] of them and
//! overwrites the oldest. Three triggers dump it:
//!
//! * a scorer error (the front-end dumps as soon as a flush fails);
//! * an injected fault firing ([`crate::fault::kill_point`] dumps before
//!   the process exits, so chaos CI gets a postmortem);
//! * shutdown with errors ([`Frontend::shutdown`] dumps when any flush
//!   failed during the run).
//!
//! Dumps land in `<out_root>/<run>/flightrec.jsonl` when an om-obs run is
//! active (next to `events.jsonl`), else under a fresh
//! `<out_root>/flightrec*/` directory — one JSON object per line,
//! parseable by [`crate::json`], oldest first, with a `reason` header
//! line. Dumping never panics and never fails the caller: filesystem
//! refusal is a WARN, not an error.
//!
//! The ring itself is a mutex-guarded fixed buffer: appends are O(1) with
//! one short uncontended lock — the recorder sits on the serving *event*
//! path (admission decisions, flush completions), not inside kernels —
//! and a poisoned lock is recovered, never propagated.
//!
//! `Frontend`s record through the process-global recorder ([`record`],
//! [`dump`]); tests construct standalone [`FlightRecorder`]s to pin
//! wraparound and concurrency behaviour without cross-test interference.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::json::{escape, Json};

/// Ring capacity of the process-global recorder.
pub const DEFAULT_CAPACITY: usize = 256;

/// One flight-recorder record: which request, what happened, when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// The front-end's monotone admission sequence number (0 when the
    /// event precedes admission, e.g. a queue-full rejection).
    pub seq: u64,
    /// The caller's correlation id ([`Request::id`] in om-serve).
    pub req_id: u64,
    /// The user being served.
    pub user: u64,
    /// Event kind: `served`, `rejected`, `scorer_error`, …
    pub event: &'static str,
    /// Clock reading at the event, ns since the process anchor.
    pub t_ns: u64,
    /// Per-stage timings or error detail, as `(key, value_ns)` pairs —
    /// e.g. `[("queue_wait_ns", …), ("e2e_ns", …)]` on a served record.
    pub stages: Vec<(&'static str, u64)>,
    /// Free-form detail (error text on `scorer_error`; empty otherwise).
    pub detail: String,
}

impl FlightRecord {
    /// The record as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut line = format!(
            "{{\"seq\":{},\"req\":{},\"user\":{},\"event\":{},\"t\":{}",
            self.seq,
            self.req_id,
            self.user,
            escape(self.event),
            self.t_ns
        );
        for (k, v) in &self.stages {
            line.push_str(&format!(",{}:{v}", escape(k)));
        }
        if !self.detail.is_empty() {
            line.push_str(&format!(",\"detail\":{}", escape(&self.detail)));
        }
        line.push('}');
        line
    }
}

struct Ring {
    /// Dropped-oldest slots, in insertion order once rotated.
    buf: Vec<FlightRecord>,
    /// Next write position (`buf.len() < capacity` means no wrap yet).
    head: usize,
    capacity: usize,
    /// Total records ever pushed (so a dump reports how many were lost).
    pushed: u64,
}

/// A fixed-capacity ring of [`FlightRecord`]s. Cloneable handles are not
/// needed: the serving side uses the process-global instance via
/// [`record`] / [`dump`]; tests own private ones.
pub struct FlightRecorder {
    ring: Mutex<Ring>,
}

fn lock_ring(m: &Mutex<Ring>) -> MutexGuard<'_, Ring> {
    // A panicking writer can only have completed or not-started its push
    // (the push is a single Vec write); the ring is always structurally
    // sound, so poison carries no information.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` records (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: Mutex::new(Ring {
                buf: Vec::with_capacity(capacity),
                head: 0,
                capacity,
                pushed: 0,
            }),
        }
    }

    /// Append one record, overwriting the oldest at capacity.
    pub fn push(&self, rec: FlightRecord) {
        let mut ring = lock_ring(&self.ring);
        ring.pushed += 1;
        if ring.buf.len() < ring.capacity {
            ring.buf.push(rec);
        } else {
            let head = ring.head;
            if let Some(slot) = ring.buf.get_mut(head) {
                *slot = rec;
            }
            ring.head = (head + 1) % ring.capacity;
        }
    }

    /// The retained records, oldest first.
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        let ring = lock_ring(&self.ring);
        let mut out = Vec::with_capacity(ring.buf.len());
        out.extend_from_slice(ring.buf.get(ring.head..).unwrap_or(&[]));
        out.extend_from_slice(ring.buf.get(..ring.head).unwrap_or(&[]));
        out
    }

    /// Total records ever pushed (≥ `snapshot().len()`).
    pub fn pushed(&self) -> u64 {
        lock_ring(&self.ring).pushed
    }

    /// Render the retained records as JSONL: a `flightrec` header line
    /// (reason, retained/pushed counts), then one line per record,
    /// oldest first.
    pub fn to_jsonl(&self, reason: &str) -> String {
        let records = self.snapshot();
        let mut out = format!(
            "{{\"kind\":\"flightrec\",\"reason\":{},\"t\":{},\"retained\":{},\"pushed\":{}}}\n",
            escape(reason),
            crate::clock::now_ns(),
            records.len(),
            self.pushed()
        );
        for rec in &records {
            out.push_str(&rec.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Write the JSONL dump to `dir/flightrec.jsonl`. Returns the path on
    /// success; filesystem refusal is a WARN and `None`.
    pub fn dump_to(&self, dir: &std::path::Path, reason: &str) -> Option<PathBuf> {
        if let Err(e) = std::fs::create_dir_all(dir) {
            crate::warn!("flightrec: cannot create {}: {e}", dir.display());
            return None;
        }
        let path = dir.join("flightrec.jsonl");
        match std::fs::write(&path, self.to_jsonl(reason)) {
            Ok(()) => {
                crate::warn!("flightrec: dumped ({reason}) to {}", path.display());
                Some(path)
            }
            Err(e) => {
                crate::warn!("flightrec: cannot write {}: {e}", path.display());
                None
            }
        }
    }
}

static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();

fn global() -> &'static FlightRecorder {
    GLOBAL.get_or_init(|| FlightRecorder::new(DEFAULT_CAPACITY))
}

/// Append one record to the process-global recorder.
pub fn record(rec: FlightRecord) {
    global().push(rec);
}

/// The process-global recorder's retained records, oldest first.
pub fn snapshot() -> Vec<FlightRecord> {
    global().snapshot()
}

/// Dump the process-global recorder to `<run dir>/flightrec.jsonl` when a
/// run is active, else a fresh `<out_root>/flightrec*/` directory. Never
/// fails the caller; returns the written path if the filesystem obliged.
pub fn dump(reason: &str) -> Option<PathBuf> {
    let dir = crate::sink::artifact_dir("flightrec");
    global().dump_to(&dir, reason)
}

/// Parse a dump back into `(reason, records-as-Json)`; `None` when the
/// text is not a well-formed flight-recorder stream. The proptest suite
/// round-trips dumps through this.
pub fn parse_dump(text: &str) -> Option<(String, Vec<Json>)> {
    let mut lines = text.lines();
    let header = Json::parse(lines.next()?).ok()?;
    if header.get("kind").and_then(Json::as_str) != Some("flightrec") {
        return None;
    }
    let reason = header.get("reason").and_then(Json::as_str)?.to_string();
    let mut records = Vec::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let rec = Json::parse(line).ok()?;
        // Every record line must carry the fixed keys.
        for key in ["seq", "req", "user", "event", "t"] {
            rec.get(key)?;
        }
        records.push(rec);
    }
    Some((reason, records))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64) -> FlightRecord {
        FlightRecord {
            seq,
            req_id: seq * 10,
            user: seq % 7,
            event: "served",
            t_ns: seq * 1_000,
            stages: vec![("queue_wait_ns", seq), ("e2e_ns", seq * 2)],
            detail: String::new(),
        }
    }

    #[test]
    fn ring_keeps_insertion_order_below_capacity() {
        let r = FlightRecorder::new(8);
        for i in 0..5 {
            r.push(rec(i));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 5);
        assert_eq!(snap.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert_eq!(r.pushed(), 5);
    }

    #[test]
    fn ring_wraps_at_capacity_keeping_the_newest() {
        let r = FlightRecorder::new(4);
        for i in 0..11 {
            r.push(rec(i));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4, "capacity bounds retention");
        assert_eq!(
            snap.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![7, 8, 9, 10],
            "oldest first, newest retained"
        );
        assert_eq!(r.pushed(), 11);
    }

    #[test]
    fn capacity_one_keeps_exactly_the_last() {
        let r = FlightRecorder::new(1);
        r.push(rec(1));
        r.push(rec(2));
        assert_eq!(r.snapshot().iter().map(|r| r.seq).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn concurrent_writers_lose_nothing_but_the_oldest() {
        let r = std::sync::Arc::new(FlightRecorder::new(64));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let r = r.clone();
                // om-lint: allow(thread-spawn) — test thread, not pool work.
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        r.push(rec(w * 1_000 + i));
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().expect("writer");
        }
        assert_eq!(r.pushed(), 2_000);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 64, "retains exactly capacity");
        // Each writer's retained records keep their relative order.
        for w in 0..4u64 {
            let seqs: Vec<u64> = snap
                .iter()
                .filter(|rec| rec.seq / 1_000 == w)
                .map(|rec| rec.seq)
                .collect();
            assert!(seqs.windows(2).all(|p| p[0] < p[1]), "writer {w} order: {seqs:?}");
        }
    }

    #[test]
    fn jsonl_round_trips_through_om_obs_json() {
        let r = FlightRecorder::new(8);
        r.push(rec(1));
        r.push(FlightRecord {
            seq: 2,
            req_id: 20,
            user: 3,
            event: "scorer_error",
            t_ns: 99,
            stages: Vec::new(),
            detail: "empty arena \"quoted\"\nnewline".to_string(),
        });
        let text = r.to_jsonl("unit-test");
        let (reason, records) = parse_dump(&text).expect("well-formed dump");
        assert_eq!(reason, "unit-test");
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].get("event").and_then(Json::as_str), Some("served"));
        assert_eq!(records[0].get("queue_wait_ns").and_then(Json::as_u64), Some(1));
        assert_eq!(
            records[1].get("detail").and_then(Json::as_str),
            Some("empty arena \"quoted\"\nnewline"),
            "detail text survives escaping"
        );
    }

    #[test]
    fn dump_to_writes_and_reparses() {
        let dir = std::env::temp_dir().join(format!("om-obs-flightrec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = FlightRecorder::new(4);
        r.push(rec(5));
        let path = r.dump_to(&dir, "test-dump").expect("dump succeeds");
        let text = std::fs::read_to_string(&path).expect("read back");
        let (reason, records) = parse_dump(&text).expect("parses");
        assert_eq!(reason, "test-dump");
        assert_eq!(records.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! The crash flight recorder as the serving postmortem:
//!
//! * property: whatever goes into the ring — hostile detail strings
//!   included — the dump is well-formed JSONL that `om_obs::json` parses
//!   back, record for record;
//! * integration: a scorer error inside the front-end dumps
//!   `flightrec.jsonl` to disk *at the failure*, holding the errored
//!   requests with their stage timings.
//!
//! (These live in om-serve rather than om-obs because om-obs is
//! deliberately dependency-free and proptest is a dev-dependency here.)

use std::sync::mpsc::channel;

use om_data::types::UserId;
use om_obs::flightrec::{parse_dump, FlightRecord, FlightRecorder};
use om_serve::{BatchScorer, Frontend, FrontendOptions, Request, Response, ServeError};
use proptest::prelude::*;

const EVENTS: [&str; 4] = ["served", "rejected", "scorer_error", "shutdown"];
const STAGE_KEYS: [&str; 4] = ["queue_wait_ns", "batch_wait_ns", "e2e_ns", "score_ns"];

/// om-obs Json stores numbers as f64, exact for integers below 2^53 —
/// which every real field (ns offsets, sequence numbers) is.
const MAX_EXACT: u64 = 1 << 53;

/// splitmix64 finaliser: derive independent-looking field values from one
/// drawn seed (the vendored proptest has range strategies only, so the
/// structured record is a pure function of plain integers).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hostile detail strings: quotes, backslashes, newlines, control chars,
/// unicode — everything the JSONL escaper must survive.
fn detail_from_seed(seed: u64) -> String {
    const PIECES: [&str; 8] =
        ["", "\"", "\\", "\n\t", "score {} fail", "naïve 🚀", "a\"b\\c", "line1\nline2\u{1}"];
    let n = (mix(seed) % 4) as usize;
    (0..n as u64)
        .map(|i| PIECES[(mix(seed ^ (i + 1)) % PIECES.len() as u64) as usize])
        .collect()
}

fn reason_from_seed(seed: u64) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz_:";
    let len = 1 + (mix(seed) % 20) as usize;
    (0..len as u64)
        .map(|i| ALPHABET[(mix(seed.wrapping_add(i)) % ALPHABET.len() as u64) as usize] as char)
        .collect()
}

fn record_from_seed(seed: u64) -> FlightRecord {
    let field = |k: u64| mix(seed ^ k) % MAX_EXACT;
    // Distinct stage keys per record: duplicate JSON keys would make the
    // parsed round-trip ambiguous.
    let n_stages = (mix(seed ^ 7) % (STAGE_KEYS.len() as u64 + 1)) as usize;
    let start = (mix(seed ^ 8) as usize) % STAGE_KEYS.len();
    let stages = (0..n_stages)
        .map(|j| (STAGE_KEYS[(start + j) % STAGE_KEYS.len()], field(100 + j as u64)))
        .collect();
    FlightRecord {
        seq: field(1),
        req_id: field(2),
        user: field(3),
        event: EVENTS[(mix(seed ^ 4) % EVENTS.len() as u64) as usize],
        t_ns: field(5),
        stages,
        detail: detail_from_seed(seed ^ 6),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dumped_records_are_well_formed_jsonl(
        seeds in collection::vec(0u64..u64::MAX, 0..20),
        capacity in 1usize..16,
        reason_seed in 0u64..MAX_EXACT,
    ) {
        let records: Vec<FlightRecord> =
            seeds.iter().map(|&s| record_from_seed(s)).collect();
        let reason = reason_from_seed(reason_seed);
        let rec = FlightRecorder::new(capacity);
        for r in &records {
            rec.push(r.clone());
        }
        let dump = rec.to_jsonl(&reason);
        let (parsed_reason, parsed) =
            parse_dump(&dump).expect("dump must parse as flightrec JSONL");
        prop_assert_eq!(parsed_reason, reason);
        prop_assert_eq!(parsed.len(), records.len().min(capacity));
        // The retained tail is the *newest* records, oldest first.
        let tail = &records[records.len().saturating_sub(capacity)..];
        for (json, rec) in parsed.iter().zip(tail) {
            prop_assert_eq!(json.get("seq").and_then(|v| v.as_u64()), Some(rec.seq));
            prop_assert_eq!(json.get("req").and_then(|v| v.as_u64()), Some(rec.req_id));
            prop_assert_eq!(json.get("user").and_then(|v| v.as_u64()), Some(rec.user));
            prop_assert_eq!(json.get("t").and_then(|v| v.as_u64()), Some(rec.t_ns));
            prop_assert_eq!(
                json.get("event").and_then(|v| v.as_str()),
                Some(rec.event)
            );
            for &(key, val) in &rec.stages {
                prop_assert_eq!(json.get(key).and_then(|v| v.as_u64()), Some(val));
            }
            if !rec.detail.is_empty() {
                prop_assert_eq!(
                    json.get("detail").and_then(|v| v.as_str()),
                    Some(rec.detail.as_str())
                );
            }
        }
    }
}

/// A scorer that always fails — every flush becomes a postmortem.
struct FailingScorer;

impl BatchScorer for FailingScorer {
    fn serve_batch(&self, reqs: &[Request]) -> Result<Vec<Response>, ServeError> {
        Err(ServeError::ScoreShape { expected: reqs.len(), got: 0 })
    }
}

#[test]
fn scorer_error_dumps_a_postmortem_to_disk() {
    let tmp = std::env::temp_dir().join(format!(
        "om_flightrec_test_{}_{}",
        std::process::id(),
        om_obs::clock::now_ns()
    ));
    std::fs::create_dir_all(&tmp).expect("mk tmp");
    om_obs::set_out_root(&tmp);

    let (resp_tx, resp_rx) = channel();
    let fe = Frontend::spawn(
        || FailingScorer,
        FrontendOptions { queue_cap: 16, batch: 4, wait_us: 50 },
        resp_tx,
    )
    .expect("spawn front-end");
    let handle = fe.handle();
    for id in 0..4u64 {
        handle
            .try_send(Request { id, user: UserId(id as u32), arrive_us: 0 })
            .expect("submit");
    }
    let stats = fe.shutdown().expect("shutdown");
    assert!(stats.scorer_errors >= 1, "the failing scorer must have errored");
    assert_eq!(stats.served, 0);
    assert_eq!(resp_rx.iter().count(), 0);

    // A flightrec.jsonl landed under the out root, and it parses.
    let mut dumps = Vec::new();
    for entry in std::fs::read_dir(&tmp).expect("read tmp").flatten() {
        let f = entry.path().join("flightrec.jsonl");
        if f.is_file() {
            dumps.push(f);
        }
    }
    assert!(!dumps.is_empty(), "no flightrec.jsonl under {}", tmp.display());
    let text = std::fs::read_to_string(&dumps[0]).expect("read dump");
    let (reason, records) = parse_dump(&text).expect("dump parses");
    assert!(
        reason.starts_with("scorer_error") || reason.starts_with("shutdown_with_errors"),
        "unexpected dump reason {reason}"
    );
    assert!(
        records
            .iter()
            .any(|r| r.get("event").and_then(|v| v.as_str()) == Some("scorer_error")),
        "postmortem must hold the errored requests"
    );

    let _ = std::fs::remove_dir_all(&tmp);
}

//! Shared trace-replay machinery for the serving benchmarks.
//!
//! `serve_bench` (small catalogue, single-arena engine) and `load_bench`
//! (million-user sharded engine) measure the same thing — microbatched
//! scoring under a synthetic arrival trace — so the trace construction,
//! the virtual-clock replay loop, and the `bench_json`-schema summaries
//! live here once and both binaries call them.
//!
//! The replay is *open-loop* and virtually clocked: arrivals follow the
//! trace's deterministic timestamps (they never wait for responses), the
//! microbatcher's deadlines are evaluated against that virtual clock, and
//! only the compute inside each flush is measured with `Instant`. A
//! request's reported latency is its virtual queue wait plus the real
//! compute time of the flush that scored it. This keeps the batching
//! pattern bit-reproducible run to run while the timings stay honest.

use std::collections::BTreeMap;
use std::time::Instant;

use om_data::types::UserId;
use om_obs::json::Json;
use om_serve::{BatchScorer, Microbatcher, Request};

/// Inter-arrival process for a synthetic trace. Both are deterministic
/// (hash-derived), so a trace is a pure function of its parameters.
#[derive(Debug, Clone, Copy)]
pub enum Arrival {
    /// Uniform jitter: gap in `[mean/2, 3·mean/2)` — `serve_bench`'s
    /// historical process.
    Jittered {
        /// Mean inter-arrival gap, microseconds.
        mean_gap_us: u64,
    },
    /// Exponential gaps (a Poisson arrival process), inverse-CDF sampled.
    Poisson {
        /// Mean inter-arrival gap, microseconds.
        mean_gap_us: u64,
    },
}

/// Build a deterministic request trace. `pick` maps each request's hash
/// to the user served (uniform, Zipfian — the caller decides); arrivals
/// advance per [`Arrival`]. Request ids are the trace positions.
pub fn build_trace<F: FnMut(u64) -> UserId>(
    requests: usize,
    arrival: Arrival,
    mut pick: F,
) -> Vec<Request> {
    let mut trace = Vec::with_capacity(requests);
    let mut now_us = 0u64;
    let mut h = 0x1234_5678_9ABC_DEF1u64;
    for i in 0..requests {
        h = h.wrapping_mul(0xD130_2B97_9AF6_2F05).rotate_left(23) ^ (i as u64);
        now_us += match arrival {
            Arrival::Jittered { mean_gap_us } => mean_gap_us / 2 + h % mean_gap_us,
            Arrival::Poisson { mean_gap_us } => {
                // Exponential inverse CDF: gap = -mean · ln(1 - u), with u
                // drawn from the top 53 bits of the hash.
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                (-(mean_gap_us as f64) * (1.0 - u).max(f64::MIN_POSITIVE).ln()) as u64
            }
        };
        trace.push(Request { id: i as u64, user: pick(h), arrive_us: now_us });
    }
    trace
}

/// A Zipfian user picker over ranks `0..n`: rank `r` drawn with
/// probability `∝ 1/(r+1)^s` via the inverse CDF of the continuous
/// bounded power law (the standard approximation — exact enough for a
/// load model, O(1) per draw with no `n`-sized weight table). `ranks[r]`
/// then maps popularity rank to a concrete user.
pub fn zipf_pick(n: usize, s: f64, h: u64) -> usize {
    debug_assert!(n > 0);
    let u = ((h >> 11) as f64 / (1u64 << 53) as f64).clamp(0.0, 1.0 - 1e-12);
    let n_f = n as f64;
    let rank = if (s - 1.0).abs() < 1e-9 {
        // s = 1: CDF ∝ ln(x), inverse is an exponential in u.
        (n_f.ln() * u).exp()
    } else {
        let p = 1.0 - s;
        ((n_f.powf(p) - 1.0) * u + 1.0).powf(1.0 / p)
    };
    (rank as usize).min(n - 1)
}

/// Everything a measured replay produced; the caller turns these into
/// `bench_json` summaries and report-specific extras.
pub struct ReplayOutcome {
    /// Per-flush compute time, ms (measured replays only).
    pub flush_ms: Vec<f64>,
    /// Per-request latency (virtual queue wait + flush compute), ms.
    pub latency_ms: Vec<f64>,
    /// Total compute seconds across measured replays.
    pub compute_s: f64,
    /// Requests served across measured replays.
    pub served: usize,
}

/// Replay `trace` through a fresh [`Microbatcher`] per pass: one
/// discarded warmup, then `replays` measured passes. Per-request
/// latencies are kept as exact samples ([`ReplayOutcome::latency_ms`]);
/// read percentiles from them with [`percentile`]. Panics if a replay
/// drops a request.
pub fn replay_trace<S: BatchScorer>(
    scorer: &S,
    trace: &[Request],
    batch: usize,
    wait_us: u64,
    replays: usize,
) -> ReplayOutcome {
    let mut out = ReplayOutcome {
        flush_ms: Vec::new(),
        latency_ms: Vec::new(),
        compute_s: 0.0,
        served: 0,
    };
    for replay in 0..=replays {
        let warmup = replay == 0;
        let mut batcher: Microbatcher<Request> = Microbatcher::new(batch, wait_us);
        let mut served = 0usize;
        let mut flush = |reqs: Vec<Request>, virtual_now: u64| {
            let t = Instant::now();
            let responses = scorer.serve_batch(&reqs).expect("replay scorer failed");
            let dt = t.elapsed().as_secs_f64();
            served += responses.len();
            if warmup {
                return;
            }
            out.compute_s += dt;
            out.flush_ms.push(dt * 1e3);
            for r in &reqs {
                let wait_ms = (virtual_now - r.arrive_us) as f64 / 1e3;
                out.latency_ms.push(wait_ms + dt * 1e3);
            }
        };
        for req in trace {
            if let Some(due) = batcher.poll(req.arrive_us) {
                // Deadline flush fires at (oldest arrival + wait_us), not
                // at the arrival that exposed it.
                let fired_at = due[0].arrive_us + wait_us;
                flush(due, fired_at);
            }
            let now = req.arrive_us;
            if let Some(full) = batcher.submit(*req, now) {
                flush(full, now);
            }
        }
        let end = trace.last().expect("non-empty trace").arrive_us + wait_us;
        if let Some(rest) = batcher.drain() {
            flush(rest, end);
        }
        assert_eq!(served, trace.len(), "trace replay dropped requests");
        if !warmup {
            out.served += served;
        }
    }
    out
}

/// `samples` in ascending order (timings are finite by construction).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples
}

/// The nearest-rank `q`-percentile of ascending, non-empty `sorted`
/// samples — the rank rule ([`om_obs::metrics::nearest_rank`]) the
/// histogram quantiles use, applied to exact samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[om_obs::metrics::nearest_rank(q, sorted.len() as u64) as usize - 1]
}

/// Summary of one benchmark's samples (nearest-rank percentiles) —
/// matches the `bench_json` schema that `bench_gate` reads.
pub fn summarize(name: &str, samples: Vec<f64>) -> Json {
    let samples = sorted(samples);
    let n = samples.len();
    let pct = |q: f64| percentile(&samples, q);
    let mut o = BTreeMap::new();
    o.insert("name".to_string(), Json::Str(name.to_string()));
    o.insert("iters".to_string(), Json::Num(n as f64));
    o.insert("median_ms".to_string(), Json::Num(pct(0.5)));
    o.insert(
        "mean_ms".to_string(),
        Json::Num(samples.iter().sum::<f64>() / n as f64),
    );
    o.insert("p95_ms".to_string(), Json::Num(pct(0.95)));
    o.insert("min_ms".to_string(), Json::Num(samples[0]));
    o.insert("max_ms".to_string(), Json::Num(samples[n - 1]));
    Json::Obj(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_and_monotone() {
        let pick = |h: u64| UserId((h >> 32) as u32 % 100);
        let a = build_trace(200, Arrival::Jittered { mean_gap_us: 650 }, pick);
        let b = build_trace(200, Arrival::Jittered { mean_gap_us: 650 }, pick);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrive_us <= w[1].arrive_us));
        let p = build_trace(200, Arrival::Poisson { mean_gap_us: 650 }, pick);
        assert!(p.windows(2).all(|w| w[0].arrive_us <= w[1].arrive_us));
        // Mean gap in the right ballpark for both processes.
        for t in [&a, &p] {
            let mean = t.last().expect("non-empty").arrive_us as f64 / t.len() as f64;
            assert!((300.0..1300.0).contains(&mean), "mean gap {mean}");
        }
    }

    #[test]
    fn zipf_pick_is_skewed_and_in_range() {
        let n = 10_000;
        let mut head = 0usize;
        let mut h = 7u64;
        for _ in 0..4_000 {
            h = h.wrapping_mul(0xD130_2B97_9AF6_2F05).rotate_left(23);
            let r = zipf_pick(n, 1.1, h);
            assert!(r < n);
            if r < n / 100 {
                head += 1;
            }
        }
        // Under uniform sampling the top 1% of ranks would get ~1% of
        // draws; Zipf s=1.1 concentrates far more than that there.
        assert!(head > 400, "head draws {head} not Zipf-skewed");
    }

    #[test]
    fn summaries_use_nearest_rank_percentiles() {
        let s = summarize("t", vec![4.0, 1.0, 3.0, 2.0]);
        let f = |k: &str| s.get(k).and_then(Json::as_f64).expect("field");
        assert_eq!(f("iters"), 4.0);
        assert_eq!(f("median_ms"), 2.0);
        assert_eq!(f("p95_ms"), 4.0);
        assert_eq!(f("min_ms"), 1.0);
        assert_eq!(f("max_ms"), 4.0);
        let twenty = sorted((1..=20).rev().map(f64::from).collect());
        assert_eq!(percentile(&twenty, 0.5), 10.0);
        assert_eq!(percentile(&twenty, 0.95), 19.0);
        assert_eq!(percentile(&twenty, 0.0), 1.0);
        assert_eq!(percentile(&twenty, 1.0), 20.0);
    }
}

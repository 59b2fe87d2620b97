//! The metrics registry: named counters, integer gauges and histograms in
//! one process-global registry that never resets.
//!
//! * Updates take no lock. Look a handle up once (the hot kernels cache
//!   theirs in `OnceLock` statics); after that a counter or gauge update
//!   is one relaxed atomic op and a histogram update a short
//!   seqlock-guarded run of three atomic adds.
//! * Reads never write. [`snapshot`] copies every metric, and a
//!   run-scoped window is the difference of two reads,
//!   [`Snapshot::since`]. Scraping `/metrics` and closing a run's
//!   `events.jsonl` therefore cannot steal samples from each other, and
//!   cached handles stay valid forever.
//! * Histogram snapshots cannot tear. Each histogram carries a sequence
//!   word that writers hold odd for their bucket / count / sum adds;
//!   [`Histogram::snapshot`] retries until it reads the same *even*
//!   sequence on both sides of its copy, so `count == Σ buckets` and
//!   `sum` is exact (DESIGN.md § Live telemetry).
//! * Lookups cannot panic. The registry lock recovers from poisoning, and
//!   a name already registered with a different kind gets a warning and
//!   a detached handle: the serving worker looks series up on every
//!   flush, and a bad name must not take it down.
//!
//! Histograms use 64 power-of-two buckets (bucket 0 holds exact zeros,
//! bucket *i* holds `[2^(i-1), 2^i)`), which makes `record` branch-free
//! (`leading_zeros`) and thread-count independent, and gives quantile
//! *estimates* with a guaranteed ≤ 2× relative error.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of histogram buckets (zero bucket + 63 power-of-two ranges).
pub const HIST_BUCKETS: usize = 64;

/// A monotonically increasing counter.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An integer gauge (queue depths, in-flight counts, generation numbers).
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Increment (e.g. a request entered the queue).
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrement, saturating at zero.
    #[inline]
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Raise the gauge to `v` if it is below (high-water marks).
    #[inline]
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct Histo {
    /// Seqlock word: odd while a writer is mid-update. Writers serialise
    /// on it with a CAS (uncontended in the serving shape: one worker
    /// thread feeds each stage histogram); readers never write it.
    seq: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A histogram over `u64` samples (nanoseconds, in practice) with
/// tear-free snapshots.
#[derive(Clone)]
pub struct Histogram(Arc<Histo>);

impl Default for Histogram {
    /// An empty histogram outside the registry.
    fn default() -> Histogram {
        Histogram(Arc::new(Histo {
            seq: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

/// Bucket index of a sample: 0 for 0, else `64 - leading_zeros`, capped.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive value range covered by bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 0)
    } else if i >= HIST_BUCKETS - 1 {
        (1u64 << (HIST_BUCKETS - 2), u64::MAX)
    } else {
        (1u64 << (i - 1), (1u64 << i) - 1)
    }
}

impl Histogram {
    /// Record one sample. Writers serialise on the sequence word (a CAS
    /// even→odd, then three relaxed adds, then a release store back to
    /// even); with the single-writer-per-histogram serving shape the CAS
    /// never spins.
    #[inline]
    pub fn record(&self, v: u64) {
        let h = &self.0;
        let mut seq = h.seq.load(Ordering::Relaxed);
        loop {
            if seq & 1 == 1 {
                std::hint::spin_loop();
                seq = h.seq.load(Ordering::Relaxed);
                continue;
            }
            match h
                .seq
                .compare_exchange_weak(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(cur) => seq = cur,
            }
        }
        if let Some(b) = h.buckets.get(bucket_index(v)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.seq.store(seq + 2, Ordering::Release);
    }

    /// A consistent snapshot: retries the bucket copy until the sequence
    /// word is even and unchanged across it, so the returned counts
    /// reflect a quiescent point (`count == Σ buckets`, `sum` exact).
    pub fn snapshot(&self) -> HistSnapshot {
        let h = &self.0;
        loop {
            let s1 = h.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let buckets: Vec<u64> = h
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect();
            let count = h.count.load(Ordering::Relaxed);
            let sum = h.sum.load(Ordering::Relaxed);
            std::sync::atomic::fence(Ordering::Acquire);
            if h.seq.load(Ordering::Relaxed) == s1 {
                return HistSnapshot {
                    count,
                    sum,
                    buckets,
                };
            }
        }
    }
}

/// One tear-free histogram state: `count` always equals the sum of
/// `buckets`, and `sum` was produced by exactly those samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Dense per-bucket counts, `HIST_BUCKETS` long.
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    /// Nearest-rank quantile estimate (bucket midpoint, ≤ 2× relative
    /// error); `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        quantile_of(&self.buckets, q)
    }

    /// The samples recorded after `earlier` (an older snapshot of the
    /// same histogram). Buckets only grow, so the difference of two
    /// consistent snapshots is consistent too.
    fn since(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let old = earlier.buckets.iter().chain(std::iter::repeat(&0));
        HistSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.wrapping_sub(earlier.sum),
            buckets: self
                .buckets
                .iter()
                .zip(old)
                .map(|(n, o)| n.saturating_sub(*o))
                .collect(),
        }
    }
}

/// The 1-based nearest rank of the `q`-quantile among `n` samples:
/// `ceil(q·n)` clamped to `1..=n`. The one rank rule behind
/// [`quantile_of`] and the bench harnesses' exact percentiles.
pub fn nearest_rank(q: f64, n: u64) -> u64 {
    ((q * n as f64).ceil() as u64).clamp(1, n.max(1))
}

/// Nearest-rank quantile estimate over raw bucket counts (shared by
/// [`HistSnapshot::quantile`] and the report's re-parse of serialized
/// windows): the midpoint of the bucket holding that rank.
pub fn quantile_of(bucket_counts: &[u64], q: f64) -> Option<u64> {
    let total: u64 = bucket_counts.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = nearest_rank(q, total);
    let mut cum = 0u64;
    let i = bucket_counts
        .iter()
        .position(|&c| {
            cum += c;
            cum >= rank
        })
        .unwrap_or(bucket_counts.len() - 1);
    let (lo, hi) = bucket_bounds(i);
    Some(lo + (hi - lo) / 2)
}

/// One metric's state inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter total (or, in a window, its increase).
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram state (or, in a window, the samples recorded in it).
    Histogram(HistSnapshot),
}

impl MetricValue {
    /// This value's change since `earlier` (the same series in an older
    /// snapshot, if it existed then); `None` when it did not move.
    /// Gauges report their current value.
    fn since(&self, earlier: Option<&MetricValue>) -> Option<MetricValue> {
        match (self, earlier) {
            (MetricValue::Counter(now), Some(MetricValue::Counter(old))) => {
                (now > old).then(|| MetricValue::Counter(now - old))
            }
            (MetricValue::Gauge(now), Some(MetricValue::Gauge(old))) => {
                (now != old).then_some(MetricValue::Gauge(*now))
            }
            (MetricValue::Histogram(now), Some(MetricValue::Histogram(old))) => {
                let window = now.since(old);
                (window.count > 0).then_some(MetricValue::Histogram(window))
            }
            (MetricValue::Counter(0) | MetricValue::Gauge(0), _) => None,
            (MetricValue::Histogram(h), _) if h.count == 0 => None,
            (now, _) => Some(now.clone()),
        }
    }
}

/// Every registered metric at one instant, by name — or, from
/// [`Snapshot::since`], what changed between two instants.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Metric values, sorted by name.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// The empty snapshot: the baseline before any metric moved.
    pub const fn new() -> Snapshot {
        Snapshot {
            metrics: BTreeMap::new(),
        }
    }

    /// The window from `earlier` to `self`: counter increases, the
    /// samples each histogram gained, and gauges that changed (at their
    /// current value). Series that did not move are omitted.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let metrics = self
            .metrics
            .iter()
            .filter_map(|(name, now)| {
                now.since(earlier.metrics.get(name))
                    .map(|d| (name.clone(), d))
            })
            .collect();
        Snapshot { metrics }
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

static REGISTRY: Mutex<BTreeMap<String, Metric>> = Mutex::new(BTreeMap::new());

fn lock_registry() -> MutexGuard<'static, BTreeMap<String, Metric>> {
    // The map only ever grows and every value is Arc-backed, so a panic
    // while the lock was held cannot have left torn state worth
    // poisoning over.
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Look up (or register) `name` as the kind `pick` accepts. A name held
/// by another kind yields a fresh detached handle and a warning.
fn lookup<T: Default>(name: &str, wrap: fn(T) -> Metric, pick: fn(&Metric) -> Option<T>) -> T {
    let found = pick(
        lock_registry()
            .entry(name.to_string())
            .or_insert_with(|| wrap(T::default())),
    );
    found.unwrap_or_else(|| {
        crate::warn!("metric `{name}` already registered with a different kind");
        T::default()
    })
}

/// Look up (or create) the counter `name`. Cache the handle at hot sites.
pub fn counter(name: &str) -> Counter {
    lookup(name, Metric::Counter, |m| match m {
        Metric::Counter(c) => Some(c.clone()),
        _ => None,
    })
}

/// Look up (or create) the gauge `name`.
pub fn gauge(name: &str) -> Gauge {
    lookup(name, Metric::Gauge, |m| match m {
        Metric::Gauge(g) => Some(g.clone()),
        _ => None,
    })
}

/// Look up (or create) the histogram `name`.
pub fn histogram(name: &str) -> Histogram {
    lookup(name, Metric::Histogram, |m| match m {
        Metric::Histogram(h) => Some(h.clone()),
        _ => None,
    })
}

/// Read every registered metric without writing to any: counters and
/// gauges at their current value, histograms tear-free. Unsampled series
/// are included (`/metrics` scrapes want stable series).
pub fn snapshot() -> Snapshot {
    let metrics = lock_registry()
        .iter()
        .map(|(name, metric)| {
            let value = match metric {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
            };
            (name.clone(), value)
        })
        .collect();
    Snapshot { metrics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_index_and_bounds_agree() {
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} bucket={i} bounds=({lo},{hi})");
        }
    }

    #[test]
    fn quantiles_are_ordered_and_bucket_accurate() {
        let h = histogram("test.quantiles");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        let p0 = snap.quantile(0.0).unwrap();
        let p50 = snap.quantile(0.5).unwrap();
        let p95 = snap.quantile(0.95).unwrap();
        let p100 = snap.quantile(1.0).unwrap();
        assert!(p0 <= p50 && p50 <= p95 && p95 <= p100);
        // True p50 = 500 lives in bucket [256, 511]; the estimate must too.
        assert!((256..=511).contains(&p50), "p50 estimate {p50}");
        // True p95 = 950 lives in bucket [512, 1023].
        assert!((512..=1023).contains(&p95), "p95 estimate {p95}");
    }

    #[test]
    fn constant_samples_pin_every_quantile() {
        let h = Histogram::default();
        for _ in 0..32 {
            h.record(7);
        }
        let (lo, hi) = bucket_bounds(bucket_index(7));
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let est = h.snapshot().quantile(q).unwrap();
            assert!((lo..=hi).contains(&est), "q={q} est={est}");
        }
    }

    #[test]
    fn zero_only_and_empty_histograms() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().quantile(0.5), None);
        h.record(0);
        assert_eq!(h.snapshot().quantile(0.5), Some(0));
        assert_eq!(h.snapshot().quantile(1.0), Some(0));
    }

    #[test]
    fn quantile_of_reads_raw_bucket_counts() {
        let mut counts = vec![0u64; HIST_BUCKETS];
        assert_eq!(quantile_of(&counts, 0.5), None);
        counts[3] = 10; // values in [4,7]
        let est = quantile_of(&counts, 0.5).unwrap();
        assert!((4..=7).contains(&est));
    }

    #[test]
    fn nearest_rank_is_ceil_clamped() {
        assert_eq!(nearest_rank(0.5, 4), 2);
        assert_eq!(nearest_rank(0.5, 5), 3);
        assert_eq!(nearest_rank(0.95, 20), 19);
        assert_eq!(nearest_rank(0.99, 10), 10);
        assert_eq!(nearest_rank(0.0, 7), 1);
        assert_eq!(nearest_rank(1.0, 7), 7);
        assert_eq!(nearest_rank(2.0, 7), 7);
        assert_eq!(nearest_rank(-1.0, 7), 1);
        assert_eq!(nearest_rank(f64::NAN, 7), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The committed error bound until finer buckets land: a quantile
        /// estimate falls in the bucket of the exact nearest-rank sample,
        /// so it is within 2× of it.
        #[test]
        fn quantile_lands_in_the_exact_samples_bucket(
            raw in collection::vec(0u64..u64::MAX, 1..300),
            q in 0.0f64..1.0,
        ) {
            // Shift each sample by its own low six bits so the cases
            // spread over every bucket, zeros included.
            let mut samples: Vec<u64> = raw.iter().map(|r| r >> (r & 63)).collect();
            let h = Histogram::default();
            for &v in &samples {
                h.record(v);
            }
            samples.sort_unstable();
            let snap = h.snapshot();
            let n = samples.len();
            for q in [q, 0.0, 0.5, 0.95, 0.99, 1.0] {
                let exact = samples[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
                let est = snap.quantile(q).unwrap();
                prop_assert_eq!(bucket_index(est), bucket_index(exact), "q={} exact={} est={}", q, exact, est);
            }
        }
    }

    #[test]
    fn snapshots_never_reset_and_handles_stay_shared() {
        let c = counter("test.noreset");
        c.add(5);
        let first = snapshot();
        assert_eq!(
            first.metrics.get("test.noreset"),
            Some(&MetricValue::Counter(5))
        );
        assert_eq!(c.get(), 5, "snapshot must not write");
        c.add(2);
        assert_eq!(counter("test.noreset").get(), 7, "same underlying atomic");
        let window = snapshot().since(&first);
        assert_eq!(
            window.metrics.get("test.noreset"),
            Some(&MetricValue::Counter(2))
        );
    }

    #[test]
    fn since_keeps_deltas_and_drops_series_that_did_not_move() {
        let c = counter("test.since.counter");
        let idle = counter("test.since.idle");
        let g = gauge("test.since.gauge");
        let h = histogram("test.since.hist");
        c.add(3);
        idle.add(1);
        g.set(4);
        h.record(10);
        let before = snapshot();
        c.add(2);
        h.record(1000);
        h.record(1000);
        let window = snapshot().since(&before);
        assert_eq!(
            window.metrics.get("test.since.counter"),
            Some(&MetricValue::Counter(2))
        );
        assert_eq!(
            window.metrics.get("test.since.idle"),
            None,
            "no increase, no line"
        );
        assert_eq!(
            window.metrics.get("test.since.gauge"),
            None,
            "unchanged gauge"
        );
        let Some(MetricValue::Histogram(hw)) = window.metrics.get("test.since.hist") else {
            panic!("histogram window missing");
        };
        assert_eq!((hw.count, hw.sum), (2, 2000));
        assert_eq!(hw.buckets[bucket_index(1000)], 2);
        assert_eq!(hw.buckets.iter().sum::<u64>(), 2);
        g.set(9);
        let window = snapshot().since(&before);
        assert_eq!(
            window.metrics.get("test.since.gauge"),
            Some(&MetricValue::Gauge(9))
        );
        // From the empty baseline, everything that is non-zero shows.
        let all = snapshot().since(&Snapshot::new());
        assert_eq!(
            all.metrics.get("test.since.idle"),
            Some(&MetricValue::Counter(1))
        );
    }

    #[test]
    fn gauges_set_inc_dec_and_raise() {
        let g = gauge("test.gauge.ops");
        g.set(7);
        g.inc();
        g.dec();
        g.dec();
        g.dec();
        assert_eq!(g.get(), 5);
        g.raise(9);
        g.raise(4);
        assert_eq!(g.get(), 9, "raise keeps the high-water mark");
        let z = gauge("test.gauge.zero");
        z.dec();
        assert_eq!(z.get(), 0, "dec saturates at zero");
    }

    #[test]
    fn histogram_snapshot_is_internally_consistent() {
        let h = histogram("test.hist.consistent");
        for v in [0u64, 1, 5, 1000, 123_456] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 124_462);
        assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
        assert_eq!(snap.buckets.len(), HIST_BUCKETS);
    }

    #[test]
    fn concurrent_writers_never_tear_a_snapshot_or_a_window() {
        let h = histogram("test.hist.torn");
        let mut prev = snapshot();
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let h = h.clone();
                // om-lint: allow(thread-spawn) — test thread, not pool work.
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        h.record(w * 10_000 + i);
                    }
                })
            })
            .collect();
        // Take windows continuously while the writers hammer: every
        // snapshot and every window satisfies count == Σ buckets, and the
        // windows add up to the total.
        let mut windowed = 0u64;
        for _ in 0..200 {
            let snap = h.snapshot();
            assert_eq!(
                snap.buckets.iter().sum::<u64>(),
                snap.count,
                "torn snapshot"
            );
            let now = snapshot();
            if let Some(MetricValue::Histogram(w)) = now.since(&prev).metrics.get("test.hist.torn")
            {
                assert_eq!(w.buckets.iter().sum::<u64>(), w.count, "torn window");
                windowed += w.count;
            }
            prev = now;
        }
        for w in writers {
            w.join().expect("writer");
        }
        if let Some(MetricValue::Histogram(w)) =
            snapshot().since(&prev).metrics.get("test.hist.torn")
        {
            windowed += w.count;
        }
        assert_eq!(windowed, 8_000, "windows must partition the samples");
        let final_snap = h.snapshot();
        assert_eq!(final_snap.count, 8_000);
        assert_eq!(final_snap.buckets.iter().sum::<u64>(), 8_000);
    }

    #[test]
    fn kind_mismatch_degrades_instead_of_panicking() {
        let c = counter("test.kind.probe");
        c.add(1);
        // Must not panic: a panic here, under the registry lock, would
        // poison it for every later lookup in the process.
        let h = histogram("test.kind.probe");
        h.record(5);
        assert_eq!(h.snapshot().count, 1, "detached handle still works");
        let g = gauge("test.kind.probe");
        g.set(5);
        assert_eq!(g.get(), 5);
        counter("test.kind.unrelated").add(1);
        assert_eq!(counter("test.kind.unrelated").get(), 1);
        assert_eq!(
            counter("test.kind.probe").get(),
            1,
            "registry keeps the original"
        );
        assert!(matches!(
            snapshot().metrics.get("test.kind.probe"),
            Some(MetricValue::Counter(1))
        ));
    }

    #[test]
    fn a_poisoned_registry_lock_still_serves_lookups() {
        // om-lint: allow(thread-spawn) — test thread that dies holding the lock.
        let died = std::thread::spawn(|| {
            let _held = lock_registry();
            panic!("poison the registry lock");
        })
        .join();
        assert!(died.is_err());
        assert!(REGISTRY.is_poisoned());
        counter("test.poison.after").add(1);
        assert_eq!(counter("test.poison.after").get(), 1);
        assert!(snapshot().metrics.contains_key("test.poison.after"));
    }
}

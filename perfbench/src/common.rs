//! Shared pieces: the benchmark's fixed scenario and model configuration,
//! the seeded input generator, the run context and the result report.

use std::path::PathBuf;
use std::time::Instant;

use om_data::split::CrossDomainScenario;
use om_data::{SplitConfig, SynthConfig, SynthWorld};
use omnimatch_core::OmniMatchConfig;

use crate::spans::Recorder;

/// Epochs of every `Trainer::fit` the benchmark runs.
pub const EPOCHS: usize = 1;

/// Model seed of every fit. Fixed, so `cold_rmse` is exact and every run
/// trains identical work; the run seed drives the traces and draw orders.
pub const MODEL_SEED: u64 = 1;

/// The paper-shaped Books→Movies scenario on the Amazon-like synthetic
/// corpus (178 training users, 44 cold-start users, 1,567 samples).
pub fn scenario() -> CrossDomainScenario {
    let world = SynthWorld::generate(SynthConfig::amazon(), &["Books", "Movies"]);
    world.scenario("Books", "Movies", SplitConfig::default())
}

/// Paper-shaped default dimensions at a fixed small epoch count.
pub fn model_config() -> OmniMatchConfig {
    OmniMatchConfig {
        epochs: EPOCHS,
        ..OmniMatchConfig::default()
    }
    .with_seed(MODEL_SEED)
}

/// SplitMix64: the benchmark's own input generator, so every trace is a
/// pure function of the run seed.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// `n` exponential gaps with the given mean (a Poisson arrival
    /// process), drawn by stratified sampling: gap `i` is the exponential
    /// quantile of a uniform draw inside the `i`-th of `n` equal strata of
    /// `[0, 1)`, and the gaps come in a seeded random order. Every seed then
    /// sees the gap distribution a long Poisson stream has — as many short
    /// gaps, so as many collisions — and seeds differ only in the order.
    pub fn exp_gaps(&mut self, n: usize, mean: f64) -> Vec<f64> {
        let gaps: Vec<f64> = (0..n)
            .map(|i| {
                let u = (i as f64 + self.unit()) / n as f64;
                -mean * (1.0 - u).max(f64::MIN_POSITIVE).ln()
            })
            .collect();
        self.permutation(n).into_iter().map(|i| gaps[i]).collect()
    }

    /// Zipf(`s`) rank in `0..n` by the inverse CDF of the bounded
    /// continuous power law.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        let u = self.unit();
        let p = 1.0 - s;
        let rank = ((n as f64).powf(p) - 1.0).mul_add(u, 1.0).powf(1.0 / p) - 1.0;
        (rank.max(0.0) as usize).min(n - 1)
    }

    /// A seeded permutation of `0..n` (maps popularity rank to entity).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
        v
    }
}

/// Everything one invocation was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Process start: the first set-up is timed from here.
    pub start: Instant,
    /// Scratch directory for arena blobs and the span file.
    pub dir: PathBuf,
    pub rec: Recorder,
}

/// One run's result: metrics in report order, plus the operation tally
/// the correctness gate feeds.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Count `n` failed operations for `why`.
    pub fn fail(&mut self, n: u64, why: String) {
        if n > 0 {
            self.failed += n;
            self.problems.push(why);
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

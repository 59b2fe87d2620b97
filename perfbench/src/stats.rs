//! Exact order statistics over the benchmark's own samples.
//!
//! Every reported quantile is a nearest-rank read of the sorted samples,
//! never a histogram bucket: the sample count and the number of samples
//! strictly beyond the quantile's rank travel with the value.

/// A nearest-rank quantile with the sample support behind it.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    /// The sample at rank `ceil(q·n)` (1-based) of the sorted samples.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
    /// Samples ranked after the quantile's rank.
    pub beyond: usize,
}

/// Nearest-rank quantile `q` of `samples` (which need not be sorted).
/// `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Quantile {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// Samples per window of [`windowed_p95`]: enough for ten beyond p95.
pub const P95_WINDOW: usize = 200;

/// p95 robust to a stall that hits one stretch of a run: the samples (in
/// arrival order) are cut into as many consecutive windows of at least
/// [`P95_WINDOW`] samples as they fill, and the median of the windows'
/// nearest-rank p95s is reported. Returns the value, the window count and
/// the fewest samples beyond p95 in any window.
pub fn windowed_p95(samples: &[f64]) -> Option<(f64, usize, usize)> {
    let windows = (samples.len() / P95_WINDOW).max(1);
    let per = samples.len() / windows;
    let qs: Vec<Quantile> = (0..windows)
        .filter_map(|w| {
            let hi = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * per
            };
            quantile(&samples[w * per..hi], 0.95)
        })
        .collect();
    let values: Vec<f64> = qs.iter().map(|q| q.value).collect();
    let beyond = qs.iter().map(|q| q.beyond).min()?;
    Some((median(&values), windows, beyond))
}

/// Median (nearest rank); 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).map_or(0.0, |q| q.value)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().fold(0.0, |a, b| a + b) / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_reads_real_samples() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = quantile(&s, 0.99).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!(quantile(&[], 0.5).is_none());
        let w: Vec<f64> = (0..500).map(|i| f64::from(i % 200)).collect();
        let (v, windows, beyond) = windowed_p95(&w).unwrap();
        assert_eq!((windows, beyond), (2, 12));
        assert_eq!(v, 187.0);
    }
}

//! int8 per-row-scale quantization for serving arenas.
//!
//! Training and checkpoints stay exact f32 — quantization is a *serving*
//! representation only, applied when an arena is built (`ItemArena::quantized`)
//! or loaded from an `OMAB` v2 blob. Each `[dim]` row stores one f32 scale plus
//! `dim` int8 codes:
//!
//! ```text
//! scale = max(|row|) / 127          (0.0 for an all-zero row)
//! q[i]  = round(row[i] / scale)     clamped to [-127, 127]
//! deq   = q[i] as f32 * scale
//! ```
//!
//! The symmetric ±127 range (never -128) keeps the codebook symmetric so
//! `|deq| <= max(|row|)` and the worst-case per-element error is
//! `scale / 2 = max(|row|) / 254` — under 0.4% of the row's dynamic
//! range. Dequantization is exact in f32 (`i8 → f32` is exact; one
//! rounded multiply), so the scalar and AVX2 `dequant_rows` paths are
//! bitwise identical (their serial twin `dequant_rows_serial` is the
//! scalar reference) and the quantized engine gives the same bits at
//! every shard width. What quantization *does* move
//! is the score itself relative to the f32 engine; `om-smoke serve` and
//! `tests/quant_diff.rs` hold that drift under the committed bounds
//! below.

/// Committed bound on RMSE of expected-star scores, quantized engine vs.
/// the f32 engine, over a full users × items score matrix. Measured
/// ~0.0006 on the smoke checkpoint; committed with ~8× margin.
pub const QUANT_MAX_SCORE_RMSE: f64 = 0.005;

/// Committed bound on mean absolute expected-star delta, quantized vs.
/// f32, over the same matrix. Measured ~0.0005 on the smoke checkpoint;
/// committed with ~10× margin.
pub const QUANT_MAX_SCORE_MAE: f64 = 0.005;

/// Committed bound on the absolute expected-star delta of any *single*
/// (user, item) pair, quantized vs. f32 — the per-pair bound the
/// differential proptest suite enforces. Measured ~0.0017 on the smoke
/// checkpoint; committed with ~10× margin.
pub const QUANT_MAX_SCORE_ABS: f64 = 0.02;

/// Quantize one `[dim]` row: returns the scale and appends `row.len()`
/// codes to `q`.
pub fn quantize_row_into(row: &[f32], q: &mut Vec<i8>) -> f32 {
    // om-lint: reduction-ok(max is exact and order-independent — no
    // rounding ever occurs, and NaN never wins a `max`)
    let amax = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if amax == 0.0 || !amax.is_finite() {
        // All-zero rows round-trip exactly with scale 0, and a row whose
        // amax is infinite degenerates to zeros. (A NaN feature does not
        // trip this guard — `max` ignores NaN — it just quantizes to
        // code 0 via the saturating float→int cast.)
        q.extend(std::iter::repeat_n(0i8, row.len()));
        return 0.0;
    }
    let scale = amax / 127.0;
    let inv = 127.0 / amax;
    q.extend(row.iter().map(|&v| {
        let r = (v * inv).round();
        r.clamp(-127.0, 127.0) as i8
    }));
    scale
}

/// Quantize a `[n, dim]` row-major block into `(codes, per-row scales)`.
pub fn quantize_rows(data: &[f32], n: usize, dim: usize) -> (Vec<i8>, Vec<f32>) {
    assert_eq!(data.len(), n * dim, "ragged block in quantize_rows");
    let mut q = Vec::with_capacity(n * dim);
    let mut scales = Vec::with_capacity(n);
    for row in data.chunks_exact(dim.max(1)).take(n) {
        scales.push(quantize_row_into(row, &mut q));
    }
    if dim == 0 {
        scales.resize(n, 0.0);
    }
    (q, scales)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_error_is_bounded_by_half_a_step() {
        let row: Vec<f32> = (0..97).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let mut q = Vec::new();
        let scale = quantize_row_into(&row, &mut q);
        assert_eq!(q.len(), row.len());
        for (&v, &c) in row.iter().zip(&q) {
            let deq = c as f32 * scale;
            assert!((v - deq).abs() <= scale * 0.5 + 1e-7, "v={v} deq={deq} scale={scale}");
        }
    }

    #[test]
    fn zero_and_nonfinite_rows_quantize_to_zero() {
        let mut q = Vec::new();
        assert_eq!(quantize_row_into(&[0.0; 5], &mut q), 0.0);
        assert_eq!(q, vec![0i8; 5]);
        q.clear();
        assert_eq!(quantize_row_into(&[1.0, f32::INFINITY, 2.0], &mut q), 0.0);
        assert_eq!(q, vec![0i8; 3]);
        // NaN never wins a `max`, so the row keeps its finite scale and
        // the NaN element saturates to code 0.
        q.clear();
        let scale = quantize_row_into(&[1.0, f32::NAN, 2.0], &mut q);
        assert_eq!(scale, 2.0 / 127.0);
        assert_eq!(q[1], 0);
    }

    #[test]
    fn extremes_hit_plus_minus_127_exactly() {
        let mut q = Vec::new();
        let scale = quantize_row_into(&[-4.0, 4.0, 0.0], &mut q);
        assert_eq!(q, vec![-127, 127, 0]);
        assert_eq!(scale, 4.0 / 127.0);
    }

    #[test]
    fn block_quantization_matches_per_row() {
        let data: Vec<f32> = (0..6 * 8).map(|i| (i as f32) * 0.11 - 2.0).collect();
        let (q, scales) = quantize_rows(&data, 6, 8);
        assert_eq!(q.len(), 48);
        assert_eq!(scales.len(), 6);
        for (r, row) in data.chunks_exact(8).enumerate() {
            let mut qr = Vec::new();
            let s = quantize_row_into(row, &mut qr);
            assert_eq!(s.to_bits(), scales[r].to_bits());
            assert_eq!(&q[r * 8..(r + 1) * 8], &qr[..]);
        }
    }
}

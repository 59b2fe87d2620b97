//! Compute kernels behind the tensor ops: a register-blocked parallel GEMM,
//! deterministic chunked reductions and parallel map/zip primitives.
//!
//! Every kernel here is **bitwise deterministic across thread counts**: for
//! a given input, the output is identical whether the runtime uses one
//! thread or many. Two mechanisms guarantee this:
//!
//! * *Partition-independent outputs.* GEMM rows, softmax rows and
//!   elementwise chunks each own a disjoint output region whose value
//!   depends only on the inputs, never on which thread computed a
//!   neighbouring region. Within one output element, floating-point
//!   accumulation order is fixed (`k` increasing for GEMM, left-to-right
//!   for row sums).
//! * *Fixed-shape reductions.* Full reductions ([`sum`]) split the input
//!   into fixed [`REDUCE_CHUNK`]-element chunks regardless of the thread
//!   count, reduce each chunk left-to-right, and combine the partials in
//!   chunk order on the calling thread.
//!
//! The serial reference kernels (`*_serial`) are kept callable so the
//! parity test-suite can assert bit-identical results against the parallel
//! paths.
//!
//! Hot loops additionally dispatch to the AVX2 microkernels in
//! [`crate::simd`] when the CPU supports them (override with
//! `OM_SIMD=off`). The serial twins always stay scalar: they are the
//! parity oracle. Kernels whose vector port preserves the exact scalar
//! operation sequence (GEMM, the fused TextCNN forward, elementwise,
//! `pair_rows`, dequantisation) remain bitwise identical to their twins;
//! reordered reductions ([`sum`]) and the polynomial-exp softmax row match
//! within a registered ULP tolerance (see `tests/parity.rs`).
//!
//! GEMM is bitwise equal to [`gemm_serial`] only while `c` holds no `-0.0`
//! on entry: the blocked kernels add every product, `0·b` included, where
//! the oracle skips a zero `a`, and `-0.0 + +0.0 = +0.0`. A sum that starts
//! at `+0.0` never becomes `-0.0`, so no caller's `c` does; debug builds
//! assert it.
//!
//! The fused TextCNN forward ([`conv_relu_max_pool`]) builds no window
//! matrix: the blocked GEMM kernel takes a row stride, so each document's
//! windows are read in place at `lda = dim`. Only the serial twin still
//! copies them.

use std::sync::OnceLock;

use crate::runtime;

/// Elements per reduction chunk. Fixed so the combining tree of [`sum`]
/// never depends on the thread count.
pub const REDUCE_CHUNK: usize = 4096;

/// Cached GEMM counters: calls, multiply-add flops (2·m·n·k) and bytes
/// touched (a + b streamed once, c read+written). Only bumped when
/// observability is enabled; gives `obs-report` the arithmetic-intensity
/// side of every run.
struct GemmObs {
    calls: om_obs::metrics::Counter,
    flops: om_obs::metrics::Counter,
    bytes: om_obs::metrics::Counter,
}

#[cold]
fn gemm_obs(m: usize, k: usize, n: usize) {
    static H: OnceLock<GemmObs> = OnceLock::new();
    let h = H.get_or_init(|| GemmObs {
        calls: om_obs::metrics::counter("gemm.calls"),
        flops: om_obs::metrics::counter("gemm.flops"),
        bytes: om_obs::metrics::counter("gemm.bytes"),
    });
    h.calls.add(1);
    h.flops.add(2 * (m * n * k) as u64);
    h.bytes.add(4 * (m * k + k * n + 2 * m * n) as u64);
}

/// Minimum elements before an elementwise loop is worth parallelising.
const MAP_GRAIN: usize = 16 * 1024;

/// Minimum multiply-adds before the GEMM goes parallel.
const GEMM_PAR_FLOPS: usize = 64 * 1024;

/// Rows per GEMM task; also the micro-panel height unit.
const GEMM_ROW_GRAIN: usize = 8;

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

/// Reference row-major GEMM, `c[m,n] += a[m,k] · b[k,n]`, single thread.
///
/// The ikj loop order keeps the inner loop contiguous over `b` and `c`.
/// A `p` where `a`'s entry is exactly zero is skipped. The blocked kernels
/// add every product instead; for finite inputs that changes no bit of a
/// sum that does not hold `-0.0` (see [`gemm`]). The skip saves the
/// TextCNN nothing: the padding token's embedding row takes gradient and
/// is not zero after training.
pub fn gemm_serial(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                *c_v += a_ip * b_v;
            }
        }
    }
}

/// Compute `rows` output rows into `c_block` (which holds exactly those
/// rows), where row `i` of the left operand is `a[i·lda..i·lda + k]` —
/// rows may overlap, as a document's TextCNN windows do at `lda = dim`.
/// Four rows at a time, so each streamed row of `b` is reused fourfold.
///
/// Per output element the accumulation order is `p = 0..k`, identical to
/// [`gemm_serial`]. Every product is added, so a zero `a` adds `0·b`
/// where the oracle adds nothing. That is a bitwise no-op unless the
/// element holds `-0.0` (`-0.0 + +0.0 = +0.0`), which a sum that starts at
/// `+0.0` never does: hence [`gemm`]'s precondition.
fn gemm_rows(a: &[f32], lda: usize, b: &[f32], c_block: &mut [f32], rows: usize, k: usize, n: usize) {
    if crate::simd::gemm_rows(a, lda, b, c_block, rows, k, n) {
        return;
    }
    let mut i = 0;
    while i + 4 <= rows {
        let a_rows: [&[f32]; 4] = std::array::from_fn(|r| &a[(i + r) * lda..(i + r) * lda + k]);
        // Four independent accumulator rows inside the block.
        let (c01, c23) = c_block[i * n..(i + 4) * n].split_at_mut(2 * n);
        let (c0, c1) = c01.split_at_mut(n);
        let (c2, c3) = c23.split_at_mut(n);
        for p in 0..k {
            let [a0, a1, a2, a3] = a_rows.map(|row| row[p]);
            let b_row = &b[p * n..(p + 1) * n];
            for j in 0..n {
                let bv = b_row[j];
                c0[j] += a0 * bv;
                c1[j] += a1 * bv;
                c2[j] += a2 * bv;
                c3[j] += a3 * bv;
            }
        }
        i += 4;
    }
    // Ragged tail: plain single-row kernel, same per-element order.
    while i < rows {
        let a_row = &a[i * lda..i * lda + k];
        let c_row = &mut c_block[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            let b_row = &b[p * n..(p + 1) * n];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                *c_v += a_ip * b_v;
            }
        }
        i += 1;
    }
}

/// Row-major GEMM `c[m,n] += a[m,k] · b[k,n]`, parallel over row blocks.
///
/// Bitwise identical to [`gemm_serial`] for finite inputs at any thread
/// count (see module docs), provided `c` holds no `-0.0` on entry. The
/// blocked kernels add a zero `a`'s `0·b` where the oracle skips it, which
/// turns a `-0.0` element into `+0.0`. Every caller in the workspace seeds
/// `c` with `+0.0` or with a sum that started there, which can never be
/// `-0.0`. Debug builds assert the precondition.
///
/// The product accumulates *into* `c`: each element continues from its
/// incoming value in `p = 0..k` order, so a sum split at any `p` — run the
/// first `p` columns of `a` against the first `p` rows of `b`, then the
/// rest into the same `c` — is bitwise the one-call sum (the serving head
/// resumes from a user partial this way).
// om-lint: simd — inner-product kernel; a vectorised port must register
// its ULP tolerance in tests/parity.rs (ulp_tolerance("gemm")).
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert!(m.checked_mul(k) == Some(a.len()), "gemm: a is not [m, k]");
    assert!(k.checked_mul(n) == Some(b.len()), "gemm: b is not [k, n]");
    assert!(m.checked_mul(n) == Some(c.len()), "gemm: c is not [m, n]");
    debug_assert!(
        c.iter().all(|v| v.to_bits() != (-0.0f32).to_bits()),
        "gemm: c holds -0.0, which the blocked kernels may turn into +0.0"
    );
    if n == 0 || m == 0 {
        return;
    }
    let obs_on = om_obs::enabled();
    if obs_on {
        gemm_obs(m, k, n);
    }
    if m * n * k < GEMM_PAR_FLOPS {
        gemm_rows(a, k, b, c, m, k, n);
        return;
    }
    // Only above-threshold GEMMs get a span: one record per dispatch-sized
    // multiply, nothing on the small-matrix fast path.
    let _span = om_obs::trace::span_if(obs_on, "kernels.gemm");
    // Keep at least GEMM_ROW_GRAIN rows per task unless the matrix is wide
    // enough that even single rows amortise the dispatch.
    let grain = if n * k >= 64 * 1024 { 1 } else { GEMM_ROW_GRAIN };
    runtime::parallel_rows_mut(c, n, grain, |row0, block| {
        gemm_rows(&a[row0 * k..], k, b, block, block.len() / n, k, n);
    });
}

/// Transpose a row-major `[m,n]` matrix into `[n,m]`.
pub fn transpose(a: &[f32], m: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    if m * n >= MAP_GRAIN {
        // Each output row j gathers column j of `a`; rows are disjoint.
        runtime::parallel_rows_mut(&mut out, m, 8, |j0, block| {
            for (dj, orow) in block.chunks_mut(m).enumerate() {
                let j = j0 + dj;
                for (i, o) in orow.iter_mut().enumerate() {
                    *o = a[i * n + j];
                }
            }
        });
    } else {
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
    }
    out
}

/// Serial twin of [`transpose`] — plain nested loops, never parallel.
pub fn transpose_serial(a: &[f32], m: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = a[i * n + j];
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// Left-to-right scalar sum of one chunk — the oracle building block of
/// [`sum_serial`].
#[inline]
fn chunk_sum_scalar(x: &[f32]) -> f32 {
    x.iter().sum()
}

/// Sum of one chunk, vectorised when AVX2 dispatch is active. The vector
/// path reorders the additions across lanes (fixed lane shape, so still
/// input-deterministic) — covered by the `sum` ULP tolerance.
#[inline]
fn chunk_sum(x: &[f32]) -> f32 {
    match crate::simd::sum_chunk(x) {
        Some(s) => s,
        None => chunk_sum_scalar(x),
    }
}

/// Deterministic chunked sum: identical bits at every thread count.
///
/// The input is cut into fixed [`REDUCE_CHUNK`]-element chunks; partials
/// are computed (possibly in parallel) and combined left-to-right.
// om-lint: simd — reduction kernel; a vectorised port must register its
// ULP tolerance in tests/parity.rs (ulp_tolerance("sum")).
pub fn sum(x: &[f32]) -> f32 {
    if x.len() <= REDUCE_CHUNK {
        return chunk_sum(x);
    }
    let chunks = x.len().div_ceil(REDUCE_CHUNK);
    let mut partials = vec![0.0f32; chunks];
    runtime::parallel_rows_mut(&mut partials, 1, 4, |c0, block| {
        for (dc, slot) in block.iter_mut().enumerate() {
            let c = c0 + dc;
            let lo = c * REDUCE_CHUNK;
            let hi = ((c + 1) * REDUCE_CHUNK).min(x.len());
            *slot = chunk_sum(&x[lo..hi]);
        }
    });
    chunk_sum(&partials)
}

/// Serial twin of [`sum`] — same chunking, always scalar, never parallel.
/// Bit-equal to [`sum`] under scalar dispatch; the AVX2 path matches it
/// within the registered ULP tolerance.
pub fn sum_serial(x: &[f32]) -> f32 {
    if x.len() <= REDUCE_CHUNK {
        return chunk_sum_scalar(x);
    }
    let partials: Vec<f32> = x.chunks(REDUCE_CHUNK).map(chunk_sum_scalar).collect();
    chunk_sum_scalar(&partials)
}

// ---------------------------------------------------------------------------
// Elementwise maps
// ---------------------------------------------------------------------------

/// Parallel elementwise map: `out[i] = f(x[i])`.
pub fn map(x: &[f32], f: impl Fn(f32) -> f32 + Sync) -> Vec<f32> {
    let mut out = vec![0.0f32; x.len()];
    runtime::parallel_rows_mut(&mut out, 1, MAP_GRAIN, |i0, block| {
        for (d, o) in block.iter_mut().enumerate() {
            *o = f(x[i0 + d]);
        }
    });
    out
}

/// Serial twin of [`map`] — a plain scalar loop, never parallel.
pub fn map_serial(x: &[f32], f: impl Fn(f32) -> f32) -> Vec<f32> {
    x.iter().map(|&v| f(v)).collect()
}

/// Parallel elementwise zip: `out[i] = f(a[i], b[i])`.
pub fn zip_map(a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32 + Sync) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "zip_map: length mismatch");
    let mut out = vec![0.0f32; a.len()];
    runtime::parallel_rows_mut(&mut out, 1, MAP_GRAIN, |i0, block| {
        for (d, o) in block.iter_mut().enumerate() {
            *o = f(a[i0 + d], b[i0 + d]);
        }
    });
    out
}

/// Serial twin of [`zip_map`] — a plain scalar loop, never parallel.
pub fn zip_map_serial(a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "zip_map_serial: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
}

/// Parallel elementwise add: `out[i] = a[i] + b[i]`, vectorised. Lanewise,
/// so bitwise identical to the serial twin under any dispatch mode.
// om-lint: simd — lanewise kernel; tolerance registered in tests/parity.rs
// (ulp_tolerance("add_slices") = 0, bitwise).
pub fn add_slices(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "add_slices: length mismatch");
    let mut out = vec![0.0f32; a.len()];
    runtime::parallel_rows_mut(&mut out, 1, MAP_GRAIN, |i0, block| {
        let (ab, bb) = (&a[i0..i0 + block.len()], &b[i0..i0 + block.len()]);
        if crate::simd::add_chunk(ab, bb, block) {
            return;
        }
        for (o, (&x, &y)) in block.iter_mut().zip(ab.iter().zip(bb)) {
            *o = x + y;
        }
    });
    out
}

/// Serial twin of [`add_slices`] — plain scalar loop, never parallel.
pub fn add_slices_serial(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "add_slices_serial: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x + y).collect()
}

/// Parallel elementwise subtract: `out[i] = a[i] - b[i]`, vectorised.
// om-lint: simd — lanewise kernel; tolerance registered in tests/parity.rs
// (ulp_tolerance("sub_slices") = 0, bitwise).
pub fn sub_slices(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "sub_slices: length mismatch");
    let mut out = vec![0.0f32; a.len()];
    runtime::parallel_rows_mut(&mut out, 1, MAP_GRAIN, |i0, block| {
        let (ab, bb) = (&a[i0..i0 + block.len()], &b[i0..i0 + block.len()]);
        if crate::simd::sub_chunk(ab, bb, block) {
            return;
        }
        for (o, (&x, &y)) in block.iter_mut().zip(ab.iter().zip(bb)) {
            *o = x - y;
        }
    });
    out
}

/// Serial twin of [`sub_slices`] — plain scalar loop, never parallel.
pub fn sub_slices_serial(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "sub_slices_serial: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x - y).collect()
}

/// Parallel elementwise multiply: `out[i] = a[i] * b[i]`, vectorised.
// om-lint: simd — lanewise kernel; tolerance registered in tests/parity.rs
// (ulp_tolerance("mul_slices") = 0, bitwise).
pub fn mul_slices(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "mul_slices: length mismatch");
    let mut out = vec![0.0f32; a.len()];
    runtime::parallel_rows_mut(&mut out, 1, MAP_GRAIN, |i0, block| {
        let (ab, bb) = (&a[i0..i0 + block.len()], &b[i0..i0 + block.len()]);
        if crate::simd::mul_chunk(ab, bb, block) {
            return;
        }
        for (o, (&x, &y)) in block.iter_mut().zip(ab.iter().zip(bb)) {
            *o = x * y;
        }
    });
    out
}

/// Serial twin of [`mul_slices`] — plain scalar loop, never parallel.
pub fn mul_slices_serial(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "mul_slices_serial: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x * y).collect()
}

/// Parallel scalar multiply: `out[i] = x[i] * s`, vectorised.
// om-lint: simd — lanewise kernel; tolerance registered in tests/parity.rs
// (ulp_tolerance("scale_slice") = 0, bitwise).
pub fn scale_slice(x: &[f32], s: f32) -> Vec<f32> {
    let mut out = vec![0.0f32; x.len()];
    runtime::parallel_rows_mut(&mut out, 1, MAP_GRAIN, |i0, block| {
        let xb = &x[i0..i0 + block.len()];
        if crate::simd::scale_chunk(xb, s, block) {
            return;
        }
        for (o, &v) in block.iter_mut().zip(xb) {
            *o = v * s;
        }
    });
    out
}

/// Serial twin of [`scale_slice`] — plain scalar loop, never parallel.
pub fn scale_slice_serial(x: &[f32], s: f32) -> Vec<f32> {
    x.iter().map(|&v| v * s).collect()
}

/// Minimum f32 cells per [`fill_rows`] task. Callers pass a row grain that
/// reflects per-row compute, but narrow rows would otherwise ship tasks far
/// below a few microseconds of work; the grain is floored so every task
/// covers at least this many cells. Pure performance tuning — the fills are
/// partition-independent, so the grain never affects results.
const FILL_GRAIN_CELLS: usize = 4096;

/// Parallel per-row fill of an `[rows, row_len]` buffer: `f(row_index,
/// row_slice)` runs once per row, rows distributed over threads. The
/// canonical primitive for softmax, normalisation and unfold kernels.
pub fn fill_rows(rows: usize, row_len: usize, grain_rows: usize, f: impl Fn(usize, &mut [f32]) + Sync) -> Vec<f32> {
    let mut out = vec![0.0f32; rows * row_len];
    let grain_rows = grain_rows.max(FILL_GRAIN_CELLS / row_len.max(1));
    runtime::parallel_rows_mut(&mut out, row_len.max(1), grain_rows, |r0, block| {
        for (dr, row) in block.chunks_mut(row_len.max(1)).enumerate() {
            f(r0 + dr, row);
        }
    });
    out
}

/// Serial twin of [`fill_rows`] — one row at a time, never parallel.
pub fn fill_rows_serial(rows: usize, row_len: usize, f: impl Fn(usize, &mut [f32])) -> Vec<f32> {
    let mut out = vec![0.0f32; rows * row_len];
    for (r, row) in out.chunks_mut(row_len.max(1)).enumerate() {
        f(r, row);
    }
    out
}

/// Numerically-stable log-softmax of one row, scalar, written into `out`.
// om-lint: reduction-ok(serial per-row max/sum in element order; fill_rows
// partitions by whole rows, so the order never depends on thread count)
fn log_softmax_row_scalar(row: &[f32], out: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for &x in row {
        sum += (x - max).exp();
    }
    let lse = max + sum.ln();
    for (o, &x) in out.iter_mut().zip(row) {
        *o = x - lse;
    }
}

/// Row-wise log-softmax of an `[rows, cols]` matrix: each output row is a
/// log-probability distribution. Rows are partition-independent; the AVX2
/// path substitutes a polynomial `exp` and a lane-parallel exp-sum, so it
/// matches the serial twin within the registered ULP tolerance rather
/// than bitwise. Finite inputs only.
// om-lint: simd — exp-normalize kernel; tolerance registered in
// tests/parity.rs (ulp_tolerance("log_softmax_rows")).
pub fn log_softmax_rows(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    assert_eq!(x.len(), rows * cols, "log_softmax_rows: shape mismatch");
    fill_rows(rows, cols, 8, |r, out| {
        let src = &x[r * cols..(r + 1) * cols];
        if crate::simd::log_softmax_row(src, out) {
            return;
        }
        log_softmax_row_scalar(src, out);
    })
}

/// Serial twin of [`log_softmax_rows`] — scalar rows, never parallel.
pub fn log_softmax_rows_serial(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    assert_eq!(x.len(), rows * cols, "log_softmax_rows_serial: shape mismatch");
    fill_rows_serial(rows, cols, |r, out| {
        log_softmax_row_scalar(&x[r * cols..(r + 1) * cols], out);
    })
}

/// Dequantise int8 rows with per-row scales: `out[r·dim + j] =
/// q[r·dim + j] as f32 · scales[r]`. The serving-arena read path. The
/// int→float conversion is exact for |q| ≤ 127 and the multiply rounds
/// once, exactly like the scalar loop — bitwise under any dispatch mode.
// om-lint: simd — dequantisation kernel; tolerance registered in
// tests/parity.rs (ulp_tolerance("dequant_rows") = 0, bitwise).
pub fn dequant_rows(q: &[i8], scales: &[f32], dim: usize) -> Vec<f32> {
    assert!(dim > 0, "dequant_rows: zero row width");
    assert_eq!(q.len(), scales.len() * dim, "dequant_rows: ragged rows");
    fill_rows(scales.len(), dim, 8, |r, out| {
        let qr = &q[r * dim..(r + 1) * dim];
        let s = scales[r];
        if crate::simd::dequant_row(qr, s, out) {
            return;
        }
        for (o, &qv) in out.iter_mut().zip(qr) {
            *o = qv as f32 * s;
        }
    })
}

/// Serial twin of [`dequant_rows`] — plain scalar loops, never parallel.
pub fn dequant_rows_serial(q: &[i8], scales: &[f32], dim: usize) -> Vec<f32> {
    assert!(dim > 0, "dequant_rows_serial: zero row width");
    assert_eq!(q.len(), scales.len() * dim, "dequant_rows_serial: ragged rows");
    fill_rows_serial(scales.len(), dim, |r, out| {
        let qr = &q[r * dim..(r + 1) * dim];
        let s = scales[r];
        for (o, &qv) in out.iter_mut().zip(qr) {
            *o = qv as f32 * s;
        }
    })
}

/// Parallel assembly of a serving score batch: the row-wise cross join
/// `out[b·n_items + i] = users[b] ⊕ items[i]` over a `[b, du]` user matrix
/// and a `[n, di]` item arena, producing `[b·n, du + di]` pair rows ready
/// for one rating-classifier GEMM. Pure copies — no arithmetic — so
/// neither the partitioning nor the vector copy path can affect bits.
// om-lint: simd — serving score-path copy kernel; tolerance registered in
// tests/parity.rs (ulp_tolerance("pair_rows") = 0, bitwise).
pub fn pair_rows(users: &[f32], items: &[f32], du: usize, di: usize) -> Vec<f32> {
    assert!(du > 0 && di > 0, "pair_rows: zero feature width");
    assert_eq!(users.len() % du, 0, "pair_rows: ragged user matrix");
    assert_eq!(items.len() % di, 0, "pair_rows: ragged item arena");
    let n = items.len() / di;
    let row = du + di;
    let mut out = vec![0.0f32; (users.len() / du) * n * row];
    if n == 0 {
        return out;
    }
    let grain = (FILL_GRAIN_CELLS / row).max(1);
    runtime::parallel_rows_mut(&mut out, row, grain, |r0, block| {
        if crate::simd::pair_fill(users, items, du, di, n, r0, block) {
            return;
        }
        for (dr, orow) in block.chunks_mut(row).enumerate() {
            let r = r0 + dr;
            let (bi, ii) = (r / n, r % n);
            orow[..du].copy_from_slice(&users[bi * du..(bi + 1) * du]);
            orow[du..].copy_from_slice(&items[ii * di..(ii + 1) * di]);
        }
    });
    out
}

/// Serial twin of [`pair_rows`] — one pair row at a time, never parallel.
pub fn pair_rows_serial(users: &[f32], items: &[f32], du: usize, di: usize) -> Vec<f32> {
    assert!(du > 0 && di > 0, "pair_rows: zero feature width");
    assert_eq!(users.len() % du, 0, "pair_rows: ragged user matrix");
    assert_eq!(items.len() % di, 0, "pair_rows: ragged item arena");
    let n = items.len() / di;
    let row = du + di;
    let mut out = vec![0.0f32; (users.len() / du) * n * row];
    for (r, orow) in out.chunks_mut(row).enumerate() {
        let (bi, ii) = (r / n, r % n);
        orow[..du].copy_from_slice(&users[bi * du..(bi + 1) * du]);
        orow[du..].copy_from_slice(&items[ii * di..(ii + 1) * di]);
    }
    out
}

// ---------------------------------------------------------------------------
// Fused TextCNN branch: convolution → bias → ReLU → max-over-time
// ---------------------------------------------------------------------------

/// Geometry of one TextCNN branch: `docs` documents of `len` tokens, each
/// token a `dim`-wide row, convolved by `filters` filters spanning `width`
/// tokens. Window `w` of a document is the `width·dim` contiguous values
/// starting at token `w`; a document has `len − width + 1` of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvShape {
    pub docs: usize,
    pub len: usize,
    pub dim: usize,
    pub width: usize,
    pub filters: usize,
}

impl ConvShape {
    fn windows(&self) -> usize {
        self.len - self.width + 1
    }

    fn window_len(&self) -> usize {
        self.width * self.dim
    }

    fn doc_len(&self) -> usize {
        self.len * self.dim
    }

    /// Pool grain for work items of `cost` multiply-adds each: enough
    /// items that one task clears the GEMM's parallel threshold.
    fn grain(cost: usize) -> usize {
        (GEMM_PAR_FLOPS / cost.max(1)).max(1)
    }

    fn check(&self, x: usize, w: usize, bias: usize) {
        assert!(
            self.width >= 1 && self.width <= self.len,
            "conv: window {} out of range for len {}",
            self.width,
            self.len
        );
        assert!(self.dim > 0 && self.filters > 0, "conv: zero embedding width or filters");
        assert!(self.windows() < NO_WINNER as usize, "conv: too many windows");
        assert_eq!(x, self.docs * self.doc_len(), "conv: input is not [docs, len, dim]");
        assert_eq!(w, self.window_len() * self.filters, "conv: weight is not [width·dim, filters]");
        assert_eq!(bias, self.filters, "conv: bias is not [filters]");
    }

    fn check_grad(&self, winners: usize, g: usize) {
        assert_eq!(winners, self.docs * self.filters, "conv: winners are not [docs, filters]");
        assert_eq!(g, self.docs * self.filters, "conv: upstream gradient is not [docs, filters]");
    }
}

/// The winner of a (document, filter) whose best pre-activation was ≤ 0:
/// its ReLU is closed, so no gradient flows back through it.
pub const NO_WINNER: u32 = u32::MAX;

/// Bias, ReLU and max-over-time of one document's window pre-activations
/// `pre [t, filters]` into its `(pooled, winner)` slots: windows in order,
/// a strict `>` from −∞, so the first window to reach the max wins, and
/// [`NO_WINNER`] where the max is 0.
// om-lint: reduction-ok(the max scan takes windows in order with a strict
// `>`, first index wins)
fn relu_max_pool_scalar(pre: &[f32], bias: &[f32], slots: &mut [(f32, u32)]) {
    slots.fill((f32::NEG_INFINITY, 0));
    for (wi, row) in pre.chunks(bias.len()).enumerate() {
        for ((slot, &z), &b) in slots.iter_mut().zip(row).zip(bias) {
            let v = (z + b).max(0.0);
            if v > slot.0 {
                *slot = (v, wi as u32);
            }
        }
    }
    for slot in slots.iter_mut().filter(|slot| slot.0 <= 0.0) {
        slot.1 = NO_WINNER;
    }
}

/// Forward of the documents from `doc0` on, one `(pooled, winner)` row of
/// `out` per document. Each document's windows are its rows at stride
/// `dim`, multiplied in place by the GEMM micro-kernel; the pool scan
/// runs on the `[t, filters]` pre-activations it leaves.
fn conv_pool_docs(x: &[f32], w: &[f32], bias: &[f32], s: ConvShape, doc0: usize, out: &mut [(f32, u32)]) {
    let (t, kd, f) = (s.windows(), s.window_len(), s.filters);
    let mut pre = vec![0.0f32; t * f];
    let (mut best, mut win) = (vec![0.0f32; f], vec![0u32; f]);
    let docs = x[doc0 * s.doc_len()..].chunks(s.doc_len());
    for (doc, slots) in docs.zip(out.chunks_mut(f)) {
        pre.fill(0.0);
        gemm_rows(doc, s.dim, w, &mut pre, t, kd, f);
        if crate::simd::relu_max_pool(&pre, bias, &mut best, &mut win) {
            for (slot, pair) in slots.iter_mut().zip(best.iter().copied().zip(win.iter().copied())) {
                *slot = pair;
            }
        } else {
            relu_max_pool_scalar(&pre, bias, slots);
        }
    }
}

/// One TextCNN branch, forward: for each document of `x [docs, len, dim]`
/// and filter `f` of `w [width·dim, filters]`, the max over windows of
/// `relu(window · w[:, f] + bias[f])`, and the window that won. Returns
/// `(pooled [docs, filters], winners [docs, filters])`; a winner is
/// [`NO_WINNER`] where the pooled value is 0.
///
/// Bitwise equal to unfold → [`gemm`] → `+ bias` → `max(0.0)` →
/// max-over-time: each pre-activation is the same `p`-ordered GEMM sum
/// from `+0.0` (GEMM rows are partition-independent, and reading a window
/// in place at row stride `dim` reads the values unfold would copy), then
/// bias, ReLU and a strict `>` scan from −∞ in window order. That sum is
/// never `-0.0`, so the vector scan's `max` has no signed-zero case to
/// disagree on. Parallel over documents; no window matrix is built.
// om-lint: simd — runs the GEMM micro-kernel; tolerance registered in
// tests/parity.rs (ulp_tolerance("conv_relu_max_pool") = 0, bitwise).
pub fn conv_relu_max_pool(x: &[f32], w: &[f32], bias: &[f32], s: ConvShape) -> (Vec<f32>, Vec<u32>) {
    s.check(x.len(), w.len(), bias.len());
    if om_obs::enabled() {
        gemm_obs(s.docs * s.windows(), s.window_len(), s.filters);
    }
    let mut packed = vec![(0.0f32, 0u32); s.docs * s.filters];
    let grain = ConvShape::grain(s.windows() * s.window_len() * s.filters);
    runtime::parallel_rows_mut(&mut packed, s.filters, grain, |doc0, out| {
        conv_pool_docs(x, w, bias, s, doc0, out);
    });
    packed.into_iter().unzip()
}

/// Serial twin of [`conv_relu_max_pool`]: the composed path on one thread
/// — every window copied out (unfold), one scalar [`gemm_serial`], then
/// the scalar pool scan.
pub fn conv_relu_max_pool_serial(x: &[f32], w: &[f32], bias: &[f32], s: ConvShape) -> (Vec<f32>, Vec<u32>) {
    s.check(x.len(), w.len(), bias.len());
    let (t, kd, f) = (s.windows(), s.window_len(), s.filters);
    let mut windows = Vec::with_capacity(s.docs * t * kd);
    for doc in x.chunks(s.doc_len()) {
        for wi in 0..t {
            windows.extend_from_slice(&doc[wi * s.dim..wi * s.dim + kd]);
        }
    }
    let mut pre = vec![0.0f32; s.docs * t * f];
    gemm_serial(&windows, w, &mut pre, s.docs * t, kd, f);
    let mut packed = vec![(0.0f32, 0u32); s.docs * f];
    for (slots, doc_pre) in packed.chunks_mut(f).zip(pre.chunks(t * f)) {
        relu_max_pool_scalar(doc_pre, bias, slots);
    }
    packed.into_iter().unzip()
}

/// `d(x)` of the documents from `doc0` on, given `wt = wᵀ [filters,
/// width·dim]`: each window that won a filter gets the row `Σ g·wt[f]`
/// over the filters it won, and the rows are added into the document in
/// window order.
// om-lint: reduction-ok(filter order inside a window's row, window order
// into the document: the composed backward's order minus its zero terms)
fn conv_input_grad_docs(wt: &[f32], winners: &[u32], g: &[f32], s: ConvShape, doc0: usize, dx: &mut [f32]) {
    let (kd, f) = (s.window_len(), s.filters);
    let mut row = vec![0.0f32; kd];
    let mut won: Vec<(u32, usize)> = Vec::with_capacity(f);
    for (bi, doc) in (doc0..).zip(dx.chunks_mut(s.doc_len())) {
        let (wins, gs) = (&winners[bi * f..(bi + 1) * f], &g[bi * f..(bi + 1) * f]);
        won.clear();
        won.extend(wins.iter().enumerate().filter(|&(_, &wi)| wi != NO_WINNER).map(|(fi, &wi)| (wi, fi)));
        won.sort_unstable();
        for window in won.chunk_by(|a, b| a.0 == b.0) {
            row.fill(0.0);
            for &(_, fi) in window {
                let gv = gs[fi];
                for (r, &wv) in row.iter_mut().zip(&wt[fi * kd..(fi + 1) * kd]) {
                    *r += gv * wv;
                }
            }
            let at = window[0].0 as usize * s.dim;
            for (o, &r) in doc[at..at + kd].iter_mut().zip(&row) {
                *o += r;
            }
        }
    }
}

/// One TextCNN branch, `d(x) [docs, len, dim]` from the forward's
/// `winners` and the upstream `g [docs, filters]`.
///
/// Bitwise equal to the composed backward — `g·wᵀ` through [`gemm`], then
/// the unfold scatter in window order — whose other terms are exact zeros
/// added to sums that start at +0. Only winning windows are touched.
/// Parallel over blocks of documents.
pub fn conv_pool_input_grad(w: &[f32], winners: &[u32], g: &[f32], s: ConvShape) -> Vec<f32> {
    s.check_grad(winners.len(), g.len());
    let wt = transpose(w, s.window_len(), s.filters);
    let mut dx = vec![0.0f32; s.docs * s.doc_len()];
    let grain = ConvShape::grain(s.filters * s.window_len());
    runtime::parallel_rows_mut(&mut dx, s.doc_len(), grain, |doc0, dx| {
        conv_input_grad_docs(&wt, winners, g, s, doc0, dx);
    });
    dx
}

/// Serial twin of [`conv_pool_input_grad`] — one thread.
pub fn conv_pool_input_grad_serial(w: &[f32], winners: &[u32], g: &[f32], s: ConvShape) -> Vec<f32> {
    s.check_grad(winners.len(), g.len());
    let wt = transpose_serial(w, s.window_len(), s.filters);
    let mut dx = vec![0.0f32; s.docs * s.doc_len()];
    conv_input_grad_docs(&wt, winners, g, s, 0, &mut dx);
    dx
}

/// Rows `f0..` of `dwᵀ [filters, width·dim]`: row `f` is `Σ g·window`
/// over the documents whose filter `f` fired, in document order.
// om-lint: reduction-ok(document order per filter, as the composed
// Xᵀ·dC GEMM sums its rows, minus its zero terms)
fn conv_weight_grad_rows(x: &[f32], winners: &[u32], g: &[f32], s: ConvShape, f0: usize, dwt: &mut [f32]) {
    let (kd, f) = (s.window_len(), s.filters);
    for (fi, row) in (f0..).zip(dwt.chunks_mut(kd)) {
        for bi in 0..s.docs {
            let wi = winners[bi * f + fi];
            if wi == NO_WINNER {
                continue;
            }
            let gv = g[bi * f + fi];
            let at = bi * s.doc_len() + wi as usize * s.dim;
            for (o, &xv) in row.iter_mut().zip(&x[at..at + kd]) {
                *o += xv * gv;
            }
        }
    }
}

/// `dbias [filters]`: `g` summed over the documents whose filter fired,
/// in document order.
// om-lint: reduction-ok(document order per filter, as the composed
// add_row backward sums its rows, minus its zero terms)
fn conv_bias_grad(winners: &[u32], g: &[f32], f: usize) -> Vec<f32> {
    let mut db = vec![0.0f32; f];
    for (wins, gs) in winners.chunks(f).zip(g.chunks(f)) {
        for ((d, &wi), &gv) in db.iter_mut().zip(wins).zip(gs) {
            if wi != NO_WINNER {
                *d += gv;
            }
        }
    }
    db
}

/// One TextCNN branch, `(dw [width·dim, filters], dbias [filters])` from
/// the input `x`, the forward's `winners` and the upstream `g`.
///
/// Bitwise equal to the composed backward (`Xᵀ·g` through [`gemm`] and the
/// bias row sum), whose other terms are exact zeros added to sums that
/// start at +0. Parallel over filters: each task owns whole rows of
/// `dwᵀ`, transposed once at the end.
pub fn conv_pool_param_grads(x: &[f32], winners: &[u32], g: &[f32], s: ConvShape) -> (Vec<f32>, Vec<f32>) {
    s.check_grad(winners.len(), g.len());
    let (kd, f) = (s.window_len(), s.filters);
    let mut dwt = vec![0.0f32; f * kd];
    runtime::parallel_rows_mut(&mut dwt, kd, ConvShape::grain(s.docs * kd), |f0, rows| {
        conv_weight_grad_rows(x, winners, g, s, f0, rows);
    });
    (transpose(&dwt, f, kd), conv_bias_grad(winners, g, f))
}

/// Serial twin of [`conv_pool_param_grads`] — one thread.
pub fn conv_pool_param_grads_serial(x: &[f32], winners: &[u32], g: &[f32], s: ConvShape) -> (Vec<f32>, Vec<f32>) {
    s.check_grad(winners.len(), g.len());
    let (kd, f) = (s.window_len(), s.filters);
    let mut dwt = vec![0.0f32; f * kd];
    conv_weight_grad_rows(x, winners, g, s, 0, &mut dwt);
    (transpose_serial(&dwt, f, kd), conv_bias_grad(winners, g, f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, runtime, seeded_rng};

    fn random_vec(n: usize, seed: u64) -> Vec<f32> {
        init::uniform(&[n], -1.0, 1.0, &mut seeded_rng(seed)).to_vec()
    }

    fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
        let prev = runtime::set_threads(n);
        let out = f();
        runtime::set_threads(prev);
        out
    }

    #[test]
    fn gemm_matches_serial_bitwise() {
        for &(m, k, n) in &[(1, 1, 1), (5, 7, 3), (64, 64, 64), (130, 97, 61), (257, 33, 129)] {
            let a = random_vec(m * k, 1000 + m as u64);
            let b = random_vec(k * n, 2000 + n as u64);
            let mut c_ref = vec![0.0f32; m * n];
            gemm_serial(&a, &b, &mut c_ref, m, k, n);
            for threads in [1, runtime::max_threads()] {
                let c = with_threads(threads, || {
                    let mut c = vec![0.0f32; m * n];
                    gemm(&a, &b, &mut c, m, k, n);
                    c
                });
                assert_eq!(c, c_ref, "gemm {m}x{k}x{n} differs at {threads} threads");
            }
        }
    }

    #[test]
    fn gemm_skips_zero_rows_like_serial() {
        let (m, k, n) = (64, 48, 32);
        let mut a = random_vec(m * k, 7);
        // Zero whole stretches: the oracle skips them, gemm adds `0·b`.
        for v in a.iter_mut().take(m * k / 2) {
            *v = 0.0;
        }
        let b = random_vec(k * n, 8);
        let mut c_ref = vec![0.0f32; m * n];
        gemm_serial(&a, &b, &mut c_ref, m, k, n);
        let mut c = vec![0.0f32; m * n];
        gemm(&a, &b, &mut c, m, k, n);
        assert_eq!(c, c_ref);
    }

    #[test]
    fn sum_is_thread_count_invariant() {
        for n in [1, 100, REDUCE_CHUNK, REDUCE_CHUNK + 1, 5 * REDUCE_CHUNK + 13] {
            let x = random_vec(n, n as u64);
            // The dispatched sum must be bit-identical across thread counts
            // in either mode; it equals the scalar serial twin bitwise only
            // when AVX2 dispatch is off (tests/parity.rs holds the ULP
            // bound for the vector path).
            let reference = with_threads(1, || sum(&x));
            for threads in [2, runtime::max_threads()] {
                let s = with_threads(threads, || sum(&x));
                assert_eq!(s.to_bits(), reference.to_bits(), "sum({n}) at {threads} threads");
            }
            if !crate::simd::active() {
                assert_eq!(reference.to_bits(), sum_serial(&x).to_bits(), "scalar sum({n}) vs serial");
            }
        }
    }

    #[test]
    fn map_and_zip_match_scalar_loops() {
        let n = 3 * MAP_GRAIN + 17;
        let a = random_vec(n, 21);
        let b = random_vec(n, 22);
        let mapped = map(&a, |x| x.exp());
        let zipped = zip_map(&a, &b, |x, y| x * y);
        for i in (0..n).step_by(997) {
            assert_eq!(mapped[i].to_bits(), a[i].exp().to_bits());
            assert_eq!(zipped[i].to_bits(), (a[i] * b[i]).to_bits());
        }
    }

    #[test]
    fn transpose_roundtrips() {
        let (m, n) = (173, 111);
        let x = random_vec(m * n, 31);
        let t = transpose(&x, m, n);
        let back = transpose(&t, n, m);
        assert_eq!(back, x);
    }

    #[test]
    fn fill_rows_indexes_correctly() {
        let out = fill_rows(211, 7, 2, |r, row| {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (r * 7 + j) as f32;
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
    }
}

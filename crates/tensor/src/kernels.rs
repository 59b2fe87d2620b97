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
//! operation sequence (GEMM, elementwise, `pair_rows`, dequantisation)
//! remain bitwise identical to their twins; reordered reductions ([`sum`])
//! and the polynomial-exp softmax row match within a registered ULP
//! tolerance (see `tests/parity.rs`).

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
/// The ikj loop order keeps the inner loop contiguous over `b` and `c`;
/// rows of `a` that are exactly zero at position `p` are skipped, which is
/// a real win for the zero-padded rows produced by `unfold_windows`.
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

/// Compute rows `[row0, row0+rows)` of the product into `c_block` (which
/// holds exactly those rows), processing four rows at a time so each
/// streamed row of `b` is reused fourfold.
///
/// Per output element the accumulation order is `p = 0..k`, identical to
/// [`gemm_serial`]; adding an exact-zero product is a bitwise no-op for
/// finite inputs, so the relaxed skip condition (all four lanes zero)
/// cannot change results.
fn gemm_rows(a: &[f32], b: &[f32], c_block: &mut [f32], row0: usize, rows: usize, k: usize, n: usize) {
    if crate::simd::gemm_rows(a, b, c_block, row0, rows, k, n) {
        return;
    }
    let mut i = 0;
    while i + 4 <= rows {
        let (r0, r1, r2, r3) = (row0 + i, row0 + i + 1, row0 + i + 2, row0 + i + 3);
        // Four independent accumulator rows inside the block.
        let (c01, c23) = c_block[i * n..(i + 4) * n].split_at_mut(2 * n);
        let (c0, c1) = c01.split_at_mut(n);
        let (c2, c3) = c23.split_at_mut(n);
        for p in 0..k {
            let a0 = a[r0 * k + p];
            let a1 = a[r1 * k + p];
            let a2 = a[r2 * k + p];
            let a3 = a[r3 * k + p];
            if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                continue;
            }
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
        let r = row0 + i;
        let c_row = &mut c_block[i * n..(i + 1) * n];
        for p in 0..k {
            let a_ip = a[r * k + p];
            if a_ip == 0.0 {
                continue;
            }
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
/// count (see module docs). The product accumulates *into* `c`: each
/// element continues from its incoming value in `p = 0..k` order, so a
/// sum split at any `p` — run the first `p` columns of `a` against the
/// first `p` rows of `b`, then the rest into the same `c` — is bitwise
/// the one-call sum (the serving head resumes from a user partial this
/// way).
// om-lint: simd — inner-product kernel; a vectorised port must register
// its ULP tolerance in tests/parity.rs (ulp_tolerance("gemm")).
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if n == 0 || m == 0 {
        return;
    }
    let obs_on = om_obs::enabled();
    if obs_on {
        gemm_obs(m, k, n);
    }
    if m * n * k < GEMM_PAR_FLOPS {
        gemm_rows(a, b, c, 0, m, k, n);
        return;
    }
    // Only above-threshold GEMMs get a span: one record per dispatch-sized
    // multiply, nothing on the small-matrix fast path.
    let _span = om_obs::trace::span_if(obs_on, "kernels.gemm");
    // Keep at least GEMM_ROW_GRAIN rows per task unless the matrix is wide
    // enough that even single rows amortise the dispatch.
    let grain = if n * k >= 64 * 1024 { 1 } else { GEMM_ROW_GRAIN };
    runtime::parallel_rows_mut(c, n, grain, |row0, block| {
        gemm_rows(a, b, block, row0, block.len() / n, k, n);
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
        // Zero whole stretches to exercise the skip path.
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

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
//! operation sequence (GEMM, the TextCNN tower forward and backward, the
//! table-gradient scatter, Adadelta, elementwise, `pair_rows`,
//! dequantisation) remain bitwise identical to their twins;
//! reordered reductions ([`sum`]) and the polynomial-exp softmax row match
//! within a registered ULP tolerance (see `tests/parity.rs`).
//!
//! GEMM is bitwise equal to [`gemm_serial`] only while `c` holds no `-0.0`
//! on entry: the blocked kernels add every product, `0·b` included, where
//! the oracle skips a zero `a`, and `-0.0 + +0.0 = +0.0`. A sum that starts
//! at `+0.0` never becomes `-0.0`, so no caller's `c` does; debug builds
//! assert it.
//!
//! The TextCNN tower ([`text_cnn`], [`text_cnn_backward`]) goes from token
//! ids to pooled features without building the embedded documents or any
//! window matrix: each document's table rows are gathered into an L1
//! scratch, and the blocked GEMM kernel reads its windows there in place
//! through its row stride (`lda = dim`). Only the serial twin builds the
//! composed path's windows. The backward adds straight into the parents'
//! gradient buffers; the table's rows are summed per id and added once per
//! row an id names ([`scatter_add_rows`], also `embedding_lookup`'s
//! backward), so no `[vocab, dim]` buffer is built either.

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
// TextCNN tower: token ids → convolution → bias → ReLU → max-over-time
// ---------------------------------------------------------------------------

/// Geometry of one TextCNN tower: `docs` documents of `len` token ids each,
/// over a table of `dim`-wide rows, with one branch per kernel width in
/// `widths`, each of `filters` filters. Branch `b`'s pooled features are
/// output columns `b·filters..(b + 1)·filters`. Window `w` of a width-`k`
/// branch is tokens `w..w + k` of a document, `k·dim` values once its rows
/// are gathered; a document has `len − k + 1` of them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TowerShape {
    pub docs: usize,
    pub len: usize,
    pub dim: usize,
    pub widths: Vec<usize>,
    pub filters: usize,
}

impl TowerShape {
    /// Output columns: one pooled feature per (branch, filter).
    pub fn cols(&self) -> usize {
        self.widths.len() * self.filters
    }

    fn doc_len(&self) -> usize {
        self.len * self.dim
    }

    /// Multiply-adds of one document's forward over every branch.
    fn doc_cost(&self) -> usize {
        self.widths.iter().map(|&k| (self.len - k + 1) * k * self.dim * self.filters).sum()
    }

    /// Pool grain for documents of `cost` multiply-adds each: enough of
    /// them that one task clears the GEMM's parallel threshold.
    fn grain(cost: usize) -> usize {
        (GEMM_PAR_FLOPS / cost.max(1)).max(1)
    }

    /// Panics unless the inputs fit: every width in `1..=len`, a table of
    /// `dim`-wide rows that every id indexes, `docs·len` ids, and one
    /// `[width·dim, filters]` weight per branch.
    fn check(&self, table: usize, ids: &[usize], weights: &[&[f32]]) {
        assert!(!self.widths.is_empty(), "text_cnn: no branches");
        assert!(self.dim > 0 && self.filters > 0, "text_cnn: zero embedding width or filters");
        for &k in &self.widths {
            assert!(k >= 1 && k <= self.len, "text_cnn: window {k} out of range for len {}", self.len);
        }
        assert!(self.len < NO_WINNER as usize, "text_cnn: too many windows");
        assert!(table.is_multiple_of(self.dim), "text_cnn: table is not [vocab, dim]");
        assert_eq!(ids.len(), self.docs * self.len, "text_cnn: ids are not [docs, len]");
        let vocab = table / self.dim;
        assert!(ids.iter().all(|&id| id < vocab), "text_cnn: an id is outside the table's {vocab} rows");
        assert_eq!(weights.len(), self.widths.len(), "text_cnn: need one weight per branch");
        for (w, &k) in weights.iter().zip(&self.widths) {
            assert_eq!(w.len(), k * self.dim * self.filters, "text_cnn: a weight is not [width·dim, filters]");
        }
    }

    fn check_biases(&self, biases: &[&[f32]]) {
        assert_eq!(biases.len(), self.widths.len(), "text_cnn: need one bias per branch");
        assert!(biases.iter().all(|b| b.len() == self.filters), "text_cnn: a bias is not [filters]");
    }
}

/// The winner of a (document, filter) whose best pre-activation was ≤ 0:
/// its ReLU is closed, so no gradient flows back through it.
pub const NO_WINNER: u32 = u32::MAX;

/// Copy the table rows a document's `ids` name into `rows [len, dim]`.
fn gather_rows(table: &[f32], ids: &[usize], dim: usize, rows: &mut [f32]) {
    for (dst, &id) in rows.chunks_exact_mut(dim).zip(ids) {
        dst.copy_from_slice(&table[id * dim..(id + 1) * dim]);
    }
}

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
/// `out` per document. A document's rows are gathered into an L1 scratch;
/// each branch's GEMM reads its windows there in place at row stride
/// `dim`, and the pool scan runs on the `[t, filters]` pre-activations it
/// leaves.
fn tower_docs(
    table: &[f32],
    ids: &[usize],
    weights: &[&[f32]],
    biases: &[&[f32]],
    s: &TowerShape,
    doc0: usize,
    out: &mut [(f32, u32)],
) {
    let f = s.filters;
    let mut rows = vec![0.0f32; s.doc_len()];
    let mut pre = vec![0.0f32; s.len * f];
    let (mut best, mut win) = (vec![0.0f32; f], vec![0u32; f]);
    for (doc, slots) in (doc0..).zip(out.chunks_mut(s.cols())) {
        gather_rows(table, &ids[doc * s.len..(doc + 1) * s.len], s.dim, &mut rows);
        let branches = s.widths.iter().zip(weights.iter().zip(biases));
        for ((&k, (w, bias)), slots) in branches.zip(slots.chunks_mut(f)) {
            let t = s.len - k + 1;
            let pre = &mut pre[..t * f];
            pre.fill(0.0);
            gemm_rows(&rows, s.dim, w, pre, t, k * s.dim, f);
            if crate::simd::relu_max_pool(pre, bias, &mut best, &mut win) {
                for (slot, pair) in slots.iter_mut().zip(best.iter().copied().zip(win.iter().copied())) {
                    *slot = pair;
                }
            } else {
                relu_max_pool_scalar(pre, bias, slots);
            }
        }
    }
}

/// One TextCNN tower, forward: for each document of `ids [docs, len]`
/// (rows of `table [vocab, dim]`), each branch `b` and each of its filters
/// `f`, the max over windows of `relu(window · weights[b][:, f] +
/// biases[b][f])`, and the window that won. Returns `(pooled [docs,
/// branches·filters], winners [docs, branches·filters])`; a winner is
/// [`NO_WINNER`] where the pooled value is 0.
///
/// Bitwise equal to gather → unfold → [`gemm`] → `+ bias` → `max(0.0)` →
/// max-over-time per branch, concatenated: each pre-activation is the same
/// `p`-ordered GEMM sum from `+0.0` over the values the gather and unfold
/// would copy (GEMM rows are partition-independent), then bias, ReLU and a
/// strict `>` scan from −∞ in window order. That sum is never `-0.0`, so
/// the vector scan's `max` has no signed-zero case to disagree on.
/// Parallel over documents; neither the embedded documents nor any window
/// matrix is built.
// om-lint: simd — runs the GEMM micro-kernel and the vector pool scan;
// tolerance registered in tests/parity.rs (ulp_tolerance("text_cnn") = 0).
pub fn text_cnn(table: &[f32], ids: &[usize], weights: &[&[f32]], biases: &[&[f32]], s: &TowerShape) -> (Vec<f32>, Vec<u32>) {
    s.check(table.len(), ids, weights);
    s.check_biases(biases);
    if om_obs::enabled() {
        for &k in &s.widths {
            gemm_obs(s.docs * (s.len - k + 1), k * s.dim, s.filters);
        }
    }
    let mut packed = vec![(0.0f32, 0u32); s.docs * s.cols()];
    runtime::parallel_rows_mut(&mut packed, s.cols(), TowerShape::grain(s.doc_cost()), |doc0, out| {
        tower_docs(table, ids, weights, biases, s, doc0, out);
    });
    packed.into_iter().unzip()
}

/// Serial twin of [`text_cnn`]: the composed path on one thread — every
/// document's rows gathered, every window copied out (unfold), one scalar
/// [`gemm_serial`] per branch, then the scalar pool scan.
pub fn text_cnn_serial(table: &[f32], ids: &[usize], weights: &[&[f32]], biases: &[&[f32]], s: &TowerShape) -> (Vec<f32>, Vec<u32>) {
    s.check(table.len(), ids, weights);
    s.check_biases(biases);
    let (d, f, cols) = (s.dim, s.filters, s.cols());
    let mut x = vec![0.0f32; s.docs * s.doc_len()];
    for (rows, doc_ids) in x.chunks_mut(s.doc_len()).zip(ids.chunks(s.len)) {
        gather_rows(table, doc_ids, d, rows);
    }
    let mut packed = vec![(0.0f32, 0u32); s.docs * cols];
    for (b, (&k, (w, bias))) in s.widths.iter().zip(weights.iter().zip(biases)).enumerate() {
        let (t, kd) = (s.len - k + 1, k * d);
        let mut windows = Vec::with_capacity(s.docs * t * kd);
        for doc in x.chunks(s.doc_len()) {
            for wi in 0..t {
                windows.extend_from_slice(&doc[wi * d..wi * d + kd]);
            }
        }
        let mut pre = vec![0.0f32; s.docs * t * f];
        gemm_serial(&windows, w, &mut pre, s.docs * t, kd, f);
        for (row, doc_pre) in packed.chunks_mut(cols).zip(pre.chunks(t * f)) {
            relu_max_pool_scalar(doc_pre, bias, &mut row[b * f..(b + 1) * f]);
        }
    }
    packed.into_iter().unzip()
}

/// `y += s·x` over one row: the AVX2 port when dispatch allows, else the
/// scalar loop. Either way one multiply and one add per element.
fn axpy(s: f32, x: &[f32], y: &mut [f32]) {
    if !crate::simd::axpy(s, x, y) {
        axpy_scalar(s, x, y);
    }
}

/// The scalar `y += s·x` the serial twins run.
fn axpy_scalar(s: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (o, &v) in y.iter_mut().zip(x) {
        *o += s * v;
    }
}

/// A row primitive `y += s·x`: [`axpy`] in the dispatched kernels,
/// [`axpy_scalar`] in their serial twins.
type Axpy = fn(f32, &[f32], &mut [f32]);

/// The table gradient of a row gather, built per id: each id's row
/// gradients are summed in token order from `+0.0`, then each sum is added
/// once into the table row of its id. Rows no id names are never touched.
struct IdRowSums {
    dim: usize,
    /// Per table row, its row in `sums`, or `u32::MAX` when no id names it.
    slot: Vec<u32>,
    /// The ids named, in first-seen order: `sums` row `i` is `touched[i]`'s.
    touched: Vec<usize>,
    sums: Vec<f32>,
}

impl IdRowSums {
    fn new(rows: usize, dim: usize, ids: &[usize]) -> IdRowSums {
        let mut slot = vec![u32::MAX; rows];
        let mut touched = Vec::new();
        for &id in ids {
            if slot[id] == u32::MAX {
                slot[id] = u32::try_from(touched.len()).expect("IdRowSums: too many distinct ids");
                touched.push(id);
            }
        }
        IdRowSums { dim, slot, sums: vec![0.0; touched.len() * dim], touched }
    }

    /// Add `rows [ids.len(), dim]` into their ids' sums, in order.
    fn add_rows(&mut self, ids: &[usize], rows: &[f32], axpy: Axpy) {
        let d = self.dim;
        for (&id, row) in ids.iter().zip(rows.chunks_exact(d)) {
            let at = self.slot[id] as usize * d;
            axpy(1.0, row, &mut self.sums[at..at + d]);
        }
    }

    /// Add every sum once into its id's row of `grad [rows, dim]`.
    fn add_into(&self, grad: &mut [f32], axpy: Axpy) {
        let d = self.dim;
        for (&id, sum) in self.touched.iter().zip(self.sums.chunks_exact(d)) {
            axpy(1.0, sum, &mut grad[id * d..(id + 1) * d]);
        }
    }
}

fn check_scatter(ids: &[usize], rows: &[f32], dim: usize, grad: &[f32]) {
    assert!(dim > 0, "scatter_add_rows: zero row width");
    assert_eq!(rows.len(), ids.len() * dim, "scatter_add_rows: rows are not [ids, dim]");
    assert!(grad.len().is_multiple_of(dim), "scatter_add_rows: grad is not [table rows, dim]");
    let n = grad.len() / dim;
    assert!(ids.iter().all(|&id| id < n), "scatter_add_rows: an id is outside the table's {n} rows");
    debug_assert_no_negative_zero(grad, "scatter_add_rows");
}

/// The touched-rows table gradient's precondition: the dense scatter adds
/// `+0.0` to a row no id names, which turns a `-0.0` there into `+0.0`;
/// skipping the row keeps it. Debug builds assert `grad` holds none.
fn debug_assert_no_negative_zero(grad: &[f32], op: &str) {
    debug_assert!(
        grad.iter().all(|v| v.to_bits() != (-0.0f32).to_bits()),
        "{op}: the table gradient holds -0.0, which the dense scatter would turn into +0.0"
    );
}

/// Table gradient of a row gather (`embedding_lookup`'s backward): `rows
/// [ids.len(), dim]` holds each gathered row's gradient. Per id, its rows
/// are summed in order from `+0.0` and the sum is added once into `grad`'s
/// row `id`; rows no id names are not touched, and no `[table rows, dim]`
/// buffer is built.
///
/// Bitwise the dense scatter — such a buffer of those sums, added in full
/// — whenever `grad` holds no `-0.0`: the dense scatter only adds `+0.0` to
/// an untouched row, and a sum that starts at `+0.0` is never `-0.0`.
/// Debug builds assert the precondition.
// om-lint: simd — lanewise row adds; tolerance registered in
// tests/parity.rs (ulp_tolerance("scatter_add_rows") = 0, bitwise).
pub fn scatter_add_rows(ids: &[usize], rows: &[f32], dim: usize, grad: &mut [f32]) {
    check_scatter(ids, rows, dim, grad);
    let mut sums = IdRowSums::new(grad.len() / dim, dim, ids);
    sums.add_rows(ids, rows, axpy);
    sums.add_into(grad, axpy);
}

/// Serial twin of [`scatter_add_rows`] — scalar row adds.
pub fn scatter_add_rows_serial(ids: &[usize], rows: &[f32], dim: usize, grad: &mut [f32]) {
    check_scatter(ids, rows, dim, grad);
    let mut sums = IdRowSums::new(grad.len() / dim, dim, ids);
    sums.add_rows(ids, rows, axpy_scalar);
    sums.add_into(grad, axpy_scalar);
}

/// The gradient buffers a tower's backward adds into, each lent by its
/// parent, or `None` where the parent takes no gradient. Values are added
/// in place, so a buffer may already hold other ops' contributions.
pub struct TowerGrads<'a> {
    /// `[vocab, dim]`, the table's.
    pub table: Option<&'a mut [f32]>,
    /// Per branch, `[width·dim, filters]`.
    pub weights: Vec<Option<&'a mut [f32]>>,
    /// Per branch, `[filters]`.
    pub biases: Vec<Option<&'a mut [f32]>>,
}

/// What a tower's backward reads besides the parameters: the ids, the
/// forward's winners and the upstream gradient, with their geometry.
struct TowerTape<'a> {
    ids: &'a [usize],
    winners: &'a [u32],
    g: &'a [f32],
    s: &'a TowerShape,
}

impl TowerTape<'_> {
    /// Document `doc`'s `(ids, winners, upstream gradient)`.
    fn doc(&self, doc: usize) -> (&[usize], &[u32], &[f32]) {
        let (len, cols) = (self.s.len, self.s.cols());
        let row = doc * cols..(doc + 1) * cols;
        (&self.ids[doc * len..(doc + 1) * len], &self.winners[row.clone()], &self.g[row])
    }
}

/// One branch's `d(x)` of one document into `dx`, which holds `+0.0`:
/// each window that won a filter gets the row `Σ g·wᵀ[f]` over the
/// filters it won, in filter order from `+0.0`, and the rows are added
/// into the document in window order. `wt` is the branch's `wᵀ
/// [filters, k·dim]`; `wins` and `gs` are its filters' winners and
/// upstream gradient; `row` and `won` are scratch.
fn branch_input_grad(wt: &[f32], (wins, gs): (&[u32], &[f32]), dim: usize, dx: &mut [f32], (row, won): (&mut [f32], &mut Vec<(u32, usize)>), axpy: Axpy) {
    let kd = wt.len() / wins.len();
    won.clear();
    won.extend(wins.iter().enumerate().filter(|&(_, &wi)| wi != NO_WINNER).map(|(fi, &wi)| (wi, fi)));
    won.sort_unstable();
    let row = &mut row[..kd];
    for window in won.chunk_by(|a, b| a.0 == b.0) {
        row.fill(0.0);
        for &(_, fi) in window.iter() {
            axpy(gs[fi], &wt[fi * kd..(fi + 1) * kd], row);
        }
        let at = window[0].0 as usize * dim;
        axpy(1.0, row, &mut dx[at..at + kd]);
    }
}

/// The tower's table gradient. Each document's input gradient is
/// completed in scratch: every branch's `d(x)` starts at `+0.0`, and they
/// are added in reverse branch order, `(d₂ + d₁) + d₀` for three branches,
/// as the per-branch tape nodes of the composed ops run. Its rows then
/// join their ids' sums ([`IdRowSums`]), which are added into `grad` once
/// every document is in.
fn tower_table_grad(weights: &[&[f32]], tape: &TowerTape<'_>, grad: &mut [f32], axpy: Axpy) {
    let s = tape.s;
    let (d, f) = (s.dim, s.filters);
    let wts: Vec<Vec<f32>> = weights.iter().zip(&s.widths).map(|(w, &k)| transpose_serial(w, k * d, f)).collect();
    let max_kd = s.widths.iter().max().map_or(0, |&k| k * d);
    let mut sums = IdRowSums::new(grad.len() / d, d, tape.ids);
    let (mut done, mut dx, mut row) = (vec![0.0f32; s.doc_len()], vec![0.0f32; s.doc_len()], vec![0.0f32; max_kd]);
    let mut won = Vec::with_capacity(f);
    for doc in 0..s.docs {
        let (doc_ids, wins, gs) = tape.doc(doc);
        for (b, wt) in wts.iter().enumerate().rev() {
            let last = b + 1 == wts.len();
            let into = if last { &mut done } else { &mut dx };
            into.fill(0.0);
            let filters = (&wins[b * f..(b + 1) * f], &gs[b * f..(b + 1) * f]);
            branch_input_grad(wt, filters, d, into, (&mut row, &mut won), axpy);
            if !last {
                axpy(1.0, &dx, &mut done);
            }
        }
        sums.add_rows(doc_ids, &done, axpy);
    }
    sums.add_into(grad, axpy);
}

/// The tower's filter and bias gradients. Per branch, row `f` of `dwᵀ
/// [filters, k·dim]` sums `g·window` over the documents whose filter `f`
/// fired, in document order from `+0.0` (each document's rows gathered
/// once), and is then added transposed into `dw`; `dbias` sums `g` over
/// the same documents in the same order.
fn tower_param_grads(table: &[f32], tape: &TowerTape<'_>, dws: &mut [Option<&mut [f32]>], dbs: &mut [Option<&mut [f32]>], axpy: Axpy) {
    let s = tape.s;
    let (d, f) = (s.dim, s.filters);
    let mut dwt: Vec<Vec<f32>> = s.widths.iter().map(|&k| vec![0.0f32; f * k * d]).collect();
    let mut db = vec![0.0f32; s.cols()];
    let mut rows = vec![0.0f32; s.doc_len()];
    for doc in 0..s.docs {
        let (doc_ids, wins, gs) = tape.doc(doc);
        gather_rows(table, doc_ids, d, &mut rows);
        for (b, (&k, dwt)) in s.widths.iter().zip(&mut dwt).enumerate() {
            let kd = k * d;
            for (fi, row) in dwt.chunks_exact_mut(kd).enumerate() {
                let c = b * f + fi;
                if wins[c] == NO_WINNER {
                    continue;
                }
                db[c] += gs[c];
                let at = wins[c] as usize * d;
                axpy(gs[c], &rows[at..at + kd], row);
            }
        }
    }
    for (b, ((dw, dbias), dwt)) in dws.iter_mut().zip(dbs.iter_mut()).zip(&dwt).enumerate() {
        let kd = s.widths[b] * d;
        if let Some(dw) = dw {
            for (p, out) in dw.chunks_exact_mut(f).enumerate() {
                for (fi, o) in out.iter_mut().enumerate() {
                    *o += dwt[fi * kd + p];
                }
            }
        }
        if let Some(dbias) = dbias {
            for (o, &v) in dbias.iter_mut().zip(&db[b * f..(b + 1) * f]) {
                *o += v;
            }
        }
    }
}

fn check_backward(table: usize, weights: &[&[f32]], ids: &[usize], winners: &[u32], g: &[f32], s: &TowerShape, grads: &TowerGrads<'_>) {
    s.check(table, ids, weights);
    let n = s.docs * s.cols();
    assert_eq!(winners.len(), n, "text_cnn: winners are not [docs, branches·filters]");
    assert_eq!(g.len(), n, "text_cnn: upstream gradient is not [docs, branches·filters]");
    assert!(grads.table.as_ref().is_none_or(|t| t.len() == table), "text_cnn: table gradient is not [vocab, dim]");
    if let Some(t) = &grads.table {
        debug_assert_no_negative_zero(t, "text_cnn_backward");
    }
    assert_eq!(grads.weights.len(), s.widths.len(), "text_cnn: need one weight gradient slot per branch");
    for (dw, w) in grads.weights.iter().zip(weights) {
        assert!(dw.as_ref().is_none_or(|dw| dw.len() == w.len()), "text_cnn: a weight gradient is not [width·dim, filters]");
    }
    assert_eq!(grads.biases.len(), s.widths.len(), "text_cnn: need one bias gradient slot per branch");
    assert!(grads.biases.iter().flatten().all(|db| db.len() == s.filters), "text_cnn: a bias gradient is not [filters]");
}

/// The table's gradient when it takes one, then the filter and bias
/// gradients when any of them is wanted; the two write disjoint buffers.
fn tower_backward(table: &[f32], weights: &[&[f32]], tape: &TowerTape<'_>, grads: TowerGrads<'_>, axpy: Axpy) {
    let TowerGrads { table: dt, weights: mut dws, biases: mut dbs } = grads;
    if let Some(dt) = dt {
        tower_table_grad(weights, tape, dt, axpy);
    }
    if dws.iter().chain(&dbs).any(Option::is_some) {
        tower_param_grads(table, tape, &mut dws, &mut dbs, axpy);
    }
}

/// One TextCNN tower, backward: adds into `grads` the gradients of the
/// table, of every branch's weight and of its bias, from the forward's
/// `winners` and the upstream `g [docs, branches·filters]`.
///
/// Bitwise equal to the composed ops' backward — the per-branch `g·wᵀ`
/// and `Xᵀ·g` through [`gemm`], the unfold scatter in window order, the
/// three branches' `d(x)` added in reverse branch order, and the dense
/// table scatter — whose other terms are exact `+0.0`s added to sums that
/// start at `+0.0`, given the table's gradient holds no `-0.0` (see
/// [`scatter_add_rows`]; debug builds assert it). Only winning windows and
/// named table rows are touched. It runs on the calling thread: splitting
/// the table gradient from the filter gradients as two pool tasks read no
/// faster at two threads, in the tower's own backward or in a training
/// epoch.
// om-lint: simd — lanewise row axpys; tolerance registered in
// tests/parity.rs (ulp_tolerance("text_cnn_backward") = 0, bitwise).
pub fn text_cnn_backward(
    table: &[f32],
    weights: &[&[f32]],
    ids: &[usize],
    winners: &[u32],
    g: &[f32],
    s: &TowerShape,
    grads: TowerGrads<'_>,
) {
    check_backward(table.len(), weights, ids, winners, g, s, &grads);
    tower_backward(table, weights, &TowerTape { ids, winners, g, s }, grads, axpy);
}

/// Serial twin of [`text_cnn_backward`] — the same loops, with scalar row
/// updates.
pub fn text_cnn_backward_serial(
    table: &[f32],
    weights: &[&[f32]],
    ids: &[usize],
    winners: &[u32],
    g: &[f32],
    s: &TowerShape,
    grads: TowerGrads<'_>,
) {
    check_backward(table.len(), weights, ids, winners, g, s, &grads);
    tower_backward(table, weights, &TowerTape { ids, winners, g, s }, grads, axpy_scalar);
}

// ---------------------------------------------------------------------------
// Adadelta
// ---------------------------------------------------------------------------

/// Adadelta's hyper-parameters (Zeiler 2012): learning rate, decay `ρ` of
/// both running averages, and `ε`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdadeltaHp {
    pub lr: f32,
    pub rho: f32,
    pub eps: f32,
}

/// One Adadelta update of one parameter element; returns its step `δ`
/// (the parameter moves by `−lr·δ`). The scalar definition both
/// [`adadelta_update`] paths reproduce bit for bit.
// om-lint: not-a-kernel
pub fn adadelta_element(p: &mut f32, g: f32, sq: &mut f32, acc: &mut f32, h: AdadeltaHp) -> f32 {
    *sq = h.rho * *sq + (1.0 - h.rho) * g * g;
    let delta = ((*acc + h.eps).sqrt() / (*sq + h.eps).sqrt()) * g;
    *acc = h.rho * *acc + (1.0 - h.rho) * delta * delta;
    *p -= h.lr * delta;
    delta
}

fn check_adadelta(p: &[f32], g: &[f32], sq: &[f32], acc: &[f32]) {
    let n = p.len();
    assert!(g.len() == n && sq.len() == n && acc.len() == n, "adadelta_update: length mismatch");
}

/// Adadelta over one parameter: [`adadelta_element`] on every element,
/// 8 lanes wide under AVX2. Each step is one correctly rounded operation
/// per lane in the scalar order, so it is bitwise the serial twin.
// om-lint: simd — lanewise kernel; tolerance registered in tests/parity.rs
// (ulp_tolerance("adadelta_update") = 0, bitwise).
pub fn adadelta_update(p: &mut [f32], g: &[f32], sq: &mut [f32], acc: &mut [f32], h: AdadeltaHp) {
    check_adadelta(p, g, sq, acc);
    if !crate::simd::adadelta(p, g, sq, acc, h) {
        adadelta_update_serial(p, g, sq, acc, h);
    }
}

/// Serial twin of [`adadelta_update`] — the scalar element loop.
pub fn adadelta_update_serial(p: &mut [f32], g: &[f32], sq: &mut [f32], acc: &mut [f32], h: AdadeltaHp) {
    check_adadelta(p, g, sq, acc);
    for (((p, &g), sq), acc) in p.iter_mut().zip(g).zip(sq.iter_mut()).zip(acc.iter_mut()) {
        adadelta_element(p, g, sq, acc, h);
    }
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

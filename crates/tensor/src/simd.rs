//! Runtime-dispatched AVX2 microkernels behind [`crate::kernels`].
//!
//! Dispatch policy: the mode is decided once per process from `OM_SIMD`
//! (`auto`, the default, enables the vector path when the CPU reports
//! AVX2; `off` forces the portable scalar path) and cached in an atomic.
//! Every public function here is *safe*: it returns `false`/`None` when
//! the vector path is unavailable so the caller runs its scalar twin, and
//! only enters the `unsafe` AVX2 code after the cached CPUID check.
//!
//! Every length the `unsafe` bodies rely on is checked with `assert!` in
//! the safe wrapper, before the dispatch check, so a short slice panics
//! under both `OM_SIMD` legs instead of being read or written past its end.
//!
//! The GEMM micro-kernel ([`gemm_rows`]) is one tile body, generic over
//! rows (4, or 1 for the ragged rows) and width (1–3 vectors of 8
//! columns, the last one masked for a column tail): 4×24 tiles hold 12
//! accumulators across the whole `p` loop. It adds every product, zero
//! or not, as the scalar blocked kernel does: `gemm_serial`'s skip of a
//! zero `a` changes no bit of a sum that does not hold `-0.0` (see
//! [`crate::kernels::gemm`]). The `p` loop runs on raw pointers, covered
//! by the wrapper's asserts. It takes a row stride, so a TextCNN
//! document's overlapping windows multiply in place.
//!
//! Two numeric tiers, enforced by `tests/parity.rs`:
//!
//! * **Bitwise** — kernels whose vector port performs exactly the scalar
//!   operation sequence per output element: the GEMM micro-tile
//!   (separate multiply and add, never FMA, `p` increasing), the TextCNN
//!   pool scan (bias, ReLU, strict-`>` max in window order), the tower
//!   backward's row `axpy`, the Adadelta update (mul, add, sqrt and div
//!   are each correctly rounded per lane), lanewise elementwise ops,
//!   `pair_rows` copies and int8 dequantisation. These register
//!   `ulp_tolerance` 0.
//! * **ULP-bounded** — kernels that reorder a reduction across the
//!   vector lanes ([`sum_chunk`]) or substitute a polynomial `exp`
//!   ([`log_softmax_row`]). Still deterministic for a fixed input (the
//!   lane shape is fixed), but not bit-equal to the serial twin; each
//!   registers a measured, margin-padded ULP tolerance.
//!
//! All kernels assume finite inputs (no NaN/±Inf), matching the
//! documented contract of the scalar kernels they shadow.

#![expect(unsafe_code, reason = "AVX2 intrinsics behind the cached CPUID check, raw loads and stores bounded by the wrappers' asserts")]

use std::sync::atomic::{AtomicU8, Ordering};

/// Mode not decided yet.
const UNINIT: u8 = 0;
/// Scalar fallback (no AVX2, or `OM_SIMD=off`).
const SCALAR: u8 = 1;
/// AVX2 vector path.
const AVX2: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(UNINIT);

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

/// Decide the mode from `OM_SIMD` + CPUID and cache it. Racing threads
/// compute the same value, so a relaxed store is enough.
#[cold]
fn init_mode() -> u8 {
    let want = std::env::var("OM_SIMD").unwrap_or_default();
    let m = match want.as_str() {
        "" | "auto" => {
            if avx2_available() {
                AVX2
            } else {
                SCALAR
            }
        }
        "off" => SCALAR,
        other => panic!("OM_SIMD: unrecognised value `{other}` (expected `auto` or `off`)"),
    };
    MODE.store(m, Ordering::Relaxed);
    m
}

#[inline]
fn mode() -> u8 {
    let m = MODE.load(Ordering::Relaxed);
    if m == UNINIT {
        init_mode()
    } else {
        m
    }
}

/// Whether the AVX2 path is active (CPU supports it and `OM_SIMD` did not
/// force it off). Exposed so tests and benches can report the mode and
/// pick the right parity tier.
#[inline]
pub fn active() -> bool {
    mode() == AVX2
}

/// Human-readable dispatch label for logs and bench reports.
pub fn mode_label() -> &'static str {
    if active() {
        "avx2"
    } else {
        "scalar"
    }
}

// ---------------------------------------------------------------------------
// Safe dispatch wrappers. Each gates on `active()` and hands the slices to
// the AVX2 implementation; `false`/`None` means "run the scalar twin".
// ---------------------------------------------------------------------------

/// Sum one reduction chunk. Fixed lane shape (4×8 accumulators combined
/// in a fixed order), so the result depends only on the input. Tolerance
/// tier: reordered reduction.
#[inline]
pub fn sum_chunk(x: &[f32]) -> Option<f32> {
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` implies `is_x86_feature_detected!("avx2")`.
        return Some(unsafe { x86::sum_chunk_avx2(x) });
    }
    let _ = x;
    None
}

/// Whether rows `0..rows` of a matrix with row stride `lda` and `k`
/// columns lie inside `a`: `(rows − 1)·lda + k ≤ a.len()`, without
/// overflow. Rows may overlap (`lda < k`).
fn rows_fit(a_len: usize, lda: usize, rows: usize, k: usize) -> bool {
    rows == 0 || (rows - 1).checked_mul(lda).and_then(|v| v.checked_add(k)).is_some_and(|end| end <= a_len)
}

/// GEMM row block `c_block += A · b`, where row `i` of `A` is
/// `a[i·lda .. i·lda + k]` (rows may overlap: a TextCNN document's
/// windows are its rows at `lda = dim`). Same contract as the scalar
/// `gemm_rows`: per output element the accumulation order is `p = 0..k`
/// with separate multiply and add (no FMA), starting from the incoming
/// `c` value, and every product is added. Bitwise tier.
#[inline]
pub fn gemm_rows(a: &[f32], lda: usize, b: &[f32], c_block: &mut [f32], rows: usize, k: usize, n: usize) -> bool {
    assert!(rows_fit(a.len(), lda, rows, k), "gemm_rows: a is too short for {rows} rows of stride {lda} and width {k}");
    assert!(k.checked_mul(n).is_some_and(|kn| b.len() >= kn), "gemm_rows: b is shorter than k·n");
    assert!(rows.checked_mul(n).is_some_and(|rn| c_block.len() >= rn), "gemm_rows: c_block is shorter than rows·n");
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` implies `is_x86_feature_detected!("avx2")`;
        // the asserts above are the slice bounds the kernel relies on.
        unsafe { x86::gemm_rows_avx2(a, lda, b, c_block, rows, k, n) };
        return true;
    }
    false
}

/// TextCNN pool scan of one document: `pre [t, f]` holds the window
/// pre-activations (`f = bias.len()`). For each filter, `best` gets the
/// max over windows of `max(pre + bias, 0)` and `win` the first window
/// that reached it (strict `>` from −∞, window order), or
/// [`NO_WINNER`](crate::kernels::NO_WINNER) where the max is 0. Lanewise
/// over 8 filters, then a scalar tail: the same operations per filter as
/// the scalar scan. Bitwise tier.
#[inline]
pub fn relu_max_pool(pre: &[f32], bias: &[f32], best: &mut [f32], win: &mut [u32]) -> bool {
    let f = bias.len();
    assert!(f > 0 && pre.len().is_multiple_of(f), "relu_max_pool: pre is not [windows, filters]");
    assert!(best.len() == f && win.len() == f, "relu_max_pool: outputs are not [filters]");
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` implies `is_x86_feature_detected!("avx2")`;
        // the asserts above are the slice bounds the kernel relies on.
        unsafe { x86::relu_max_pool_avx2(pre, bias, best, win) };
        return true;
    }
    false
}

/// Lanewise `y[i] += s · x[i]`: one multiply, then one add, per element
/// (never FMA), so bitwise the scalar `*y += s * x`. With `s = 1.0` it is
/// exactly `*y += x`. The TextCNN tower's window-row, filter-row and
/// table-row loops. Bitwise tier.
#[inline]
pub fn axpy(s: f32, x: &[f32], y: &mut [f32]) -> bool {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` implies `is_x86_feature_detected!("avx2")`;
        // the assert above is the slice bound the kernel relies on.
        unsafe { x86::axpy_avx2(s, x, y) };
        return true;
    }
    false
}

/// One Adadelta step over a parameter slice, lanewise:
/// `sq ← ρ·sq + (1−ρ)·g·g`, `δ = (√(acc+ε) / √(sq+ε))·g`,
/// `acc ← ρ·acc + (1−ρ)·δ·δ`, `p ← p − lr·δ`. Every operation is one
/// correctly rounded IEEE operation per lane, in the scalar order of
/// [`crate::kernels::adadelta_element`], so this is the bitwise tier.
#[inline]
pub fn adadelta(p: &mut [f32], g: &[f32], sq: &mut [f32], acc: &mut [f32], h: crate::kernels::AdadeltaHp) -> bool {
    let n = p.len();
    assert!(g.len() == n && sq.len() == n && acc.len() == n, "adadelta: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` implies `is_x86_feature_detected!("avx2")`;
        // the assert above is the slice bound the kernel relies on.
        unsafe { x86::adadelta_avx2(p, g, sq, acc, h) };
        return true;
    }
    let _ = h;
    false
}

/// Lanewise `out[i] = a[i] + b[i]`. Bitwise tier.
#[inline]
pub fn add_chunk(a: &[f32], b: &[f32], out: &mut [f32]) -> bool {
    assert!(a.len() == out.len() && b.len() == out.len(), "add_chunk: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` implies `is_x86_feature_detected!("avx2")`.
        unsafe { x86::binop_avx2::<0>(a, b, out) };
        return true;
    }
    let _ = (a, b, out);
    false
}

/// Lanewise `out[i] = a[i] - b[i]`. Bitwise tier.
#[inline]
pub fn sub_chunk(a: &[f32], b: &[f32], out: &mut [f32]) -> bool {
    assert!(a.len() == out.len() && b.len() == out.len(), "sub_chunk: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` implies `is_x86_feature_detected!("avx2")`.
        unsafe { x86::binop_avx2::<1>(a, b, out) };
        return true;
    }
    let _ = (a, b, out);
    false
}

/// Lanewise `out[i] = a[i] * b[i]`. Bitwise tier.
#[inline]
pub fn mul_chunk(a: &[f32], b: &[f32], out: &mut [f32]) -> bool {
    assert!(a.len() == out.len() && b.len() == out.len(), "mul_chunk: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` implies `is_x86_feature_detected!("avx2")`.
        unsafe { x86::binop_avx2::<2>(a, b, out) };
        return true;
    }
    let _ = (a, b, out);
    false
}

/// Lanewise `out[i] = x[i] * s`. Bitwise tier.
#[inline]
pub fn scale_chunk(x: &[f32], s: f32, out: &mut [f32]) -> bool {
    assert_eq!(x.len(), out.len(), "scale_chunk: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` implies `is_x86_feature_detected!("avx2")`.
        unsafe { x86::scale_avx2(x, s, out) };
        return true;
    }
    let _ = (x, s, out);
    false
}

/// One log-softmax row: `out[j] = src[j] - (max + ln Σ exp(src - max))`.
/// Uses a polynomial vector `exp` and a lane-parallel exp-sum, so this is
/// the tolerance tier. Finite inputs only.
#[inline]
pub fn log_softmax_row(src: &[f32], out: &mut [f32]) -> bool {
    assert_eq!(src.len(), out.len(), "log_softmax_row: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` implies `is_x86_feature_detected!("avx2")`.
        unsafe { x86::log_softmax_row_avx2(src, out) };
        return true;
    }
    let _ = (src, out);
    false
}

/// Dequantise one int8 row: `out[j] = q[j] as f32 * scale`. The int→float
/// conversion is exact for |q| ≤ 127 and the multiply is the same single
/// rounding as the scalar loop, so this is the bitwise tier.
#[inline]
pub fn dequant_row(q: &[i8], scale: f32, out: &mut [f32]) -> bool {
    assert_eq!(q.len(), out.len(), "dequant_row: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` implies `is_x86_feature_detected!("avx2")`.
        unsafe { x86::dequant_row_avx2(q, scale, out) };
        return true;
    }
    let _ = (q, scale, out);
    false
}

/// Fill a block of `pair_rows` output rows `[r0, r0 + block/(du+di))`
/// with `users[r/n] ⊕ items[r%n]` using vector copies. Pure copies —
/// bitwise tier (NaN payloads would even survive; loads/stores never
/// quieten).
#[inline]
pub fn pair_fill(users: &[f32], items: &[f32], du: usize, di: usize, n_items: usize, r0: usize, block: &mut [f32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` implies `is_x86_feature_detected!("avx2")`.
        unsafe { x86::pair_fill_avx2(users, items, du, di, n_items, r0, block) };
        return true;
    }
    let _ = (users, items, du, di, n_items, r0, block);
    false
}

// ---------------------------------------------------------------------------
// AVX2 implementations (x86-64 only).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// # Safety
    ///
    /// Every function in this module requires AVX2; the safe
    /// wrappers above only call in after the cached CPUID check. Slice
    /// bounds for the raw loads/stores are argued at each site.
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_fixed(v: __m256) -> f32 {
        let mut lanes = [0.0f32; 8];
        // SAFETY: `lanes` is exactly 8 f32s; unaligned store is allowed.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), v) };
        // Fixed left-to-right combine so the result is input-deterministic.
        let mut t = 0.0f32;
        for l in lanes {
            t += l;
        }
        t
    }

    /// # Safety
    ///
    /// AVX2 only (see module contract); loads stay in bounds by
    /// the loop conditions.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sum_chunk_avx2(x: &[f32]) -> f32 {
        let n = x.len();
        let p = x.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 32 <= n {
            // SAFETY: i+32 <= n, so all four 8-wide loads are in bounds.
            unsafe {
                acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(p.add(i)));
                acc1 = _mm256_add_ps(acc1, _mm256_loadu_ps(p.add(i + 8)));
                acc2 = _mm256_add_ps(acc2, _mm256_loadu_ps(p.add(i + 16)));
                acc3 = _mm256_add_ps(acc3, _mm256_loadu_ps(p.add(i + 24)));
            }
            i += 32;
        }
        while i + 8 <= n {
            // SAFETY: i+8 <= n keeps the load in bounds.
            unsafe {
                acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(p.add(i)));
            }
            i += 8;
        }
        // Fixed combine tree: (0+1) + (2+3), then lanes left-to-right.
        let acc = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
        // SAFETY: AVX2 is enabled for this fn (module contract).
        let mut t = unsafe { hsum_fixed(acc) };
        // Scalar tail, left-to-right.
        for &v in &x[i..] {
            t += v;
        }
        t
    }

    /// `OP`: 0 = add, 1 = sub, 2 = mul (const so each instantiation
    /// compiles to a straight-line lanewise loop).
    ///
    /// # Safety
    ///
    /// AVX2 only (module contract); loads/stores bounded below.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn binop_avx2<const OP: u8>(a: &[f32], b: &[f32], out: &mut [f32]) {
        debug_assert_eq!(a.len(), out.len());
        debug_assert_eq!(b.len(), out.len());
        let n = out.len();
        let (pa, pb, po) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: i+8 <= n == len of all three slices.
            unsafe {
                let va = _mm256_loadu_ps(pa.add(i));
                let vb = _mm256_loadu_ps(pb.add(i));
                let v = match OP {
                    0 => _mm256_add_ps(va, vb),
                    1 => _mm256_sub_ps(va, vb),
                    _ => _mm256_mul_ps(va, vb),
                };
                _mm256_storeu_ps(po.add(i), v);
            }
            i += 8;
        }
        while i < n {
            out[i] = match OP {
                0 => a[i] + b[i],
                1 => a[i] - b[i],
                _ => a[i] * b[i],
            };
            i += 1;
        }
    }

    /// # Safety
    ///
    /// AVX2 only (module contract); the wrapper asserts
    /// `x.len() == y.len()`, and every load/store below is bounded by it.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_avx2(s: f32, x: &[f32], y: &mut [f32]) {
        let n = y.len();
        let (px, py) = (x.as_ptr(), y.as_mut_ptr());
        let vs = _mm256_set1_ps(s);
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: i+8 <= n == x.len() == y.len().
            unsafe {
                let v = _mm256_add_ps(_mm256_loadu_ps(py.add(i)), _mm256_mul_ps(vs, _mm256_loadu_ps(px.add(i))));
                _mm256_storeu_ps(py.add(i), v);
            }
            i += 8;
        }
        for (o, &v) in y[i..].iter_mut().zip(&x[i..]) {
            *o += s * v;
        }
    }

    /// # Safety
    ///
    /// AVX2 only (module contract); the wrapper asserts all four
    /// slices have `p.len()` elements, which bounds every load/store below.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn adadelta_avx2(
        p: &mut [f32],
        g: &[f32],
        sq: &mut [f32],
        acc: &mut [f32],
        h: crate::kernels::AdadeltaHp,
    ) {
        let n = p.len();
        let (rho, one_m_rho) = (_mm256_set1_ps(h.rho), _mm256_set1_ps(1.0 - h.rho));
        let (eps, lr) = (_mm256_set1_ps(h.eps), _mm256_set1_ps(h.lr));
        let (pp, pg, psq, pacc) = (p.as_mut_ptr(), g.as_ptr(), sq.as_mut_ptr(), acc.as_mut_ptr());
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: i+8 <= n, the length of all four slices.
            unsafe {
                let vg = _mm256_loadu_ps(pg.add(i));
                let vsq = _mm256_add_ps(
                    _mm256_mul_ps(rho, _mm256_loadu_ps(psq.add(i))),
                    _mm256_mul_ps(_mm256_mul_ps(one_m_rho, vg), vg),
                );
                let vacc = _mm256_loadu_ps(pacc.add(i));
                let ratio = _mm256_div_ps(
                    _mm256_sqrt_ps(_mm256_add_ps(vacc, eps)),
                    _mm256_sqrt_ps(_mm256_add_ps(vsq, eps)),
                );
                let delta = _mm256_mul_ps(ratio, vg);
                let vacc = _mm256_add_ps(
                    _mm256_mul_ps(rho, vacc),
                    _mm256_mul_ps(_mm256_mul_ps(one_m_rho, delta), delta),
                );
                let vp = _mm256_sub_ps(_mm256_loadu_ps(pp.add(i)), _mm256_mul_ps(lr, delta));
                _mm256_storeu_ps(psq.add(i), vsq);
                _mm256_storeu_ps(pacc.add(i), vacc);
                _mm256_storeu_ps(pp.add(i), vp);
            }
            i += 8;
        }
        for j in i..n {
            crate::kernels::adadelta_element(&mut p[j], g[j], &mut sq[j], &mut acc[j], h);
        }
    }

    /// # Safety
    ///
    /// AVX2 only (module contract); loads/stores bounded below.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale_avx2(x: &[f32], s: f32, out: &mut [f32]) {
        debug_assert_eq!(x.len(), out.len());
        let n = out.len();
        let (px, po) = (x.as_ptr(), out.as_mut_ptr());
        let vs = _mm256_set1_ps(s);
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: i+8 <= n == x.len() == out.len().
            unsafe {
                _mm256_storeu_ps(po.add(i), _mm256_mul_ps(_mm256_loadu_ps(px.add(i)), vs));
            }
            i += 8;
        }
        while i < n {
            out[i] = x[i] * s;
            i += 1;
        }
    }

    /// # Safety
    ///
    /// AVX2 only (module contract); loads/stores bounded below.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dequant_row_avx2(q: &[i8], scale: f32, out: &mut [f32]) {
        debug_assert_eq!(q.len(), out.len());
        let n = out.len();
        let (pq, po) = (q.as_ptr(), out.as_mut_ptr());
        let vs = _mm256_set1_ps(scale);
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: i+8 <= n, so the 8-byte load and 8-float store are
            // in bounds; `cvtepi8_epi32` sign-extends the low 8 bytes.
            unsafe {
                let bytes = _mm_loadl_epi64(pq.add(i) as *const __m128i);
                let ints = _mm256_cvtepi8_epi32(bytes);
                let vals = _mm256_cvtepi32_ps(ints);
                _mm256_storeu_ps(po.add(i), _mm256_mul_ps(vals, vs));
            }
            i += 8;
        }
        while i < n {
            out[i] = q[i] as f32 * scale;
            i += 1;
        }
    }

    /// # Safety
    ///
    /// AVX2 only (module contract); copy bounds argued below.
    #[target_feature(enable = "avx2")]
    unsafe fn copy_avx2(src: &[f32], dst: &mut [f32]) {
        debug_assert_eq!(src.len(), dst.len());
        let n = dst.len();
        let (ps, pd) = (src.as_ptr(), dst.as_mut_ptr());
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: i+8 <= n == src.len() == dst.len().
            unsafe {
                _mm256_storeu_ps(pd.add(i), _mm256_loadu_ps(ps.add(i)));
            }
            i += 8;
        }
        while i < n {
            dst[i] = src[i];
            i += 1;
        }
    }

    /// # Safety
    ///
    /// AVX2 only (module contract). The caller (kernels::pair_rows)
    /// guarantees `block` holds whole `du+di` rows starting at global pair
    /// row `r0`, with `users`/`items` large enough for every `r/n`, `r%n`
    /// in the block.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pair_fill_avx2(
        users: &[f32],
        items: &[f32],
        du: usize,
        di: usize,
        n_items: usize,
        r0: usize,
        block: &mut [f32],
    ) {
        let row = du + di;
        for (dr, orow) in block.chunks_mut(row).enumerate() {
            let r = r0 + dr;
            let (bi, ii) = (r / n_items, r % n_items);
            let (user_part, item_part) = orow.split_at_mut(du);
            // SAFETY: AVX2 enabled for this fn; slice lengths match.
            unsafe {
                copy_avx2(&users[bi * du..(bi + 1) * du], user_part);
                copy_avx2(&items[ii * di..(ii + 1) * di], item_part);
            }
        }
    }

    // -- vector exp (Cephes-style expf) -------------------------------------

    const EXP_HI: f32 = 88.376_26;
    const EXP_LO: f32 = -87.336_54;
    const LOG2EF: f32 = std::f32::consts::LOG2_E;
    /// ln 2, split hi/lo for an exact-ish argument reduction.
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    const P0: f32 = 1.987_569_2e-4;
    const P1: f32 = 1.398_2e-3;
    const P2: f32 = 8.333_452e-3;
    const P3: f32 = 4.166_58e-2;
    const P4: f32 = 0.166_666_66;
    const P5: f32 = 0.500_000_1;

    /// Lanewise `exp(x)` for finite inputs, ~2 ULP relative error:
    /// reduce `x = m·ln2 + r`, evaluate a degree-6 polynomial on `r`,
    /// rescale by `2^m` through the exponent bits.
    ///
    /// # Safety
    ///
    /// AVX2 only (module contract); no memory access.
    #[target_feature(enable = "avx2")]
    unsafe fn exp256(x: __m256) -> __m256 {
        let x = _mm256_min_ps(x, _mm256_set1_ps(EXP_HI));
        let x = _mm256_max_ps(x, _mm256_set1_ps(EXP_LO));
        let m = _mm256_floor_ps(_mm256_add_ps(
            _mm256_mul_ps(x, _mm256_set1_ps(LOG2EF)),
            _mm256_set1_ps(0.5),
        ));
        let r = _mm256_sub_ps(x, _mm256_mul_ps(m, _mm256_set1_ps(LN2_HI)));
        let r = _mm256_sub_ps(r, _mm256_mul_ps(m, _mm256_set1_ps(LN2_LO)));
        let r2 = _mm256_mul_ps(r, r);
        let mut y = _mm256_set1_ps(P0);
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P1));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P2));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P3));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P4));
        y = _mm256_add_ps(_mm256_mul_ps(y, r), _mm256_set1_ps(P5));
        y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(y, r2), r), _mm256_set1_ps(1.0));
        // 2^m via the exponent field (m is within [-127, 127] after the
        // clamp above, so the biased exponent cannot wrap).
        let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvtps_epi32(m),
            _mm256_set1_epi32(0x7f),
        )));
        _mm256_mul_ps(y, pow2)
    }

    /// # Safety
    ///
    /// AVX2 only (module contract); loads/stores bounded below.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn log_softmax_row_avx2(src: &[f32], out: &mut [f32]) {
        debug_assert_eq!(src.len(), out.len());
        let n = src.len();
        if n == 0 {
            return;
        }
        let ps = src.as_ptr();
        let po = out.as_mut_ptr();
        // Pass 1: row max (exact — max is order-independent for finite
        // inputs).
        let mut vmax = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: i+8 <= n keeps the load in bounds.
            unsafe {
                vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(ps.add(i)));
            }
            i += 8;
        }
        let mut lanes = [0.0f32; 8];
        // SAFETY: `lanes` is exactly 8 f32s.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), vmax) };
        let mut mx = f32::NEG_INFINITY;
        for l in lanes {
            mx = mx.max(l);
        }
        for &v in &src[i..] {
            mx = mx.max(v);
        }
        // Pass 2: Σ exp(x - max); vector lanes accumulate in parallel and
        // combine in a fixed order, the ragged tail uses scalar exp.
        let vmx = _mm256_set1_ps(mx);
        let mut vsum = _mm256_setzero_ps();
        let mut i2 = 0usize;
        while i2 + 8 <= n {
            // SAFETY: i2+8 <= n keeps the load in bounds; exp256 is pure.
            unsafe {
                let e = exp256(_mm256_sub_ps(_mm256_loadu_ps(ps.add(i2)), vmx));
                vsum = _mm256_add_ps(vsum, e);
            }
            i2 += 8;
        }
        // SAFETY: AVX2 enabled for this fn (module contract).
        let mut total = unsafe { hsum_fixed(vsum) };
        for &v in &src[i2..] {
            total += (v - mx).exp();
        }
        let lse = mx + total.ln();
        // Pass 3: out = x - lse, lanewise.
        let vlse = _mm256_set1_ps(lse);
        let mut i3 = 0usize;
        while i3 + 8 <= n {
            // SAFETY: i3+8 <= n == src.len() == out.len().
            unsafe {
                _mm256_storeu_ps(po.add(i3), _mm256_sub_ps(_mm256_loadu_ps(ps.add(i3)), vlse));
            }
            i3 += 8;
        }
        while i3 < n {
            out[i3] = src[i3] - lse;
            i3 += 1;
        }
    }

    // -- TextCNN pool scan ---------------------------------------------------

    /// # Safety
    ///
    /// AVX2 only (module contract). The wrapper asserts
    /// `pre.len() = t·f` and `best.len() = win.len() = f = bias.len()`;
    /// every vector load/store below covers filters `j..j+8` with
    /// `j + 8 ≤ f` of one window row.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn relu_max_pool_avx2(pre: &[f32], bias: &[f32], best: &mut [f32], win: &mut [u32]) {
        let f = bias.len();
        let t = pre.len() / f;
        let zero = _mm256_setzero_ps();
        let no_winner = _mm256_castsi256_ps(_mm256_set1_epi32(crate::kernels::NO_WINNER as i32));
        let mut j = 0usize;
        while j + 8 <= f {
            // SAFETY: j+8 <= f bounds the bias load, each window row's
            // load at wi·f + j (wi < t) and the two stores.
            unsafe {
                let vb = _mm256_loadu_ps(bias.as_ptr().add(j));
                let mut top = _mm256_set1_ps(f32::NEG_INFINITY);
                let mut at = zero;
                for wi in 0..t {
                    let z = _mm256_loadu_ps(pre.as_ptr().add(wi * f + j));
                    let v = _mm256_max_ps(_mm256_add_ps(z, vb), zero);
                    let won = _mm256_cmp_ps::<_CMP_GT_OQ>(v, top);
                    top = _mm256_blendv_ps(top, v, won);
                    at = _mm256_blendv_ps(at, _mm256_castsi256_ps(_mm256_set1_epi32(wi as i32)), won);
                }
                at = _mm256_blendv_ps(at, no_winner, _mm256_cmp_ps::<_CMP_LE_OQ>(top, zero));
                _mm256_storeu_ps(best.as_mut_ptr().add(j), top);
                _mm256_storeu_si256(win.as_mut_ptr().add(j) as *mut __m256i, _mm256_castps_si256(at));
            }
            j += 8;
        }
        for j in j..f {
            let (mut top, mut at) = (f32::NEG_INFINITY, 0u32);
            for (wi, row) in pre.chunks_exact(f).enumerate() {
                let v = (row[j] + bias[j]).max(0.0);
                if v > top {
                    (top, at) = (v, wi as u32);
                }
            }
            best[j] = top;
            win[j] = if top <= 0.0 { crate::kernels::NO_WINNER } else { at };
        }
    }

    // -- GEMM micro-kernel ---------------------------------------------------

    /// Lane mask enabling the first `rem` (1..=7) of 8 lanes — the
    /// column tail of the GEMM tiles. A lane is enabled when its sign bit
    /// is set, which `cmpgt(rem, lane_index)` produces.
    ///
    /// # Safety
    ///
    /// AVX2 only (module contract); no memory access.
    #[target_feature(enable = "avx2")]
    unsafe fn tail_mask(rem: usize) -> __m256i {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(rem as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    /// One `R`-row × `8·V`-column register tile: `R·V` accumulators held
    /// across the whole `p` loop, each `b` vector reused over the `R`
    /// rows and each row's broadcast over the `V` vectors. Per element
    /// the order is `p = 0..k`, multiply then add, from the incoming `c`.
    /// With `MASKED`, the last vector covers only the lanes `mask` enables.
    ///
    /// # Safety
    ///
    /// AVX2 only (module contract). The caller guarantees: each
    /// `a[r]` points at `k` readable floats; for every `p < k`,
    /// `b + p·n` starts `8·V` readable floats (the last vector's disabled
    /// lanes excepted); each `c[r]` starts `8·V` writable floats (same
    /// exception). No other memory is touched.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tile<const R: usize, const V: usize, const MASKED: bool>(
        a: [*const f32; R],
        b: *const f32,
        c: [*mut f32; R],
        k: usize,
        n: usize,
        mask: __m256i,
    ) {
        let masked = |v: usize| MASKED && v + 1 == V;
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        // SAFETY: every pointer below is inside the ranges the caller
        // guarantees (see the function's contract); masked loads and
        // stores touch only the enabled lanes.
        unsafe {
            for (row, c_row) in acc.iter_mut().zip(c) {
                for (v, slot) in row.iter_mut().enumerate() {
                    let at = c_row.add(8 * v);
                    *slot = if masked(v) { _mm256_maskload_ps(at, mask) } else { _mm256_loadu_ps(at) };
                }
            }
            for p in 0..k {
                let mut bv = [_mm256_setzero_ps(); V];
                for (v, slot) in bv.iter_mut().enumerate() {
                    let at = b.add(p * n + 8 * v);
                    *slot = if masked(v) { _mm256_maskload_ps(at, mask) } else { _mm256_loadu_ps(at) };
                }
                for (row, a_row) in acc.iter_mut().zip(a) {
                    let va = _mm256_set1_ps(*a_row.add(p));
                    for (slot, &vb) in row.iter_mut().zip(&bv) {
                        *slot = _mm256_add_ps(*slot, _mm256_mul_ps(va, vb));
                    }
                }
            }
            for (row, c_row) in acc.iter().zip(c) {
                for (v, &sum) in row.iter().enumerate() {
                    let at = c_row.add(8 * v);
                    if masked(v) {
                        _mm256_maskstore_ps(at, mask, sum);
                    } else {
                        _mm256_storeu_ps(at, sum);
                    }
                }
            }
        }
    }

    /// All `n` columns of an `R`-row group: 24-column tiles, then one tile
    /// of 1–3 vectors over the rest, its last vector masked when `n % 8`
    /// is not 0 (the rating head's 5-wide layer 2 is one masked vector).
    ///
    /// # Safety
    ///
    /// AVX2 only (module contract). The caller guarantees each
    /// `a[r]` points at `k` readable floats, `b` at `k·n` and each `c[r]`
    /// at `n` writable ones; every tile below stays in columns `< n`.
    /// With `k = 0`, `b` may point at an empty slice: its column offsets
    /// are formed with `wrapping_add` and never dereferenced.
    #[target_feature(enable = "avx2")]
    unsafe fn gemm_group<const R: usize>(a: [*const f32; R], b: *const f32, c: [*mut f32; R], k: usize, n: usize) {
        let at = |j: usize| (b.wrapping_add(j), c.map(|row| row.wrapping_add(j)));
        let full = _mm256_setzero_si256();
        let mut j = 0usize;
        // SAFETY: each tile covers columns j..j+24 <= n, or in the tail
        // j..n with the lanes past n masked off.
        unsafe {
            while j + 24 <= n {
                let (bj, cj) = at(j);
                tile::<R, 3, false>(a, bj, cj, k, n, full);
                j += 24;
            }
            let (rem, (bj, cj)) = (n - j, at(j));
            let mask = tail_mask(rem % 8);
            match (rem.div_ceil(8), rem % 8 == 0) {
                (0, _) => {}
                (1, true) => tile::<R, 1, false>(a, bj, cj, k, n, full),
                (1, false) => tile::<R, 1, true>(a, bj, cj, k, n, mask),
                (2, true) => tile::<R, 2, false>(a, bj, cj, k, n, full),
                (2, false) => tile::<R, 2, true>(a, bj, cj, k, n, mask),
                _ => tile::<R, 3, true>(a, bj, cj, k, n, mask),
            }
        }
    }

    /// `c[rows, n] += A · b`, row `i` of `A` at `a[i·lda..i·lda + k]`: four
    /// rows at a time, so each streamed `b` vector is reused fourfold, then
    /// the ragged rows one at a time.
    ///
    /// # Safety
    ///
    /// AVX2 only (module contract). The safe wrapper asserts
    /// `(rows − 1)·lda + k ≤ a.len()`, `b.len() ≥ k·n` and
    /// `c.len() ≥ rows·n`, which are exactly the ranges the groups read
    /// and write.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_rows_avx2(a: &[f32], lda: usize, b: &[f32], c: &mut [f32], rows: usize, k: usize, n: usize) {
        let (pa, pb, pc) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        let mut i = 0usize;
        // SAFETY: row i+r < rows starts at (i+r)·lda in `a` and (i+r)·n
        // in `c`, inside the asserted ranges.
        unsafe {
            while i + 4 <= rows {
                let ra: [*const f32; 4] = std::array::from_fn(|r| pa.wrapping_add((i + r) * lda));
                let rc: [*mut f32; 4] = std::array::from_fn(|r| pc.wrapping_add((i + r) * n));
                gemm_group::<4>(ra, pb, rc, k, n);
                i += 4;
            }
            while i < rows {
                gemm_group::<1>([pa.wrapping_add(i * lda)], pb, [pc.wrapping_add(i * n)], k, n);
                i += 1;
            }
        }
    }
}

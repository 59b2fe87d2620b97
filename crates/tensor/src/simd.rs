//! Runtime-dispatched AVX2 microkernels behind [`crate::kernels`].
//!
//! Dispatch policy: the mode is decided once per process from `OM_SIMD`
//! (`auto`, the default, enables the vector path when the CPU reports
//! AVX2; `off` forces the portable scalar path) and cached in an atomic.
//! Every public function here is *safe*: it returns `false`/`None` when
//! the vector path is unavailable so the caller runs its scalar twin, and
//! only enters the `unsafe` AVX2 code after the cached CPUID check.
//!
//! Two numeric tiers, enforced by `tests/parity.rs`:
//!
//! * **Bitwise** — kernels whose vector port performs exactly the scalar
//!   operation sequence per output element: the GEMM micro-tile
//!   (separate multiply and add, never FMA, `p` increasing), lanewise
//!   elementwise ops, `pair_rows` copies and int8 dequantisation. These
//!   register `ulp_tolerance` 0.
//! * **ULP-bounded** — kernels that reorder a reduction across the
//!   vector lanes ([`sum_chunk`]) or substitute a polynomial `exp`
//!   ([`log_softmax_row`]). Still deterministic for a fixed input (the
//!   lane shape is fixed), but not bit-equal to the serial twin; each
//!   registers a measured, margin-padded ULP tolerance.
//!
//! All kernels assume finite inputs (no NaN/±Inf), matching the
//! documented contract of the scalar kernels they shadow.

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

/// GEMM row block `c_block += a[row0..row0+rows] · b`, same contract as
/// the scalar `gemm_rows`: per output element the accumulation order is
/// `p = 0..k` with separate multiply and add (no FMA), starting from the
/// incoming `c` value, and a four-row group skips `p` only when all four
/// lanes are exactly zero. Column tails narrower than 8 run as masked
/// 8-lane tiles with the same per-lane sequence. Bitwise tier.
#[inline]
pub fn gemm_rows(a: &[f32], b: &[f32], c_block: &mut [f32], row0: usize, rows: usize, k: usize, n: usize) -> bool {
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` implies `is_x86_feature_detected!("avx2")`.
        unsafe { x86::gemm_rows_avx2(a, b, c_block, row0, rows, k, n) };
        return true;
    }
    let _ = (a, b, c_block, row0, rows, k, n);
    false
}

/// Lanewise `out[i] = a[i] + b[i]`. Bitwise tier.
#[inline]
pub fn add_chunk(a: &[f32], b: &[f32], out: &mut [f32]) -> bool {
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

    #[target_feature(enable = "avx2")]
    // SAFETY: every function in this module requires AVX2; the safe
    // wrappers above only call in after the cached CPUID check. Slice
    // bounds for the raw loads/stores are argued at each site.
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

    #[target_feature(enable = "avx2")]
    // SAFETY: AVX2 only (see module contract); loads stay in bounds by
    // the loop conditions.
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
    #[target_feature(enable = "avx2")]
    // SAFETY: AVX2 only (module contract); loads/stores bounded below.
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

    #[target_feature(enable = "avx2")]
    // SAFETY: AVX2 only (module contract); loads/stores bounded below.
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

    #[target_feature(enable = "avx2")]
    // SAFETY: AVX2 only (module contract); loads/stores bounded below.
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

    #[target_feature(enable = "avx2")]
    // SAFETY: AVX2 only (module contract); copy bounds argued below.
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

    #[target_feature(enable = "avx2")]
    // SAFETY: AVX2 only (module contract). The caller (kernels::pair_rows)
    // guarantees `block` holds whole `du+di` rows starting at global pair
    // row `r0`, with `users`/`items` large enough for every `r/n`, `r%n`
    // in the block.
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
    #[target_feature(enable = "avx2")]
    // SAFETY: AVX2 only (module contract); no memory access.
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

    #[target_feature(enable = "avx2")]
    // SAFETY: AVX2 only (module contract); loads/stores bounded below.
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

    // -- GEMM micro-tile -----------------------------------------------------

    /// Single output row `c_row += a_row · b`, vectorised over `j` with
    /// 16-wide then 8-wide tiles and a masked 8-lane tile for the last
    /// `n % 8` columns. Per element the order is `p = 0..k` with separate
    /// mul/add, identical to the scalar kernel; `a_row[p] == 0.0` skips
    /// exactly like the scalar kernel.
    #[target_feature(enable = "avx2")]
    // SAFETY: AVX2 only (module contract); all loads/stores bounded by
    // the tile loop conditions against `n` and `k`.
    unsafe fn gemm_one_row_avx2(a_row: &[f32], b: &[f32], c_row: &mut [f32], k: usize, n: usize) {
        let pb = b.as_ptr();
        let pc = c_row.as_mut_ptr();
        let mut jt = 0usize;
        while jt + 16 <= n {
            // SAFETY: jt+16 <= n bounds both c tiles; p*n+jt+16 <= k*n
            // bounds the b loads.
            unsafe {
                let mut acc0 = _mm256_loadu_ps(pc.add(jt));
                let mut acc1 = _mm256_loadu_ps(pc.add(jt + 8));
                for (p, &a_ip) in a_row.iter().enumerate() {
                    if a_ip == 0.0 {
                        continue;
                    }
                    let va = _mm256_set1_ps(a_ip);
                    let b0 = _mm256_loadu_ps(pb.add(p * n + jt));
                    let b1 = _mm256_loadu_ps(pb.add(p * n + jt + 8));
                    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, b0));
                    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(va, b1));
                }
                _mm256_storeu_ps(pc.add(jt), acc0);
                _mm256_storeu_ps(pc.add(jt + 8), acc1);
            }
            jt += 16;
        }
        if jt + 8 <= n {
            // SAFETY: jt+8 <= n bounds the c tile and each b load.
            unsafe {
                let mut acc0 = _mm256_loadu_ps(pc.add(jt));
                for (p, &a_ip) in a_row.iter().enumerate() {
                    if a_ip == 0.0 {
                        continue;
                    }
                    let va = _mm256_set1_ps(a_ip);
                    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, _mm256_loadu_ps(pb.add(p * n + jt))));
                }
                _mm256_storeu_ps(pc.add(jt), acc0);
            }
            jt += 8;
        }
        if jt < n {
            // SAFETY: the mask enables exactly the n-jt < 8 in-bounds
            // columns, so masked loads/stores touch only c_row[jt..n] and
            // b[p*n+jt..p*n+n]; disabled lanes are neither read nor written.
            unsafe {
                let mask = tail_mask(n - jt);
                let mut acc0 = _mm256_maskload_ps(pc.add(jt), mask);
                for (p, &a_ip) in a_row.iter().enumerate() {
                    if a_ip == 0.0 {
                        continue;
                    }
                    let va = _mm256_set1_ps(a_ip);
                    let b0 = _mm256_maskload_ps(pb.add(p * n + jt), mask);
                    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, b0));
                }
                _mm256_maskstore_ps(pc.add(jt), mask, acc0);
            }
        }
        let _ = k;
    }

    /// Lane mask enabling the first `rem` (1..=7) of 8 lanes — the
    /// column tail of the GEMM tiles. A lane is enabled when its sign bit
    /// is set, which `cmpgt(rem, lane_index)` produces.
    #[target_feature(enable = "avx2")]
    // SAFETY: AVX2 only (module contract); no memory access.
    unsafe fn tail_mask(rem: usize) -> __m256i {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(rem as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    /// Four-row micro-tile: 16 output columns held in 8 accumulators
    /// across the full `p` loop, `b` streamed once per tile; the last
    /// `n % 8` columns run as one masked 8-lane tile, so narrow products
    /// (the rating head's 5-wide output layer) stay off the scalar path.
    /// The skip condition (all four `a` lanes exactly zero) and the
    /// per-element order match the scalar four-row kernel bit for bit.
    #[target_feature(enable = "avx2")]
    // SAFETY: AVX2 only (module contract); bounds argued per tile below.
    pub(super) unsafe fn gemm_rows_avx2(
        a: &[f32],
        b: &[f32],
        c_block: &mut [f32],
        row0: usize,
        rows: usize,
        k: usize,
        n: usize,
    ) {
        let pb = b.as_ptr();
        let mut i = 0usize;
        while i + 4 <= rows {
            let (r0, r1, r2, r3) = (row0 + i, row0 + i + 1, row0 + i + 2, row0 + i + 3);
            let a0_row = &a[r0 * k..(r0 + 1) * k];
            let a1_row = &a[r1 * k..(r1 + 1) * k];
            let a2_row = &a[r2 * k..(r2 + 1) * k];
            let a3_row = &a[r3 * k..(r3 + 1) * k];
            let (c01, c23) = c_block[i * n..(i + 4) * n].split_at_mut(2 * n);
            let (c0, c1) = c01.split_at_mut(n);
            let (c2, c3) = c23.split_at_mut(n);
            let (pc0, pc1, pc2, pc3) = (c0.as_mut_ptr(), c1.as_mut_ptr(), c2.as_mut_ptr(), c3.as_mut_ptr());
            let mut jt = 0usize;
            while jt + 16 <= n {
                // SAFETY: jt+16 <= n bounds every c tile; p*n+jt+16 <=
                // k*n bounds the b loads.
                unsafe {
                    let mut acc00 = _mm256_loadu_ps(pc0.add(jt));
                    let mut acc01 = _mm256_loadu_ps(pc0.add(jt + 8));
                    let mut acc10 = _mm256_loadu_ps(pc1.add(jt));
                    let mut acc11 = _mm256_loadu_ps(pc1.add(jt + 8));
                    let mut acc20 = _mm256_loadu_ps(pc2.add(jt));
                    let mut acc21 = _mm256_loadu_ps(pc2.add(jt + 8));
                    let mut acc30 = _mm256_loadu_ps(pc3.add(jt));
                    let mut acc31 = _mm256_loadu_ps(pc3.add(jt + 8));
                    for p in 0..k {
                        let a0 = a0_row[p];
                        let a1 = a1_row[p];
                        let a2 = a2_row[p];
                        let a3 = a3_row[p];
                        if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                            continue;
                        }
                        let b0 = _mm256_loadu_ps(pb.add(p * n + jt));
                        let b1 = _mm256_loadu_ps(pb.add(p * n + jt + 8));
                        let va0 = _mm256_set1_ps(a0);
                        acc00 = _mm256_add_ps(acc00, _mm256_mul_ps(va0, b0));
                        acc01 = _mm256_add_ps(acc01, _mm256_mul_ps(va0, b1));
                        let va1 = _mm256_set1_ps(a1);
                        acc10 = _mm256_add_ps(acc10, _mm256_mul_ps(va1, b0));
                        acc11 = _mm256_add_ps(acc11, _mm256_mul_ps(va1, b1));
                        let va2 = _mm256_set1_ps(a2);
                        acc20 = _mm256_add_ps(acc20, _mm256_mul_ps(va2, b0));
                        acc21 = _mm256_add_ps(acc21, _mm256_mul_ps(va2, b1));
                        let va3 = _mm256_set1_ps(a3);
                        acc30 = _mm256_add_ps(acc30, _mm256_mul_ps(va3, b0));
                        acc31 = _mm256_add_ps(acc31, _mm256_mul_ps(va3, b1));
                    }
                    _mm256_storeu_ps(pc0.add(jt), acc00);
                    _mm256_storeu_ps(pc0.add(jt + 8), acc01);
                    _mm256_storeu_ps(pc1.add(jt), acc10);
                    _mm256_storeu_ps(pc1.add(jt + 8), acc11);
                    _mm256_storeu_ps(pc2.add(jt), acc20);
                    _mm256_storeu_ps(pc2.add(jt + 8), acc21);
                    _mm256_storeu_ps(pc3.add(jt), acc30);
                    _mm256_storeu_ps(pc3.add(jt + 8), acc31);
                }
                jt += 16;
            }
            if jt + 8 <= n {
                // SAFETY: jt+8 <= n bounds every c tile and b load.
                unsafe {
                    let mut acc00 = _mm256_loadu_ps(pc0.add(jt));
                    let mut acc10 = _mm256_loadu_ps(pc1.add(jt));
                    let mut acc20 = _mm256_loadu_ps(pc2.add(jt));
                    let mut acc30 = _mm256_loadu_ps(pc3.add(jt));
                    for p in 0..k {
                        let a0 = a0_row[p];
                        let a1 = a1_row[p];
                        let a2 = a2_row[p];
                        let a3 = a3_row[p];
                        if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                            continue;
                        }
                        let b0 = _mm256_loadu_ps(pb.add(p * n + jt));
                        acc00 = _mm256_add_ps(acc00, _mm256_mul_ps(_mm256_set1_ps(a0), b0));
                        acc10 = _mm256_add_ps(acc10, _mm256_mul_ps(_mm256_set1_ps(a1), b0));
                        acc20 = _mm256_add_ps(acc20, _mm256_mul_ps(_mm256_set1_ps(a2), b0));
                        acc30 = _mm256_add_ps(acc30, _mm256_mul_ps(_mm256_set1_ps(a3), b0));
                    }
                    _mm256_storeu_ps(pc0.add(jt), acc00);
                    _mm256_storeu_ps(pc1.add(jt), acc10);
                    _mm256_storeu_ps(pc2.add(jt), acc20);
                    _mm256_storeu_ps(pc3.add(jt), acc30);
                }
                jt += 8;
            }
            if jt < n {
                // SAFETY: the mask enables exactly the n-jt < 8 in-bounds
                // columns of every c tile and b row; disabled lanes are
                // neither read nor written.
                unsafe {
                    let mask = tail_mask(n - jt);
                    let mut acc00 = _mm256_maskload_ps(pc0.add(jt), mask);
                    let mut acc10 = _mm256_maskload_ps(pc1.add(jt), mask);
                    let mut acc20 = _mm256_maskload_ps(pc2.add(jt), mask);
                    let mut acc30 = _mm256_maskload_ps(pc3.add(jt), mask);
                    for p in 0..k {
                        let a0 = a0_row[p];
                        let a1 = a1_row[p];
                        let a2 = a2_row[p];
                        let a3 = a3_row[p];
                        if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                            continue;
                        }
                        let b0 = _mm256_maskload_ps(pb.add(p * n + jt), mask);
                        acc00 = _mm256_add_ps(acc00, _mm256_mul_ps(_mm256_set1_ps(a0), b0));
                        acc10 = _mm256_add_ps(acc10, _mm256_mul_ps(_mm256_set1_ps(a1), b0));
                        acc20 = _mm256_add_ps(acc20, _mm256_mul_ps(_mm256_set1_ps(a2), b0));
                        acc30 = _mm256_add_ps(acc30, _mm256_mul_ps(_mm256_set1_ps(a3), b0));
                    }
                    _mm256_maskstore_ps(pc0.add(jt), mask, acc00);
                    _mm256_maskstore_ps(pc1.add(jt), mask, acc10);
                    _mm256_maskstore_ps(pc2.add(jt), mask, acc20);
                    _mm256_maskstore_ps(pc3.add(jt), mask, acc30);
                }
            }
            i += 4;
        }
        // Ragged row tail.
        while i < rows {
            let r = row0 + i;
            // SAFETY: AVX2 enabled for this fn (module contract).
            unsafe {
                gemm_one_row_avx2(&a[r * k..(r + 1) * k], b, &mut c_block[i * n..(i + 1) * n], k, n);
            }
            i += 1;
        }
    }
}

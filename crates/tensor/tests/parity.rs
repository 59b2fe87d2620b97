//! Serial/parallel/SIMD parity. Two contracts are enforced here:
//!
//! * **Thread invariance (always bitwise).** Every kernel must produce
//!   bit-identical output at any `set_threads` value — f32 addition is not
//!   associative, so this only holds because the kernels fix their
//!   accumulation order independently of the thread count (see
//!   `om_tensor::kernels`).
//! * **Serial-twin parity (tiered).** The dispatched kernels are compared
//!   against their always-scalar `*_serial` twins. Under scalar dispatch
//!   (`OM_SIMD=off`, or no AVX2) every comparison is bitwise. Under AVX2
//!   dispatch, kernels whose vector port preserves the scalar operation
//!   sequence per element (gemm, the TextCNN tower and its backward, the
//!   table-gradient scatter, Adadelta, elementwise, pair_rows, dequant)
//!   stay bitwise — their registered `ulp_tolerance`
//!   is 0 — while reordered reductions (`sum`) and the polynomial-exp
//!   softmax row match within a measured, margin-padded ULP tolerance
//!   ([`ULP_TOLERANCES`]). The effective tolerance is selected by
//!   [`tier_tolerance`].
//!
//! Shapes deliberately include 1×1, 1×N, tall-skinny, wide-short, and
//! odd/prime sizes to hit every ragged-tail branch of the blocked GEMM,
//! the 24-column tile and its 1–3-vector (masked) remainders in the AVX2
//! micro-kernel, rows read at a stride, zero steps the oracle skips, and
//! the chunked reductions. The `should_panic` cases hold every safe SIMD
//! entry point to its slice bounds.

use std::sync::{Mutex, MutexGuard, OnceLock};

use om_tensor::{init, kernels, runtime, seeded_rng, Tensor};

fn thread_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Evaluate `f` under every thread setting and assert all results are
/// bit-identical to the first (serial) one.
fn assert_parity(name: &str, f: impl Fn() -> Vec<f32>) {
    let _guard = thread_lock();
    let mut reference: Option<Vec<u32>> = None;
    for threads in [1usize, 2, 3, 0] {
        let prev = runtime::set_threads(threads);
        let out = bits(&f());
        runtime::set_threads(prev);
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(
                r, &out,
                "{name}: output at set_threads({threads}) differs bitwise from serial"
            ),
        }
    }
}

/// The shape battery every parity test runs over: (m, k, n).
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),       // degenerate
    (1, 1, 64),      // 1×N row
    (1, 97, 1),      // inner-product only
    (257, 3, 2),     // tall-skinny
    (2, 3, 257),     // wide-short
    (5, 7, 3),       // all odd
    (61, 53, 47),    // all prime, below/above row-block boundaries
    (130, 97, 64),   // crosses the 4-row micro-kernel's ragged tail
];

#[test]
fn gemm_parallel_matches_serial_reference_bitwise() {
    for &(m, k, n) in SHAPES {
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 37) % 101) as f32 * 0.173 - 8.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 53) % 89) as f32 * 0.211 - 9.0).collect();
        let mut serial = vec![0.0f32; m * n];
        kernels::gemm_serial(&a, &b, &mut serial, m, k, n);
        assert_parity(&format!("gemm {m}x{k}x{n}"), || {
            let mut c = vec![0.0f32; m * n];
            kernels::gemm(&a, &b, &mut c, m, k, n);
            c
        });
        // The parallel entry point must also agree with the naive serial
        // reference, not just with itself.
        let mut c = vec![0.0f32; m * n];
        kernels::gemm(&a, &b, &mut c, m, k, n);
        assert_eq!(bits(&serial), bits(&c), "gemm {m}x{k}x{n} vs serial reference");
    }
}

#[test]
fn gemm_with_zero_rows_matches_serial_bitwise() {
    // The oracle skips a zero `a`; the blocked kernels add its `0·b`,
    // which must not change any bit of a sum that starts at `+0.0`.
    for &(m, k, n) in SHAPES {
        let mut a: Vec<f32> = (0..m * k).map(|i| (i % 7) as f32 - 3.0).collect();
        for v in a.iter_mut().step_by(3) {
            *v = 0.0;
        }
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 29) % 31) as f32 * 0.37 - 5.0).collect();
        let mut serial = vec![0.0f32; m * n];
        kernels::gemm_serial(&a, &b, &mut serial, m, k, n);
        let mut c = vec![0.0f32; m * n];
        kernels::gemm(&a, &b, &mut c, m, k, n);
        assert_eq!(bits(&serial), bits(&c), "sparse gemm {m}x{k}x{n}");
    }
    // One call, five four-row groups and two ragged rows: group 0 has no
    // zero at all; group 1 is all zero at p = 5 and group 2 at p = 73,
    // steps the oracle skips in all four rows; group 3 has exactly one
    // all-zero row and no all-zero p; group 4 is zero at p = 40 in three
    // rows only. Ragged row 20 is all zero, row 21 zero at every even p.
    let (m, k, n) = (22usize, 75usize, 49usize);
    let mut a: Vec<f32> = (0..m * k).map(|i| ((i * 43) % 97) as f32 * 0.19 - 9.0).collect();
    for v in a.iter_mut().filter(|v| **v == 0.0) {
        *v = 0.5;
    }
    for r in 4..8 {
        a[r * k + 5] = 0.0;
    }
    for r in 8..12 {
        a[r * k + 73] = 0.0;
    }
    a[13 * k..14 * k].fill(0.0);
    for r in 16..19 {
        a[r * k + 40] = 0.0;
    }
    a[20 * k..21 * k].fill(0.0);
    for p in (0..k).step_by(2) {
        a[21 * k + p] = 0.0;
    }
    let b: Vec<f32> = (0..k * n).map(|i| ((i * 29) % 83) as f32 * 0.23 - 9.5).collect();
    let mut serial = vec![0.0f32; m * n];
    kernels::gemm_serial(&a, &b, &mut serial, m, k, n);
    assert_parity("gemm mixed zero groups", || {
        let mut c = vec![0.0f32; m * n];
        kernels::gemm(&a, &b, &mut c, m, k, n);
        c
    });
    let mut c = vec![0.0f32; m * n];
    kernels::gemm(&a, &b, &mut c, m, k, n);
    assert_eq!(bits(&serial), bits(&c), "gemm mixed zero groups vs serial reference");
}

/// Column counts whose `n % 8` covers 1..=7 (plus 0), below one 8-lane
/// tile, between the 8- and 16-wide tiles and past them, so every width
/// of the AVX2 kernels' masked column tail runs in both the four-row
/// tile and the single-row tail. 5 is the rating head's output layer.
const TAIL_NS: &[usize] = &[1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 21, 22, 36, 39];

/// Column counts around the 24-wide register tile: one and two whole
/// tiles, each ±1 (a 1-, 2- or 3-vector remainder, masked or not), and
/// the model's 72- and 96-wide layers.
const TILE_NS: &[usize] = &[23, 24, 25, 47, 48, 49, 72, 96];

/// Depths: none (`b` is empty, so no column tile may form an offset into
/// it), below one 8-lane vector, exactly one, one plus a tail, and the
/// conv window widths.
const TILE_KS: &[usize] = &[0, 1, 7, 8, 9, 72, 120];

#[test]
fn gemm_column_tails_match_serial_reference_bitwise() {
    for &n in TAIL_NS {
        // m = 7 runs one four-row tile then three single rows; k = 96 is
        // the default rating head's width. Every third `a` entry is zero,
        // a step the oracle skips, inside the masked tile too.
        for &(m, k) in &[(7usize, 96usize), (130, 11)] {
            let mut a: Vec<f32> = (0..m * k).map(|i| ((i * 37) % 101) as f32 * 0.173 - 8.0).collect();
            for v in a.iter_mut().step_by(3) {
                *v = 0.0;
            }
            let b: Vec<f32> = (0..k * n).map(|i| ((i * 53) % 89) as f32 * 0.211 - 9.0).collect();
            let mut serial = vec![0.0f32; m * n];
            kernels::gemm_serial(&a, &b, &mut serial, m, k, n);
            assert_parity(&format!("gemm tail {m}x{k}x{n}"), || {
                let mut c = vec![0.0f32; m * n];
                kernels::gemm(&a, &b, &mut c, m, k, n);
                c
            });
            let mut c = vec![0.0f32; m * n];
            kernels::gemm(&a, &b, &mut c, m, k, n);
            assert_eq!(bits(&serial), bits(&c), "gemm tail {m}x{k}x{n} vs serial reference");
        }
    }
    // The 24-wide tile and its remainders at every depth; m = 7 is one
    // four-row group and three single rows. Every fifth `a` entry is zero.
    for &n in TILE_NS {
        for &k in TILE_KS {
            let m = 7;
            let mut a: Vec<f32> = (0..m * k).map(|i| ((i * 37) % 101) as f32 * 0.173 - 8.0).collect();
            for v in a.iter_mut().step_by(5) {
                *v = 0.0;
            }
            let b: Vec<f32> = (0..k * n).map(|i| ((i * 53) % 89) as f32 * 0.211 - 9.0).collect();
            let mut serial = vec![0.0f32; m * n];
            kernels::gemm_serial(&a, &b, &mut serial, m, k, n);
            assert_parity(&format!("gemm tile {m}x{k}x{n}"), || {
                let mut c = vec![0.0f32; m * n];
                kernels::gemm(&a, &b, &mut c, m, k, n);
                c
            });
            let mut c = vec![0.0f32; m * n];
            kernels::gemm(&a, &b, &mut c, m, k, n);
            assert_eq!(bits(&serial), bits(&c), "gemm tile {m}x{k}x{n} vs serial reference");
        }
    }
}

#[test]
fn simd_gemm_rows_reads_strided_rows_like_gemm_serial_on_the_gathered_rows() {
    // The vector kernel's row stride, which the fused conv forward uses:
    // overlapping rows (`lda = dim < k`, a document's windows read in
    // place), disjoint rows with a gap (`lda > k`) and the dense case,
    // with zero tokens the oracle skips, and k = 0 (empty `a` and `b`,
    // so no column tile may form an offset into `b`). Under scalar
    // dispatch the entry declines and leaves `c` alone; `conv_pool.rs`
    // covers the scalar kernel's strided reads end to end.
    for &(m, lda, k, n) in &[
        (46usize, 24usize, 72usize, 24usize),
        (45, 24, 96, 24),
        (7, 3, 9, 25),
        (200, 8, 40, 24),
        (13, 11, 8, 5),
        (9, 6, 6, 49),
        (1, 0, 0, 48),
        (5, 0, 0, 49),
    ] {
        let len = (m - 1) * lda + k;
        let mut a: Vec<f32> = (0..len).map(|i| ((i * 37) % 101) as f32 * 0.173 - 8.0).collect();
        for tok in a.chunks_mut(lda.max(1)).step_by(4) {
            tok.fill(0.0);
        }
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 53) % 89) as f32 * 0.211 - 9.0).collect();
        let gathered: Vec<f32> = (0..m).flat_map(|i| a[i * lda..i * lda + k].to_vec()).collect();
        let mut want = vec![0.0f32; m * n];
        kernels::gemm_serial(&gathered, &b, &mut want, m, k, n);
        let mut c = vec![0.0f32; m * n];
        if om_tensor::simd::gemm_rows(&a, lda, &b, &mut c, m, k, n) {
            assert_eq!(bits(&want), bits(&c), "simd gemm_rows {m}x{k}x{n} lda {lda} vs gathered serial");
        } else {
            assert!(!om_tensor::simd::active(), "gemm_rows declined under AVX2 dispatch");
            assert!(c.iter().all(|v| v.to_bits() == 0), "gemm_rows wrote c while declining");
        }
    }
}

#[test]
fn gemm_keeps_serial_bits_when_c_holds_no_negative_zero() {
    // The counterexample shape: row 0 of `a` all zero, rows 1–3 not, so
    // the blocked kernels add row 0's `0·b` where the oracle skips it.
    // From `+0.0` (every caller's seed) that is a no-op and row 0 stays
    // `+0.0`; a `-0.0` seed is outside the contract (next test).
    let (m, k, n) = (4usize, 3usize, 8usize);
    let mut a: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.5 - 2.25).collect();
    a[..k].fill(0.0);
    let b: Vec<f32> = (0..k * n).map(|i| ((i * 7) % 5) as f32 - 2.0).collect();
    for seed in [0.0f32, 1.5] {
        let mut want = vec![seed; m * n];
        kernels::gemm_serial(&a, &b, &mut want, m, k, n);
        let mut c = vec![seed; m * n];
        kernels::gemm(&a, &b, &mut c, m, k, n);
        assert_eq!(bits(&want), bits(&c), "gemm from c = {seed}");
        assert!(c[..n].iter().all(|v| v.to_bits() == seed.to_bits()), "row 0 keeps its seed {seed}");
    }
}

/// `-0.0` in `c` is outside `gemm`'s contract: the blocked kernels may
/// return `+0.0` where `gemm_serial` keeps `-0.0`. Debug builds assert it.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "c holds -0.0")]
fn gemm_rejects_negative_zero_in_c() {
    let (m, k, n) = (4usize, 3usize, 8usize);
    let mut a = vec![1.0f32; m * k];
    a[..k].fill(0.0);
    let mut c = vec![-0.0f32; m * n];
    kernels::gemm(&a, &[1.0; 24], &mut c, m, k, n);
}

/// `-0.0` in a table gradient is outside the touched-rows scatter's
/// contract: the dense scatter turns it into `+0.0` in a row no id names,
/// the touched-rows one leaves it. Debug builds assert it.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "scatter_add_rows: the table gradient holds -0.0")]
fn scatter_add_rows_rejects_negative_zero_in_grad() {
    let mut grad = vec![0.0f32; 3 * 2];
    grad[5] = -0.0;
    kernels::scatter_add_rows(&[0], &[1.0, 2.0], 2, &mut grad);
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "text_cnn_backward: the table gradient holds -0.0")]
fn text_cnn_backward_rejects_negative_zero_in_table_grad() {
    let s = kernels::TowerShape { docs: 1, len: 3, dim: 2, widths: vec![2], filters: 1 };
    let (table, w, bias) = ([1.0f32, 0.5, -0.25, 2.0, 0.0, 0.0], [1.0f32, 0.5, 0.25, 1.0], [0.1f32]);
    let ids = [0usize, 1, 0];
    let (_, winners) = kernels::text_cnn(&table, &ids, &[&w[..]], &[&bias[..]], &s);
    let mut dt = vec![0.0f32; table.len()];
    dt[5] = -0.0;
    let grads = kernels::TowerGrads { table: Some(&mut dt), weights: vec![None], biases: vec![None] };
    kernels::text_cnn_backward(&table, &[&w[..]], &ids, &winners, &[1.0], &s, grads);
}

// ---------------------------------------------------------------------------
// Bounds at the safe entry points. Each length an `unsafe` body relies on
// is asserted before the dispatch check, so every case below panics under
// both `OM_SIMD` legs instead of reading or writing past a slice.
// ---------------------------------------------------------------------------

#[test]
#[should_panic(expected = "b is not [k, n]")]
fn gemm_rejects_a_short_b() {
    let big = [1.0f32; 64];
    let mut c = [0.0f32; 16];
    kernels::gemm(&big[..16], &big[..48], &mut c, 4, 4, 16);
}

#[test]
#[should_panic(expected = "a is not [m, k]")]
fn gemm_rejects_a_short_a() {
    let big = [1.0f32; 64];
    let mut c = [0.0f32; 16];
    kernels::gemm(&big[..15], &big[..64], &mut c, 4, 4, 16);
}

#[test]
#[should_panic(expected = "gemm_rows: a is too short")]
fn simd_gemm_rows_rejects_a_short_a() {
    let mut c = [0.0f32; 16];
    om_tensor::simd::gemm_rows(&[1.0; 15], 4, &[1.0; 16], &mut c, 4, 4, 4);
}

#[test]
#[should_panic(expected = "gemm_rows: b is shorter")]
fn simd_gemm_rows_rejects_a_short_b() {
    let mut c = [0.0f32; 16];
    om_tensor::simd::gemm_rows(&[1.0; 16], 4, &[1.0; 15], &mut c, 4, 4, 4);
}

#[test]
#[should_panic(expected = "gemm_rows: c_block is shorter")]
fn simd_gemm_rows_rejects_a_short_c() {
    let mut c = [0.0f32; 15];
    om_tensor::simd::gemm_rows(&[1.0; 16], 4, &[1.0; 16], &mut c, 4, 4, 4);
}

#[test]
#[should_panic(expected = "add_chunk: length mismatch")]
fn simd_add_chunk_rejects_short_inputs() {
    let x = [1.0f32; 16];
    let mut out = [0.0f32; 16];
    om_tensor::simd::add_chunk(&x[..8], &x[..8], &mut out);
}

#[test]
#[should_panic(expected = "sub_chunk: length mismatch")]
fn simd_sub_chunk_rejects_short_inputs() {
    let x = [1.0f32; 16];
    let mut out = [0.0f32; 16];
    om_tensor::simd::sub_chunk(&x, &x[..8], &mut out);
}

#[test]
#[should_panic(expected = "mul_chunk: length mismatch")]
fn simd_mul_chunk_rejects_short_inputs() {
    let x = [1.0f32; 16];
    let mut out = [0.0f32; 16];
    om_tensor::simd::mul_chunk(&x[..8], &x, &mut out);
}

#[test]
#[should_panic(expected = "scale_chunk: length mismatch")]
fn simd_scale_chunk_rejects_a_short_input() {
    let x = [1.0f32; 8];
    let mut out = [0.0f32; 16];
    om_tensor::simd::scale_chunk(&x, 2.0, &mut out);
}

#[test]
#[should_panic(expected = "dequant_row: length mismatch")]
fn simd_dequant_row_rejects_a_short_row() {
    let q = [1i8; 8];
    let mut out = [0.0f32; 16];
    om_tensor::simd::dequant_row(&q, 0.5, &mut out);
}

#[test]
#[should_panic(expected = "log_softmax_row: length mismatch")]
fn simd_log_softmax_row_rejects_a_short_out() {
    let src = [1.0f32; 16];
    let mut out = [0.0f32; 8];
    om_tensor::simd::log_softmax_row(&src, &mut out);
}

#[test]
#[should_panic(expected = "relu_max_pool: outputs are not [filters]")]
fn simd_relu_max_pool_rejects_short_outputs() {
    let (mut best, mut win) = ([0.0f32; 7], [0u32; 8]);
    om_tensor::simd::relu_max_pool(&[1.0; 24], &[0.0; 8], &mut best, &mut win);
}

#[test]
#[should_panic(expected = "axpy: length mismatch")]
fn simd_axpy_rejects_a_short_x() {
    om_tensor::simd::axpy(2.0, &[1.0; 15], &mut [0.0; 16]);
}

#[test]
#[should_panic(expected = "adadelta: length mismatch")]
fn simd_adadelta_rejects_a_short_state() {
    let h = kernels::AdadeltaHp { lr: 0.02, rho: 0.95, eps: 1e-6 };
    om_tensor::simd::adadelta(&mut [0.0; 16], &[1.0; 16], &mut [0.0; 16], &mut [0.0; 15], h);
}

#[test]
fn gemm_resumes_a_split_sum_bitwise() {
    // The resume contract the serving head relies on: `gemm` accumulates
    // into a non-zero `c` in `p` order, so splitting `k` at any point —
    // first `a[:, ..s]·b[..s]`, then `a[:, s..]·b[s..]` into the same `c`
    // — is bitwise the one-call product. Also checked directly: a
    // non-zero seed of `c` matches the serial twin seeded the same way.
    for &(m, k, n) in &[(9usize, 96usize, 96usize), (8, 36, 36), (5, 7, 5), (130, 97, 13), (1, 3, 2)] {
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 41) % 113) as f32 * 0.073 - 4.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 59) % 127) as f32 * 0.057 - 3.5).collect();
        let seed: Vec<f32> = (0..m * n).map(|i| ((i * 17) % 61) as f32 * 0.31 - 9.0).collect();
        let mut want = seed.clone();
        kernels::gemm_serial(&a, &b, &mut want, m, k, n);
        assert_parity(&format!("gemm into seeded c {m}x{k}x{n}"), || {
            let mut c = seed.clone();
            kernels::gemm(&a, &b, &mut c, m, k, n);
            c
        });
        let mut c = seed.clone();
        kernels::gemm(&a, &b, &mut c, m, k, n);
        assert_eq!(bits(&want), bits(&c), "gemm into seeded c {m}x{k}x{n}");

        let mut whole = vec![0.0f32; m * n];
        kernels::gemm(&a, &b, &mut whole, m, k, n);
        for s in [0, 1, k / 3, k - 1, k] {
            let (a_lo, a_hi): (Vec<f32>, Vec<f32>) = (
                a.chunks_exact(k).flat_map(|r| r[..s].to_vec()).collect(),
                a.chunks_exact(k).flat_map(|r| r[s..].to_vec()).collect(),
            );
            let mut c = vec![0.0f32; m * n];
            kernels::gemm(&a_lo, &b[..s * n], &mut c, m, s, n);
            kernels::gemm(&a_hi, &b[s * n..], &mut c, m, k - s, n);
            assert_eq!(bits(&whole), bits(&c), "gemm split at {s} of {m}x{k}x{n}");
        }
    }
}

#[test]
fn full_reduction_is_thread_count_invariant_bitwise() {
    // Lengths straddling the fixed reduction chunk, including primes.
    for len in [1usize, 2, 4095, 4096, 4097, 10_007, 3 * 4096 + 1] {
        let x: Vec<f32> = (0..len).map(|i| ((i * 13) % 97) as f32 * 0.0137 - 0.61).collect();
        let serial = kernels::sum_serial(&x);
        assert_parity(&format!("sum len {len}"), || vec![kernels::sum(&x)]);
        // Vs the scalar twin: bitwise under scalar dispatch, ULP-bounded
        // under AVX2 (the lane-parallel chunk sum reorders additions).
        assert_within_ulp(
            &format!("sum len {len}"),
            tier_tolerance("sum"),
            &[kernels::sum(&x)],
            &[serial],
        );
    }
}

#[test]
fn elementwise_kernels_match_serial_references_bitwise() {
    // Lengths straddle the map-parallelisation grain so both the inline
    // and the pooled code paths are exercised.
    for len in [1usize, 257, 16 * 1024, 3 * 16 * 1024 + 17] {
        let a: Vec<f32> = (0..len).map(|i| ((i * 41) % 113) as f32 * 0.073 - 4.0).collect();
        let b: Vec<f32> = (0..len).map(|i| ((i * 59) % 127) as f32 * 0.057 - 3.5).collect();
        let map_ref = kernels::map_serial(&a, |x| x.exp() - x);
        assert_parity(&format!("map len {len}"), || kernels::map(&a, |x| x.exp() - x));
        assert_eq!(bits(&map_ref), bits(&kernels::map(&a, |x| x.exp() - x)));
        let zip_ref = kernels::zip_map_serial(&a, &b, |x, y| x * y + x);
        assert_parity(&format!("zip_map len {len}"), || {
            kernels::zip_map(&a, &b, |x, y| x * y + x)
        });
        assert_eq!(bits(&zip_ref), bits(&kernels::zip_map(&a, &b, |x, y| x * y + x)));
    }
}

#[test]
fn row_broadcast_ops_match_flat_index_reference_bitwise() {
    // `add_row`/`mul_row` fill row by row; they must equal the flat-index
    // broadcast `a[i] ∘ row[i % n]` bit for bit, at every thread count,
    // on both sides of the fill grain and for 1-wide and ragged rows.
    for &(m, n) in &[(1usize, 1usize), (7, 5), (1280, 96), (3, 4097), (4099, 1)] {
        let a: Vec<f32> = (0..m * n).map(|i| ((i * 43) % 109) as f32 * 0.061 - 3.3).collect();
        let r: Vec<f32> = (0..n).map(|j| ((j * 31) % 23) as f32 * 0.17 - 1.9).collect();
        let x = Tensor::from_vec(a.clone(), &[m, n]);
        let row = Tensor::from_vec(r.clone(), &[n]);
        let add_ref: Vec<f32> = (0..m * n).map(|i| a[i] + r[i % n]).collect();
        let mul_ref: Vec<f32> = (0..m * n).map(|i| a[i] * r[i % n]).collect();
        assert_parity(&format!("add_row {m}x{n}"), || x.add_row(&row).to_vec());
        assert_parity(&format!("mul_row {m}x{n}"), || x.mul_row(&row).to_vec());
        assert_eq!(bits(&add_ref), bits(&x.add_row(&row).to_vec()), "add_row {m}x{n}");
        assert_eq!(bits(&mul_ref), bits(&x.mul_row(&row).to_vec()), "mul_row {m}x{n}");
    }
}

#[test]
fn transpose_and_fill_rows_match_serial_references_bitwise() {
    for &(m, n) in &[(1usize, 1usize), (7, 5), (173, 111), (257, 129)] {
        let x: Vec<f32> = (0..m * n).map(|i| ((i * 31) % 101) as f32 * 0.019 - 0.9).collect();
        let t_ref = kernels::transpose_serial(&x, m, n);
        assert_parity(&format!("transpose {m}x{n}"), || kernels::transpose(&x, m, n));
        assert_eq!(bits(&t_ref), bits(&kernels::transpose(&x, m, n)));
        let fill = |r: usize, row: &mut [f32]| {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (r * 13 + j) as f32 * 0.5;
            }
        };
        let f_ref = kernels::fill_rows_serial(m, n, fill);
        assert_parity(&format!("fill_rows {m}x{n}"), || kernels::fill_rows(m, n, 2, fill));
        assert_eq!(bits(&f_ref), bits(&kernels::fill_rows(m, n, 2, fill)));
    }
}

#[test]
fn tensor_matmul_is_thread_count_invariant_bitwise() {
    for &(m, k, n) in SHAPES {
        let a = init::uniform(&[m, k], -1.0, 1.0, &mut seeded_rng(m as u64 * 7 + 1));
        let b = init::uniform(&[k, n], -1.0, 1.0, &mut seeded_rng(n as u64 * 11 + 2));
        assert_parity(&format!("tensor matmul {m}x{k}x{n}"), || {
            a.matmul(&b).to_vec()
        });
    }
}

#[test]
fn tensor_matmul_backward_is_thread_count_invariant_bitwise() {
    // Both backward GEMMs (dA = g·Bᵀ, dB = Aᵀ·g) run through the same
    // parallel kernel; the gradients must be bit-stable too.
    for &(m, k, n) in &[(1usize, 1usize, 1usize), (257, 3, 2), (61, 53, 47)] {
        assert_parity(&format!("matmul backward {m}x{k}x{n}"), || {
            let a = init::uniform(&[m, k], -1.0, 1.0, &mut seeded_rng(3)).requires_grad();
            let b = init::uniform(&[k, n], -1.0, 1.0, &mut seeded_rng(4)).requires_grad();
            a.matmul(&b).sum_all().backward();
            let mut out = a.grad_vec().unwrap();
            out.extend(b.grad_vec().unwrap());
            out
        });
    }
}

#[test]
fn softmax_is_thread_count_invariant_bitwise() {
    for &(rows, cols) in &[(1usize, 1usize), (1, 64), (257, 3), (2, 257), (61, 47)] {
        let x = init::uniform(&[rows, cols], -4.0, 4.0, &mut seeded_rng(rows as u64 + 5));
        assert_parity(&format!("log_softmax {rows}x{cols}"), || {
            x.log_softmax_rows().to_vec()
        });
        assert_parity(&format!("softmax {rows}x{cols}"), || {
            x.softmax_rows().to_vec()
        });
    }
}

#[test]
fn tensor_reductions_are_thread_count_invariant_bitwise() {
    for &(rows, cols) in &[(1usize, 1usize), (1, 300), (300, 1), (257, 3), (2, 257), (61, 47)] {
        let x = init::uniform(&[rows, cols], -1.0, 1.0, &mut seeded_rng(rows as u64 * 3 + 7));
        assert_parity(&format!("sum_all {rows}x{cols}"), || {
            vec![x.sum_all().item()]
        });
        assert_parity(&format!("sum_rows {rows}x{cols}"), || x.sum_rows().to_vec());
        assert_parity(&format!("sum_cols {rows}x{cols}"), || x.sum_cols().to_vec());
    }
}

#[test]
fn normalization_ops_are_thread_count_invariant_bitwise() {
    for &(rows, cols) in &[(1usize, 4usize), (61, 17), (130, 6)] {
        let x = init::uniform(&[rows, cols], -2.0, 2.0, &mut seeded_rng(rows as u64 + 9));
        assert_parity(&format!("l2_normalize {rows}x{cols}"), || {
            x.l2_normalize_rows().to_vec()
        });
        assert_parity(&format!("layer_norm {rows}x{cols}"), || {
            x.layer_norm_rows().to_vec()
        });
    }
}

#[test]
fn unfold_and_pool_are_thread_count_invariant_bitwise() {
    let x = init::uniform(&[5, 19, 7], -1.0, 1.0, &mut seeded_rng(10));
    assert_parity("unfold_windows", || x.unfold_windows(4).to_vec());
    assert_parity("max_over_time", || x.max_over_time().to_vec());
    assert_parity("unfold backward", || {
        let w = init::uniform(&[5, 19, 7], -1.0, 1.0, &mut seeded_rng(11)).requires_grad();
        w.unfold_windows(4).square().mean_all().backward();
        w.grad_vec().unwrap()
    });
}

#[test]
fn whole_graph_loss_is_thread_count_invariant_bitwise() {
    // A TextCNN-shaped forward+backward as one end-to-end chain: embedding
    // lookup → unfold → GEMM → bias → relu → pooling → log-softmax loss.
    let idx: Vec<usize> = (0..4 * 12).map(|i| (i * 17) % 50).collect();
    assert_parity("textcnn-like graph", || {
        let table = init::uniform(&[50, 6], -0.5, 0.5, &mut seeded_rng(12)).requires_grad();
        let w = init::uniform(&[3 * 6, 8], -0.5, 0.5, &mut seeded_rng(13)).requires_grad();
        let bias = Tensor::zeros(&[8]).requires_grad();
        let emb = table.embedding_lookup(&idx).reshape(&[4, 12, 6]);
        let pooled = emb
            .unfold_windows(3)
            .matmul(&w)
            .add_row(&bias)
            .relu()
            .reshape(&[4, 10, 8])
            .max_over_time();
        let loss = pooled.cross_entropy(&[0, 3, 1, 2]);
        loss.backward();
        let mut out = vec![loss.item()];
        out.extend(table.grad_vec().unwrap());
        out.extend(w.grad_vec().unwrap());
        out
    });
}

/// The inputs of one tower backward.
struct TowerInputs<'a> {
    table: &'a [f32],
    w: &'a [&'a [f32]],
    ids: &'a [usize],
    winners: &'a [u32],
    g: &'a [f32],
    s: &'a kernels::TowerShape,
}

/// One tower backward, through the serial twin or the dispatched kernel,
/// into fresh buffers — seeded with `prior`-scaled values first when
/// given, as for a second call into buffers another op already filled:
/// `d table, d w…, d bias…`, flattened.
fn tower_backward(c: &TowerInputs<'_>, serial: bool, prior: Option<f32>) -> Vec<f32> {
    let fill = |n: usize, salt: usize| -> Vec<f32> {
        (0..n).map(|i| prior.map_or(0.0, |p| p * (((i * 7 + salt) % 13) as f32 - 6.0))).collect()
    };
    let mut dt = fill(c.table.len(), 1);
    let mut dw: Vec<Vec<f32>> = c.w.iter().enumerate().map(|(b, w)| fill(w.len(), 2 + b)).collect();
    let mut db: Vec<Vec<f32>> = (0..c.w.len()).map(|b| fill(c.s.filters, 5 + b)).collect();
    let grads = kernels::TowerGrads {
        table: Some(&mut dt),
        weights: dw.iter_mut().map(|v| Some(v.as_mut_slice())).collect(),
        biases: db.iter_mut().map(|v| Some(v.as_mut_slice())).collect(),
    };
    if serial {
        kernels::text_cnn_backward_serial(c.table, c.w, c.ids, c.winners, c.g, c.s, grads);
    } else {
        kernels::text_cnn_backward(c.table, c.w, c.ids, c.winners, c.g, c.s, grads);
    }
    dt.into_iter().chain(dw.into_iter().flatten()).chain(db.into_iter().flatten()).collect()
}

#[test]
fn tower_kernels_match_serial_twins_bitwise() {
    // The TextCNN tower: forward and backward against their serial twins,
    // at every thread setting. Shapes cover one window (t = 1), one
    // document, one branch and three, filter counts on both sides of the
    // pool scan's 8-lane vectors, and the paper's tower; a zero (padding)
    // document, a constant one (every window tied), ids repeated inside
    // and across documents, and `-0.0` upstream gradients ride in every
    // case. The backward runs into fresh buffers and into buffers that
    // already hold values.
    for &(docs, len, dim, ref widths, filters, vocab) in &[
        (1usize, 3usize, 2usize, vec![3usize], 1usize, 3usize),
        (1, 9, 3, vec![2], 5, 4),
        (7, 11, 4, vec![3, 1], 9, 30),
        (19, 20, 5, vec![5, 2, 4], 24, 50),
        (40, 48, 24, vec![3, 4, 5], 24, 600),
        (64, 48, 24, vec![3, 4, 5], 24, 4000),
    ] {
        let s = kernels::TowerShape { docs, len, dim, widths: widths.clone(), filters };
        let seed = (docs * 131 + len * 17 + filters) as u64;
        let mut table = init::uniform(&[vocab, dim], -1.0, 1.0, &mut seeded_rng(seed)).to_vec();
        table[..dim].fill(0.0);
        // Doc 0 is all padding (id 0, a zero row), doc 2 one repeated id;
        // the rest draw from the table with repeats.
        let mut ids: Vec<usize> = (0..docs * len).map(|i| (i * 7919 + seed as usize) % vocab).collect();
        ids[..len].fill(0);
        if docs > 2 {
            ids[2 * len..3 * len].fill(vocab - 1);
        }
        let w: Vec<Vec<f32>> = widths
            .iter()
            .enumerate()
            .map(|(b, &k)| init::uniform(&[k * dim, filters], -0.5, 0.5, &mut seeded_rng(seed + 1 + b as u64)).to_vec())
            .collect();
        let bias: Vec<Vec<f32>> = (0..widths.len())
            .map(|b| init::uniform(&[filters], -0.2, 0.2, &mut seeded_rng(seed + 10 + b as u64)).to_vec())
            .collect();
        let (w, bias): (Vec<&[f32]>, Vec<&[f32]>) = (w.iter().map(Vec::as_slice).collect(), bias.iter().map(Vec::as_slice).collect());
        let cols = s.cols();
        let mut g = init::uniform(&[docs, cols], -1.0, 1.0, &mut seeded_rng(seed + 3)).to_vec();
        for v in g.iter_mut().step_by(3) {
            *v = -0.0;
        }

        let (pooled, winners) = kernels::text_cnn_serial(&table, &ids, &w, &bias, &s);
        let (fast_pooled, fast_winners) = kernels::text_cnn(&table, &ids, &w, &bias, &s);
        assert_eq!(bits(&pooled), bits(&fast_pooled), "text_cnn {s:?} vs serial twin");
        assert_eq!(winners, fast_winners, "text_cnn {s:?} winners vs serial twin");
        assert_parity(&format!("text_cnn {s:?}"), || {
            let (p, win) = kernels::text_cnn(&table, &ids, &w, &bias, &s);
            p.into_iter().chain(win.into_iter().map(f32::from_bits)).collect()
        });

        let inputs = TowerInputs { table: &table, w: &w, ids: &ids, winners: &winners, g: &g, s: &s };
        for prior in [None, Some(0.25)] {
            let serial = tower_backward(&inputs, true, prior);
            let fast = tower_backward(&inputs, false, prior);
            assert_eq!(bits(&serial), bits(&fast), "text_cnn_backward {s:?} (prior {prior:?}) vs serial twin");
            assert_parity(&format!("text_cnn_backward {s:?} (prior {prior:?})"), || {
                tower_backward(&inputs, false, prior)
            });
        }
    }
    // The forward runs the GEMM micro-kernel unchanged and the backward
    // lanewise row updates: bitwise in every mode.
    assert_eq!(ulp_tolerance("text_cnn"), 0, "text_cnn keeps gemm's p-order — always bitwise");
    assert_eq!(ulp_tolerance("text_cnn_backward"), 0, "text_cnn_backward is lanewise — always bitwise");
}

#[test]
fn scatter_add_rows_matches_serial_twin_and_the_dense_scatter_bitwise() {
    // Row widths on both sides of the 8-lane vectors; ids repeated, and
    // into a gradient that already holds values.
    assert_eq!(ulp_tolerance("scatter_add_rows"), 0, "scatter_add_rows is lanewise — always bitwise");
    for &(vocab, dim, n) in &[(1usize, 1usize, 5usize), (6, 7, 9), (40, 24, 3072), (4000, 24, 3072), (13, 33, 200)] {
        let ids: Vec<usize> = (0..n).map(|i| (i * i * 31 + 7) % vocab).collect();
        let mut rows = init::uniform(&[n, dim], -1.0, 1.0, &mut seeded_rng(n as u64)).to_vec();
        for v in rows.iter_mut().step_by(5) {
            *v = -0.0;
        }
        let prior = init::uniform(&[vocab, dim], -1.0, 1.0, &mut seeded_rng(vocab as u64)).to_vec();
        let mut dense = vec![0.0f32; vocab * dim];
        for (row, &id) in rows.chunks(dim).zip(&ids) {
            for (o, &v) in dense[id * dim..(id + 1) * dim].iter_mut().zip(row) {
                *o += v;
            }
        }
        let want: Vec<f32> = prior.iter().zip(&dense).map(|(p, s)| p + s).collect();
        let mut serial = prior.clone();
        kernels::scatter_add_rows_serial(&ids, &rows, dim, &mut serial);
        assert_eq!(bits(&serial), bits(&want), "scatter_add_rows_serial {vocab}x{dim} vs dense scatter");
        assert_parity(&format!("scatter_add_rows {vocab}x{dim}"), || {
            let mut grad = prior.clone();
            kernels::scatter_add_rows(&ids, &rows, dim, &mut grad);
            grad
        });
        let mut fast = prior.clone();
        kernels::scatter_add_rows(&ids, &rows, dim, &mut fast);
        assert_eq!(bits(&serial), bits(&fast), "scatter_add_rows {vocab}x{dim} vs serial twin");
    }
}

#[test]
fn adadelta_update_matches_serial_twin_bitwise() {
    // Lengths on both sides of the 8-lane vectors; gradients spanning
    // zero, tiny and large magnitudes; several steps, so the running
    // averages are non-trivial.
    assert_eq!(ulp_tolerance("adadelta_update"), 0, "adadelta_update is lanewise — always bitwise");
    let h = kernels::AdadeltaHp { lr: 0.02, rho: 0.95, eps: 1e-6 };
    for n in [1usize, 7, 8, 9, 96_000 + 5] {
        let p0 = init::uniform(&[n], -1.0, 1.0, &mut seeded_rng(n as u64)).to_vec();
        let run = |serial: bool| {
            let (mut p, mut sq, mut acc) = (p0.clone(), vec![0.0f32; n], vec![0.0f32; n]);
            for step in 0..3u64 {
                let mut g = init::uniform(&[n], -3.0, 3.0, &mut seeded_rng(step * 1000 + n as u64)).to_vec();
                for (i, v) in g.iter_mut().enumerate() {
                    match i % 5 {
                        0 => *v = 0.0,
                        1 => *v *= 1e-20,
                        2 => *v = -0.0,
                        _ => {}
                    }
                }
                if serial {
                    kernels::adadelta_update_serial(&mut p, &g, &mut sq, &mut acc, h);
                } else {
                    kernels::adadelta_update(&mut p, &g, &mut sq, &mut acc, h);
                }
            }
            (bits(&p), bits(&sq), bits(&acc))
        };
        assert_eq!(run(false), run(true), "adadelta_update len {n}");
    }
}

#[test]
fn pair_rows_matches_serial_reference_bitwise() {
    // Shapes straddle the fill grain so both the inline and pooled paths
    // run; (1,1) and prime sizes hit the ragged tails.
    for &(b, n, du, di) in &[
        (1usize, 1usize, 1usize, 1usize),
        (3, 257, 5, 7),
        (17, 61, 24, 12),
        (64, 500, 24, 12),
    ] {
        let users: Vec<f32> = (0..b * du).map(|i| ((i * 37) % 101) as f32 * 0.173 - 8.0).collect();
        let items: Vec<f32> = (0..n * di).map(|i| ((i * 53) % 89) as f32 * 0.211 - 9.0).collect();
        let serial = kernels::pair_rows_serial(&users, &items, du, di);
        assert_parity(&format!("pair_rows {b}x{n} ({du}+{di})"), || {
            kernels::pair_rows(&users, &items, du, di)
        });
        assert_eq!(
            bits(&serial),
            bits(&kernels::pair_rows(&users, &items, du, di)),
            "pair_rows {b}x{n} vs serial reference"
        );
    }
    // Pure copies: the vector path must stay bitwise in every mode.
    assert_eq!(ulp_tolerance("pair_rows"), 0, "pair_rows is a copy kernel — always bitwise");
}

#[test]
fn specialized_elementwise_kernels_match_serial_twins_bitwise() {
    // The dedicated add/sub/mul/scale kernels are lanewise: identical
    // scalar operation per element, so bitwise in both dispatch modes.
    assert_eq!(ulp_tolerance("add_slices"), 0, "add_slices is lanewise — always bitwise");
    assert_eq!(ulp_tolerance("sub_slices"), 0, "sub_slices is lanewise — always bitwise");
    assert_eq!(ulp_tolerance("mul_slices"), 0, "mul_slices is lanewise — always bitwise");
    assert_eq!(ulp_tolerance("scale_slice"), 0, "scale_slice is lanewise — always bitwise");
    for len in [1usize, 7, 8, 9, 257, 16 * 1024, 3 * 16 * 1024 + 17] {
        let a: Vec<f32> = (0..len).map(|i| ((i * 41) % 113) as f32 * 0.073 - 4.0).collect();
        let b: Vec<f32> = (0..len).map(|i| ((i * 59) % 127) as f32 * 0.057 - 3.5).collect();
        let add_ref = kernels::add_slices_serial(&a, &b);
        assert_parity(&format!("add_slices len {len}"), || kernels::add_slices(&a, &b));
        assert_eq!(bits(&add_ref), bits(&kernels::add_slices(&a, &b)), "add_slices len {len}");
        let sub_ref = kernels::sub_slices_serial(&a, &b);
        assert_parity(&format!("sub_slices len {len}"), || kernels::sub_slices(&a, &b));
        assert_eq!(bits(&sub_ref), bits(&kernels::sub_slices(&a, &b)), "sub_slices len {len}");
        let mul_ref = kernels::mul_slices_serial(&a, &b);
        assert_parity(&format!("mul_slices len {len}"), || kernels::mul_slices(&a, &b));
        assert_eq!(bits(&mul_ref), bits(&kernels::mul_slices(&a, &b)), "mul_slices len {len}");
        let scale_ref = kernels::scale_slice_serial(&a, -1.73);
        assert_parity(&format!("scale_slice len {len}"), || kernels::scale_slice(&a, -1.73));
        assert_eq!(bits(&scale_ref), bits(&kernels::scale_slice(&a, -1.73)), "scale_slice len {len}");
    }
}

#[test]
fn log_softmax_rows_kernel_meets_its_tolerance_tier() {
    // Rows/cols straddle the vector width and the fill grain; the wide
    // input range exercises the polynomial exp far from zero.
    for &(rows, cols, lo, hi) in &[
        (1usize, 1usize, -4.0f32, 4.0f32),
        (1, 7, -4.0, 4.0),
        (1, 64, -4.0, 4.0),
        (257, 3, -4.0, 4.0),
        (2, 257, -4.0, 4.0),
        (61, 47, -4.0, 4.0),
        (64, 33, -20.0, 20.0),
    ] {
        let x = init::uniform(&[rows, cols], lo, hi, &mut seeded_rng(rows as u64 * 31 + cols as u64)).to_vec();
        let serial = kernels::log_softmax_rows_serial(&x, rows, cols);
        assert_parity(&format!("log_softmax_rows {rows}x{cols}"), || {
            kernels::log_softmax_rows(&x, rows, cols)
        });
        assert_within_ulp(
            &format!("log_softmax_rows {rows}x{cols}"),
            tier_tolerance("log_softmax_rows"),
            &kernels::log_softmax_rows(&x, rows, cols),
            &serial,
        );
    }
}

#[test]
fn dequant_rows_matches_serial_twin_bitwise() {
    // int8→f32 conversion is exact and the per-element multiply rounds
    // once, so the vector path is bitwise in every mode.
    assert_eq!(ulp_tolerance("dequant_rows"), 0, "dequant_rows is exact-conversion — always bitwise");
    for &(n, dim) in &[(1usize, 1usize), (3, 7), (17, 12), (501, 24), (64, 96)] {
        let q: Vec<i8> = (0..n * dim).map(|i| (((i * 37) % 255) as i64 - 127) as i8).collect();
        let scales: Vec<f32> = (0..n).map(|r| ((r * 13) % 31) as f32 * 0.0173 + 0.001).collect();
        let serial = kernels::dequant_rows_serial(&q, &scales, dim);
        assert_parity(&format!("dequant_rows {n}x{dim}"), || {
            kernels::dequant_rows(&q, &scales, dim)
        });
        assert_eq!(
            bits(&serial),
            bits(&kernels::dequant_rows(&q, &scales, dim)),
            "dequant_rows {n}x{dim} vs serial twin"
        );
    }
}

// ---------------------------------------------------------------------------
// ULP tolerances for `// om-lint: simd` kernels.
//
// om-lint's `simd-ulp-tolerance` pass requires every kernel carrying the
// simd marker in `src/kernels.rs` to register a tolerance here via a
// literal `ulp_tolerance("<name>")` call. Tolerance 0 means the AVX2 port
// preserves the exact scalar operation sequence per output element and the
// kernel stays bitwise-equal to its serial twin in every dispatch mode.
// Nonzero tolerances are for kernels that genuinely reorder a reduction
// across vector lanes (`sum`: 4×8 fixed-shape accumulators) or substitute
// a polynomial exp (`log_softmax_rows`): the bound is the measured worst
// case over this suite's shape battery padded ~4–5×, and only applies
// under AVX2 dispatch — [`tier_tolerance`] drops to 0 (bitwise) when the
// scalar paths are active. Widening an entry requires re-measuring and an
// argued bound, not a quiet constant bump.
// ---------------------------------------------------------------------------

/// `(kernel, max ULP distance vs the serial twin under AVX2 dispatch)` for
/// every simd-marked kernel, alphabetical.
const ULP_TOLERANCES: &[(&str, u32)] = &[
    ("adadelta_update", 0),
    ("add_slices", 0),
    ("dequant_rows", 0),
    ("gemm", 0),
    ("log_softmax_rows", 1024), // measured worst 256 (wide-range rows)
    ("mul_slices", 0),
    ("pair_rows", 0),
    ("scale_slice", 0),
    ("scatter_add_rows", 0),
    ("sub_slices", 0),
    ("sum", 512), // measured worst 99 (cancellation-heavy chunks)
    ("text_cnn", 0),
    ("text_cnn_backward", 0),
];

/// Look up a registered tolerance; unregistered names are a test bug (and
/// an om-lint violation at the kernel's marker).
fn ulp_tolerance(name: &str) -> u32 {
    ULP_TOLERANCES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, t)| t)
        .unwrap_or_else(|| panic!("kernel `{name}` has no registered ULP tolerance"))
}

/// Distance in representable-float steps between two finite f32 values
/// (the standard monotonic bits mapping; equal bits → 0).
fn ulp_distance(a: f32, b: f32) -> u32 {
    fn key(x: f32) -> i64 {
        let bits = x.to_bits() as i32;
        if bits < 0 { i64::from(i32::MIN) - i64::from(bits) } else { i64::from(bits) }
    }
    key(a).abs_diff(key(b)).try_into().unwrap_or(u32::MAX)
}

/// The tolerance that applies in the current dispatch mode: the registered
/// AVX2 bound when the vector paths are active, otherwise 0 — scalar
/// dispatch must stay bitwise-identical to the serial twins.
fn tier_tolerance(name: &str) -> u32 {
    if om_tensor::simd::active() {
        ulp_tolerance(name)
    } else {
        0
    }
}

fn assert_within_ulp(name: &str, tol: u32, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{name}: length mismatch");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        let d = ulp_distance(g, w);
        assert!(
            d <= tol,
            "{name}[{i}]: {g} vs {w} is {d} ULP apart (tolerance {tol})"
        );
    }
}

#[test]
fn simd_marked_kernels_meet_their_registered_ulp_tolerance() {
    // The tolerance-tier parity mode: every simd-marked kernel, compared
    // against its always-scalar serial twin under the ambient dispatch
    // mode. CI's kernel-matrix job runs this whole suite twice —
    // OM_SIMD=auto (vector paths, registered tolerances) and OM_SIMD=off
    // (scalar paths, everything bitwise via tier_tolerance → 0).
    let (m, k, n) = (61usize, 53usize, 47usize);
    let a: Vec<f32> = (0..m * k).map(|i| ((i * 37) % 101) as f32 * 0.173 - 8.0).collect();
    let b: Vec<f32> = (0..k * n).map(|i| ((i * 53) % 89) as f32 * 0.211 - 9.0).collect();
    let mut serial = vec![0.0f32; m * n];
    kernels::gemm_serial(&a, &b, &mut serial, m, k, n);
    let mut parallel = vec![0.0f32; m * n];
    kernels::gemm(&a, &b, &mut parallel, m, k, n);
    assert_within_ulp("gemm", tier_tolerance("gemm"), &parallel, &serial);

    let x: Vec<f32> = (0..10_007).map(|i| ((i * 29) % 97) as f32 * 0.131 - 6.0).collect();
    assert_within_ulp(
        "sum",
        tier_tolerance("sum"),
        &[kernels::sum(&x)],
        &[kernels::sum_serial(&x)],
    );

    let sm: Vec<f32> = (0..61 * 47).map(|i| ((i * 43) % 89) as f32 * 0.09 - 4.0).collect();
    assert_within_ulp(
        "log_softmax_rows",
        tier_tolerance("log_softmax_rows"),
        &kernels::log_softmax_rows(&sm, 61, 47),
        &kernels::log_softmax_rows_serial(&sm, 61, 47),
    );

    // Every bitwise-tier kernel must register exactly 0: those ports
    // preserve the scalar operation sequence, and widening one would be
    // abandoning bit parity, not tuning a constant. The two reduction
    // kernels carry their measured, argued bounds.
    assert_eq!(ulp_tolerance("gemm"), 0, "gemm's micro-tile preserves p-order mul/add — bitwise");
    assert!(ulp_tolerance("sum") > 0, "sum reorders lanes under AVX2 — needs a real bound");
    assert!(
        ulp_tolerance("log_softmax_rows") > 0,
        "log_softmax_rows uses a polynomial exp under AVX2 — needs a real bound"
    );
    for &(name, tol) in ULP_TOLERANCES {
        if !matches!(name, "sum" | "log_softmax_rows") {
            assert_eq!(tol, 0, "kernel `{name}` widened its ULP tolerance without an argued bound");
        }
    }
    assert_eq!(ulp_distance(1.0, 1.0), 0);
    assert_eq!(ulp_distance(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
    assert_eq!(ulp_distance(-0.0, 0.0), 0);
}

//! `Tensor::conv_relu_max_pool` against the composed ops it replaces:
//! `unfold_windows → matmul → add_row → relu → reshape → max_over_time`.
//! The forward values and the input, weight and bias gradients must be
//! equal bit for bit, at one thread and at the maximum.
//!
//! Each case draws its shape and data from one seed: random batch,
//! length, embedding width, kernel width and filter count, with one
//! window per document (t = 1) and single-document batches forced on a
//! share of the seeds. Half the seeds take the filter count from
//! [`FILTERS`], so the pool scan's 8-filter vectors and its scalar tail
//! both run, and the paper-dims test sweeps those counts at every window
//! count mod 4 (the GEMM's ragged rows per document). Every case also plants an all-zero (padding)
//! document, a constant document (all windows tie, so the first must
//! win), filters whose pre-activation is ≤ 0 on every window, and exact
//! `0.0` / `-0.0` upstream gradients.

use std::sync::{Mutex, MutexGuard, OnceLock};

use om_tensor::{init, runtime, seeded_rng, Rng, Tensor};
use proptest::prelude::*;
use rand::RngExt;

/// `runtime::set_threads` is process-global; tests that flip it hold this.
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

/// One drawn case: shape, inputs and the upstream gradient.
#[derive(Debug)]
struct Case {
    b: usize,
    l: usize,
    d: usize,
    k: usize,
    f: usize,
    x: Vec<f32>,
    w: Vec<f32>,
    bias: Vec<f32>,
    g: Vec<f32>,
}

/// Filter counts around the pool scan's 8-lane vectors: scalar tail only
/// (1, 7), one vector (8), the paper's three (24) and three plus a tail.
const FILTERS: [usize; 5] = [1, 7, 8, 24, 25];

fn draw(seed: u64) -> Case {
    let rng: &mut Rng = &mut seeded_rng(seed);
    let b = if seed.is_multiple_of(4) { 1 } else { rng.random_range(1..=9) };
    let l = rng.random_range(1..=14);
    let k = if seed.is_multiple_of(5) { l } else { rng.random_range(1..=l) };
    let d = rng.random_range(1..=6);
    let f = if seed.is_multiple_of(2) { FILTERS[rng.random_range(0..FILTERS.len())] } else { rng.random_range(1..=10) };
    let mut x = init::uniform(&[b, l, d], -1.0, 1.0, rng).to_vec();
    let doc = l * d;
    let padding = rng.random_range(0..b);
    x[padding * doc..(padding + 1) * doc].fill(0.0);
    let constant = rng.random_range(0..b);
    if constant != padding {
        let row: Vec<f32> = (0..d).map(|_| rng.random_range(-1.0f32..1.0)).collect();
        for tok in x[constant * doc..(constant + 1) * doc].chunks_mut(d) {
            tok.copy_from_slice(&row);
        }
    }
    let w = init::uniform(&[k * d, f], -0.8, 0.8, rng).to_vec();
    let mut bias = init::uniform(&[f], -0.3, 0.3, rng).to_vec();
    // A bias far below any window's dot product closes the filter's ReLU
    // on every window: its output is 0 and no gradient may flow through it.
    let closed = rng.random_range(0..f);
    bias[closed] = -100.0;
    let mut g = init::uniform(&[b, f], -1.0, 1.0, rng).to_vec();
    for v in g.iter_mut() {
        match rng.random_range(0..6) {
            0 => *v = -0.0,
            1 => *v = 0.0,
            _ => {}
        }
    }
    Case { b, l, d, k, f, x, w, bias, g }
}

/// `(output, d x, d weight, d bias)` of one forward + backward.
fn run(c: &Case, fused: bool) -> [Vec<f32>; 4] {
    let x = Tensor::from_vec(c.x.clone(), &[c.b, c.l, c.d]).requires_grad();
    let w = Tensor::from_vec(c.w.clone(), &[c.k * c.d, c.f]).requires_grad();
    let bias = Tensor::from_vec(c.bias.clone(), &[c.f]).requires_grad();
    let y = if fused {
        x.conv_relu_max_pool(&w, &bias, c.k)
    } else {
        let t = c.l - c.k + 1;
        x.unfold_windows(c.k)
            .matmul(&w)
            .add_row(&bias)
            .relu()
            .reshape(&[c.b, t, c.f])
            .max_over_time()
    };
    assert_eq!(y.dims(), &[c.b, c.f]);
    y.backward_with(&c.g);
    let grad = |t: &Tensor| t.grad_vec().expect("every input takes part in the graph");
    [y.to_vec(), grad(&x), grad(&w), grad(&bias)]
}

fn assert_fused_matches_composed(seed: u64) {
    let c = draw(seed);
    let _guard = thread_lock();
    let reference = {
        let prev = runtime::set_threads(1);
        let r = run(&c, false);
        runtime::set_threads(prev);
        r
    };
    for threads in [1, runtime::max_threads()] {
        let prev = runtime::set_threads(threads);
        let got = run(&c, true);
        runtime::set_threads(prev);
        let names = ["output", "d input", "d weight", "d bias"];
        for (name, (want, got)) in names.iter().zip(reference.iter().zip(&got)) {
            assert_eq!(
                bits(want),
                bits(got),
                "seed {seed}, {threads} threads: {name} differs from the composed ops \
                 (b {} l {} d {} k {} f {})",
                c.b,
                c.l,
                c.d,
                c.k,
                c.f
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fused_branch_equals_composed_ops_bitwise(seed in 0u64..1_000_000) {
        assert_fused_matches_composed(seed);
    }
}

#[test]
fn fused_branch_equals_composed_ops_at_paper_dims() {
    // Past every pool grain, at each of [`FILTERS`] and at widths 3–6, so
    // a document's t = 46, 45, 44, 43 windows leave each ragged row count
    // (t mod 4 = 2, 1, 0, 3) after the GEMM's four-row groups.
    let _guard = thread_lock();
    let (b, l, d) = (64usize, 48usize, 24usize);
    for f in FILTERS {
        for k in 3..=6 {
            let rng = &mut seeded_rng(7 + (f * 10 + k) as u64);
            let mut x = init::normal(&[b, l, d], 1.0, rng).to_vec();
            x[5 * l * d..6 * l * d].fill(0.0);
            let c = Case {
                b,
                l,
                d,
                k,
                f,
                x,
                w: init::normal(&[k * d, f], 0.2, rng).to_vec(),
                bias: init::uniform(&[f], -0.1, 0.1, rng).to_vec(),
                g: init::normal(&[b, f], 1.0, rng).to_vec(),
            };
            let reference = run(&c, false).map(|v| bits(&v));
            for threads in [1, runtime::max_threads()] {
                let prev = runtime::set_threads(threads);
                let got = run(&c, true).map(|v| bits(&v));
                runtime::set_threads(prev);
                assert_eq!(reference, got, "f {f} k {k}, {threads} threads");
            }
        }
    }
}

#[test]
fn pools_the_best_window_per_filter() {
    // One document, len 3, d 1, k 2: windows [1, -1] and [-1, 4].
    // Filter 0 = x₀ + x₁ + 0.5 and filter 1 = -x₀ both peak on window 1.
    let x = Tensor::from_vec(vec![1.0, -1.0, 4.0], &[1, 3, 1]).requires_grad();
    let w = Tensor::from_vec(vec![1.0, -1.0, 1.0, 0.0], &[2, 2]).requires_grad();
    let bias = Tensor::from_vec(vec![0.5, 0.0], &[2]).requires_grad();
    let y = x.conv_relu_max_pool(&w, &bias, 2);
    assert_eq!(y.to_vec(), vec![3.5, 1.0]);
    y.sum_all().backward();
    assert_eq!(x.grad_vec().unwrap(), vec![0.0, 0.0, 1.0]);
    assert_eq!(w.grad_vec().unwrap(), vec![-1.0, -1.0, 4.0, 4.0]);
    assert_eq!(bias.grad_vec().unwrap(), vec![1.0, 1.0]);
}

#[test]
fn tied_windows_route_gradient_to_the_first() {
    // A constant document: every window ties, so window 0 wins and only
    // tokens 0..k receive gradient.
    let x = Tensor::from_vec(vec![0.5; 5 * 2], &[1, 5, 2]).requires_grad();
    let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2 * 2, 1]).requires_grad();
    let bias = Tensor::zeros(&[1]).requires_grad();
    let y = x.conv_relu_max_pool(&w, &bias, 2);
    assert_eq!(y.to_vec(), vec![5.0]);
    y.sum_all().backward();
    assert_eq!(x.grad_vec().unwrap(), vec![1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
}

#[test]
fn inference_keeps_no_graph() {
    let x = init::normal(&[2, 6, 3], 1.0, &mut seeded_rng(3));
    let w = init::normal(&[9, 4], 1.0, &mut seeded_rng(4)).requires_grad();
    let bias = Tensor::zeros(&[4]).requires_grad();
    let with_graph = x.conv_relu_max_pool(&w, &bias, 3);
    let _off = om_tensor::no_grad();
    let without = x.conv_relu_max_pool(&w, &bias, 3);
    assert_eq!(bits(&with_graph.to_vec()), bits(&without.to_vec()));
    without.backward_with(&[1.0; 8]);
    assert!(w.grad_vec().is_none(), "no_grad must not record the op");
}

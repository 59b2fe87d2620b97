//! `Tensor::text_cnn`, the TextCNN tower, against the composed ops it
//! replaces: `embedding_lookup → reshape`, then per branch `unfold_windows
//! → matmul → add_row → relu → reshape → max_over_time`, then
//! `concat_cols`. The forward values and the table, weight and bias
//! gradients must be equal bit for bit, at one thread and at the maximum.
//!
//! Any `[b, l, d]` input is the tower over a `b·l`-row table with ids
//! `0..b·l`, so the single-branch cases the fused branch was tested on
//! carry over as such inputs ([`draw`]): random batch, length, embedding
//! width, kernel width and filter count, with one window per document
//! (t = 1) and single-document batches forced on a share of the seeds.
//! Half the seeds take the filter count from [`FILTERS`], so the pool
//! scan's 8-filter vectors and its scalar tail both run, and the
//! paper-dims test sweeps those counts at every window count mod 4 (the
//! GEMM's ragged rows per document). Every case also plants an all-zero
//! (padding) document, a constant document (all windows tie, so the first
//! must win), filters whose pre-activation is ≤ 0 on every window, and
//! exact `0.0` / `-0.0` upstream gradients.
//!
//! The cases only ids can show ride in [`draw_ids`] and in their own
//! tests: an id repeated inside one document and across documents,
//! all-padding documents (the alignment step's empty items), two towers
//! sharing one table in one graph, and several branches, whose input
//! gradients the tower completes in reverse branch order.

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

/// One tower call of a case: `b` documents of the case's length, as
/// doc-major ids, and the upstream gradient of its `[b, branches·f]`
/// output.
#[derive(Debug)]
struct Docs {
    b: usize,
    ids: Vec<usize>,
    g: Vec<f32>,
}

/// One drawn case: geometry, the table, every branch's weight and bias,
/// and one or more tower calls that all share them.
#[derive(Debug)]
struct Case {
    l: usize,
    d: usize,
    widths: Vec<usize>,
    f: usize,
    table: Vec<f32>,
    w: Vec<Vec<f32>>,
    bias: Vec<Vec<f32>>,
    towers: Vec<Docs>,
}

/// Filter counts around the pool scan's 8-lane vectors: scalar tail only
/// (1, 7), one vector (8), the paper's three (24) and three plus a tail.
const FILTERS: [usize; 5] = [1, 7, 8, 24, 25];

/// Upstream gradient with exact `0.0` and `-0.0` entries mixed in.
fn upstream(n: usize, rng: &mut Rng) -> Vec<f32> {
    let mut g = init::uniform(&[n], -1.0, 1.0, rng).to_vec();
    for v in g.iter_mut() {
        match rng.random_range(0..6) {
            0 => *v = -0.0,
            1 => *v = 0.0,
            _ => {}
        }
    }
    g
}

/// Per branch a weight and a bias; one filter of each branch gets a bias
/// far below any window's dot product, which closes its ReLU on every
/// window: its output is 0 and no gradient may flow through it.
fn params(widths: &[usize], d: usize, f: usize, rng: &mut Rng) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let w = widths.iter().map(|&k| init::uniform(&[k * d, f], -0.8, 0.8, rng).to_vec()).collect();
    let bias = widths
        .iter()
        .map(|_| {
            let mut bias = init::uniform(&[f], -0.3, 0.3, rng).to_vec();
            bias[rng.random_range(0..f)] = -100.0;
            bias
        })
        .collect();
    (w, bias)
}

/// A single-branch case over embedded documents `x [b, l, d]`, as the
/// tower over the `b·l`-row table `x` with ids `0..b·l`.
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
    let (w, bias) = params(&[k], d, f, rng);
    let g = upstream(b * f, rng);
    Case { l, d, widths: vec![k], f, table: x, w, bias, towers: vec![Docs { b, ids: (0..b * l).collect(), g }] }
}

/// A case only ids can show: 1–3 branches over a small table, so ids
/// repeat inside documents and across them; one document all padding (id
/// 0), one a single repeated id; the padding row zero on half the seeds
/// (as initialised) and trained-like on the rest; and on a third of the
/// seeds a second tower call sharing the table and the weights, as the
/// trainer's alignment towers do.
fn draw_ids(seed: u64) -> Case {
    let rng: &mut Rng = &mut seeded_rng(seed ^ 0x5eed);
    let l = rng.random_range(1..=14);
    let d = rng.random_range(1..=6);
    let f = if seed.is_multiple_of(2) { FILTERS[rng.random_range(0..FILTERS.len())] } else { rng.random_range(1..=10) };
    let widths: Vec<usize> = (0..rng.random_range(1..=3)).map(|_| rng.random_range(1..=l)).collect();
    let vocab = rng.random_range(1..=12);
    let mut table = init::uniform(&[vocab, d], -1.0, 1.0, rng).to_vec();
    if seed.is_multiple_of(2) {
        table[..d].fill(0.0);
    }
    let (w, bias) = params(&widths, d, f, rng);
    let calls = if seed.is_multiple_of(3) { 2 } else { 1 };
    let towers = (0..calls)
        .map(|_| {
            let b = rng.random_range(1..=9);
            let mut ids: Vec<usize> = (0..b * l).map(|_| rng.random_range(0..vocab)).collect();
            ids[rng.random_range(0..b) * l..][..l].fill(0);
            ids[rng.random_range(0..b) * l..][..l].fill(vocab - 1);
            Docs { b, ids, g: upstream(b * widths.len() * f, rng) }
        })
        .collect();
    Case { l, d, widths, f, table, w, bias, towers }
}

/// Every tower call of `c` through the tower op (`tower`) or the composed
/// ops, stacked with `concat_rows`, one backward with the calls'
/// upstream gradients: `[output, d table, d w…, d bias…]`.
fn run(c: &Case, tower: bool) -> Vec<Vec<f32>> {
    let vocab = c.table.len() / c.d;
    let table = Tensor::from_vec(c.table.clone(), &[vocab, c.d]).requires_grad();
    let w: Vec<Tensor> =
        c.widths.iter().zip(&c.w).map(|(&k, w)| Tensor::from_vec(w.clone(), &[k * c.d, c.f]).requires_grad()).collect();
    let bias: Vec<Tensor> = c.bias.iter().map(|b| Tensor::from_vec(b.clone(), &[c.f]).requires_grad()).collect();
    let outs: Vec<Tensor> = c
        .towers
        .iter()
        .map(|t| {
            let y = if tower {
                let branches: Vec<(&Tensor, &Tensor)> = w.iter().zip(&bias).collect();
                Tensor::text_cnn(&table, &t.ids, c.l, &branches)
            } else {
                let x = table.embedding_lookup(&t.ids).reshape(&[t.b, c.l, c.d]);
                let pooled: Vec<Tensor> = c
                    .widths
                    .iter()
                    .zip(w.iter().zip(&bias))
                    .map(|(&k, (w, bias))| {
                        x.unfold_windows(k)
                            .matmul(w)
                            .add_row(bias)
                            .relu()
                            .reshape(&[t.b, c.l - k + 1, c.f])
                            .max_over_time()
                    })
                    .collect();
                Tensor::concat_cols(&pooled.iter().collect::<Vec<_>>())
            };
            assert_eq!(y.dims(), &[t.b, c.widths.len() * c.f]);
            y
        })
        .collect();
    let y = Tensor::concat_rows(&outs.iter().collect::<Vec<_>>());
    let g: Vec<f32> = c.towers.iter().flat_map(|t| t.g.iter().copied()).collect();
    y.backward_with(&g);
    let grad = |t: &Tensor| t.grad_vec().expect("every input takes part in the graph");
    let mut out = vec![y.to_vec(), grad(&table)];
    out.extend(w.iter().chain(&bias).map(grad));
    out
}

/// `run` through the tower at one thread and at the maximum, each bitwise
/// the composed ops at one thread.
fn assert_tower_matches_composed(c: &Case, label: &str) {
    let _guard = thread_lock();
    let prev = runtime::set_threads(1);
    let reference = run(c, false);
    for threads in [1, runtime::max_threads()] {
        runtime::set_threads(threads);
        let got = run(c, true);
        for (i, (want, got)) in reference.iter().zip(&got).enumerate() {
            let name = match i {
                0 => "output".to_string(),
                1 => "d table".to_string(),
                i if i < 2 + c.widths.len() => format!("d weight {}", i - 2),
                i => format!("d bias {}", i - 2 - c.widths.len()),
            };
            assert_eq!(
                bits(want),
                bits(got),
                "{label}, {threads} threads: {name} differs from the composed ops \
                 (l {} d {} widths {:?} f {}, docs {:?})",
                c.l,
                c.d,
                c.widths,
                c.f,
                c.towers.iter().map(|t| t.b).collect::<Vec<_>>()
            );
        }
    }
    runtime::set_threads(prev);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tower_equals_composed_ops_bitwise(seed in 0u64..1_000_000) {
        assert_tower_matches_composed(&draw(seed), &format!("seed {seed}"));
        assert_tower_matches_composed(&draw_ids(seed), &format!("ids seed {seed}"));
    }
}

#[test]
fn tower_equals_composed_ops_at_paper_dims() {
    // Past every pool grain, at each of [`FILTERS`] and at widths 3–6, so
    // a document's t = 46, 45, 44, 43 windows leave each ragged row count
    // (t mod 4 = 2, 1, 0, 3) after the GEMM's four-row groups.
    let (b, l, d) = (64usize, 48usize, 24usize);
    for f in FILTERS {
        for k in 3..=6 {
            let rng = &mut seeded_rng(7 + (f * 10 + k) as u64);
            let mut x = init::normal(&[b, l, d], 1.0, rng).to_vec();
            x[5 * l * d..6 * l * d].fill(0.0);
            let c = Case {
                l,
                d,
                widths: vec![k],
                f,
                table: x,
                w: vec![init::normal(&[k * d, f], 0.2, rng).to_vec()],
                bias: vec![init::uniform(&[f], -0.1, 0.1, rng).to_vec()],
                towers: vec![Docs { b, ids: (0..b * l).collect(), g: init::normal(&[b, f], 1.0, rng).to_vec() }],
            };
            assert_tower_matches_composed(&c, &format!("f {f} k {k}"));
        }
    }
}

/// The paper's tower — widths (3, 4, 5), 24 filters, 24-wide rows of a
/// 48-token document — over `vocab` table rows, one call per batch size.
fn paper_case(vocab: usize, seed: u64, batches: &[usize], ids: impl Fn(usize, &mut Rng) -> Vec<usize>) -> Case {
    let rng = &mut seeded_rng(seed);
    let (l, d, f, widths) = (48usize, 24usize, 24usize, vec![3usize, 4, 5]);
    let table = init::normal(&[vocab, d], 0.5, rng).to_vec();
    let w = widths.iter().map(|&k| init::normal(&[k * d, f], 0.2, rng).to_vec()).collect();
    let bias = widths.iter().map(|_| init::uniform(&[f], -0.1, 0.1, rng).to_vec()).collect();
    let towers = batches
        .iter()
        .map(|&b| Docs { b, ids: ids(b * l, rng), g: init::normal(&[b, widths.len() * f], 1.0, rng).to_vec() })
        .collect();
    Case { l, d, widths, f, table, w, bias, towers }
}

#[test]
fn repeated_ids_within_and_across_documents_match_composed_bitwise() {
    // 40 table rows under 64 × 48 tokens: every id repeats many times in
    // a document and across documents, so each table row sums dozens of
    // token rows, in token order.
    let c = paper_case(40, 31, &[64], |n, rng| (0..n).map(|_| rng.random_range(0..40)).collect());
    assert_tower_matches_composed(&c, "repeated ids");
}

#[test]
fn all_padding_documents_match_composed_bitwise() {
    // The alignment step's empty items: every document all padding (id
    // 0), every window tied, so window 0 wins every filter that fires.
    // Then a batch mixing such documents with ordinary ones.
    let c = paper_case(300, 32, &[16], |n, _| vec![0; n]);
    assert_tower_matches_composed(&c, "all padding");
    let c = paper_case(300, 33, &[64], |n, rng| {
        let mut ids: Vec<usize> = (0..n).map(|_| rng.random_range(0..300)).collect();
        for doc in ids.chunks_mut(48).step_by(3) {
            doc.fill(0);
        }
        ids
    });
    assert_tower_matches_composed(&c, "mixed padding");
}

#[test]
fn two_towers_sharing_one_table_match_composed_bitwise() {
    // Two calls with the same table and weights in one graph, as the
    // trainer's main and alignment towers: the second call's gradients
    // are added into buffers the first already filled.
    let c = paper_case(200, 34, &[64, 9], |n, rng| (0..n).map(|_| rng.random_range(0..200)).collect());
    assert_tower_matches_composed(&c, "two towers");
}

#[test]
fn negative_zero_upstream_gradients_match_composed_bitwise() {
    // `-0.0` upstream everywhere but a few documents, then everywhere: the
    // dropped terms are exact zeros added to sums that start at `+0.0`.
    let mut c = paper_case(120, 35, &[32], |n, rng| (0..n).map(|_| rng.random_range(0..120)).collect());
    for (i, v) in c.towers[0].g.iter_mut().enumerate() {
        if i % 72 > 8 {
            *v = -0.0;
        }
    }
    assert_tower_matches_composed(&c, "mostly -0.0 upstream");
    c.towers[0].g.fill(-0.0);
    assert_tower_matches_composed(&c, "all -0.0 upstream");
}

/// One document `x [len, d]` as a tower over its own rows: `(table, ids)`.
fn rows_as_table(x: Vec<f32>, len: usize, d: usize) -> (Tensor, Vec<usize>) {
    (Tensor::from_vec(x, &[len, d]).requires_grad(), (0..len).collect())
}

#[test]
fn pools_the_best_window_per_filter() {
    // One document, len 3, d 1, k 2: windows [1, -1] and [-1, 4].
    // Filter 0 = x₀ + x₁ + 0.5 and filter 1 = -x₀ both peak on window 1.
    let (table, ids) = rows_as_table(vec![1.0, -1.0, 4.0], 3, 1);
    let w = Tensor::from_vec(vec![1.0, -1.0, 1.0, 0.0], &[2, 2]).requires_grad();
    let bias = Tensor::from_vec(vec![0.5, 0.0], &[2]).requires_grad();
    let y = Tensor::text_cnn(&table, &ids, 3, &[(&w, &bias)]);
    assert_eq!(y.to_vec(), vec![3.5, 1.0]);
    y.sum_all().backward();
    assert_eq!(table.grad_vec().unwrap(), vec![0.0, 0.0, 1.0]);
    assert_eq!(w.grad_vec().unwrap(), vec![-1.0, -1.0, 4.0, 4.0]);
    assert_eq!(bias.grad_vec().unwrap(), vec![1.0, 1.0]);
}

#[test]
fn tied_windows_route_gradient_to_the_first() {
    // A constant document: every window ties, so window 0 wins and only
    // tokens 0..k receive gradient.
    let (table, ids) = rows_as_table(vec![0.5; 5 * 2], 5, 2);
    let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2 * 2, 1]).requires_grad();
    let bias = Tensor::zeros(&[1]).requires_grad();
    let y = Tensor::text_cnn(&table, &ids, 5, &[(&w, &bias)]);
    assert_eq!(y.to_vec(), vec![5.0]);
    y.sum_all().backward();
    assert_eq!(table.grad_vec().unwrap(), vec![1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
}

#[test]
fn untouched_table_rows_take_no_gradient_and_repeats_sum() {
    // Row 1 is never named; row 2 is named by both tokens of the winning
    // window [3, 3] (window [3, 1] loses), so its gradient is 1 + 1.
    let table = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3, 1]).requires_grad();
    let w = Tensor::from_vec(vec![1.0, 1.0], &[2, 1]).requires_grad();
    let bias = Tensor::zeros(&[1]).requires_grad();
    let y = Tensor::text_cnn(&table, &[2, 2, 0], 3, &[(&w, &bias)]);
    assert_eq!(y.to_vec(), vec![6.0]);
    y.sum_all().backward();
    assert_eq!(table.grad_vec().unwrap(), vec![0.0, 0.0, 2.0]);
    assert_eq!(w.grad_vec().unwrap(), vec![3.0, 3.0]);
}

#[test]
fn inference_keeps_no_graph() {
    let table = init::normal(&[7, 3], 1.0, &mut seeded_rng(3));
    let ids: Vec<usize> = (0..12).map(|i| (i * 5) % 7).collect();
    let w = init::normal(&[9, 4], 1.0, &mut seeded_rng(4)).requires_grad();
    let bias = Tensor::zeros(&[4]).requires_grad();
    let with_graph = Tensor::text_cnn(&table, &ids, 6, &[(&w, &bias)]);
    let _off = om_tensor::no_grad();
    let without = Tensor::text_cnn(&table, &ids, 6, &[(&w, &bias)]);
    assert_eq!(bits(&with_graph.to_vec()), bits(&without.to_vec()));
    without.backward_with(&[1.0; 8]);
    assert!(w.grad_vec().is_none(), "no_grad must not record the op");
}

#[test]
#[should_panic(expected = "distinct tensors")]
fn shared_parameters_are_rejected() {
    let table = Tensor::zeros(&[4, 2]).requires_grad();
    let w = Tensor::zeros(&[4, 3]).requires_grad();
    let bias = Tensor::zeros(&[3]).requires_grad();
    let _ = Tensor::text_cnn(&table, &[0, 1, 2, 3], 4, &[(&w, &bias), (&w, &bias)]);
}

#[test]
#[should_panic(expected = "outside the table")]
fn out_of_range_ids_are_rejected() {
    let table = Tensor::zeros(&[4, 2]);
    let w = Tensor::zeros(&[2, 3]);
    let bias = Tensor::zeros(&[3]);
    let _ = Tensor::text_cnn(&table, &[0, 4], 2, &[(&w, &bias)]);
}

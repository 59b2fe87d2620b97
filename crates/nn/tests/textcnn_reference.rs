//! `TextCnn` against a reference TextCNN built here from om-tensor's
//! public ops — `embedding_lookup → reshape`, then per branch
//! `unfold_windows → matmul → add_row → relu → reshape → max_over_time`,
//! then `concat_cols` — sharing the layer's own parameters. The input is a
//! `[batch, len, emb]` activation held as a `batch·len`-row table read
//! through ids `0..batch·len`, so "d input" is the table's gradient. The
//! forward output and the gradients of the input and of every parameter
//! must be equal bit for bit, at the model's default and `fast()`
//! dimensions, at one thread and at the maximum.

use std::sync::{Mutex, MutexGuard, OnceLock};

use om_nn::{HasParams, TextCnn};
use om_tensor::{init, runtime, seeded_rng, Tensor};

const WIDTHS: [usize; 3] = [3, 4, 5];

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

/// The composed TextCNN over `params = [w₃, b₃, w₄, b₄, w₅, b₅]`, on
/// `docs` read from `table`.
fn reference_forward(params: &[Tensor], table: &Tensor, docs: &[&[usize]]) -> Tensor {
    let (b, l) = (docs.len(), docs[0].len());
    let ids: Vec<usize> = docs.concat();
    let x = table.embedding_lookup(&ids).reshape(&[b, l, table.dims()[1]]);
    let pooled: Vec<Tensor> = WIDTHS
        .iter()
        .zip(params.chunks(2))
        .map(|(&k, wb)| {
            x.unfold_windows(k)
                .matmul(&wb[0])
                .add_row(&wb[1])
                .relu()
                .reshape(&[b, l - k + 1, wb[1].numel()])
                .max_over_time()
        })
        .collect();
    Tensor::concat_cols(&pooled.iter().collect::<Vec<_>>())
}

/// Forward + backward with upstream `g`: output, d input, then every
/// parameter's gradient, as bits.
fn run(cnn: &TextCnn, x: &Tensor, docs: &[&[usize]], g: &[f32], fused: bool) -> Vec<Vec<u32>> {
    cnn.zero_grad();
    x.zero_grad();
    let params = cnn.params();
    let y = if fused { cnn.forward(x, docs) } else { reference_forward(&params, x, docs) };
    y.backward_with(g);
    let mut out = vec![bits(&y.to_vec()), bits(&x.grad_vec().expect("input gradient"))];
    out.extend(params.iter().map(|p| bits(&p.grad_vec().expect("parameter gradient"))));
    out
}

/// `batch` documents of `len` tokens at width `emb`, with the tail of
/// every third document zero-padded the way short reviews are.
fn check(batch: usize, len: usize, emb: usize, filters: usize, seed: u64) {
    let rng = &mut seeded_rng(seed);
    let cnn = TextCnn::new(emb, &WIDTHS, filters, rng);
    let mut data = init::normal(&[batch, len, emb], 1.0, rng).to_vec();
    for doc in data.chunks_mut(len * emb).step_by(3) {
        doc[len * emb / 2..].fill(0.0);
    }
    let x = Tensor::from_vec(data, &[batch * len, emb]).requires_grad();
    let ids: Vec<Vec<usize>> = (0..batch).map(|b| (b * len..(b + 1) * len).collect()).collect();
    let docs: Vec<&[usize]> = ids.iter().map(Vec::as_slice).collect();
    let mut g = init::normal(&[batch, cnn.out_dim()], 1.0, rng).to_vec();
    for v in g.iter_mut().step_by(7) {
        *v = -0.0;
    }
    let _guard = thread_lock();
    let prev = runtime::set_threads(1);
    let reference = run(&cnn, &x, &docs, &g, false);
    for threads in [1, runtime::max_threads()] {
        runtime::set_threads(threads);
        let got = run(&cnn, &x, &docs, &g, true);
        let names = ["output", "d input", "d w3", "d b3", "d w4", "d b4", "d w5", "d b5"];
        for ((name, want), got) in names.iter().zip(&reference).zip(&got) {
            assert_eq!(want, got, "{name} at {threads} threads ({batch}×{len}×{emb}, {filters} filters)");
        }
    }
    runtime::set_threads(prev);
}

#[test]
fn textcnn_matches_composed_reference_at_default_dims() {
    // OmniMatchConfig::default(): doc_len 48, emb_dim 24, 24 filters, batch 64.
    check(64, 48, 24, 24, 11);
}

#[test]
fn textcnn_matches_composed_reference_at_fast_dims() {
    // OmniMatchConfig::fast(): doc_len 16, emb_dim 12, 8 filters, batch 32.
    check(32, 16, 12, 8, 12);
}

//! The TextCNN tower (§4.2, Eqs. 4–7) as one differentiable op: token ids
//! in, every branch's convolution, bias, ReLU and max-over-time pooled
//! features out.

use std::cell::{Ref, RefMut};

use super::wants_grad;
use crate::kernels::{self, TowerGrads, TowerShape};
use crate::Tensor;

impl Tensor {
    /// One TextCNN tower over `ids`, which hold `ids.len() / len` documents
    /// of `len` token ids each, doc-major, indexing rows of `table [vocab,
    /// dim]`. Each branch is `(weight [k·dim, filters], bias [filters])`
    /// for a kernel width `k` (the weight's rows over `dim`); every branch
    /// has the same filter count. Output `[docs, branches·filters]`, branch
    /// `b`'s pooled features in columns `b·filters..(b + 1)·filters`.
    ///
    /// Forward values and every gradient are bitwise those of the composed
    /// chain `table.embedding_lookup(ids).reshape([docs, len, dim])`, then
    /// per branch `unfold_windows(k).matmul(weight).add_row(bias).relu()`
    /// reshaped to `[docs, windows, filters]` and pooled with
    /// `max_over_time()`, then `concat_cols`. Those ops stay public and are
    /// its test oracle. The tape keeps the ids and the winning window of
    /// each (document, branch, filter) only: no embedded document, window
    /// matrix or activation is stored, and the backward adds straight into
    /// the parents' gradient buffers.
    ///
    /// The table, weights and biases must be distinct tensors.
    pub fn text_cnn(table: &Tensor, ids: &[usize], len: usize, branches: &[(&Tensor, &Tensor)]) -> Tensor {
        let _span = crate::obs_span("ops.text_cnn");
        let (_, dim) = table.shape().as_2d();
        assert!(len > 0 && ids.len().is_multiple_of(len), "text_cnn: {} ids are not documents of {len} tokens", ids.len());
        assert!(!branches.is_empty(), "text_cnn: no branches");
        let filters = branches[0].0.shape().as_2d().1;
        let widths = branches
            .iter()
            .map(|(w, bias)| {
                let (kd, f) = w.shape().as_2d();
                assert_eq!(f, filters, "text_cnn: every branch needs {filters} filters");
                assert!(dim > 0 && kd.is_multiple_of(dim), "text_cnn: weight rows {kd} are not a whole number of {dim}-wide tokens");
                assert_eq!(bias.numel(), f, "text_cnn: bias is not [filters]");
                kd / dim
            })
            .collect();
        let s = TowerShape { docs: ids.len() / len, len, dim, widths, filters };
        let mut parents = vec![table.clone()];
        parents.extend(branches.iter().flat_map(|&(w, bias)| [w.clone(), bias.clone()]));
        let mut seen: Vec<u64> = parents.iter().map(Tensor::id).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), parents.len(), "text_cnn: the table, weights and biases must be distinct tensors");
        let (out, winners) = {
            let weights = datas(parents[1..].iter().step_by(2));
            let biases = datas(parents[2..].iter().step_by(2));
            kernels::text_cnn(&table.data(), ids, &slices(&weights), &slices(&biases), &s)
        };
        let ids = ids.to_vec();
        Tensor::from_op(
            out,
            &[s.docs, s.cols()],
            parents,
            Box::new(move |g, parents| {
                let (table, params) = (&parents[0], &parents[1..]);
                let mut table_grad = lend(table);
                let mut w_grads: Vec<Option<RefMut<'_, [f32]>>> = params.iter().step_by(2).map(lend).collect();
                let mut b_grads: Vec<Option<RefMut<'_, [f32]>>> = params[1..].iter().step_by(2).map(lend).collect();
                let grads = TowerGrads {
                    table: table_grad.as_deref_mut(),
                    weights: w_grads.iter_mut().map(|dw| dw.as_deref_mut()).collect(),
                    biases: b_grads.iter_mut().map(|db| db.as_deref_mut()).collect(),
                };
                let weights = datas(params.iter().step_by(2));
                kernels::text_cnn_backward(&table.data(), &slices(&weights), &ids, &winners, g, &s, grads);
            }),
        )
    }
}

/// A parent's gradient buffer, when it takes one.
fn lend(t: &Tensor) -> Option<RefMut<'_, [f32]>> {
    wants_grad(t).then(|| t.grad_mut())
}

fn datas<'a>(ts: impl Iterator<Item = &'a Tensor>) -> Vec<Ref<'a, Vec<f32>>> {
    ts.map(Tensor::data).collect()
}

fn slices<'a>(refs: &'a [Ref<'_, Vec<f32>>]) -> Vec<&'a [f32]> {
    refs.iter().map(|r| r.as_slice()).collect()
}

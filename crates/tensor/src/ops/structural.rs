//! Shape-rearranging ops: reshape, concatenation, embedding gather,
//! unfold (im2col for the TextCNN), max-over-time pooling and row selection.

use super::{acc, wants_grad};
use crate::{kernels, runtime};
use crate::Tensor;

impl Tensor {
    /// Reinterpret the data under a new shape with the same element count.
    /// Data is copied (tensors are immutable once built); gradient passes
    /// through unchanged.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        assert_eq!(
            n,
            self.numel(),
            "reshape: cannot view {} elements as {:?}",
            self.numel(),
            dims
        );
        Tensor::from_op(
            self.to_vec(),
            dims,
            vec![self.clone()],
            Box::new(move |g, parents| acc(&parents[0], g)),
        )
    }

    /// Concatenate 2-D tensors along the column axis: `[m, n1] ⊕ [m, n2] ⊕ …`
    /// This is the `⊕` of the paper (Eqs. 10/11/18).
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols: need at least one tensor");
        let m = parts[0].shape().as_2d().0;
        let widths: Vec<usize> = parts
            .iter()
            .map(|t| {
                let (mi, ni) = t.shape().as_2d();
                assert_eq!(mi, m, "concat_cols: row count mismatch");
                ni
            })
            .collect();
        let total: usize = widths.iter().sum();
        let mut out = vec![0.0f32; m * total];
        let mut offset = 0usize;
        for (t, &w) in parts.iter().zip(&widths) {
            let d = t.data();
            for i in 0..m {
                out[i * total + offset..i * total + offset + w]
                    .copy_from_slice(&d[i * w..(i + 1) * w]);
            }
            offset += w;
        }
        let parents: Vec<Tensor> = parts.iter().map(|t| (*t).clone()).collect();
        Tensor::from_op(
            out,
            &[m, total],
            parents,
            Box::new(move |g, parents| {
                let mut offset = 0usize;
                for (t, &w) in parents.iter().zip(&widths) {
                    if wants_grad(t) {
                        let mut gp = vec![0.0f32; m * w];
                        for i in 0..m {
                            gp[i * w..(i + 1) * w].copy_from_slice(
                                &g[i * total + offset..i * total + offset + w],
                            );
                        }
                        acc(t, &gp);
                    }
                    offset += w;
                }
            }),
        )
    }

    /// Concatenate 2-D tensors along the row axis:
    /// `[m1, n] ⊕ [m2, n] ⊕ … → [Σmᵢ, n]`. Used to stack the source and
    /// target feature blocks for the domain classifiers.
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_rows: need at least one tensor");
        let n = parts[0].shape().as_2d().1;
        let heights: Vec<usize> = parts
            .iter()
            .map(|t| {
                let (mi, ni) = t.shape().as_2d();
                assert_eq!(ni, n, "concat_rows: column count mismatch");
                mi
            })
            .collect();
        let total: usize = heights.iter().sum();
        let mut out = Vec::with_capacity(total * n);
        for t in parts {
            out.extend_from_slice(&t.data());
        }
        let parents: Vec<Tensor> = parts.iter().map(|t| (*t).clone()).collect();
        Tensor::from_op(
            out,
            &[total, n],
            parents,
            Box::new(move |g, parents| {
                let mut offset = 0usize;
                for (t, &h) in parents.iter().zip(&heights) {
                    if wants_grad(t) {
                        acc(t, &g[offset * n..(offset + h) * n]);
                    }
                    offset += h;
                }
            }),
        )
    }

    /// Stack 1-D or row tensors vertically into `[k, n]`.
    pub fn stack_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "stack_rows: need at least one tensor");
        let n = parts[0].numel();
        let k = parts.len();
        let mut out = Vec::with_capacity(k * n);
        for t in parts {
            assert_eq!(t.numel(), n, "stack_rows: length mismatch");
            out.extend_from_slice(&t.data());
        }
        let parents: Vec<Tensor> = parts.iter().map(|t| (*t).clone()).collect();
        Tensor::from_op(
            out,
            &[k, n],
            parents,
            Box::new(move |g, parents| {
                for (i, t) in parents.iter().enumerate() {
                    if wants_grad(t) {
                        acc(t, &g[i * n..(i + 1) * n]);
                    }
                }
            }),
        )
    }

    /// Gather rows of an embedding table `[vocab, d]` by index → `[len, d]`.
    /// Backward scatters gradients back into the gathered rows, which is the
    /// standard sparse embedding gradient: per index, its rows summed in
    /// order, added once into the table's gradient
    /// ([`kernels::scatter_add_rows`]), with no `[vocab, d]` buffer built.
    pub fn embedding_lookup(&self, indices: &[usize]) -> Tensor {
        let (vocab, d) = self.shape().as_2d();
        for &ix in indices {
            assert!(ix < vocab, "embedding_lookup: index {ix} out of vocab {vocab}");
        }
        let out = {
            let data = self.data();
            let dref: &[f32] = &data;
            kernels::fill_rows(indices.len(), d, 64, |row, dst| {
                let ix = indices[row];
                dst.copy_from_slice(&dref[ix * d..(ix + 1) * d]);
            })
        };
        let idx = indices.to_vec();
        Tensor::from_op(
            out,
            &[indices.len(), d],
            vec![self.clone()],
            Box::new(move |g, parents| {
                if wants_grad(&parents[0]) {
                    kernels::scatter_add_rows(&idx, g, d, &mut parents[0].grad_mut());
                }
            }),
        )
    }

    /// Unfold (im2col) a batch of embedded documents for 1-D convolution:
    /// `[batch, len, d]` with window `k` → `[batch * (len-k+1), k*d]`.
    ///
    /// A convolution with `f` filters of width `k` then reduces to a single
    /// matmul with a `[k*d, f]` weight, which is how the TextCNN of §4.2 is
    /// implemented.
    pub fn unfold_windows(&self, k: usize) -> Tensor {
        let _span = crate::obs_span("ops.unfold");
        let dims = self.dims();
        assert_eq!(dims.len(), 3, "unfold_windows expects [batch, len, d]");
        let (b, l, d) = (dims[0], dims[1], dims[2]);
        assert!(k >= 1 && k <= l, "unfold_windows: window {k} out of range for len {l}");
        let t = l - k + 1;
        let out = {
            let data = self.data();
            let dref: &[f32] = &data;
            kernels::fill_rows(b * t, k * d, 16, |row, dst| {
                let (bi, wi) = (row / t, row % t);
                let doc = &dref[bi * l * d..(bi + 1) * l * d];
                dst.copy_from_slice(&doc[wi * d..(wi + k) * d]);
            })
        };
        Tensor::from_op(
            out,
            &[b * t, k * d],
            vec![self.clone()],
            Box::new(move |g, parents| {
                if wants_grad(&parents[0]) {
                    // Each document's gradient rows are disjoint; windows
                    // within a document overlap and stay sequential.
                    let mut gp = vec![0.0f32; b * l * d];
                    runtime::parallel_rows_mut(&mut gp, l * d, 1, |bi0, block| {
                        for (db, doc) in block.chunks_mut(l * d).enumerate() {
                            let bi = bi0 + db;
                            for wi in 0..t {
                                let src = &g[(bi * t + wi) * k * d..(bi * t + wi + 1) * k * d];
                                let dst = &mut doc[wi * d..(wi + k) * d];
                                for (o, &x) in dst.iter_mut().zip(src) {
                                    *o += x;
                                }
                            }
                        }
                    });
                    acc(&parents[0], &gp);
                }
            }),
        )
    }

    /// Max-over-time pooling (Eqs. 6–7): `[batch, t, f] → [batch, f]`,
    /// taking the maximum over the time axis; backward routes gradient to
    /// the argmax position only.
    pub fn max_over_time(&self) -> Tensor {
        let dims = self.dims();
        assert_eq!(dims.len(), 3, "max_over_time expects [batch, t, f]");
        let (b, t, f) = (dims[0], dims[1], dims[2]);
        assert!(t >= 1, "max_over_time: empty time axis");
        let mut packed = vec![(f32::NEG_INFINITY, 0usize); b * f];
        {
            let data = self.data();
            let dref: &[f32] = &data;
            runtime::parallel_rows_mut(&mut packed, f, 4, |bi0, block| {
                for (db, brow) in block.chunks_mut(f).enumerate() {
                    let bi = bi0 + db;
                    for ti in 0..t {
                        for (fi, slot) in brow.iter_mut().enumerate() {
                            let v = dref[(bi * t + ti) * f + fi];
                            if v > slot.0 {
                                *slot = (v, ti);
                            }
                        }
                    }
                }
            });
        }
        let out: Vec<f32> = packed.iter().map(|&(v, _)| v).collect();
        let arg: Vec<usize> = packed.iter().map(|&(_, ti)| ti).collect();
        Tensor::from_op(
            out,
            &[b, f],
            vec![self.clone()],
            Box::new(move |g, parents| {
                if wants_grad(&parents[0]) {
                    let mut gp = vec![0.0f32; b * t * f];
                    for bi in 0..b {
                        for fi in 0..f {
                            let ti = arg[bi * f + fi];
                            gp[(bi * t + ti) * f + fi] += g[bi * f + fi];
                        }
                    }
                    acc(&parents[0], &gp);
                }
            }),
        )
    }

    /// Select rows of a 2-D tensor by index (with repetition allowed);
    /// backward scatters. Used to assemble per-batch user/item features from
    /// cached representation matrices.
    pub fn select_rows(&self, rows: &[usize]) -> Tensor {
        let (m, n) = self.shape().as_2d();
        for &r in rows {
            assert!(r < m, "select_rows: row {r} out of range {m}");
        }
        let out = {
            let d = self.data();
            let dref: &[f32] = &d;
            kernels::fill_rows(rows.len(), n, 64, |i, dst| {
                dst.copy_from_slice(&dref[rows[i] * n..(rows[i] + 1) * n]);
            })
        };
        let rows_v = rows.to_vec();
        Tensor::from_op(
            out,
            &[rows.len(), n],
            vec![self.clone()],
            Box::new(move |g, parents| {
                if wants_grad(&parents[0]) {
                    let mut gp = vec![0.0f32; m * n];
                    for (i, &r) in rows_v.iter().enumerate() {
                        for j in 0..n {
                            gp[r * n + j] += g[i * n + j];
                        }
                    }
                    acc(&parents[0], &gp);
                }
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    #[test]
    fn reshape_preserves_data_and_grad() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad();
        let y = x.reshape(&[4]);
        assert_eq!(y.dims(), &[4]);
        y.sum_all().backward();
        assert_eq!(x.grad_vec().unwrap(), vec![1.0; 4]);
    }

    #[test]
    fn concat_cols_layout() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![9.0, 8.0], &[2, 1]);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 9.0, 3.0, 4.0, 8.0]);
    }

    #[test]
    fn concat_cols_backward_splits() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).requires_grad();
        let b = Tensor::from_vec(vec![3.0], &[1, 1]).requires_grad();
        let c = Tensor::concat_cols(&[&a, &b]);
        let w = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[1, 3]);
        c.mul(&w).sum_all().backward();
        assert_eq!(a.grad_vec().unwrap(), vec![10.0, 20.0]);
        assert_eq!(b.grad_vec().unwrap(), vec![30.0]);
    }

    #[test]
    fn concat_rows_stacks_vertically() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad();
        let b = Tensor::from_vec(vec![5.0, 6.0], &[1, 2]).requires_grad();
        let c = Tensor::concat_rows(&[&a, &b]);
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let w = Tensor::from_vec(vec![1.0, 1.0, 2.0, 2.0, 7.0, 7.0], &[3, 2]);
        c.mul(&w).sum_all().backward();
        assert_eq!(a.grad_vec().unwrap(), vec![1.0, 1.0, 2.0, 2.0]);
        assert_eq!(b.grad_vec().unwrap(), vec![7.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn concat_rows_rejects_mismatch() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = Tensor::concat_rows(&[&a, &b]);
    }

    #[test]
    fn stack_rows_builds_matrix() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).requires_grad();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).requires_grad();
        let m = Tensor::stack_rows(&[&a, &b]);
        assert_eq!(m.dims(), &[2, 2]);
        let w = Tensor::from_vec(vec![1.0, 1.0, 5.0, 5.0], &[2, 2]);
        m.mul(&w).sum_all().backward();
        assert_eq!(a.grad_vec().unwrap(), vec![1.0, 1.0]);
        assert_eq!(b.grad_vec().unwrap(), vec![5.0, 5.0]);
    }

    #[test]
    fn embedding_lookup_gathers_and_scatters() {
        let table =
            Tensor::from_vec(vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0], &[3, 2]).requires_grad();
        let e = table.embedding_lookup(&[2, 0, 2]);
        assert_eq!(e.to_vec(), vec![2.0, 2.0, 0.0, 0.0, 2.0, 2.0]);
        e.sum_all().backward();
        // row 2 appears twice
        assert_eq!(
            table.grad_vec().unwrap(),
            vec![1.0, 1.0, 0.0, 0.0, 2.0, 2.0]
        );
    }

    #[test]
    fn embedding_lookup_repeated_indices_match_the_dense_scatter_bitwise() {
        // Index 3 repeats inside the batch, 0 (like padding) at both ends;
        // the table already holds a gradient, so each per-index sum must be
        // added once, as the dense `[vocab, d]` scatter would add it.
        let (vocab, d) = (6usize, 11usize);
        let idx = [3usize, 0, 3, 5, 3, 1, 0];
        let table = crate::init::uniform(&[vocab, d], -1.0, 1.0, &mut crate::seeded_rng(5)).requires_grad();
        let prior = crate::init::uniform(&[vocab, d], -1.0, 1.0, &mut crate::seeded_rng(6)).to_vec();
        table.accumulate_grad(&prior);
        let mut g = crate::init::uniform(&[idx.len(), d], -1.0, 1.0, &mut crate::seeded_rng(7)).to_vec();
        g[3] = -0.0;
        g[d + 4] = -0.0;
        table.embedding_lookup(&idx).backward_with(&g);
        let mut dense = vec![0.0f32; vocab * d];
        for (row, &ix) in idx.iter().enumerate() {
            for j in 0..d {
                dense[ix * d + j] += g[row * d + j];
            }
        }
        let want: Vec<u32> = prior.iter().zip(&dense).map(|(p, s)| (p + s).to_bits()).collect();
        let got: Vec<u32> = table.grad_vec().unwrap().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn unfold_windows_im2col() {
        // batch=1, len=3, d=2: rows [1,2],[3,4],[5,6]; k=2 → 2 windows
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[1, 3, 2]);
        let u = x.unfold_windows(2);
        assert_eq!(u.dims(), &[2, 4]);
        assert_eq!(u.to_vec(), vec![1.0, 2.0, 3.0, 4.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn unfold_backward_overlaps_accumulate() {
        let x = Tensor::from_vec(vec![1.0; 6], &[1, 3, 2]).requires_grad();
        let u = x.unfold_windows(2);
        u.sum_all().backward();
        // middle row participates in both windows → grad 2
        assert_eq!(
            x.grad_vec().unwrap(),
            vec![1.0, 1.0, 2.0, 2.0, 1.0, 1.0]
        );
    }

    #[test]
    fn max_over_time_picks_argmax() {
        // batch=1, t=3, f=2
        let x = Tensor::from_vec(vec![1.0, 9.0, 5.0, 2.0, 3.0, 4.0], &[1, 3, 2]).requires_grad();
        let m = x.max_over_time();
        assert_eq!(m.to_vec(), vec![5.0, 9.0]);
        m.sum_all().backward();
        assert_eq!(
            x.grad_vec().unwrap(),
            vec![0.0, 1.0, 1.0, 0.0, 0.0, 0.0]
        );
    }

    #[test]
    fn select_rows_with_repeats() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad();
        let s = x.select_rows(&[1, 1, 0]);
        assert_eq!(s.dims(), &[3, 2]);
        s.sum_all().backward();
        assert_eq!(x.grad_vec().unwrap(), vec![1.0, 1.0, 2.0, 2.0]);
    }
}

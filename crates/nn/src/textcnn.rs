//! The TextCNN feature extractor of §4.2: parallel 1-D convolutions with
//! kernel widths (3, 4, 5) over word-embedded review documents, ReLU, and
//! max-over-time pooling (Eqs. 4–7). Output width = `kernels × filters`.
//!
//! The whole extractor is one tape op, `Tensor::text_cnn`: it takes the
//! embedding table and the documents' token ids, gathers each document's
//! rows into a small scratch, runs every branch's window GEMM, bias, ReLU
//! and max-over-time there, and keeps only each (document, branch,
//! filter)'s winning window. Its backward touches those windows and the
//! table rows the ids name, adding straight into the parameters'
//! gradients. It is bitwise the composed embedding gather → unfold (im2col)
//! → GEMM → bias → ReLU → pooling → concat chain at any thread count. The
//! forward splits documents across `om_tensor`'s worker pool (see
//! `om_tensor::runtime`); the backward runs on the calling thread.

use om_tensor::{init, Rng, Tensor};

use crate::module::HasParams;

/// One convolution branch of a given kernel width.
struct ConvBranch {
    width: usize,
    /// `[width * emb_dim, filters]` — the convolution as a window GEMM.
    weight: Tensor,
    bias: Tensor,
}

/// Multi-width text convolution with max-over-time pooling.
pub struct TextCnn {
    emb_dim: usize,
    filters: usize,
    branches: Vec<ConvBranch>,
}

impl TextCnn {
    /// Build with the paper's kernel widths `(3, 4, 5)` by default; any
    /// non-empty width set is accepted.
    pub fn new(emb_dim: usize, kernel_widths: &[usize], filters: usize, rng: &mut Rng) -> TextCnn {
        assert!(!kernel_widths.is_empty(), "TextCnn: need at least one kernel width");
        assert!(filters > 0, "TextCnn: need at least one filter");
        let branches = kernel_widths
            .iter()
            .map(|&w| ConvBranch {
                width: w,
                weight: init::he(w * emb_dim, filters, rng).requires_grad(),
                bias: Tensor::zeros(&[filters]).requires_grad(),
            })
            .collect();
        TextCnn {
            emb_dim,
            filters,
            branches,
        }
    }

    /// Output feature width: `kernel_widths.len() * filters`.
    pub fn out_dim(&self) -> usize {
        self.branches.len() * self.filters
    }

    /// Minimum document length this extractor accepts (the widest kernel).
    pub fn min_len(&self) -> usize {
        self.branches.iter().map(|b| b.width).max().unwrap_or(1)
    }

    /// Forward pass over a batch of equal-length documents of token ids
    /// into `table [vocab, emb]` → pooled features `[batch, out_dim]`
    /// (Eqs. 4–7).
    pub fn forward(&self, table: &Tensor, docs: &[&[usize]]) -> Tensor {
        assert!(!docs.is_empty(), "TextCnn: empty batch");
        assert_eq!(table.dims()[1], self.emb_dim, "TextCnn: embedding width mismatch");
        let len = docs[0].len();
        assert!(
            len >= self.min_len(),
            "TextCnn: document length {len} shorter than widest kernel {}",
            self.min_len()
        );
        let ids: Vec<usize> = docs
            .iter()
            .flat_map(|d| {
                assert_eq!(d.len(), len, "TextCnn: ragged documents");
                d.iter().copied()
            })
            .collect();
        let branches: Vec<(&Tensor, &Tensor)> = self.branches.iter().map(|br| (&br.weight, &br.bias)).collect();
        Tensor::text_cnn(table, &ids, len, &branches) // [batch, branches·filters]
    }
}

impl HasParams for TextCnn {
    fn params(&self) -> Vec<Tensor> {
        self.branches
            .iter()
            .flat_map(|b| [b.weight.clone(), b.bias.clone()])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_tensor::seeded_rng;

    /// `docs` as the slices `forward` takes.
    fn views(docs: &[Vec<usize>]) -> Vec<&[usize]> {
        docs.iter().map(Vec::as_slice).collect()
    }

    #[test]
    fn paper_configuration_shapes() {
        let mut rng = seeded_rng(1);
        let cnn = TextCnn::new(16, &[3, 4, 5], 20, &mut rng);
        assert_eq!(cnn.out_dim(), 60);
        assert_eq!(cnn.min_len(), 5);
        let table = Tensor::zeros(&[7, 16]);
        let docs = vec![vec![0; 12], vec![6; 12]];
        assert_eq!(cnn.forward(&table, &views(&docs)).dims(), &[2, 60]);
    }

    #[test]
    fn single_kernel_matches_manual_conv() {
        // kernel width 1 over a single 1-d "embedding": conv == matmul.
        let mut rng = seeded_rng(2);
        let cnn = TextCnn::new(1, &[1], 1, &mut rng);
        cnn.branches[0].weight.data_mut()[0] = 2.0;
        cnn.branches[0].bias.data_mut()[0] = 0.5;
        // doc [1, -1, 4] → relu(2x + .5) per pos → max = 8.5
        let table = Tensor::from_vec(vec![1.0, -1.0, 4.0], &[3, 1]);
        let y = cnn.forward(&table, &[&[0, 1, 2]]);
        assert_eq!(y.to_vec(), vec![8.5]);
    }

    #[test]
    fn gradients_flow_through_all_branches() {
        let mut rng = seeded_rng(3);
        let cnn = TextCnn::new(4, &[2, 3], 5, &mut rng);
        let table = om_tensor::init::normal(&[9, 4], 1.0, &mut rng).requires_grad();
        let docs = vec![vec![1, 2, 3, 4, 5, 6], vec![8, 7, 0, 0, 0, 0]];
        cnn.forward(&table, &views(&docs)).sum_all().backward();
        for p in cnn.params() {
            assert!(p.grad_vec().is_some(), "missing grad on {p:?}");
        }
        assert!(table.grad_vec().is_some(), "missing grad on the table");
    }

    #[test]
    fn params_count() {
        let mut rng = seeded_rng(4);
        let cnn = TextCnn::new(8, &[3, 4, 5], 10, &mut rng);
        // per branch: w*8*10 weights + 10 bias
        let expected = (3 * 8 * 10 + 10) + (4 * 8 * 10 + 10) + (5 * 8 * 10 + 10);
        assert_eq!(cnn.num_params(), expected);
    }

    #[test]
    #[should_panic(expected = "shorter than widest kernel")]
    fn short_document_panics() {
        let mut rng = seeded_rng(5);
        let cnn = TextCnn::new(4, &[5], 2, &mut rng);
        let _ = cnn.forward(&Tensor::zeros(&[2, 4]), &[&[0, 1, 0]]);
    }

    #[test]
    #[should_panic(expected = "ragged documents")]
    fn ragged_documents_panic() {
        let mut rng = seeded_rng(6);
        let cnn = TextCnn::new(4, &[2], 2, &mut rng);
        let _ = cnn.forward(&Tensor::zeros(&[2, 4]), &[&[0, 1, 0], &[1, 1]]);
    }
}

//! The fused TextCNN branch (§4.2, Eqs. 4–7): 1-D convolution, bias, ReLU
//! and max-over-time pooling as one differentiable op.

use super::{acc, wants_grad};
use crate::kernels::{self, ConvShape};
use crate::Tensor;

impl Tensor {
    /// One TextCNN branch over embedded documents `self [batch, len, d]`:
    /// filters `weight [k·d, f]` spanning `k` tokens, `bias [f]`, ReLU, and
    /// the max over the `len − k + 1` windows → `[batch, f]`.
    ///
    /// Forward values and every gradient are bitwise those of
    /// `unfold_windows(k).matmul(weight).add_row(bias).relu()` reshaped to
    /// `[batch, windows, f]` and pooled with `max_over_time()`. Those ops
    /// stay public and are its test oracle. The tape keeps only the
    /// winning window of each (document, filter), and the backward touches
    /// those windows alone: no window matrix and no activation is stored.
    pub fn conv_relu_max_pool(&self, weight: &Tensor, bias: &Tensor, k: usize) -> Tensor {
        let _span = crate::obs_span("ops.conv_pool");
        let dims = self.dims();
        assert_eq!(dims.len(), 3, "conv_relu_max_pool expects [batch, len, d]");
        let (b, l, d) = (dims[0], dims[1], dims[2]);
        let (kd, f) = weight.shape().as_2d();
        assert_eq!(kd, k * d, "conv_relu_max_pool: weight has {kd} rows, a window has {}", k * d);
        let s = ConvShape { docs: b, len: l, dim: d, width: k, filters: f };
        let (out, winners) = kernels::conv_relu_max_pool(&self.data(), &weight.data(), &bias.data(), s);
        Tensor::from_op(
            out,
            &[b, f],
            vec![self.clone(), weight.clone(), bias.clone()],
            Box::new(move |g, parents| {
                let (x, w, bias) = (&parents[0], &parents[1], &parents[2]);
                if wants_grad(x) {
                    acc(x, &kernels::conv_pool_input_grad(&w.data(), &winners, g, s));
                }
                if wants_grad(w) || wants_grad(bias) {
                    let (dw, dbias) = kernels::conv_pool_param_grads(&x.data(), &winners, g, s);
                    acc(w, &dw);
                    acc(bias, &dbias);
                }
            }),
        )
    }
}

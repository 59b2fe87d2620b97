//! Differentiable operations on [`Tensor`](crate::Tensor).
//!
//! Each op computes its forward value eagerly and registers a backward
//! closure that distributes the upstream gradient to its parents. Ops are
//! grouped by theme:
//!
//! * [`elementwise`] — add/sub/mul, scalar algebra, activations, exp/log.
//! * [`matmul`] — dense 2-D matrix multiplication and transposition.
//! * [`conv`] — the TextCNN tower: token ids → every branch's
//!   convolution → bias → ReLU → max-over-time in one op, whose backward
//!   touches only winning windows and the table rows the ids name.
//! * [`reduce`] — full and axis reductions.
//! * [`softmax`] — (log-)softmax over rows and the fused NLL gather.
//! * [`structural`] — reshape, concat, embedding gather, unfold (im2col),
//!   max-over-time pooling, row selection. Gather, unfold and
//!   max-over-time are also the composed reference [`conv`] is tested
//!   against.
//! * [`special`] — gradient reversal/scaling and L2 row normalisation.

pub mod conv;
pub mod elementwise;
pub mod matmul;
pub mod reduce;
pub mod softmax;
pub mod special;
pub mod structural;

use crate::Tensor;

/// Accumulate `g` into `t` only when `t` participates in the gradient graph.
pub(crate) fn acc(t: &Tensor, g: &[f32]) {
    if t.0.needs_grad {
        t.accumulate_grad(g);
    }
}

/// Whether a parent wants gradient (closure-side check).
pub(crate) fn wants_grad(t: &Tensor) -> bool {
    t.0.needs_grad
}

//! # om-tensor
//!
//! A small, dependency-light f32 tensor library with reverse-mode automatic
//! differentiation, written from scratch for the OmniMatch (EDBT 2025)
//! reproduction.
//!
//! The design is a dynamically-built computation graph: every differentiable
//! operation produces a new [`Tensor`] that records its parents and a
//! backward closure. Calling [`Tensor::backward`] on a scalar output runs a
//! topological sweep and accumulates gradients into every tensor that
//! requires them.
//!
//! The op set is exactly what the OmniMatch architecture needs — dense
//! algebra (matmul, bias broadcast), TextCNN plumbing (the tower from
//! token ids through conv → ReLU → max-over-time to pooled features, and
//! the embedding gather, unfold/im2col and max-over-time primitives it is
//! tested against), loss machinery
//! (log-softmax, negative log-likelihood gather, L2 row normalisation for
//! contrastive projections) and the gradient-reversal primitive used by
//! domain adversarial training.
//!
//! Heavy kernels (GEMM, the TextCNN tower's forward, elementwise maps,
//! row-wise softmax/normalisation, reductions, unfold) execute on a global
//! thread pool — see [`runtime`] for configuration (`OM_THREADS`) and [`kernels`]
//! for the determinism contract: results are bitwise identical at every
//! thread count.
//!
//! ```
//! use om_tensor::Tensor;
//! let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad();
//! let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
//! let y = x.matmul(&w).sum_all();
//! y.backward();
//! assert_eq!(w.grad_vec().unwrap(), vec![1.0, 1.0, 1.0, 1.0]);
//! ```

pub mod gradcheck;
pub mod init;
pub mod kernels;
pub mod ops;
pub mod runtime;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use gradcheck::{gradcheck, GradCheckReport};
pub use shape::Shape;
pub use tensor::{grad_enabled, no_grad, NoGradGuard, Tensor};

/// Open an observability span for a hot op, or a no-op handle when
/// observability is disabled (the common case: one relaxed atomic load).
/// Timing never influences results — see the determinism contract in
/// [`kernels`].
#[inline]
pub(crate) fn obs_span(name: &'static str) -> om_obs::Span {
    om_obs::trace::span_if(om_obs::enabled(), name)
}

/// Convenience alias used across the workspace for seeded randomness.
pub type Rng = rand::rngs::StdRng;

/// Create a deterministic RNG from a seed. All stochastic components in the
/// reproduction accept one of these so every experiment is replayable.
pub fn seeded_rng(seed: u64) -> Rng {
    use rand::SeedableRng;
    Rng::seed_from_u64(seed)
}

//! Elementwise arithmetic and activations.

use super::{acc, wants_grad};
use crate::kernels;
use crate::Tensor;

/// Row-vector broadcast `out[r·n + j] = f(a[r·n + j], row[j])` for
/// `n = row.len()`, filled one row at a time so no element pays an
/// `i % n`. One `f` per element, exactly as the flat-index form, so the
/// result is bitwise the same.
fn broadcast_row(a: &[f32], row: &[f32], f: impl Fn(f32, f32) -> f32 + Sync) -> Vec<f32> {
    let n = row.len();
    if n == 0 {
        return Vec::new();
    }
    kernels::fill_rows(a.len() / n, n, 8, |r, out| {
        for ((o, &x), &y) in out.iter_mut().zip(&a[r * n..(r + 1) * n]).zip(row) {
            *o = f(x, y);
        }
    })
}

impl Tensor {
    fn assert_same_shape(&self, other: &Tensor, op: &str) {
        assert_eq!(
            self.dims(),
            other.dims(),
            "{op}: shape mismatch {} vs {}",
            self.shape(),
            other.shape()
        );
    }

    /// Elementwise addition of two same-shape tensors.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "add");
        let out = kernels::add_slices(&self.data(), &other.data());
        Tensor::from_op(
            out,
            self.dims(),
            vec![self.clone(), other.clone()],
            Box::new(move |g, parents| {
                acc(&parents[0], g);
                acc(&parents[1], g);
            }),
        )
    }

    /// Elementwise subtraction `self - other`.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "sub");
        let out = kernels::sub_slices(&self.data(), &other.data());
        Tensor::from_op(
            out,
            self.dims(),
            vec![self.clone(), other.clone()],
            Box::new(move |g, parents| {
                acc(&parents[0], g);
                if wants_grad(&parents[1]) {
                    let neg = kernels::map(g, |x| -x);
                    acc(&parents[1], &neg);
                }
            }),
        )
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "mul");
        let out = kernels::mul_slices(&self.data(), &other.data());
        Tensor::from_op(
            out,
            self.dims(),
            vec![self.clone(), other.clone()],
            Box::new(move |g, parents| {
                let (pa, pb) = (&parents[0], &parents[1]);
                if wants_grad(pa) {
                    let ga = kernels::mul_slices(g, &pb.data());
                    acc(pa, &ga);
                }
                if wants_grad(pb) {
                    let gb = kernels::mul_slices(g, &pa.data());
                    acc(pb, &gb);
                }
            }),
        )
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, c: f32) -> Tensor {
        let out = kernels::scale_slice(&self.data(), c);
        Tensor::from_op(
            out,
            self.dims(),
            vec![self.clone()],
            Box::new(move |g, parents| {
                if wants_grad(&parents[0]) {
                    let gp = kernels::scale_slice(g, c);
                    acc(&parents[0], &gp);
                }
            }),
        )
    }

    /// Add a scalar to every element.
    pub fn add_scalar(&self, c: f32) -> Tensor {
        let out = kernels::map(&self.data(), |x| x + c);
        Tensor::from_op(
            out,
            self.dims(),
            vec![self.clone()],
            Box::new(move |g, parents| acc(&parents[0], g)),
        )
    }

    /// Negate every element.
    pub fn neg(&self) -> Tensor {
        self.scale(-1.0)
    }

    /// Broadcast-add a row vector `[n]` to every row of a `[..., n]` tensor.
    /// This is the bias pattern of a dense layer.
    pub fn add_row(&self, row: &Tensor) -> Tensor {
        let (_, n) = self.shape().as_2d();
        assert_eq!(
            row.numel(),
            n,
            "add_row: row length {} does not match last dim {}",
            row.numel(),
            n
        );
        let out = broadcast_row(&self.data(), &row.data(), |x, y| x + y);
        Tensor::from_op(
            out,
            self.dims(),
            vec![self.clone(), row.clone()],
            Box::new(move |g, parents| {
                acc(&parents[0], g);
                if wants_grad(&parents[1]) {
                    let mut gb = vec![0.0f32; n];
                    let w = n.max(1); // zero-width rows: empty tensors, no chunks
                    for g_row in g.chunks_exact(w) {
                        for (s, &x) in gb.iter_mut().zip(g_row) {
                            *s += x;
                        }
                    }
                    acc(&parents[1], &gb);
                }
            }),
        )
    }

    /// Broadcast-multiply a row vector `[n]` into every row of a `[..., n]`
    /// tensor. This is the gain pattern of layer normalisation.
    pub fn mul_row(&self, row: &Tensor) -> Tensor {
        let (_, n) = self.shape().as_2d();
        assert_eq!(
            row.numel(),
            n,
            "mul_row: row length {} does not match last dim {}",
            row.numel(),
            n
        );
        let out = broadcast_row(&self.data(), &row.data(), |x, y| x * y);
        Tensor::from_op(
            out,
            self.dims(),
            vec![self.clone(), row.clone()],
            Box::new(move |g, parents| {
                let (pa, pb) = (&parents[0], &parents[1]);
                if wants_grad(pa) {
                    let ga = broadcast_row(g, &pb.data(), |x, y| x * y);
                    acc(pa, &ga);
                }
                if wants_grad(pb) {
                    let a = pa.data();
                    let mut gb = vec![0.0f32; n];
                    let w = n.max(1); // zero-width rows: empty tensors, no chunks
                    for (g_row, a_row) in g.chunks_exact(w).zip(a.chunks_exact(w)) {
                        for ((s, &x), &y) in gb.iter_mut().zip(g_row).zip(a_row) {
                            *s += x * y;
                        }
                    }
                    acc(pb, &gb);
                }
            }),
        )
    }

    /// Rectified linear unit, the paper's activation (Eq. 5).
    pub fn relu(&self) -> Tensor {
        let saved = self.to_vec();
        let out = kernels::map(&saved, |x| x.max(0.0));
        Tensor::from_op(
            out,
            self.dims(),
            vec![self.clone()],
            Box::new(move |g, parents| {
                if wants_grad(&parents[0]) {
                    let gp = kernels::zip_map(g, &saved, |gy, x| if x > 0.0 { gy } else { 0.0 });
                    acc(&parents[0], &gp);
                }
            }),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        let out = kernels::map(&self.data(), |x| 1.0 / (1.0 + (-x).exp()));
        let saved = out.clone();
        Tensor::from_op(
            out,
            self.dims(),
            vec![self.clone()],
            Box::new(move |g, parents| {
                if wants_grad(&parents[0]) {
                    let gp = kernels::zip_map(g, &saved, |gy, y| gy * y * (1.0 - y));
                    acc(&parents[0], &gp);
                }
            }),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh_act(&self) -> Tensor {
        let out = kernels::map(&self.data(), f32::tanh);
        let saved = out.clone();
        Tensor::from_op(
            out,
            self.dims(),
            vec![self.clone()],
            Box::new(move |g, parents| {
                if wants_grad(&parents[0]) {
                    let gp = kernels::zip_map(g, &saved, |gy, y| gy * (1.0 - y * y));
                    acc(&parents[0], &gp);
                }
            }),
        )
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        let out = kernels::map(&self.data(), f32::exp);
        let saved = out.clone();
        Tensor::from_op(
            out,
            self.dims(),
            vec![self.clone()],
            Box::new(move |g, parents| {
                if wants_grad(&parents[0]) {
                    let gp = kernels::zip_map(g, &saved, |gy, y| gy * y);
                    acc(&parents[0], &gp);
                }
            }),
        )
    }

    /// Elementwise natural logarithm (inputs must be positive).
    pub fn log(&self) -> Tensor {
        let saved = self.to_vec();
        let out = kernels::map(&saved, f32::ln);
        Tensor::from_op(
            out,
            self.dims(),
            vec![self.clone()],
            Box::new(move |g, parents| {
                if wants_grad(&parents[0]) {
                    let gp = kernels::zip_map(g, &saved, |gy, x| gy / x);
                    acc(&parents[0], &gp);
                }
            }),
        )
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        self.mul(self)
    }
}

#[cfg(test)]
mod tests {
    use crate::Tensor;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn add_forward_backward() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).requires_grad();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).requires_grad();
        let y = a.add(&b).sum_all();
        assert_eq!(y.item(), 10.0);
        y.backward();
        assert_eq!(a.grad_vec().unwrap(), vec![1.0, 1.0]);
        assert_eq!(b.grad_vec().unwrap(), vec![1.0, 1.0]);
    }

    #[test]
    fn sub_backward_negates_rhs() {
        let a = Tensor::from_vec(vec![5.0, 5.0], &[2]).requires_grad();
        let b = Tensor::from_vec(vec![1.0, 2.0], &[2]).requires_grad();
        let y = a.sub(&b).sum_all();
        y.backward();
        assert_eq!(a.grad_vec().unwrap(), vec![1.0, 1.0]);
        assert_eq!(b.grad_vec().unwrap(), vec![-1.0, -1.0]);
    }

    #[test]
    fn mul_backward_is_cross() {
        let a = Tensor::from_vec(vec![2.0, 3.0], &[2]).requires_grad();
        let b = Tensor::from_vec(vec![5.0, 7.0], &[2]).requires_grad();
        let y = a.mul(&b).sum_all();
        assert_eq!(y.item(), 31.0);
        y.backward();
        assert_eq!(a.grad_vec().unwrap(), vec![5.0, 7.0]);
        assert_eq!(b.grad_vec().unwrap(), vec![2.0, 3.0]);
    }

    #[test]
    fn scale_and_add_scalar() {
        let a = Tensor::from_vec(vec![1.0, -2.0], &[2]).requires_grad();
        let y = a.scale(3.0).add_scalar(1.0).sum_all();
        assert_eq!(y.item(), 3.0 - 6.0 + 2.0);
        y.backward();
        assert_eq!(a.grad_vec().unwrap(), vec![3.0, 3.0]);
    }

    #[test]
    fn add_row_broadcasts_bias() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).requires_grad();
        let y = x.add_row(&b);
        assert_eq!(y.to_vec(), vec![11.0, 22.0, 13.0, 24.0]);
        y.sum_all().backward();
        assert_eq!(b.grad_vec().unwrap(), vec![2.0, 2.0]);
    }

    #[test]
    fn relu_kills_negative_gradient() {
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[2]).requires_grad();
        let y = x.relu();
        assert_eq!(y.to_vec(), vec![0.0, 2.0]);
        y.sum_all().backward();
        assert_eq!(x.grad_vec().unwrap(), vec![0.0, 1.0]);
    }

    #[test]
    fn sigmoid_tanh_exp_log_forward() {
        let x = Tensor::from_vec(vec![0.0], &[1]);
        assert!(close(x.sigmoid().item(), 0.5));
        assert!(close(x.tanh_act().item(), 0.0));
        assert!(close(x.exp().item(), 1.0));
        let e = Tensor::from_vec(vec![std::f32::consts::E], &[1]);
        assert!(close(e.log().item(), 1.0));
    }

    #[test]
    fn square_matches_mul_self() {
        let x = Tensor::from_vec(vec![3.0, -4.0], &[2]).requires_grad();
        let y = x.square().sum_all();
        assert_eq!(y.item(), 25.0);
        y.backward();
        assert_eq!(x.grad_vec().unwrap(), vec![6.0, -8.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        let _ = a.add(&b);
    }
}

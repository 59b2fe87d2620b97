//! The core [`Tensor`] type and the reverse-mode autograd engine.

use std::cell::{Ref, RefCell, RefMut};
use std::collections::HashSet;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::shape::Shape;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static NO_GRAD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// RAII guard disabling graph construction on this thread (see [`no_grad`]).
pub struct NoGradGuard {
    prev: bool,
}

/// Disable autograd graph construction until the returned guard drops.
/// Evaluation passes use this to skip node bookkeeping entirely.
pub fn no_grad() -> NoGradGuard {
    let prev = NO_GRAD.with(|c| c.replace(true));
    NoGradGuard { prev }
}

impl Drop for NoGradGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        NO_GRAD.with(|c| c.set(prev));
    }
}

/// Is autograd graph construction currently enabled on this thread?
/// `false` inside a [`no_grad`] scope (and thus inside om-nn's inference
/// mode, which holds a [`NoGradGuard`]).
pub fn grad_enabled() -> bool {
    NO_GRAD.with(|c| !c.get())
}

/// A backward closure: receives the upstream gradient of this node's output
/// and the node's parent tensors, and accumulates gradients into them.
/// Parents are passed as arguments (never captured) so a dropped graph
/// frees without reference cycles through closures, and [`Inner`]'s
/// iterative `Drop` can tear down arbitrarily deep chains without
/// recursion.
pub(crate) type BackwardFn = Box<dyn Fn(&[f32], &[Tensor])>;

impl Drop for Inner {
    fn drop(&mut self) {
        // Iterative teardown: a naive recursive drop of `parents` overflows
        // the stack on deep graphs (e.g. 10k chained ops). Claim the whole
        // ancestor chain into a flat worklist first.
        let mut stack: Vec<Tensor> = std::mem::take(&mut self.parents);
        while let Some(mut t) = stack.pop() {
            if let Some(inner) = Rc::get_mut(&mut t.0) {
                stack.append(&mut inner.parents);
            }
        }
    }
}

pub(crate) struct Inner {
    pub(crate) id: u64,
    pub(crate) shape: Shape,
    pub(crate) data: RefCell<Vec<f32>>,
    pub(crate) grad: RefCell<Option<Vec<f32>>>,
    /// True for leaf parameters the user asked gradients for.
    pub(crate) requires_grad: bool,
    /// True if this node or any ancestor requires a gradient; interior nodes
    /// with `needs_grad` receive gradient buffers during the backward sweep.
    pub(crate) needs_grad: bool,
    pub(crate) parents: Vec<Tensor>,
    pub(crate) backward: Option<BackwardFn>,
}

/// An n-dimensional f32 tensor participating in a dynamically-built
/// computation graph.
///
/// `Tensor` is a cheap handle (`Rc` clone). Data lives behind a `RefCell` so
/// optimizers can update parameters in place between graph constructions.
#[derive(Clone)]
pub struct Tensor(pub(crate) Rc<Inner>);

impl Tensor {
    // ---------------------------------------------------------------- ctor

    /// Build a leaf tensor from raw data. Panics if `data.len()` does not
    /// match the shape's element count.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.numel()
        );
        Tensor(Rc::new(Inner {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            shape,
            data: RefCell::new(data),
            grad: RefCell::new(None),
            requires_grad: false,
            needs_grad: false,
            parents: Vec::new(),
            backward: None,
        }))
    }

    /// A tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Tensor {
        let n = Shape::new(dims).numel();
        Tensor::from_vec(vec![0.0; n], dims)
    }

    /// A tensor of ones.
    pub fn ones(dims: &[usize]) -> Tensor {
        let n = Shape::new(dims).numel();
        Tensor::from_vec(vec![1.0; n], dims)
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Tensor {
        let n = Shape::new(dims).numel();
        Tensor::from_vec(vec![value; n], dims)
    }

    /// A scalar (shape `[1]`) tensor.
    pub fn scalar(value: f32) -> Tensor {
        Tensor::from_vec(vec![value], &[1])
    }

    /// Mark this leaf as a trainable parameter. Consumes and returns the
    /// handle for builder-style construction. Panics when called on a
    /// non-leaf (interior) node, where the flag would have no effect.
    pub fn requires_grad(self) -> Tensor {
        assert!(
            self.0.backward.is_none(),
            "requires_grad() must be set on leaf tensors before use in ops"
        );
        // Rebuild the inner with the flag set; the Rc may be shared, so we
        // only do this when uniquely owned (typical for freshly created
        // parameters).
        match Rc::try_unwrap(self.0) {
            Ok(mut inner) => {
                inner.requires_grad = true;
                inner.needs_grad = true;
                Tensor(Rc::new(inner))
            }
            Err(rc) => {
                // Shared handle: clone the data into a fresh parameter.
                let data = rc.data.borrow().clone();
                let mut t = Tensor::from_vec(data, rc.shape.dims());
                let inner = Rc::get_mut(&mut t.0).expect("fresh tensor is unique");
                inner.requires_grad = true;
                inner.needs_grad = true;
                t
            }
        }
    }

    /// Internal: build an interior node produced by an op.
    pub(crate) fn from_op(
        data: Vec<f32>,
        dims: &[usize],
        parents: Vec<Tensor>,
        backward: BackwardFn,
    ) -> Tensor {
        let needs_grad = grad_enabled() && parents.iter().any(|p| p.0.needs_grad);
        let shape = Shape::new(dims);
        assert_eq!(data.len(), shape.numel(), "op output length mismatch");
        if !needs_grad {
            // No ancestor wants gradients: drop the graph edges entirely so
            // inference never retains memory.
            return Tensor::from_vec(data, dims);
        }
        Tensor(Rc::new(Inner {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            shape,
            data: RefCell::new(data),
            grad: RefCell::new(None),
            requires_grad: false,
            needs_grad: true,
            parents,
            backward: Some(backward),
        }))
    }

    // ------------------------------------------------------------ accessors

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.0.shape
    }

    /// The dims as a slice.
    pub fn dims(&self) -> &[usize] {
        self.0.shape.dims()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.0.shape.numel()
    }

    /// Unique node id (useful for debugging graphs).
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// Whether this is a trainable leaf.
    pub fn is_parameter(&self) -> bool {
        self.0.requires_grad
    }

    /// Immutable view of the data.
    pub fn data(&self) -> Ref<'_, Vec<f32>> {
        self.0.data.borrow()
    }

    /// Mutable view of the data (used by optimizers; never call while a
    /// graph referencing this tensor is mid-backward).
    pub fn data_mut(&self) -> RefMut<'_, Vec<f32>> {
        self.0.data.borrow_mut()
    }

    /// Copy of the data as a `Vec`.
    pub fn to_vec(&self) -> Vec<f32> {
        self.0.data.borrow().clone()
    }

    /// The single value of a scalar tensor. Panics if `numel() != 1`.
    pub fn item(&self) -> f32 {
        let d = self.0.data.borrow();
        assert_eq!(d.len(), 1, "item() requires a scalar tensor");
        d[0]
    }

    /// Element at a flat index.
    pub fn at(&self, idx: usize) -> f32 {
        self.0.data.borrow()[idx]
    }

    /// Copy of the accumulated gradient, if any.
    pub fn grad_vec(&self) -> Option<Vec<f32>> {
        self.0.grad.borrow().clone()
    }

    /// The accumulated gradient, borrowed rather than copied (optimizers
    /// read it once per step). Never hold it across a backward pass.
    pub fn grad(&self) -> Option<Ref<'_, [f32]>> {
        Ref::filter_map(self.0.grad.borrow(), |g| g.as_deref()).ok()
    }

    /// Clear the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.0.grad.borrow_mut() = None;
    }

    /// Detach: a new leaf sharing a *copy* of the data, outside any graph.
    pub fn detach(&self) -> Tensor {
        Tensor::from_vec(self.to_vec(), self.dims())
    }

    /// Accumulate `g` into this node's gradient buffer. Panics when `g` is
    /// not one value per element.
    pub fn accumulate_grad(&self, g: &[f32]) {
        assert_eq!(g.len(), self.numel(), "accumulate_grad: {} values for {} elements", g.len(), self.numel());
        let mut slot = self.0.grad.borrow_mut();
        match slot.as_mut() {
            Some(buf) => {
                crate::runtime::parallel_rows_mut(buf, 1, 16 * 1024, |i0, block| {
                    for (d, b) in block.iter_mut().enumerate() {
                        *b += g[i0 + d];
                    }
                });
            }
            None => *slot = Some(g.to_vec()),
        }
    }

    /// Lend this node's gradient buffer for in place accumulation, created
    /// `+0.0`-filled when absent. Adding values into it is bitwise
    /// [`Tensor::accumulate_grad`] of the same values as long as none of
    /// them is `-0.0` (`+0.0 + -0.0 = +0.0`, where a first `accumulate_grad`
    /// would store the `-0.0`); every sum that starts at `+0.0` qualifies.
    /// The buffer is asserted to hold one value per element.
    pub(crate) fn grad_mut(&self) -> RefMut<'_, [f32]> {
        let n = self.numel();
        RefMut::map(self.0.grad.borrow_mut(), |slot| {
            let buf = slot.get_or_insert_with(|| vec![0.0; n]);
            assert_eq!(buf.len(), n, "grad_mut: gradient buffer holds {} values for {n} elements", buf.len());
            buf.as_mut_slice()
        })
    }

    // ------------------------------------------------------------- backward

    /// Run reverse-mode differentiation from this (scalar) output.
    ///
    /// Seeds the output gradient with 1 and sweeps the graph in reverse
    /// topological order, accumulating into every tensor on a path to a
    /// parameter. Panics if the output is not a scalar; use
    /// [`Tensor::backward_with`] to seed an arbitrary gradient.
    pub fn backward(&self) {
        assert_eq!(self.numel(), 1, "backward() requires a scalar output");
        self.backward_with(&[1.0]);
    }

    /// Run reverse-mode differentiation seeding the output gradient with
    /// `seed` (same length as `numel()`).
    pub fn backward_with(&self, seed: &[f32]) {
        assert_eq!(seed.len(), self.numel(), "seed length mismatch");
        if !self.0.needs_grad {
            return; // nothing on the graph requires gradients
        }
        // Topological order via iterative post-order DFS.
        let mut order: Vec<Tensor> = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        let mut stack: Vec<(Tensor, usize)> = vec![(self.clone(), 0)];
        visited.insert(self.0.id);
        while let Some((node, child_idx)) = stack.pop() {
            if child_idx < node.0.parents.len() {
                let parent = node.0.parents[child_idx].clone();
                stack.push((node, child_idx + 1));
                if parent.0.needs_grad && visited.insert(parent.0.id) {
                    stack.push((parent, 0));
                }
            } else {
                order.push(node);
            }
        }
        // `order` is post-order: parents before children; reverse it so the
        // output comes first.
        self.accumulate_grad(seed);
        for node in order.iter().rev() {
            if let Some(backward) = &node.0.backward {
                // Borrowed, not copied: a closure writes only its parents'
                // gradients, never its own node's, so the borrow cannot
                // alias. A node nothing reached still runs, on zeros, so
                // its parameters see `Some(0)` as before.
                match node.0.grad.borrow().as_deref() {
                    Some(grad) => backward(grad, &node.0.parents),
                    None => backward(&vec![0.0; node.numel()], &node.0.parents),
                }
            }
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.0.data.borrow();
        let preview: Vec<f32> = d.iter().take(8).copied().collect();
        write!(
            f,
            "Tensor(id={}, shape={}, requires_grad={}, data≈{:?}{})",
            self.0.id,
            self.0.shape,
            self.0.requires_grad,
            preview,
            if d.len() > 8 { "…" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_construction_and_accessors() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.numel(), 4);
        assert_eq!(t.dims(), &[2, 2]);
        assert_eq!(t.at(3), 4.0);
        assert!(!t.is_parameter());
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn shape_mismatch_panics() {
        let _ = Tensor::from_vec(vec![1.0; 3], &[2, 2]);
    }

    #[test]
    fn requires_grad_marks_parameter() {
        let t = Tensor::zeros(&[3]).requires_grad();
        assert!(t.is_parameter());
        assert!(t.0.needs_grad);
    }

    #[test]
    fn zeros_ones_full_scalar() {
        assert_eq!(Tensor::zeros(&[2, 2]).to_vec(), vec![0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).to_vec(), vec![1.0; 3]);
        assert_eq!(Tensor::full(&[2], 7.5).to_vec(), vec![7.5, 7.5]);
        assert_eq!(Tensor::scalar(2.5).item(), 2.5);
    }

    #[test]
    fn grad_accumulates_across_calls() {
        let t = Tensor::zeros(&[2]).requires_grad();
        t.accumulate_grad(&[1.0, 2.0]);
        t.accumulate_grad(&[0.5, 0.5]);
        assert_eq!(t.grad_vec().unwrap(), vec![1.5, 2.5]);
        t.zero_grad();
        assert!(t.grad_vec().is_none());
    }

    #[test]
    #[should_panic(expected = "accumulate_grad: 3 values for 2 elements")]
    fn accumulate_grad_rejects_a_wrong_length() {
        let t = Tensor::zeros(&[2]).requires_grad();
        t.accumulate_grad(&[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "grad_mut: gradient buffer holds 3 values for 2 elements")]
    fn grad_mut_rejects_a_wrong_length_buffer() {
        let t = Tensor::zeros(&[2]).requires_grad();
        *t.0.grad.borrow_mut() = Some(vec![0.0; 3]);
        let _ = t.grad_mut();
    }

    #[test]
    fn grad_mut_lends_a_zero_filled_buffer_and_grad_borrows_it() {
        let t = Tensor::zeros(&[3]).requires_grad();
        assert!(t.grad().is_none());
        t.grad_mut()[1] += 2.5;
        assert_eq!(t.grad_vec().unwrap(), vec![0.0, 2.5, 0.0]);
        t.grad_mut()[1] += 0.5;
        assert_eq!(&*t.grad().unwrap(), &[0.0, 3.0, 0.0]);
    }

    #[test]
    fn detach_breaks_graph() {
        let t = Tensor::ones(&[2]).requires_grad();
        let d = t.detach();
        assert!(!d.is_parameter());
        assert_eq!(d.to_vec(), vec![1.0, 1.0]);
    }

    #[test]
    fn backward_on_non_graph_is_noop() {
        let t = Tensor::ones(&[1]);
        t.backward(); // must not panic
        assert!(t.grad_vec().is_none());
    }
}

#[cfg(test)]
mod no_grad_tests {
    use super::*;

    #[test]
    fn no_grad_skips_graph() {
        let w = Tensor::ones(&[2]).requires_grad();
        let guard = no_grad();
        let y = w.scale(2.0);
        drop(guard);
        y.backward_with(&[1.0, 1.0]);
        assert!(w.grad_vec().is_none(), "no_grad must sever the graph");
    }

    #[test]
    fn no_grad_restores_on_drop() {
        let w = Tensor::ones(&[1]).requires_grad();
        {
            let _g = no_grad();
        }
        w.scale(3.0).sum_all().backward();
        assert_eq!(w.grad_vec().unwrap(), vec![3.0]);
    }

    #[test]
    fn no_grad_nests() {
        let w = Tensor::ones(&[1]).requires_grad();
        let g1 = no_grad();
        {
            let _g2 = no_grad();
        }
        // still disabled after inner guard drops
        let y = w.scale(2.0);
        drop(g1);
        y.backward_with(&[1.0]);
        assert!(w.grad_vec().is_none());
    }
}

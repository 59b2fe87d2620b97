//! Multi-layer perceptron with ReLU activations and optional dropout — the
//! `MLP(·)` used for the projection head (Eq. 11), domain classifiers
//! (Eqs. 14/16) and rating classifier (Eq. 18).

use om_tensor::{Rng, Tensor};

use crate::dropout::Dropout;
use crate::linear::Linear;
use crate::module::HasParams;

/// A stack of dense layers; ReLU between layers, linear final output,
/// dropout after every hidden activation (the paper applies dropout after
/// each linear layer, §5.4).
pub struct Mlp {
    layers: Vec<Linear>,
    dropout: Dropout,
}

impl Mlp {
    /// Build from a width spec `[in, h1, ..., out]` (at least two entries).
    pub fn new(widths: &[usize], dropout_rate: f32, rng: &mut Rng) -> Mlp {
        assert!(widths.len() >= 2, "Mlp: need at least [in, out] widths");
        let layers = widths
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Mlp {
            layers,
            dropout: Dropout::new(dropout_rate),
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// The dense layers, input first. [`Mlp::forward`] runs each in turn
    /// with ReLU (and dropout) between them and none after the last.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Forward pass; `training` toggles dropout.
    pub fn forward(&self, x: &Tensor, training: bool, rng: &mut Rng) -> Tensor {
        let last = self.layers.len() - 1;
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(&h);
            if i < last {
                h = self.dropout.forward(&h.relu(), training, rng);
            }
        }
        h
    }
}

impl HasParams for Mlp {
    fn params(&self) -> Vec<Tensor> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_tensor::seeded_rng;

    #[test]
    fn shapes_through_stack() {
        let mut rng = seeded_rng(1);
        let mlp = Mlp::new(&[8, 16, 4], 0.0, &mut rng);
        assert_eq!(mlp.in_dim(), 8);
        assert_eq!(mlp.out_dim(), 4);
        let y = mlp.forward(&Tensor::zeros(&[3, 8]), false, &mut rng);
        assert_eq!(y.dims(), &[3, 4]);
    }

    #[test]
    fn single_layer_is_affine() {
        let mut rng = seeded_rng(2);
        let mlp = Mlp::new(&[2, 2], 0.0, &mut rng);
        // negative outputs must survive (no ReLU on the final layer)
        mlp.layers[0].weight.data_mut().copy_from_slice(&[-1.0, 0.0, 0.0, -1.0]);
        mlp.layers[0].bias.data_mut().fill(0.0);
        let y = mlp.forward(&Tensor::ones(&[1, 2]), false, &mut rng);
        assert_eq!(y.to_vec(), vec![-1.0, -1.0]);
    }

    #[test]
    fn all_layers_receive_gradients() {
        let mut rng = seeded_rng(3);
        let mlp = Mlp::new(&[4, 8, 8, 2], 0.0, &mut rng);
        let x = om_tensor::init::normal(&[5, 4], 1.0, &mut rng);
        mlp.forward(&x, true, &mut rng).square().mean_all().backward();
        for p in mlp.params() {
            assert!(p.grad_vec().is_some());
        }
    }

    #[test]
    fn dropout_only_in_training() {
        let mut rng = seeded_rng(4);
        let mlp = Mlp::new(&[4, 64, 2], 0.9, &mut rng);
        let x = Tensor::ones(&[1, 4]);
        let a = mlp.forward(&x, false, &mut seeded_rng(5)).to_vec();
        let b = mlp.forward(&x, false, &mut seeded_rng(6)).to_vec();
        assert_eq!(a, b); // eval is deterministic regardless of rng
    }

    #[test]
    #[should_panic(expected = "need at least")]
    fn too_few_widths_panics() {
        let _ = Mlp::new(&[4], 0.0, &mut seeded_rng(1));
    }
}

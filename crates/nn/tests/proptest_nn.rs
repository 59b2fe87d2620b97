//! Property-based tests for om-nn: layer algebra, loss invariances and
//! optimizer behaviour over randomised inputs.

use om_nn::{mse_loss, supcon_loss, Adadelta, HasParams, Linear, Mlp, Optimizer, Sgd, TextCnn};
use om_tensor::{init, seeded_rng, Tensor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn linear_is_affine(seed in 0u64..500, a in -2.0f32..2.0, b in -2.0f32..2.0) {
        // f(a·x + b·y) == a·f(x) + b·f(y) − (a+b−1)·bias — affinity check
        let mut rng = seeded_rng(seed);
        let l = Linear::new(4, 3, &mut rng);
        let x = init::normal(&[2, 4], 1.0, &mut rng);
        let y = init::normal(&[2, 4], 1.0, &mut rng);
        let lhs = l.forward(&x.scale(a).add(&y.scale(b)));
        let bias_term = l.bias.scale(a + b - 1.0);
        let rhs = l.forward(&x).scale(a).add(&l.forward(&y).scale(b));
        for i in 0..lhs.numel() {
            let corrected = rhs.at(i) - bias_term.at(i % 3);
            prop_assert!((lhs.at(i) - corrected).abs() < 1e-3,
                "affinity violated: {} vs {}", lhs.at(i), corrected);
        }
    }

    #[test]
    fn mse_is_nonnegative_and_zero_iff_equal(v in proptest::collection::vec(-3.0f32..3.0, 1..20)) {
        let t = Tensor::from_vec(v.clone(), &[v.len()]);
        prop_assert!(mse_loss(&t, &v).item().abs() < 1e-10);
        let shifted: Vec<f32> = v.iter().map(|x| x + 1.0).collect();
        prop_assert!(mse_loss(&t, &shifted).item() > 0.5);
    }

    #[test]
    fn supcon_is_permutation_invariant(seed in 0u64..200) {
        let z = init::normal(&[6, 4], 1.0, &mut seeded_rng(seed));
        let labels = [0usize, 0, 1, 1, 2, 2];
        let base = supcon_loss(&z, &labels, 0.1).item();
        // swap rows 0 and 2 (and their labels)
        let d = z.to_vec();
        let mut swapped = d.clone();
        swapped[0..4].copy_from_slice(&d[8..12]);
        swapped[8..12].copy_from_slice(&d[0..4]);
        let z2 = Tensor::from_vec(swapped, &[6, 4]);
        let labels2 = [1usize, 0, 0, 1, 2, 2];
        let permuted = supcon_loss(&z2, &labels2, 0.1).item();
        prop_assert!((base - permuted).abs() < 1e-4, "{base} vs {permuted}");
    }

    #[test]
    fn supcon_scale_invariant_after_normalisation(seed in 0u64..200, c in 0.5f32..4.0) {
        // rows are L2-normalised inside, so rescaling inputs is a no-op
        let z = init::normal(&[4, 8], 1.0, &mut seeded_rng(seed));
        let labels = [0usize, 0, 1, 1];
        let a = supcon_loss(&z, &labels, 0.07).item();
        let b = supcon_loss(&z.scale(c), &labels, 0.07).item();
        prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
    }

    #[test]
    fn sgd_step_moves_against_gradient(seed in 0u64..200) {
        let x = init::normal(&[4], 1.0, &mut seeded_rng(seed)).requires_grad();
        let before = x.to_vec();
        let mut opt = Sgd::new(vec![x.clone()], 0.1);
        x.square().sum_all().backward();
        let grad = x.grad_vec().unwrap();
        opt.step();
        let after = x.to_vec();
        for ((b, a), g) in before.iter().zip(&after).zip(&grad) {
            prop_assert!(((b - a) - 0.1 * g).abs() < 1e-5);
        }
    }

    #[test]
    fn adadelta_first_steps_are_bounded(seed in 0u64..200) {
        // Adadelta's update magnitude is bounded by lr·√(ε)/√((1-ρ)g²+ε)·g,
        // small at the start — no explosive first step regardless of scale.
        let x = init::normal(&[4], 100.0, &mut seeded_rng(seed)).requires_grad();
        let before = x.to_vec();
        let mut opt = Adadelta::new(vec![x.clone()], 1.0, 0.95);
        x.square().sum_all().backward();
        opt.step();
        for (b, a) in before.iter().zip(x.to_vec()) {
            prop_assert!((b - a).abs() < 1.0, "first step too large: {b} → {a}");
        }
    }

    #[test]
    fn textcnn_batch_rows_are_independent(seed in 0u64..100) {
        // encoding the same document alone or in a batch yields the same
        // features; max-over-time depends only on the document itself
        let mut rng = seeded_rng(seed);
        let cnn = TextCnn::new(3, &[2, 3], 4, &mut rng);
        let doc = init::normal(&[1, 6, 3], 1.0, &mut rng);
        let other = init::normal(&[1, 6, 3], 1.0, &mut rng);
        // The two documents' rows as a table, read through ids.
        let mut rows = doc.to_vec();
        rows.extend(other.to_vec());
        let table = Tensor::from_vec(rows, &[12, 3]);
        let (doc_ids, other_ids): (Vec<usize>, Vec<usize>) = ((0..6).collect(), (6..12).collect());
        let solo = cnn.forward(&table, &[&doc_ids]);
        let batch = cnn.forward(&table, &[&doc_ids, &other_ids]);
        for i in 0..solo.numel() {
            prop_assert!((solo.at(i) - batch.at(i)).abs() < 1e-5);
        }
    }

    #[test]
    fn mlp_gradients_flow_for_any_depth(depth in 1usize..4, seed in 0u64..100) {
        let mut rng = seeded_rng(seed);
        let mut widths = vec![4usize];
        widths.extend(std::iter::repeat_n(6usize, depth));
        widths.push(2);
        let mlp = Mlp::new(&widths, 0.0, &mut rng);
        let x = init::normal(&[3, 4], 1.0, &mut rng);
        mlp.forward(&x, true, &mut rng).square().mean_all().backward();
        for p in mlp.params() {
            prop_assert!(p.grad_vec().is_some());
        }
    }
}

//! Property-based tests for the GNN crate: gradient correctness as a
//! property over random graphs/weights, and training invariants.

use fare_gnn::{Adam, Gnn, GnnDims, IdealReader};
use fare_graph::datasets::ModelKind;
use fare_graph::GraphView;
use fare_rt::prop::prelude::*;
use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::{Rng, SeedableRng};
use fare_tensor::{init, ops, Matrix};

fn random_case(seed: u64, n: usize) -> (GraphView, Matrix, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut adj = Matrix::zeros(n, n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(0.4) {
                adj[(i, j)] = 1.0;
                adj[(j, i)] = 1.0;
            }
        }
    }
    let x = init::normal(n, 4, 1.0, &mut rng);
    let labels = (0..n).map(|i| i % 3).collect();
    (GraphView::from_dense(adj), x, labels)
}

fn dims() -> GnnDims {
    GnnDims {
        input: 4,
        hidden: 5,
        output: 3,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn weight_gradients_match_finite_difference_all_kinds(
        seed in 0u64..500,
        kind_idx in 0usize..3,
    ) {
        let kind = [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat][kind_idx];
        let (adj, x, labels) = random_case(seed, 5);
        let mut rng = StdRng::seed_from_u64(seed ^ 7);
        let mut model = Gnn::new(kind, dims(), &mut rng);

        let (logits, cache) = model.forward(&adj, &x, &IdealReader);
        let (_, grad_logits) = ops::cross_entropy_with_grad(&logits, &labels);
        let grads = model.backward(&adj, &cache, &grad_logits);

        // Spot-check a few entries of every parameter against central
        // differences.
        let shapes = model.param_shapes();
        for ps in shapes {
            let (rows, cols) = (ps.rows, ps.cols);
            let checks = [(0, 0), (rows - 1, cols - 1), (rows / 2, cols / 2)];
            for &(r, c) in &checks {
                let eps = 1e-3f32;
                let orig = model.param(ps.layer, ps.param)[(r, c)];
                model.param_mut(ps.layer, ps.param)[(r, c)] = orig + eps;
                let (lp, _) = {
                    let (o, _) = model.forward(&adj, &x, &IdealReader);
                    ops::cross_entropy_with_grad(&o, &labels)
                };
                model.param_mut(ps.layer, ps.param)[(r, c)] = orig - eps;
                let (lm, _) = {
                    let (o, _) = model.forward(&adj, &x, &IdealReader);
                    ops::cross_entropy_with_grad(&o, &labels)
                };
                model.param_mut(ps.layer, ps.param)[(r, c)] = orig;
                let fd = (lp - lm) / (2.0 * eps);
                let analytic = grads.get(ps.layer, ps.param)[(r, c)];
                prop_assert!(
                    (fd - analytic).abs() < 7e-3,
                    "{kind:?} param ({},{}) entry ({r},{c}): fd {fd} vs {analytic}",
                    ps.layer,
                    ps.param
                );
            }
        }
    }

    #[test]
    fn forward_is_deterministic(seed in 0u64..500) {
        let (adj, x, _) = random_case(seed, 6);
        let mut rng = StdRng::seed_from_u64(seed);
        let model = Gnn::new(ModelKind::Gcn, dims(), &mut rng);
        let (a, _) = model.forward(&adj, &x, &IdealReader);
        let (b, _) = model.forward(&adj, &x, &IdealReader);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn logits_are_finite_even_with_extreme_features(
        seed in 0u64..500,
        scale in 1.0f32..1e4,
    ) {
        let (adj, x, _) = random_case(seed, 6);
        let x = x.scaled(scale);
        let mut rng = StdRng::seed_from_u64(seed);
        let model = Gnn::new(ModelKind::Gat, dims(), &mut rng);
        let (logits, _) = model.forward(&adj, &x, &IdealReader);
        prop_assert!(logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn one_adam_step_reduces_loss(seed in 0u64..500) {
        let (adj, x, labels) = random_case(seed, 8);
        let mut rng = StdRng::seed_from_u64(seed ^ 3);
        let mut model = Gnn::new(ModelKind::Gcn, dims(), &mut rng);
        let mut opt = Adam::new(0.005, &model);
        let (logits, cache) = model.forward(&adj, &x, &IdealReader);
        let (before, grad) = ops::cross_entropy_with_grad(&logits, &labels);
        let grads = model.backward(&adj, &cache, &grad);
        // Skip degenerate zero-gradient cases.
        prop_assume!(grads.total_norm() > 1e-6);
        model.apply_gradients(&grads, &mut opt);
        let (logits, _) = model.forward(&adj, &x, &IdealReader);
        let (after, _) = ops::cross_entropy_with_grad(&logits, &labels);
        // A small first Adam step along the gradient must not increase
        // the loss materially.
        prop_assert!(after < before + 1e-3, "{before} -> {after}");
    }

    #[test]
    fn clipping_is_idempotent(seed in 0u64..500, limit in 0.01f32..2.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = Gnn::new(ModelKind::Sage, dims(), &mut rng);
        model.clip_weights(limit);
        let snapshot = model.clone();
        model.clip_weights(limit);
        prop_assert_eq!(model, snapshot);
    }

    #[test]
    fn adam_descends_quadratic(
        seed in 0u64..200,
        target in -3.0f32..3.0,
    ) {
        let _ = seed;
        let mut w_adam = Matrix::filled(2, 2, 10.0);
        let mut rng = StdRng::seed_from_u64(0);
        let model = Gnn::new(ModelKind::Gcn, dims(), &mut rng);
        let mut adam = Adam::new(0.2, &model);
        for _ in 0..200 {
            let g_a = w_adam.map(|v| 2.0 * (v - target));
            adam.step(0, &mut w_adam, &g_a);
        }
        prop_assert!(w_adam.iter().all(|v| (v - target).abs() < 0.2));
    }
}

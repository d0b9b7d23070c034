use std::collections::HashMap;

use fare_tensor::Matrix;

use crate::Gnn;

/// Adam optimizer (Kingma & Ba) with bias correction.
///
/// # Example
///
/// ```
/// use fare_gnn::{Adam, Gnn, GnnDims};
/// use fare_graph::datasets::ModelKind;
/// use fare_rt::rand::SeedableRng;
/// use fare_tensor::Matrix;
/// let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(0);
/// let model = Gnn::new(ModelKind::Gcn, GnnDims { input: 2, hidden: 4, output: 2 }, &mut rng);
/// let mut opt = Adam::new(0.01, &model);
/// let mut param = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
/// opt.step(0, &mut param, &Matrix::from_vec(1, 2, vec![0.5, -0.5]));
/// // Adam's first step moves each entry by about `lr` against its gradient.
/// assert!((param.get(0, 0).unwrap() - 0.99).abs() < 1e-6);
/// assert!((param.get(0, 1).unwrap() + 0.99).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    /// Per-key (first moment, second moment, timestep).
    state: HashMap<usize, (Matrix, Matrix, u32)>,
}

impl Adam {
    /// Creates an Adam optimizer with the paper's learning rate
    /// convention (`lr = 0.01` in Table II) and default betas
    /// (0.9, 0.999).
    ///
    /// The model argument fixes the intent that one optimizer serves one
    /// model; state is still allocated lazily per parameter.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn new(lr: f32, _model: &Gnn) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            state: HashMap::new(),
        }
    }

    /// Enables decoupled weight decay (AdamW): each step additionally
    /// shrinks the parameter by `lr × decay × param`.
    ///
    /// # Panics
    ///
    /// Panics if `decay` is negative.
    pub fn with_weight_decay(mut self, decay: f32) -> Self {
        assert!(decay >= 0.0, "weight decay must be non-negative");
        self.weight_decay = decay;
        self
    }

    /// Updates `param` in place given its gradient. `key` is a stable
    /// global parameter index (assigned by [`Gnn::apply_gradients`]) under
    /// which the per-parameter moments are kept.
    pub fn step(&mut self, key: usize, param: &mut Matrix, grad: &Matrix) {
        let (m, v, t) = self.state.entry(key).or_insert_with(|| {
            (
                Matrix::zeros(grad.rows(), grad.cols()),
                Matrix::zeros(grad.rows(), grad.cols()),
                0,
            )
        });
        assert_eq!(m.shape(), grad.shape(), "optimizer state shape drift");
        *t += 1;
        let t_f = *t as f32;
        let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
        let bias1 = 1.0 - b1.powf(t_f);
        let bias2 = 1.0 - b2.powf(t_f);
        for i in 0..grad.len() {
            let g = grad.as_slice()[i];
            let mi = &mut m.as_mut_slice()[i];
            *mi = b1 * *mi + (1.0 - b1) * g;
            let vi = &mut v.as_mut_slice()[i];
            *vi = b2 * *vi + (1.0 - b2) * g * g;
            let m_hat = *mi / bias1;
            let v_hat = *vi / bias2;
            let p = &mut param.as_mut_slice()[i];
            // Decoupled decay (AdamW): applied to the parameter directly,
            // not mixed into the adaptive moments.
            *p -= lr * (m_hat / (v_hat.sqrt() + eps) + self.weight_decay * *p);
        }
    }
}

#[cfg(test)]
mod tests {
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::SeedableRng;

    use super::*;
    use crate::GnnDims;
    use fare_graph::datasets::ModelKind;

    fn dummy_model() -> Gnn {
        let mut rng = StdRng::seed_from_u64(0);
        Gnn::new(
            ModelKind::Gcn,
            GnnDims {
                input: 2,
                hidden: 2,
                output: 2,
            },
            &mut rng,
        )
    }

    #[test]
    fn adam_minimises_quadratic() {
        // Minimise f(w) = ||w - 3||² elementwise; gradient 2(w-3).
        let mut opt = Adam::new(0.1, &dummy_model());
        let mut w = Matrix::zeros(2, 2);
        for _ in 0..300 {
            let grad = w.map(|v| 2.0 * (v - 3.0));
            opt.step(0, &mut w, &grad);
        }
        assert!(w.iter().all(|&v| (v - 3.0).abs() < 0.05), "{w}");
    }

    #[test]
    fn adam_state_is_per_key() {
        let mut opt = Adam::new(0.1, &dummy_model());
        let mut a = Matrix::zeros(1, 1);
        let mut b = Matrix::zeros(2, 2);
        let ga = Matrix::filled(1, 1, 1.0);
        let gb = Matrix::filled(2, 2, 1.0);
        opt.step(0, &mut a, &ga);
        opt.step(1, &mut b, &gb); // different shape under a different key: fine
        assert!(a[(0, 0)] < 0.0);
        assert!(b[(0, 0)] < 0.0);
    }

    #[test]
    fn first_adam_step_magnitude_is_lr() {
        // With bias correction, the first step is ≈ lr regardless of
        // gradient scale.
        let mut opt = Adam::new(0.01, &dummy_model());
        let mut w = Matrix::zeros(1, 1);
        let grad = Matrix::filled(1, 1, 123.0);
        opt.step(0, &mut w, &grad);
        assert!((w[(0, 0)] + 0.01).abs() < 1e-4, "{}", w[(0, 0)]);
    }

    #[test]
    fn weight_decay_shrinks_stationary_params() {
        // With zero gradient, decay alone pulls weights toward zero.
        let mut opt = Adam::new(0.1, &dummy_model()).with_weight_decay(0.1);
        let mut w = Matrix::filled(1, 1, 1.0);
        let zero_grad = Matrix::zeros(1, 1);
        for _ in 0..50 {
            opt.step(0, &mut w, &zero_grad);
        }
        assert!(w[(0, 0)] < 0.7, "decay had no effect: {}", w[(0, 0)]);
        assert!(w[(0, 0)] > 0.0, "decay overshot: {}", w[(0, 0)]);
    }

    #[test]
    fn zero_decay_matches_plain_adam() {
        let mut a = Adam::new(0.05, &dummy_model());
        let mut b = Adam::new(0.05, &dummy_model()).with_weight_decay(0.0);
        let mut wa = Matrix::filled(1, 2, 3.0);
        let mut wb = wa.clone();
        for _ in 0..20 {
            let g = wa.map(|v| v - 1.0);
            opt_step(&mut a, &mut wa, &g);
            let g = wb.map(|v| v - 1.0);
            opt_step(&mut b, &mut wb, &g);
        }
        assert_eq!(wa, wb);
    }

    fn opt_step(opt: &mut Adam, w: &mut Matrix, g: &Matrix) {
        opt.step(0, w, g);
    }

    #[test]
    #[should_panic(expected = "weight decay must be non-negative")]
    fn rejects_negative_decay() {
        let _ = Adam::new(0.1, &dummy_model()).with_weight_decay(-0.1);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn adam_rejects_zero_lr() {
        Adam::new(0.0, &dummy_model());
    }
}

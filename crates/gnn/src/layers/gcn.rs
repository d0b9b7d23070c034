use std::borrow::Cow;

use fare_graph::GraphView;
use fare_rt::rand::Rng;
use fare_tensor::{init, ops, Matrix};

use crate::WeightReader;

/// One graph-convolution layer: `act(Â · H · W)`.
///
/// `Â` is the symmetric Kipf–Welling normalisation of the (possibly
/// fault-corrupted) binary adjacency. Hidden layers use ReLU; the output
/// layer returns raw logits.
#[derive(Debug, Clone, PartialEq)]
pub struct GcnLayer {
    weight: Matrix,
}

/// Forward-pass cache for [`GcnLayer::backward`].
///
/// The propagation matrix Â is *not* cached here — it lives in the
/// [`GraphView`] the caller passes to both passes, built once per
/// graph instead of once per forward.
#[derive(Debug, Clone)]
pub struct GcnCache {
    /// Â · H (aggregated input).
    aggregated: Matrix,
    /// Pre-activation Z = Â·H·W.
    pre_activation: Matrix,
    /// The weights as the hardware read them.
    weight_read: Matrix,
    output_layer: bool,
}

impl GcnLayer {
    /// Creates a layer with Xavier-initialised weights.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            weight: init::xavier_uniform(in_dim, out_dim, rng),
        }
    }

    /// Shapes of this layer's parameters (single weight matrix).
    pub fn param_shapes(&self) -> Vec<(usize, usize)> {
        vec![self.weight.shape()]
    }

    /// Borrows the master weights.
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// Mutably borrows the master weights.
    pub fn weight_mut(&mut self) -> &mut Matrix {
        &mut self.weight
    }

    /// Forward pass. `view` carries the batch graph with its cached
    /// normalised adjacency; `reader` maps master weights to
    /// hardware-read weights.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn forward(
        &self,
        view: &GraphView,
        input: &Matrix,
        reader: &impl WeightReader,
        layer_index: usize,
        output_layer: bool,
    ) -> (Matrix, GcnCache) {
        let aggregated = {
            let _s = fare_obs::trace::span("gnn.aggregate");
            view.gcn_norm().spmm(input)
        };
        let weight_read = reader.read(layer_index, 0, &self.weight);
        let pre_activation = {
            let _s = fare_obs::trace::span("gnn.matmul");
            aggregated.matmul(&weight_read)
        };
        let out = if output_layer {
            pre_activation.clone()
        } else {
            ops::relu(&pre_activation)
        };
        (
            out,
            GcnCache {
                aggregated,
                pre_activation,
                weight_read,
                output_layer,
            },
        )
    }

    /// Backward pass: returns `([grad_W], grad_input)`, building the
    /// input gradient `Â·dZ·Wᵀ` only when `input_grad` is set. `view`
    /// must be the one the forward pass ran with.
    pub fn backward(
        &self,
        view: &GraphView,
        cache: &GcnCache,
        grad_output: &Matrix,
        input_grad: bool,
    ) -> (Vec<Matrix>, Option<Matrix>) {
        let grad_z = if cache.output_layer {
            Cow::Borrowed(grad_output)
        } else {
            Cow::Owned(grad_output.hadamard(&ops::relu_grad(&cache.pre_activation)))
        };
        let grad_w = {
            let _s = fare_obs::trace::span("gnn.matmul");
            cache.aggregated.t_matmul(&grad_z)
        };
        // Â is symmetric, so Âᵀ = Â.
        let grad_input = input_grad.then(|| {
            let _s = fare_obs::trace::span("gnn.aggregate");
            view.gcn_norm().spmm(&grad_z.matmul_t(&cache.weight_read))
        });
        (vec![grad_w], grad_input)
    }
}

#[cfg(test)]
mod tests {
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::SeedableRng;

    use super::*;
    use crate::IdealReader;

    fn setup() -> (GcnLayer, GraphView, Matrix) {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = GcnLayer::new(3, 2, &mut rng);
        let adj = Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 1.0], &[0.0, 1.0, 0.0]]);
        let x = init::normal(3, 3, 1.0, &mut rng);
        (layer, GraphView::from_dense(adj), x)
    }

    #[test]
    fn forward_shapes() {
        let (layer, adj, x) = setup();
        let (out, _) = layer.forward(&adj, &x, &IdealReader, 0, false);
        assert_eq!(out.shape(), (3, 2));
    }

    #[test]
    fn hidden_layer_output_nonnegative() {
        let (layer, adj, x) = setup();
        let (out, _) = layer.forward(&adj, &x, &IdealReader, 0, false);
        assert!(out.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn output_layer_passes_logits() {
        let (layer, adj, x) = setup();
        let (out, cache) = layer.forward(&adj, &x, &IdealReader, 0, true);
        assert_eq!(out, cache.pre_activation);
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let (mut layer, adj, x) = setup();
        let labels = [0usize, 1, 0];
        let loss_of = |l: &GcnLayer| {
            let (out, _) = l.forward(&adj, &x, &IdealReader, 0, true);
            ops::cross_entropy_with_grad(&out, &labels).0
        };
        let (out, cache) = layer.forward(&adj, &x, &IdealReader, 0, true);
        let (_, grad_logits) = ops::cross_entropy_with_grad(&out, &labels);
        let (grads, _) = layer.backward(&adj, &cache, &grad_logits, false);

        let eps = 1e-3f32;
        for r in 0..3 {
            for c in 0..2 {
                let orig = layer.weight()[(r, c)];
                layer.weight_mut()[(r, c)] = orig + eps;
                let lp = loss_of(&layer);
                layer.weight_mut()[(r, c)] = orig - eps;
                let lm = loss_of(&layer);
                layer.weight_mut()[(r, c)] = orig;
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - grads[0][(r, c)]).abs() < 2e-3,
                    "fd {fd} vs analytic {} at ({r},{c})",
                    grads[0][(r, c)]
                );
            }
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let (layer, adj, x) = setup();
        let labels = [0usize, 1, 0];
        let (out, cache) = layer.forward(&adj, &x, &IdealReader, 0, true);
        let (_, grad_logits) = ops::cross_entropy_with_grad(&out, &labels);
        let grad_input = layer.backward(&adj, &cache, &grad_logits, true).1.unwrap();

        let eps = 1e-3f32;
        let mut x2 = x.clone();
        for r in 0..3 {
            for c in 0..3 {
                let orig = x2[(r, c)];
                x2[(r, c)] = orig + eps;
                let (op, _) = layer.forward(&adj, &x2, &IdealReader, 0, true);
                let lp = ops::cross_entropy_with_grad(&op, &labels).0;
                x2[(r, c)] = orig - eps;
                let (om, _) = layer.forward(&adj, &x2, &IdealReader, 0, true);
                let lm = ops::cross_entropy_with_grad(&om, &labels).0;
                x2[(r, c)] = orig;
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - grad_input[(r, c)]).abs() < 2e-3,
                    "fd {fd} vs analytic {} at ({r},{c})",
                    grad_input[(r, c)]
                );
            }
        }
    }

    #[test]
    fn relu_masks_hidden_gradients() {
        let (layer, adj, x) = setup();
        let (_, cache) = layer.forward(&adj, &x, &IdealReader, 0, false);
        let ones = Matrix::filled(3, 2, 1.0);
        let (grads, _) = layer.backward(&adj, &cache, &ones, false);
        assert_eq!(grads.len(), 1);
        assert_eq!(grads[0].shape(), layer.weight().shape());
    }
}

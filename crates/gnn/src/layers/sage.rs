use std::borrow::Cow;

use fare_graph::GraphView;
use fare_rt::rand::Rng;
use fare_tensor::{init, ops, Matrix};

use crate::WeightReader;

/// One GraphSAGE layer with mean aggregation:
/// `act(H·W_self + D⁻¹A·H·W_neigh)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SageLayer {
    w_self: Matrix,
    w_neigh: Matrix,
}

/// Forward-pass cache for [`SageLayer::backward`].
///
/// The propagation matrix Ā (and its transpose, which the backward
/// pass multiplies by) is not cached here — both live in the
/// [`GraphView`], built once per graph.
#[derive(Debug, Clone)]
pub struct SageCache {
    /// Layer input H.
    input: Matrix,
    /// Ā · H.
    aggregated: Matrix,
    /// Pre-activation.
    pre_activation: Matrix,
    w_self_read: Matrix,
    w_neigh_read: Matrix,
    output_layer: bool,
}

impl SageLayer {
    /// Creates a layer with Xavier-initialised weights.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            w_self: init::xavier_uniform(in_dim, out_dim, rng),
            w_neigh: init::xavier_uniform(in_dim, out_dim, rng),
        }
    }

    /// Shapes of this layer's parameters: `[w_self, w_neigh]`.
    pub fn param_shapes(&self) -> Vec<(usize, usize)> {
        vec![self.w_self.shape(), self.w_neigh.shape()]
    }

    /// Borrows parameter `i` (0 = self weights, 1 = neighbour weights).
    ///
    /// # Panics
    ///
    /// Panics if `i > 1`.
    pub fn param(&self, i: usize) -> &Matrix {
        match i {
            0 => &self.w_self,
            1 => &self.w_neigh,
            _ => panic!("SageLayer has 2 parameters, index {i} invalid"),
        }
    }

    /// Mutably borrows parameter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > 1`.
    pub fn param_mut(&mut self, i: usize) -> &mut Matrix {
        match i {
            0 => &mut self.w_self,
            1 => &mut self.w_neigh,
            _ => panic!("SageLayer has 2 parameters, index {i} invalid"),
        }
    }

    /// Forward pass over the batch graph view.
    pub fn forward(
        &self,
        view: &GraphView,
        input: &Matrix,
        reader: &impl WeightReader,
        layer_index: usize,
        output_layer: bool,
    ) -> (Matrix, SageCache) {
        let aggregated = {
            let _s = fare_obs::trace::span("gnn.aggregate");
            view.mean_norm().spmm(input)
        };
        let w_self_read = reader.read(layer_index, 0, &self.w_self);
        let w_neigh_read = reader.read(layer_index, 1, &self.w_neigh);
        let pre_activation = {
            let _s = fare_obs::trace::span("gnn.matmul");
            &input.matmul(&w_self_read) + &aggregated.matmul(&w_neigh_read)
        };
        let out = if output_layer {
            pre_activation.clone()
        } else {
            ops::relu(&pre_activation)
        };
        (
            out,
            SageCache {
                input: input.clone(),
                aggregated,
                pre_activation,
                w_self_read,
                w_neigh_read,
                output_layer,
            },
        )
    }

    /// Backward pass: returns `([grad_w_self, grad_w_neigh], grad_input)`,
    /// building the input gradient only when `input_grad` is set. `view`
    /// must be the one the forward pass ran with.
    pub fn backward(
        &self,
        view: &GraphView,
        cache: &SageCache,
        grad_output: &Matrix,
        input_grad: bool,
    ) -> (Vec<Matrix>, Option<Matrix>) {
        let grad_z = if cache.output_layer {
            Cow::Borrowed(grad_output)
        } else {
            Cow::Owned(grad_output.hadamard(&ops::relu_grad(&cache.pre_activation)))
        };
        let (grad_w_self, grad_w_neigh) = {
            let _s = fare_obs::trace::span("gnn.matmul");
            (
                cache.input.t_matmul(&grad_z),
                cache.aggregated.t_matmul(&grad_z),
            )
        };
        // dX = dZ Wsᵀ + Āᵀ (dZ Wnᵀ). Ā is not symmetric.
        let grad_input = input_grad.then(|| {
            let _s = fare_obs::trace::span("gnn.aggregate");
            &grad_z.matmul_t(&cache.w_self_read)
                + &view
                    .mean_norm_t()
                    .spmm(&grad_z.matmul_t(&cache.w_neigh_read))
        });
        (vec![grad_w_self, grad_w_neigh], grad_input)
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index-style loops keep the FD checks readable
mod tests {
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::SeedableRng;

    use super::*;
    use crate::IdealReader;

    fn setup() -> (SageLayer, GraphView, Matrix) {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = SageLayer::new(3, 2, &mut rng);
        let adj = Matrix::from_rows(&[&[0.0, 1.0, 1.0], &[1.0, 0.0, 0.0], &[1.0, 0.0, 0.0]]);
        let x = init::normal(3, 3, 1.0, &mut rng);
        (layer, GraphView::from_dense(adj), x)
    }

    #[test]
    fn forward_shapes_and_two_params() {
        let (layer, adj, x) = setup();
        let (out, _) = layer.forward(&adj, &x, &IdealReader, 0, false);
        assert_eq!(out.shape(), (3, 2));
        assert_eq!(layer.param_shapes().len(), 2);
    }

    #[test]
    fn isolated_node_uses_self_path_only() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = SageLayer::new(2, 2, &mut rng);
        let adj = GraphView::from_dense(Matrix::zeros(2, 2));
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let (out, _) = layer.forward(&adj, &x, &IdealReader, 0, true);
        let expected = x.matmul(layer.param(0));
        assert_eq!(out, expected);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let (mut layer, adj, x) = setup();
        let labels = [1usize, 0, 1];
        let loss_of = |l: &SageLayer| {
            let (out, _) = l.forward(&adj, &x, &IdealReader, 0, true);
            ops::cross_entropy_with_grad(&out, &labels).0
        };
        let (out, cache) = layer.forward(&adj, &x, &IdealReader, 0, true);
        let (_, grad_logits) = ops::cross_entropy_with_grad(&out, &labels);
        let (grads, _) = layer.backward(&adj, &cache, &grad_logits, false);

        let eps = 1e-3f32;
        for p in 0..2 {
            for r in 0..3 {
                for c in 0..2 {
                    let orig = layer.param(p)[(r, c)];
                    layer.param_mut(p)[(r, c)] = orig + eps;
                    let lp = loss_of(&layer);
                    layer.param_mut(p)[(r, c)] = orig - eps;
                    let lm = loss_of(&layer);
                    layer.param_mut(p)[(r, c)] = orig;
                    let fd = (lp - lm) / (2.0 * eps);
                    assert!(
                        (fd - grads[p][(r, c)]).abs() < 2e-3,
                        "param {p} fd {fd} vs analytic {} at ({r},{c})",
                        grads[p][(r, c)]
                    );
                }
            }
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let (layer, adj, x) = setup();
        let labels = [1usize, 0, 1];
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
    #[should_panic(expected = "2 parameters")]
    fn param_index_out_of_range() {
        let (layer, _, _) = setup();
        layer.param(2);
    }
}

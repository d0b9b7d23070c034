//! Multi-head graph attention, composed from verified single-head
//! [`GatLayer`]s.
//!
//! Each head attends independently over the same neighbourhood with its
//! own `W`/`a_src`/`a_dst`; head outputs are concatenated (the standard
//! GAT hidden-layer combination). Gradients route back through each
//! head's own backward pass, so the finite-difference-checked
//! single-head math is reused unchanged.

use fare_graph::GraphView;
use fare_tensor::Matrix;
use fare_rt::rand::Rng;

use super::{GatCache, GatLayer};
use crate::WeightReader;

/// A K-head graph-attention layer (concatenating combination).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHeadGat {
    heads: Vec<GatLayer>,
    out_per_head: usize,
}

fare_rt::json_struct!(MultiHeadGat { heads, out_per_head });

/// Forward-pass cache for [`MultiHeadGat::backward`].
#[derive(Debug, Clone)]
pub struct MultiHeadGatCache {
    per_head: Vec<GatCache>,
}

impl MultiHeadGat {
    /// Creates a layer with `heads` attention heads whose concatenated
    /// output is `out_dim` wide.
    ///
    /// # Panics
    ///
    /// Panics if `heads == 0` or `out_dim` is not divisible by `heads`.
    pub fn new(in_dim: usize, out_dim: usize, heads: usize, rng: &mut impl Rng) -> Self {
        assert!(heads > 0, "need at least one head");
        assert_eq!(
            out_dim % heads,
            0,
            "out_dim {out_dim} not divisible by {heads} heads"
        );
        let out_per_head = out_dim / heads;
        Self {
            heads: (0..heads)
                .map(|_| GatLayer::new(in_dim, out_per_head, rng))
                .collect(),
            out_per_head,
        }
    }

    /// Number of heads.
    pub fn num_heads(&self) -> usize {
        self.heads.len()
    }

    /// Shapes of all parameters: `[W, a_src, a_dst]` per head, head-major.
    pub fn param_shapes(&self) -> Vec<(usize, usize)> {
        self.heads.iter().flat_map(GatLayer::param_shapes).collect()
    }

    /// Borrows parameter `i` (head `i / 3`, then W / a_src / a_dst).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 3 × heads`.
    pub fn param(&self, i: usize) -> &Matrix {
        self.heads[i / 3].param(i % 3)
    }

    /// Mutably borrows parameter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 3 × heads`.
    pub fn param_mut(&mut self, i: usize) -> &mut Matrix {
        self.heads[i / 3].param_mut(i % 3)
    }

    /// Forward pass: per-head attention, outputs concatenated columnwise.
    ///
    /// `param_base` is the index of this layer's first parameter in the
    /// enclosing model's numbering, so the [`WeightReader`] sees stable
    /// `(layer, param)` keys per head parameter.
    pub fn forward(
        &self,
        view: &GraphView,
        input: &Matrix,
        reader: &impl WeightReader,
        layer_index: usize,
        param_base: usize,
        output_layer: bool,
    ) -> (Matrix, MultiHeadGatCache) {
        let n = input.rows();
        let mut out = Matrix::zeros(n, self.out_per_head * self.heads.len());
        let mut per_head = Vec::with_capacity(self.heads.len());
        for (h, head) in self.heads.iter().enumerate() {
            // Shift the reader's param index so each head's three
            // parameters are distinct.
            let shifted = ShiftedReader {
                inner: reader,
                offset: param_base + 3 * h,
            };
            let (head_out, cache) = head.forward(view, input, &shifted, layer_index, output_layer);
            for r in 0..n {
                let dst = out.row_mut(r);
                dst[h * self.out_per_head..(h + 1) * self.out_per_head]
                    .copy_from_slice(head_out.row(r));
            }
            per_head.push(cache);
        }
        (out, MultiHeadGatCache { per_head })
    }

    /// Backward pass over the view the forward pass ran on: splits the
    /// output gradient per head and reuses the single-head backward.
    /// Returns per-parameter gradients (head-major) and the input gradient
    /// (summed over heads).
    pub fn backward(
        &self,
        view: &GraphView,
        cache: &MultiHeadGatCache,
        grad_output: &Matrix,
    ) -> (Vec<Matrix>, Matrix) {
        assert_eq!(cache.per_head.len(), self.heads.len(), "stale cache");
        let n = grad_output.rows();
        let mut grads = Vec::with_capacity(3 * self.heads.len());
        let mut grad_input: Option<Matrix> = None;
        for (h, (head, head_cache)) in self.heads.iter().zip(&cache.per_head).enumerate() {
            let slice = Matrix::from_fn(n, self.out_per_head, |r, c| {
                grad_output[(r, h * self.out_per_head + c)]
            });
            let (head_grads, head_grad_in) = head.backward(view, head_cache, &slice);
            grads.extend(head_grads);
            grad_input = Some(match grad_input.take() {
                None => head_grad_in,
                Some(acc) => &acc + &head_grad_in,
            });
        }
        (grads, grad_input.expect("at least one head"))
    }
}

/// Adapter that offsets the `param` index a wrapped reader sees.
struct ShiftedReader<'a, R: WeightReader> {
    inner: &'a R,
    offset: usize,
}

impl<R: WeightReader> WeightReader for ShiftedReader<'_, R> {
    fn read(&self, layer: usize, param: usize, value: &Matrix) -> Matrix {
        self.inner.read(layer, self.offset + param, value)
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index-style loops keep the FD checks readable
mod tests {
    use fare_tensor::{init, ops};
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::SeedableRng;

    use super::*;
    use crate::IdealReader;

    fn setup(heads: usize) -> (MultiHeadGat, GraphView, Matrix) {
        let mut rng = StdRng::seed_from_u64(21);
        let layer = MultiHeadGat::new(3, 4, heads, &mut rng);
        let adj = Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 1.0], &[0.0, 1.0, 0.0]]);
        let x = init::normal(3, 3, 1.0, &mut rng);
        (layer, GraphView::from_dense(adj), x)
    }

    #[test]
    fn shapes_and_param_count() {
        let (layer, adj, x) = setup(2);
        assert_eq!(layer.num_heads(), 2);
        assert_eq!(layer.param_shapes().len(), 6);
        assert_eq!(layer.param_shapes()[0], (3, 2)); // W of head 0
        assert_eq!(layer.param_shapes()[1], (2, 1)); // a_src of head 0
        let (out, _) = layer.forward(&adj, &x, &IdealReader, 0, 0, false);
        assert_eq!(out.shape(), (3, 4));
    }

    #[test]
    fn single_head_matches_gat_layer() {
        // heads = 1 must be numerically identical to a plain GatLayer
        // built from the same RNG stream.
        let mut rng1 = StdRng::seed_from_u64(5);
        let multi = MultiHeadGat::new(3, 4, 1, &mut rng1);
        let mut rng2 = StdRng::seed_from_u64(5);
        let single = GatLayer::new(3, 4, &mut rng2);
        let adj = GraphView::from_dense(Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]));
        let x = Matrix::from_rows(&[&[0.3, -0.2, 0.5], &[-0.4, 0.1, 0.2]]);
        let (a, _) = multi.forward(&adj, &x, &IdealReader, 0, 0, true);
        let (b, _) = single.forward(&adj, &x, &IdealReader, 0, true);
        assert_eq!(a, b);
    }

    #[test]
    fn heads_are_independent() {
        // Zeroing one head's weight only zeroes its output slice.
        let (mut layer, adj, x) = setup(2);
        layer.param_mut(0).map_inplace(|_| 0.0); // head 0's W
        layer.param_mut(1).map_inplace(|_| 0.0); // head 0's a_src
        layer.param_mut(2).map_inplace(|_| 0.0); // head 0's a_dst
        let (out, _) = layer.forward(&adj, &x, &IdealReader, 0, 0, true);
        for r in 0..3 {
            assert_eq!(out[(r, 0)], 0.0);
            assert_eq!(out[(r, 1)], 0.0);
        }
        assert!(out.iter().any(|&v| v != 0.0), "head 1 should be live");
    }

    #[test]
    fn gradients_match_finite_difference() {
        let (mut layer, adj, x) = setup(2);
        let labels = [0usize, 1, 2];
        let loss_of = |l: &MultiHeadGat| {
            let (out, _) = l.forward(&adj, &x, &IdealReader, 0, 0, true);
            ops::cross_entropy_with_grad(&out, &labels).0
        };
        let (out, cache) = layer.forward(&adj, &x, &IdealReader, 0, 0, true);
        let (_, grad_logits) = ops::cross_entropy_with_grad(&out, &labels);
        let (grads, _) = layer.backward(&adj, &cache, &grad_logits);
        assert_eq!(grads.len(), 6);

        let eps = 1e-3f32;
        for p in 0..6 {
            let (rows, cols) = layer.param_shapes()[p];
            for r in 0..rows {
                for c in 0..cols {
                    let orig = layer.param(p)[(r, c)];
                    layer.param_mut(p)[(r, c)] = orig + eps;
                    let lp = loss_of(&layer);
                    layer.param_mut(p)[(r, c)] = orig - eps;
                    let lm = loss_of(&layer);
                    layer.param_mut(p)[(r, c)] = orig;
                    let fd = (lp - lm) / (2.0 * eps);
                    assert!(
                        (fd - grads[p][(r, c)]).abs() < 5e-3,
                        "param {p} fd {fd} vs analytic {} at ({r},{c})",
                        grads[p][(r, c)]
                    );
                }
            }
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let (layer, adj, x) = setup(2);
        let labels = [0usize, 1, 2];
        let (out, cache) = layer.forward(&adj, &x, &IdealReader, 0, 0, true);
        let (_, grad_logits) = ops::cross_entropy_with_grad(&out, &labels);
        let (_, grad_input) = layer.backward(&adj, &cache, &grad_logits);

        let eps = 1e-3f32;
        let mut x2 = x.clone();
        for r in 0..3 {
            for c in 0..3 {
                let orig = x2[(r, c)];
                x2[(r, c)] = orig + eps;
                let (op, _) = layer.forward(&adj, &x2, &IdealReader, 0, 0, true);
                let lp = ops::cross_entropy_with_grad(&op, &labels).0;
                x2[(r, c)] = orig - eps;
                let (om, _) = layer.forward(&adj, &x2, &IdealReader, 0, 0, true);
                let lm = ops::cross_entropy_with_grad(&om, &labels).0;
                x2[(r, c)] = orig;
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - grad_input[(r, c)]).abs() < 5e-3,
                    "fd {fd} vs analytic {} at ({r},{c})",
                    grad_input[(r, c)]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_indivisible_out_dim() {
        MultiHeadGat::new(3, 5, 2, &mut StdRng::seed_from_u64(0));
    }
}

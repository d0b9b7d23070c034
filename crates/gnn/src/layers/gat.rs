//! Single-head graph attention over a view's sparse attention pattern.
//!
//! Both passes walk the pattern's rows once each. The forward pass
//! computes each edge's logit, its LeakyReLU, the row's softmax and the
//! row of `P = S·Z` in one go; the backward pass computes the row's
//! `dS` dots (four edges at a time, each on its own chain), the softmax
//! and LeakyReLU backward, the `Sᵀ·dP` scatter into `dZ` and the score
//! gradients. Every output element sees the same operations, in the
//! same order, as the dense `n × n` formulation the test-only oracle
//! keeps, so the two agree bit for bit.

use std::borrow::Cow;

use fare_graph::GraphView;
use fare_rt::rand::Rng;
use fare_tensor::kernel::accumulate_row;
use fare_tensor::{init, ops, Matrix};

use crate::WeightReader;

/// Negative-side slope of the attention LeakyReLU (GAT paper value).
const ATTENTION_SLOPE: f32 = 0.2;

/// One single-head graph-attention layer.
///
/// For each edge `(i, j)` (plus self loops) the attention logit is
/// `LeakyReLU(a_srcᵀ·z_i + a_dstᵀ·z_j)` with `z = H·W`; logits are
/// softmax-normalised over each node's neighbourhood and used to mix the
/// transformed features. Hidden layers apply ELU; the output layer emits
/// raw logits.
#[derive(Debug, Clone, PartialEq)]
pub struct GatLayer {
    weight: Matrix,
    attn_src: Matrix,
    attn_dst: Matrix,
}

/// Forward-pass cache for [`GatLayer::backward`]. Per-edge values are
/// stored in the entry order of the view's
/// [`GraphView::attention_pattern`].
#[derive(Debug, Clone)]
pub struct GatCache {
    input: Matrix,
    /// Z = H·W.
    transformed: Matrix,
    /// s_i + t_j per edge (pre-LeakyReLU).
    logit_sum: Vec<f32>,
    /// Softmaxed attention S per edge.
    attention: Vec<f32>,
    /// Pre-activation P = S·Z.
    pre_activation: Matrix,
    weight_read: Matrix,
    attn_src_read: Matrix,
    attn_dst_read: Matrix,
    output_layer: bool,
}

impl GatLayer {
    /// Creates a layer with Xavier-initialised weights and attention
    /// vectors.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            weight: init::xavier_uniform(in_dim, out_dim, rng),
            attn_src: init::xavier_uniform(out_dim, 1, rng),
            attn_dst: init::xavier_uniform(out_dim, 1, rng),
        }
    }

    /// Shapes of this layer's parameters: `[W, a_src, a_dst]`.
    pub fn param_shapes(&self) -> Vec<(usize, usize)> {
        vec![
            self.weight.shape(),
            self.attn_src.shape(),
            self.attn_dst.shape(),
        ]
    }

    /// Borrows parameter `i` (0 = W, 1 = a_src, 2 = a_dst).
    ///
    /// # Panics
    ///
    /// Panics if `i > 2`.
    pub fn param(&self, i: usize) -> &Matrix {
        match i {
            0 => &self.weight,
            1 => &self.attn_src,
            2 => &self.attn_dst,
            _ => panic!("GatLayer has 3 parameters, index {i} invalid"),
        }
    }

    /// Mutably borrows parameter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > 2`.
    pub fn param_mut(&mut self, i: usize) -> &mut Matrix {
        match i {
            0 => &mut self.weight,
            1 => &mut self.attn_src,
            2 => &mut self.attn_dst,
            _ => panic!("GatLayer has 3 parameters, index {i} invalid"),
        }
    }

    /// Forward pass over the batch graph view.
    ///
    /// Attention runs only over the view's
    /// [`GraphView::attention_pattern`] (the adjacency plus self loops).
    /// After `Z = H·W` and the per-node scores `s = Z·a_src`,
    /// `t = Z·a_dst`, one pass per row computes each edge's logit
    /// `LeakyReLU(s_i + t_j)`, the row's softmax and its row of
    /// `P = S·Z`, in ascending column order. Each step repeats the dense
    /// `n × n` formulation's arithmetic in its order, and the masked
    /// entries the dense path carried only ever added exact zeros, so the
    /// result equals it bit for bit on finite inputs at `O(nnz · d)`
    /// cost.
    pub fn forward(
        &self,
        view: &GraphView,
        input: &Matrix,
        reader: &impl WeightReader,
        layer_index: usize,
        output_layer: bool,
    ) -> (Matrix, GatCache) {
        let _span = fare_obs::trace::span("gnn.attention");
        let pattern = view.attention_pattern();
        let (offsets, cols) = (pattern.offsets(), pattern.indices());
        let weight_read = reader.read(layer_index, 0, &self.weight);
        let attn_src_read = reader.read(layer_index, 1, &self.attn_src);
        let attn_dst_read = reader.read(layer_index, 2, &self.attn_dst);

        let transformed = input.matmul(&weight_read); // Z
        let (n, d) = transformed.shape();
        // s_i = z_i·a_src and t_i = z_i·a_dst, each from +0.0 in
        // ascending k: the width-1 matmul's sums.
        let (a_src, a_dst) = (attn_src_read.as_slice(), attn_dst_read.as_slice());
        let (mut s, mut t) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for i in 0..n {
            let (mut s_i, mut t_i) = (0.0f32, 0.0f32);
            for ((&z, &a), &b) in transformed.row(i).iter().zip(a_src).zip(a_dst) {
                s_i += z * a;
                t_i += z * b;
            }
            s.push(s_i);
            t.push(t_i);
        }

        let mut logit_sum = vec![0.0f32; cols.len()];
        let mut attention = vec![0.0f32; cols.len()];
        let mut pre_activation = Matrix::zeros(n, d);
        for i in 0..n {
            let edges = offsets[i]..offsets[i + 1];
            let row_cols = &cols[edges.clone()];
            let row_attention = &mut attention[edges.clone()];
            for ((l, a), &j) in logit_sum[edges]
                .iter_mut()
                .zip(row_attention.iter_mut())
                .zip(row_cols)
            {
                *l = s[i] + t[j];
                *a = if *l > 0.0 { *l } else { ATTENTION_SLOPE * *l };
            }
            ops::softmax_in_place(row_attention);
            let terms = row_attention.iter().zip(row_cols);
            accumulate_row(
                pre_activation.row_mut(i),
                terms.map(|(&a, &j)| (a, transformed.row(j))),
            );
        }
        let out = if output_layer {
            pre_activation.clone()
        } else {
            ops::elu(&pre_activation)
        };
        (
            out,
            GatCache {
                input: input.clone(),
                transformed,
                logit_sum,
                attention,
                pre_activation,
                weight_read,
                attn_src_read,
                attn_dst_read,
                output_layer,
            },
        )
    }

    /// Backward pass over the view the forward pass ran on: returns
    /// `([grad_W, grad_a_src, grad_a_dst], grad_input)`, building the
    /// input gradient `dZ·Wᵀ` only when `input_grad` is set. Like the
    /// forward pass it makes one pass per row of the attention pattern,
    /// in the dense kernels' accumulation order per element.
    ///
    /// # Panics
    ///
    /// Panics if `cache` was built over a view with a different number of
    /// attention edges.
    pub fn backward(
        &self,
        view: &GraphView,
        cache: &GatCache,
        grad_output: &Matrix,
        input_grad: bool,
    ) -> (Vec<Matrix>, Option<Matrix>) {
        let _span = fare_obs::trace::span("gnn.attention");
        let pattern = view.attention_pattern();
        let (offsets, cols) = (pattern.offsets(), pattern.indices());
        assert_eq!(
            cols.len(),
            cache.attention.len(),
            "GAT cache does not match the view"
        );
        let z = &cache.transformed;
        let (n, d) = z.shape();
        let grad_p = if cache.output_layer {
            Cow::Borrowed(grad_output)
        } else {
            Cow::Owned(grad_output.hadamard(&ops::elu_grad(&cache.pre_activation)))
        };

        // Per row i, with every sum in the dense formulation's order:
        // dS_ij = dP_i·z_j (the `matmul_t` dot), the softmax backward
        // dE_ij = S_ij (dS_ij − Σ_k dS_ik S_ik), the LeakyReLU backward
        // dPre_ij, then dZ_j += S_ij dP_i (`Sᵀ·dP`, rows i ascending as
        // `t_matmul` adds them), ds_i = Σ_j dPre_ij and dt_j += dPre_ij.
        // Row i of `grad_st` is (ds_i, dt_i).
        let mut grad_z = Matrix::zeros(n, d);
        let mut grad_st = Matrix::zeros(n, 2);
        let mut grad_pre = Vec::new();
        for i in 0..n {
            let edges = offsets[i]..offsets[i + 1];
            let row_cols = &cols[edges.clone()];
            let row_attention = &cache.attention[edges.clone()];
            let dp = grad_p.row(i);
            grad_pre.clear();
            edge_dots(&mut grad_pre, dp, z, row_cols);
            let mut dot = 0.0f32;
            for (&g, &a) in grad_pre.iter().zip(row_attention) {
                dot += g * a;
            }
            let mut grad_s_i = 0.0f32;
            for (((g, &a), &l), &j) in grad_pre
                .iter_mut()
                .zip(row_attention)
                .zip(&cache.logit_sum[edges])
                .zip(row_cols)
            {
                let slope = if l > 0.0 { 1.0 } else { ATTENTION_SLOPE };
                *g = a * (*g - dot) * slope;
                for (o, &p) in grad_z.row_mut(j).iter_mut().zip(dp) {
                    *o += a * p;
                }
                grad_s_i += *g;
                grad_st.row_mut(j)[1] += *g;
            }
            grad_st.row_mut(i)[0] = grad_s_i;
        }

        // s = Z·a_src, t = Z·a_dst: dZ_i gains ds_i·a_src, then
        // dt_i·a_dst, each a one-term product from +0.0 as `matmul_t`
        // wrote it.
        let (a_src, a_dst) = (
            cache.attn_src_read.as_slice(),
            cache.attn_dst_read.as_slice(),
        );
        for (i, st) in grad_st.as_slice().chunks_exact(2).enumerate() {
            for ((o, &a), &b) in grad_z.row_mut(i).iter_mut().zip(a_src).zip(a_dst) {
                *o += 0.0 + st[0] * a;
                *o += 0.0 + st[1] * b;
            }
        }
        // grad_a_src = Zᵀ·ds and grad_a_dst = Zᵀ·dt, element c summed
        // over ascending i from +0.0: the two rows of (ds, dt)ᵀ·Z.
        let grad_a = grad_st.t_matmul(z);
        let grad_attn_src = Matrix::from_vec(d, 1, grad_a.row(0).to_vec());
        let grad_attn_dst = Matrix::from_vec(d, 1, grad_a.row(1).to_vec());

        // Z = H·W.
        let grad_w = cache.input.t_matmul(&grad_z);
        let grad_input = input_grad.then(|| grad_z.matmul_t(&cache.weight_read));
        (vec![grad_w, grad_attn_src, grad_attn_dst], grad_input)
    }
}

/// Appends `dp·z_j` for each `j` in `cols`, in order. Every dot starts
/// at `+0.0` and adds `dp[c] * z_j[c]` in ascending `c`. Four edges run
/// side by side, so their independent chains overlap; a row's last
/// edges run one at a time.
fn edge_dots(out: &mut Vec<f32>, dp: &[f32], z: &Matrix, cols: &[usize]) {
    let mut groups = cols.chunks_exact(4);
    for group in &mut groups {
        let [r0, r1, r2, r3] = [0, 1, 2, 3].map(|m| z.row(group[m]));
        let mut acc = [0.0f32; 4];
        for ((((&g, &b0), &b1), &b2), &b3) in dp.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
            acc[0] += g * b0;
            acc[1] += g * b1;
            acc[2] += g * b2;
            acc[3] += g * b3;
        }
        out.extend_from_slice(&acc);
    }
    for &j in groups.remainder() {
        let mut acc = 0.0f32;
        for (&g, &b) in dp.iter().zip(z.row(j)) {
            acc += g * b;
        }
        out.push(acc);
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index-style loops keep the FD checks readable
mod tests {
    use fare_graph::CsrGraph;
    use fare_rt::prop::prelude::*;
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::{Rng, SeedableRng};

    use super::*;
    use crate::IdealReader;

    /// The dense `n × n` GAT the sparse layer replaced, kept as the
    /// bit-exactness oracle: a 0/1 neighbourhood mask, `-inf`-masked
    /// logits through `ops::softmax_rows`, and dense matmuls throughout.
    mod dense_oracle {
        use super::*;

        pub struct DenseCache {
            input: Matrix,
            transformed: Matrix,
            logit_sum: Matrix,
            mask: Matrix,
            pub attention: Matrix,
            pre_activation: Matrix,
            weight_read: Matrix,
            attn_src_read: Matrix,
            attn_dst_read: Matrix,
            output_layer: bool,
        }

        pub fn forward(
            layer: &GatLayer,
            adj: &Matrix,
            input: &Matrix,
            output_layer: bool,
        ) -> (Matrix, DenseCache) {
            let n = adj.rows();
            let weight_read = layer.param(0).clone();
            let attn_src_read = layer.param(1).clone();
            let attn_dst_read = layer.param(2).clone();

            let transformed = input.matmul(&weight_read);
            let s = transformed.matmul(&attn_src_read);
            let t = transformed.matmul(&attn_dst_read);

            let mask = Matrix::from_fn(n, n, |i, j| {
                if i == j || adj[(i, j)] > 0.5 {
                    1.0
                } else {
                    0.0
                }
            });
            let logit_sum = Matrix::from_fn(n, n, |i, j| s[(i, 0)] + t[(j, 0)]);
            let logits = Matrix::from_fn(n, n, |i, j| {
                if mask[(i, j)] > 0.5 {
                    let v = logit_sum[(i, j)];
                    if v > 0.0 {
                        v
                    } else {
                        ATTENTION_SLOPE * v
                    }
                } else {
                    f32::NEG_INFINITY
                }
            });
            let attention = ops::softmax_rows(&logits);
            let pre_activation = attention.matmul(&transformed);
            let out = if output_layer {
                pre_activation.clone()
            } else {
                ops::elu(&pre_activation)
            };
            let cache = DenseCache {
                input: input.clone(),
                transformed,
                logit_sum,
                mask,
                attention,
                pre_activation,
                weight_read,
                attn_src_read,
                attn_dst_read,
                output_layer,
            };
            (out, cache)
        }

        pub fn backward(cache: &DenseCache, grad_output: &Matrix) -> (Vec<Matrix>, Matrix) {
            let n = cache.attention.rows();
            let grad_p = if cache.output_layer {
                grad_output.clone()
            } else {
                grad_output.hadamard(&ops::elu_grad(&cache.pre_activation))
            };

            let grad_s_mat = grad_p.matmul_t(&cache.transformed);
            let mut grad_z = cache.attention.t_matmul(&grad_p);

            let mut grad_e = Matrix::zeros(n, n);
            for i in 0..n {
                let mut dot = 0.0f32;
                for k in 0..n {
                    dot += grad_s_mat[(i, k)] * cache.attention[(i, k)];
                }
                for j in 0..n {
                    grad_e[(i, j)] = cache.attention[(i, j)] * (grad_s_mat[(i, j)] - dot);
                }
            }
            let grad_pre = Matrix::from_fn(n, n, |i, j| {
                if cache.mask[(i, j)] > 0.5 {
                    let slope = if cache.logit_sum[(i, j)] > 0.0 {
                        1.0
                    } else {
                        ATTENTION_SLOPE
                    };
                    grad_e[(i, j)] * slope
                } else {
                    0.0
                }
            });

            let mut grad_s_vec = Matrix::zeros(n, 1);
            let mut grad_t_vec = Matrix::zeros(n, 1);
            for i in 0..n {
                for j in 0..n {
                    grad_s_vec[(i, 0)] += grad_pre[(i, j)];
                    grad_t_vec[(j, 0)] += grad_pre[(i, j)];
                }
            }

            grad_z += &grad_s_vec.matmul_t(&cache.attn_src_read);
            grad_z += &grad_t_vec.matmul_t(&cache.attn_dst_read);
            let grad_attn_src = cache.transformed.t_matmul(&grad_s_vec);
            let grad_attn_dst = cache.transformed.t_matmul(&grad_t_vec);

            let grad_w = cache.input.t_matmul(&grad_z);
            let grad_input = grad_z.matmul_t(&cache.weight_read);
            (vec![grad_w, grad_attn_src, grad_attn_dst], grad_input)
        }
    }

    /// The cached per-edge attention scattered into a dense `n × n`
    /// matrix (zero off the pattern).
    fn attention_matrix(view: &GraphView, cache: &GatCache) -> Matrix {
        let pattern = view.attention_pattern();
        let mut m = Matrix::zeros(view.num_nodes(), view.num_nodes());
        for (i, row) in pattern.offsets().windows(2).enumerate() {
            for k in row[0]..row[1] {
                m[(i, pattern.indices()[k])] = cache.attention[k];
            }
        }
        m
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.iter().map(|v| v.to_bits()).collect()
    }

    /// A random `n`-node view whose last node is isolated, with the
    /// dense adjacency it was built from: a symmetric graph-backed view,
    /// or a dense one with asymmetric and diagonal entries, some of them
    /// at or below the 0.5 edge threshold. Each candidate edge is drawn
    /// with probability `density`.
    fn random_view(seed: u64, n: usize, density: f64, from_graph: bool) -> (GraphView, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let linked = n - 1;
        if from_graph {
            let mut edges = Vec::new();
            for i in 0..linked {
                for j in (i + 1)..linked {
                    if rng.gen_bool(density) {
                        edges.push((i, j));
                    }
                }
            }
            let g = CsrGraph::from_edges(n, &edges);
            (GraphView::from_graph(&g), g.to_dense())
        } else {
            let mut adj = Matrix::zeros(n, n);
            for i in 0..linked {
                for j in 0..linked {
                    if rng.gen_bool(density) {
                        adj[(i, j)] = [1.0, 0.7, 0.5, 0.3][rng.gen_range(0..4usize)];
                    }
                }
            }
            (GraphView::from_dense(adj.clone()), adj)
        }
    }

    /// Layer widths the oracle test draws from: a small layer, and the
    /// trainer's hidden (24 → 16) and output (16 → 9) GAT layers, whose
    /// widths take the row kernels' fixed-width forms.
    const WIDTHS: [(usize, usize); 3] = [(4, 3), (24, 16), (16, 9)];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Up to 80 nodes at densities from edgeless to 0.4: rows hold
        // from one edge (the isolated node's self loop) to dozens, so
        // the backward pass's four-edge dot groups and its one-edge
        // remainder both run.
        #[test]
        fn sparse_attention_bit_identical_to_dense_oracle(
            seed in 0u64..100_000,
            n in 1usize..=80,
            density in 0.0f64..0.4,
            widths in 0usize..WIDTHS.len(),
            from_graph in any::<bool>(),
            output_layer in any::<bool>(),
        ) {
            let (view, adj) = random_view(seed, n, density, from_graph);
            let (in_dim, out_dim) = WIDTHS[widths];
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
            let layer = GatLayer::new(in_dim, out_dim, &mut rng);
            let x = init::normal(n, in_dim, 1.5, &mut rng);
            let grad_out = init::normal(n, out_dim, 1.0, &mut rng);

            let (out, cache) = layer.forward(&view, &x, &IdealReader, 0, output_layer);
            let (dense_out, dense_cache) = dense_oracle::forward(&layer, &adj, &x, output_layer);
            prop_assert_eq!(bits(&out), bits(&dense_out));
            prop_assert_eq!(
                bits(&attention_matrix(&view, &cache)),
                bits(&dense_cache.attention)
            );

            let (grads, grad_in) = layer.backward(&view, &cache, &grad_out, true);
            let (dense_grads, dense_grad_in) = dense_oracle::backward(&dense_cache, &grad_out);
            for p in 0..3 {
                prop_assert_eq!(bits(&grads[p]), bits(&dense_grads[p]), "parameter {}", p);
            }
            prop_assert_eq!(bits(&grad_in.unwrap()), bits(&dense_grad_in));
        }
    }

    /// The 3-node path graph `setup` trains on.
    fn path_adjacency() -> Matrix {
        Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 1.0], &[0.0, 1.0, 0.0]])
    }

    fn setup() -> (GatLayer, GraphView, Matrix) {
        let mut rng = StdRng::seed_from_u64(4);
        let layer = GatLayer::new(3, 2, &mut rng);
        let x = init::normal(3, 3, 1.0, &mut rng);
        (layer, GraphView::from_dense(path_adjacency()), x)
    }

    #[test]
    fn forward_shapes_and_three_params() {
        let (layer, adj, x) = setup();
        let (out, _) = layer.forward(&adj, &x, &IdealReader, 0, false);
        assert_eq!(out.shape(), (3, 2));
        assert_eq!(layer.param_shapes().len(), 3);
    }

    #[test]
    fn attention_rows_are_distributions_over_neighbourhood() {
        let (layer, adj, x) = setup();
        let (_, cache) = layer.forward(&adj, &x, &IdealReader, 0, false);
        let attention = attention_matrix(&adj, &cache);
        let dense = path_adjacency();
        for i in 0..3 {
            let sum: f32 = attention.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            for j in 0..3 {
                if i != j && dense[(i, j)] < 0.5 {
                    assert_eq!(attention[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn isolated_node_attends_to_itself() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = GatLayer::new(2, 2, &mut rng);
        let adj = GraphView::from_dense(Matrix::zeros(2, 2));
        let x = Matrix::from_rows(&[&[1.0, 0.5], &[0.2, -0.3]]);
        let (_, cache) = layer.forward(&adj, &x, &IdealReader, 0, true);
        let attention = attention_matrix(&adj, &cache);
        assert!((attention[(0, 0)] - 1.0).abs() < 1e-6);
        assert!((attention[(1, 1)] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn all_gradients_match_finite_difference() {
        let (mut layer, adj, x) = setup();
        let labels = [0usize, 1, 1];
        let loss_of = |l: &GatLayer| {
            let (out, _) = l.forward(&adj, &x, &IdealReader, 0, true);
            ops::cross_entropy_with_grad(&out, &labels).0
        };
        let (out, cache) = layer.forward(&adj, &x, &IdealReader, 0, true);
        let (_, grad_logits) = ops::cross_entropy_with_grad(&out, &labels);
        let (grads, _) = layer.backward(&adj, &cache, &grad_logits, false);

        let eps = 1e-3f32;
        for p in 0..3 {
            let (rows, cols) = layer.param(p).shape();
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
        let (layer, adj, x) = setup();
        let labels = [0usize, 1, 1];
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
                    (fd - grad_input[(r, c)]).abs() < 5e-3,
                    "fd {fd} vs analytic {} at ({r},{c})",
                    grad_input[(r, c)]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "3 parameters")]
    fn param_index_out_of_range() {
        let (layer, _, _) = setup();
        layer.param(3);
    }
}

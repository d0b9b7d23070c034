use fare_graph::datasets::ModelKind;
use fare_graph::GraphView;
use fare_rt::rand::Rng;
use fare_tensor::Matrix;

use crate::layers::{GatCache, GatLayer, GcnCache, GcnLayer, SageCache, SageLayer};
use crate::optim::Adam;
use crate::WeightReader;

/// Layer dimensions of a two-layer GNN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GnnDims {
    /// Input feature dimension.
    pub input: usize,
    /// Hidden dimension.
    pub hidden: usize,
    /// Output (class) dimension.
    pub output: usize,
}

/// Identity and shape of one model parameter, used to pre-allocate
/// crossbar fabrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamShape {
    /// Layer index.
    pub layer: usize,
    /// Parameter index within the layer.
    pub param: usize,
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum Layer {
    Gcn(GcnLayer),
    Sage(SageLayer),
    Gat(GatLayer),
}

impl Layer {
    fn param_shapes(&self) -> Vec<(usize, usize)> {
        match self {
            Layer::Gcn(l) => l.param_shapes(),
            Layer::Sage(l) => l.param_shapes(),
            Layer::Gat(l) => l.param_shapes(),
        }
    }

    fn param(&self, i: usize) -> &Matrix {
        match self {
            Layer::Gcn(l) => {
                assert_eq!(i, 0, "GcnLayer has 1 parameter");
                l.weight()
            }
            Layer::Sage(l) => l.param(i),
            Layer::Gat(l) => l.param(i),
        }
    }

    fn param_mut(&mut self, i: usize) -> &mut Matrix {
        match self {
            Layer::Gcn(l) => {
                assert_eq!(i, 0, "GcnLayer has 1 parameter");
                l.weight_mut()
            }
            Layer::Sage(l) => l.param_mut(i),
            Layer::Gat(l) => l.param_mut(i),
        }
    }
}

#[derive(Debug, Clone)]
enum LayerCache {
    Gcn(GcnCache),
    Sage(SageCache),
    Gat(GatCache),
}

/// Cached intermediates of one forward pass, consumed by
/// [`Gnn::backward`].
#[derive(Debug, Clone)]
pub struct ForwardCache {
    caches: Vec<LayerCache>,
}

/// Per-layer, per-parameter gradients from [`Gnn::backward`].
#[derive(Debug, Clone)]
pub struct Gradients {
    per_layer: Vec<Vec<Matrix>>,
}

impl Gradients {
    /// Gradient of parameter `param` in `layer`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn get(&self, layer: usize, param: usize) -> &Matrix {
        &self.per_layer[layer][param]
    }

    /// Sum of Frobenius norms over all parameter gradients.
    pub fn total_norm(&self) -> f32 {
        self.per_layer
            .iter()
            .flatten()
            .map(Matrix::frobenius_norm)
            .sum()
    }

    /// Global gradient-norm clipping: if the joint Frobenius norm over
    /// all gradients exceeds `max_norm`, every gradient is scaled down
    /// proportionally. Stabilises training when a fault-corrupted
    /// forward pass produces an outlier loss surface.
    ///
    /// # Panics
    ///
    /// Panics if `max_norm` is not positive.
    pub fn clip_norm(&mut self, max_norm: f32) {
        assert!(max_norm > 0.0, "max_norm must be positive");
        let total_sq: f32 = self
            .per_layer
            .iter()
            .flatten()
            .map(|g| {
                let n = g.frobenius_norm();
                n * n
            })
            .sum();
        let total = total_sq.sqrt();
        if total > max_norm {
            let scale = max_norm / total;
            for g in self.per_layer.iter_mut().flatten() {
                g.map_inplace(|v| v * scale);
            }
        }
    }
}

/// A GNN of a given [`ModelKind`] (two layers by default, deeper via
/// [`Gnn::with_depth`]).
///
/// The model is deliberately backend-agnostic: the forward pass receives
/// a [`GraphView`] over the **binary** batch adjacency (corrupt it
/// upstream to simulate aggregation-phase faults, then wrap it in a
/// view) and reads every parameter through a [`WeightReader`]
/// (substitute a faulty reader to simulate combination-phase faults).
/// The view caches the normalised propagation matrices, so build it once
/// per (batch, corruption) pair — not once per forward.
#[derive(Debug, Clone, PartialEq)]
pub struct Gnn {
    kind: ModelKind,
    dims: GnnDims,
    layers: Vec<Layer>,
}

impl Gnn {
    /// Builds a two-layer model of the given kind.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(kind: ModelKind, dims: GnnDims, rng: &mut impl Rng) -> Self {
        Self::with_depth(kind, dims, 2, rng)
    }

    /// Builds a model with `depth` layers: `input → hidden`, then
    /// `depth − 2` hidden → hidden layers, then `hidden → output`.
    ///
    /// The paper pipelines all layers of the GNN across the accelerator;
    /// deeper models simply add aggregation/combination pipeline stages.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `depth < 2`.
    pub fn with_depth(kind: ModelKind, dims: GnnDims, depth: usize, rng: &mut impl Rng) -> Self {
        assert!(
            dims.input > 0 && dims.hidden > 0 && dims.output > 0,
            "dimensions must be positive: {dims:?}"
        );
        assert!(depth >= 2, "depth must be at least 2, got {depth}");
        let make = |i: usize, o: usize, mut rng: &mut dyn fare_rt::rand::RngCore| -> Layer {
            match kind {
                ModelKind::Gcn => Layer::Gcn(GcnLayer::new(i, o, &mut rng)),
                ModelKind::Sage => Layer::Sage(SageLayer::new(i, o, &mut rng)),
                ModelKind::Gat => Layer::Gat(GatLayer::new(i, o, &mut rng)),
            }
        };
        let mut layers = Vec::with_capacity(depth);
        layers.push(make(dims.input, dims.hidden, rng));
        for _ in 0..depth - 2 {
            layers.push(make(dims.hidden, dims.hidden, rng));
        }
        layers.push(make(dims.hidden, dims.output, rng));
        Self { kind, dims, layers }
    }

    /// The model family.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The layer dimensions.
    pub fn dims(&self) -> GnnDims {
        self.dims
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Shapes and identities of every parameter, in deterministic order.
    ///
    /// `fare-core` uses this to allocate one crossbar fabric per
    /// parameter.
    pub fn param_shapes(&self) -> Vec<ParamShape> {
        let mut out = Vec::new();
        for (li, layer) in self.layers.iter().enumerate() {
            for (pi, (rows, cols)) in layer.param_shapes().into_iter().enumerate() {
                out.push(ParamShape {
                    layer: li,
                    param: pi,
                    rows,
                    cols,
                });
            }
        }
        out
    }

    /// Borrows parameter `(layer, param)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn param(&self, layer: usize, param: usize) -> &Matrix {
        self.layers[layer].param(param)
    }

    /// Mutably borrows parameter `(layer, param)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn param_mut(&mut self, layer: usize, param: usize) -> &mut Matrix {
        self.layers[layer].param_mut(param)
    }

    /// Forward pass: batch graph view + features → logits.
    ///
    /// # Panics
    ///
    /// Panics if the view's node count differs from `features`' rows, or
    /// feature width differs from `dims.input`.
    pub fn forward(
        &self,
        view: &GraphView,
        features: &Matrix,
        reader: &impl WeightReader,
    ) -> (Matrix, ForwardCache) {
        assert_eq!(
            view.num_nodes(),
            features.rows(),
            "graph/features node mismatch"
        );
        assert_eq!(
            features.cols(),
            self.dims.input,
            "feature dim {} != model input dim {}",
            features.cols(),
            self.dims.input
        );
        let _span = fare_obs::trace::span("gnn.forward");
        let mut h: Option<Matrix> = None;
        let mut caches = Vec::with_capacity(self.layers.len());
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            let output_layer = li == last;
            let input = h.as_ref().unwrap_or(features);
            let (next, cache) = match layer {
                Layer::Gcn(l) => {
                    let (o, c) = l.forward(view, input, reader, li, output_layer);
                    (o, LayerCache::Gcn(c))
                }
                Layer::Sage(l) => {
                    let (o, c) = l.forward(view, input, reader, li, output_layer);
                    (o, LayerCache::Sage(c))
                }
                Layer::Gat(l) => {
                    let (o, c) = l.forward(view, input, reader, li, output_layer);
                    (o, LayerCache::Gat(c))
                }
            };
            h = Some(next);
            caches.push(cache);
        }
        (
            h.expect("a model has at least two layers"),
            ForwardCache { caches },
        )
    }

    /// Backward pass from the loss gradient w.r.t. the logits. `view`
    /// must be the one the forward pass ran with.
    ///
    /// Only parameter gradients are returned, so the first layer skips
    /// its input gradient (the gradient w.r.t. the features).
    ///
    /// # Panics
    ///
    /// Panics if `cache` does not match this model's layer count.
    pub fn backward(
        &self,
        view: &GraphView,
        cache: &ForwardCache,
        grad_logits: &Matrix,
    ) -> Gradients {
        assert_eq!(cache.caches.len(), self.layers.len(), "stale forward cache");
        let _span = fare_obs::trace::span("gnn.backward");
        let mut per_layer = vec![Vec::new(); self.layers.len()];
        let mut grad: Option<Matrix> = None;
        for li in (0..self.layers.len()).rev() {
            let g = grad.as_ref().unwrap_or(grad_logits);
            let input_grad = li > 0;
            let (grads, grad_in) = match (&self.layers[li], &cache.caches[li]) {
                (Layer::Gcn(l), LayerCache::Gcn(c)) => l.backward(view, c, g, input_grad),
                (Layer::Sage(l), LayerCache::Sage(c)) => l.backward(view, c, g, input_grad),
                (Layer::Gat(l), LayerCache::Gat(c)) => l.backward(view, c, g, input_grad),
                _ => unreachable!("cache/layer kind mismatch"),
            };
            per_layer[li] = grads;
            grad = grad_in;
        }
        Gradients { per_layer }
    }

    /// Applies gradients with the given optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not match this model's parameters.
    pub fn apply_gradients(&mut self, grads: &Gradients, opt: &mut Adam) {
        let mut key = 0usize;
        for (li, layer_grads) in grads.per_layer.iter().enumerate() {
            for (pi, g) in layer_grads.iter().enumerate() {
                let p = self.layers[li].param_mut(pi);
                assert_eq!(
                    p.shape(),
                    g.shape(),
                    "gradient shape mismatch at ({li},{pi})"
                );
                opt.step(key, p, g);
                key += 1;
            }
        }
    }

    /// Clamps every parameter into `[-limit, limit]` — the paper's weight
    /// clipping (Section IV-B), applied after each update.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is negative.
    pub fn clip_weights(&mut self, limit: f32) {
        for li in 0..self.layers.len() {
            let count = self.layers[li].param_shapes().len();
            for pi in 0..count {
                self.layers[li].param_mut(pi).clip_inplace(limit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::SeedableRng;
    use fare_tensor::{init, ops};

    use super::*;
    use crate::{Adam, IdealReader};

    fn dims() -> GnnDims {
        GnnDims {
            input: 4,
            hidden: 6,
            output: 3,
        }
    }

    fn ring_adj(n: usize) -> GraphView {
        let mut adj = Matrix::zeros(n, n);
        for i in 0..n {
            let j = (i + 1) % n;
            adj[(i, j)] = 1.0;
            adj[(j, i)] = 1.0;
        }
        GraphView::from_dense(adj)
    }

    #[test]
    fn all_kinds_forward_correct_shape() {
        let adj = ring_adj(5);
        let mut rng = StdRng::seed_from_u64(1);
        let x = init::normal(5, 4, 1.0, &mut rng);
        for kind in [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat] {
            let model = Gnn::new(kind, dims(), &mut rng);
            let (logits, _) = model.forward(&adj, &x, &IdealReader);
            assert_eq!(logits.shape(), (5, 3), "{kind}");
        }
    }

    #[test]
    fn param_shapes_counts() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(
            Gnn::new(ModelKind::Gcn, dims(), &mut rng)
                .param_shapes()
                .len(),
            2
        );
        assert_eq!(
            Gnn::new(ModelKind::Sage, dims(), &mut rng)
                .param_shapes()
                .len(),
            4
        );
        assert_eq!(
            Gnn::new(ModelKind::Gat, dims(), &mut rng)
                .param_shapes()
                .len(),
            6
        );
    }

    #[test]
    fn param_shapes_match_actual_params() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = Gnn::new(ModelKind::Gat, dims(), &mut rng);
        for ps in model.param_shapes() {
            assert_eq!(model.param(ps.layer, ps.param).shape(), (ps.rows, ps.cols));
        }
    }

    #[test]
    fn training_reduces_loss_all_kinds() {
        // Block-structured labels (i / 4) so ring neighbours usually share
        // a class, plus label-correlated features: a task every
        // architecture can learn.
        let adj = ring_adj(12);
        let mut rng = StdRng::seed_from_u64(4);
        let labels: Vec<usize> = (0..12).map(|i| i / 4).collect();
        let noise = init::normal(12, 4, 0.3, &mut rng);
        let x = Matrix::from_fn(12, 4, |r, c| {
            noise[(r, c)] + if c == labels[r] { 1.0 } else { 0.0 }
        });
        for kind in [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat] {
            let mut model = Gnn::new(kind, dims(), &mut rng);
            let mut opt = Adam::new(0.05, &model);
            let (logits, _) = model.forward(&adj, &x, &IdealReader);
            let (initial_loss, _) = ops::cross_entropy_with_grad(&logits, &labels);
            for _ in 0..30 {
                let (logits, cache) = model.forward(&adj, &x, &IdealReader);
                let (_, grad) = ops::cross_entropy_with_grad(&logits, &labels);
                let grads = model.backward(&adj, &cache, &grad);
                model.apply_gradients(&grads, &mut opt);
            }
            let (logits, _) = model.forward(&adj, &x, &IdealReader);
            let (final_loss, _) = ops::cross_entropy_with_grad(&logits, &labels);
            assert!(
                final_loss < initial_loss * 0.8,
                "{kind}: {initial_loss} -> {final_loss}"
            );
        }
    }

    #[test]
    fn backward_equals_the_chain_of_public_layer_backwards() {
        // `Gnn::backward` skips the first layer's input gradient; every
        // parameter gradient must still be the one the public per-layer
        // passes produce when chained by hand with every input gradient
        // built.
        let adj = ring_adj(7);
        let mut rng = StdRng::seed_from_u64(13);
        let x = init::normal(7, 4, 1.0, &mut rng);
        let labels = [0, 1, 2, 0, 1, 2, 0];
        let bits = |m: &Matrix| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for kind in [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat] {
            for depth in 2..=4 {
                let model = Gnn::with_depth(kind, dims(), depth, &mut rng);
                let (logits, cache) = model.forward(&adj, &x, &IdealReader);
                let (_, grad_logits) = ops::cross_entropy_with_grad(&logits, &labels);
                let grads = model.backward(&adj, &cache, &grad_logits);

                let mut grad = grad_logits;
                for li in (0..depth).rev() {
                    let (layer_grads, grad_in) = match (&model.layers[li], &cache.caches[li]) {
                        (Layer::Gcn(l), LayerCache::Gcn(c)) => l.backward(&adj, c, &grad, true),
                        (Layer::Sage(l), LayerCache::Sage(c)) => l.backward(&adj, c, &grad, true),
                        (Layer::Gat(l), LayerCache::Gat(c)) => l.backward(&adj, c, &grad, true),
                        _ => unreachable!("cache/layer kind mismatch"),
                    };
                    for (pi, g) in layer_grads.iter().enumerate() {
                        assert_eq!(
                            bits(grads.get(li, pi)),
                            bits(g),
                            "{kind} depth {depth}: layer {li} parameter {pi}"
                        );
                    }
                    grad = grad_in.expect("input gradient was requested");
                }
            }
        }
    }

    #[test]
    fn clip_weights_bounds_every_param() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut model = Gnn::new(ModelKind::Sage, dims(), &mut rng);
        *model.param_mut(0, 0) = Matrix::filled(4, 6, 100.0);
        model.clip_weights(0.5);
        let max = model
            .param_shapes()
            .iter()
            .flat_map(|s| model.param(s.layer, s.param).iter())
            .fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(max <= 0.5);
    }

    #[test]
    fn gradients_total_norm_positive_after_forward() {
        let adj = ring_adj(6);
        let mut rng = StdRng::seed_from_u64(6);
        let x = init::normal(6, 4, 1.0, &mut rng);
        let model = Gnn::new(ModelKind::Gcn, dims(), &mut rng);
        let (logits, cache) = model.forward(&adj, &x, &IdealReader);
        let (_, grad) = ops::cross_entropy_with_grad(&logits, &[0, 1, 2, 0, 1, 2]);
        let grads = model.backward(&adj, &cache, &grad);
        assert!(grads.total_norm() > 0.0);
        assert_eq!(grads.get(0, 0).shape(), (4, 6));
    }

    #[test]
    fn gradient_norm_clipping_bounds_and_preserves_direction() {
        let adj = ring_adj(6);
        let mut rng = StdRng::seed_from_u64(12);
        let x = init::normal(6, 4, 5.0, &mut rng);
        let model = Gnn::new(ModelKind::Gcn, dims(), &mut rng);
        let (logits, cache) = model.forward(&adj, &x, &IdealReader);
        let (_, grad) = ops::cross_entropy_with_grad(&logits, &[0, 1, 2, 0, 1, 2]);
        let mut grads = model.backward(&adj, &cache, &grad);
        let before = grads.get(0, 0).clone();
        grads.clip_norm(1e-3);
        // Joint norm now bounded.
        let total_sq: f32 = (0..2)
            .map(|l| {
                let g = grads.get(l, 0);
                g.frobenius_norm().powi(2)
            })
            .sum();
        assert!(total_sq.sqrt() <= 1e-3 + 1e-6);
        // Direction preserved (uniform scaling).
        let after = grads.get(0, 0);
        let ratio = before.as_slice()[0] / after.as_slice()[0];
        for (b, a) in before.iter().zip(after.iter()) {
            if a.abs() > 1e-12 {
                assert!((b / a - ratio).abs() < ratio.abs() * 1e-3);
            }
        }
    }

    #[test]
    #[should_panic(expected = "feature dim")]
    fn forward_rejects_wrong_feature_dim() {
        let mut rng = StdRng::seed_from_u64(7);
        let model = Gnn::new(ModelKind::Gcn, dims(), &mut rng);
        let adj = ring_adj(3);
        let x = Matrix::zeros(3, 5);
        model.forward(&adj, &x, &IdealReader);
    }

    #[test]
    fn with_depth_builds_requested_layers() {
        let mut rng = StdRng::seed_from_u64(9);
        for depth in [2usize, 3, 4] {
            let model = Gnn::with_depth(ModelKind::Gcn, dims(), depth, &mut rng);
            assert_eq!(model.num_layers(), depth);
            assert_eq!(model.param_shapes().len(), depth);
            // Forward still produces class logits.
            let adj = ring_adj(5);
            let x = init::normal(5, 4, 1.0, &mut rng);
            let (logits, _) = model.forward(&adj, &x, &IdealReader);
            assert_eq!(logits.shape(), (5, 3));
        }
    }

    #[test]
    fn deep_model_trains() {
        let adj = ring_adj(12);
        let mut rng = StdRng::seed_from_u64(10);
        let labels: Vec<usize> = (0..12).map(|i| i / 4).collect();
        let noise = init::normal(12, 4, 0.3, &mut rng);
        let x = Matrix::from_fn(12, 4, |r, c| {
            noise[(r, c)] + if c == labels[r] { 1.0 } else { 0.0 }
        });
        let mut model = Gnn::with_depth(ModelKind::Sage, dims(), 3, &mut rng);
        let mut opt = Adam::new(0.05, &model);
        let (logits, _) = model.forward(&adj, &x, &IdealReader);
        let (initial, _) = ops::cross_entropy_with_grad(&logits, &labels);
        for _ in 0..40 {
            let (logits, cache) = model.forward(&adj, &x, &IdealReader);
            let (_, grad) = ops::cross_entropy_with_grad(&logits, &labels);
            let grads = model.backward(&adj, &cache, &grad);
            model.apply_gradients(&grads, &mut opt);
        }
        let (logits, _) = model.forward(&adj, &x, &IdealReader);
        let (final_loss, _) = ops::cross_entropy_with_grad(&logits, &labels);
        assert!(final_loss < initial * 0.8, "{initial} -> {final_loss}");
    }

    #[test]
    #[should_panic(expected = "depth must be at least 2")]
    fn with_depth_rejects_shallow() {
        let mut rng = StdRng::seed_from_u64(11);
        Gnn::with_depth(ModelKind::Gcn, dims(), 1, &mut rng);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn new_rejects_zero_dims() {
        let mut rng = StdRng::seed_from_u64(8);
        Gnn::new(
            ModelKind::Gcn,
            GnnDims {
                input: 0,
                hidden: 1,
                output: 1,
            },
            &mut rng,
        );
    }
}

//! The one training loop behind every runner.
//!
//! A run is a [`Task`] — what the model learns and how it is scored —
//! trained on a [`Hardware`] model — what the weights and the batch
//! adjacencies pass through on their way into the model:
//!
//! | Entry point | Task | Hardware |
//! |---|---|---|
//! | [`crate::Trainer::run`] | classification | [`Faulty`] |
//! | [`crate::run_fault_free`] | classification | [`Ideal`] |
//! | [`crate::link_prediction::run_link_prediction`] | link prediction | [`Faulty`] |
//!
//! A run draws from its task's RNG stream in this order. [`prepare`],
//! the host-side preprocessing, draws the partition and the
//! mini-batches and nothing else, and gathers each batch's feature
//! rows, so any number of runs can share its [`Prepared`]. [`train`]
//! continues from there: model init, weight-fabric faults and
//! variation, then per batch the task's preparation followed by the
//! adjacency pool's faults, then per epoch the task's per-batch loss
//! draws, drift and post-deployment faults.
//! Faults are an overlay: the ideal hardware skips every fault step and
//! so draws nothing for them.

use std::collections::BTreeMap;

use fare_gnn::{Adam, Gnn, GnnDims, IdealReader, WeightReader};
use fare_graph::batch::{make_batches, MiniBatch};
use fare_graph::datasets::Dataset;
use fare_graph::partition::partition;
use fare_graph::{CsrGraph, GraphView};
use fare_reram::timing::{PipelineSpec, TimingModel};
use fare_reram::variation::VariationSpec;
use fare_reram::{CrossbarArray, FaultSpec};
use fare_rt::rand::rngs::StdRng;
use fare_tensor::Matrix;

use crate::faulty::{corrupt_graph_mapped, FaultyWeightReader};
use crate::mapping::{
    map_blocks_cached, refresh_blocks_cached, sequential_block_mapping, AdjacencyBlocks, Mapping,
    MappingConfig, RemapCache,
};
use crate::{FaultStrategy, TrainConfig};

/// One prepared mini-batch.
pub(crate) struct Batch<'p, D, S> {
    /// Global ids of the batch's nodes; position = local id.
    pub nodes: Vec<usize>,
    /// The graph the hardware aggregates over (local ids).
    pub graph: CsrGraph,
    /// The adjacency as the hardware currently aggregates it, with its
    /// normalisations cached. Rebuilt only when the corruption changes.
    pub view: GraphView,
    /// The batch's feature rows, gathered once by [`prepare`].
    pub features: &'p Matrix,
    /// The task's per-batch data.
    pub data: D,
    /// The hardware's per-batch state.
    pub slot: S,
}

/// What the model learns and how it is scored.
pub(crate) trait Task {
    /// Per-batch data: labels and masks, or held-out edges.
    type Data;
    /// One epoch's statistics.
    type Epoch;
    /// Domain of the run's RNG stream.
    const RNG_DOMAIN: &'static str;

    /// Width of the model's output layer.
    fn output_dim(&self, cfg: &TrainConfig, dataset: &Dataset) -> usize;

    /// The graph the hardware aggregates over for `batch` and the task's
    /// data, or `None` to leave the batch out of the run.
    fn prepare(
        &self,
        batch: &MiniBatch,
        dataset: &Dataset,
        rng: &mut StdRng,
    ) -> Option<(CsrGraph, Self::Data)>;

    /// Loss of one batch's model output and its gradient, or `None` to
    /// skip the batch's update.
    fn loss<S>(
        &self,
        batch: &Batch<'_, Self::Data, S>,
        output: &Matrix,
        rng: &mut StdRng,
    ) -> Option<(f64, Matrix)>;

    /// Scores the model at the end of `epoch`; `loss` is the epoch's mean
    /// training loss.
    fn evaluate<S>(
        &mut self,
        epoch: usize,
        loss: f64,
        model: &Gnn,
        reader: &impl WeightReader,
        batches: &[Batch<'_, Self::Data, S>],
    ) -> Self::Epoch;
}

/// What the hardware reports about a finished run.
pub(crate) struct HardwareReport {
    /// Execution time normalised to fault-free pipelined training.
    pub normalized_time: f64,
    /// Total adjacency mismatch cost under the final mappings.
    pub mapping_cost: usize,
}

/// What the weights and the batch adjacencies pass through.
pub(crate) trait Hardware: Sized {
    /// Per-batch state.
    type Slot;
    /// How the model reads its weights.
    type Reader: WeightReader;

    /// Builds the weight path for `model`.
    fn build(cfg: &TrainConfig, model: &Gnn, rng: &mut StdRng) -> Self;

    fn reader(&self) -> &Self::Reader;

    /// Programs one batch adjacency; returns its state and the view the
    /// model aggregates over.
    fn program(&self, graph: &CsrGraph, rng: &mut StdRng) -> (Self::Slot, GraphView);

    /// Applied to the master weights after every update.
    fn after_update(&self, _model: &mut Gnn) {}

    /// The hardware ages at the end of `epoch`.
    fn age<D>(
        &mut self,
        _epoch: usize,
        _model: &Gnn,
        _batches: &mut [Batch<'_, D, Self::Slot>],
        _rng: &mut StdRng,
    ) {
    }

    /// Timing and mapping cost of a finished run.
    fn report<D>(&self, model: &Gnn, batches: &[Batch<'_, D, Self::Slot>]) -> HardwareReport;
}

/// A finished run.
pub(crate) struct Trained<'p, D, H: Hardware, E> {
    pub model: Gnn,
    pub hardware: H,
    pub batches: Vec<Batch<'p, D, H::Slot>>,
    pub history: Vec<E>,
}

/// The mini-batches of one partition of a dataset with their feature
/// rows, and the RNG right after drawing them.
pub(crate) struct Prepared<'d> {
    dataset: &'d Dataset,
    minibatches: Vec<MiniBatch>,
    /// `minibatches[i]`'s feature rows.
    features: Vec<Matrix>,
    rng: StdRng,
}

/// Partitions and batches `dataset` from the stream of `seed` in
/// `domain`, a [`Task::RNG_DOMAIN`].
pub(crate) fn prepare<'d>(dataset: &'d Dataset, seed: u64, domain: &'static str) -> Prepared<'d> {
    let mut rng = fare_rt::domain_rng(seed, domain);
    let parts = partition(&dataset.graph, dataset.spec.partitions, &mut rng);
    let cpb = dataset.spec.clusters_per_batch;
    let minibatches = make_batches(&dataset.graph, &parts, cpb, &mut rng);
    let features = minibatches
        .iter()
        .map(|batch| batch.gather_features(&dataset.features))
        .collect();
    Prepared {
        dataset,
        minibatches,
        features,
        rng,
    }
}

/// Trains `task` on hardware `H` under `cfg`, continuing the RNG stream
/// of `prepared`.
///
/// # Panics
///
/// Panics if `cfg` fails [`TrainConfig::validate`] or the task keeps no
/// batch.
pub(crate) fn train<'p, T: Task, H: Hardware>(
    prepared: &'p Prepared,
    cfg: &TrainConfig,
    task: &mut T,
) -> Trained<'p, T::Data, H, T::Epoch> {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    let _run_span = fare_obs::trace::span("core.trainer.run");
    let dataset = prepared.dataset;
    let mut rng = prepared.rng.clone();

    // Model + weight path.
    let dims = GnnDims {
        input: dataset.spec.feature_dim,
        hidden: cfg.hidden_dim,
        output: task.output_dim(cfg, dataset),
    };
    let mut model = Gnn::with_depth(cfg.model, dims, cfg.depth, &mut rng);
    let mut hardware = H::build(cfg, &model, &mut rng);
    let mut opt = Adam::new(cfg.learning_rate, &model).with_weight_decay(cfg.weight_decay);

    // Batch adjacencies onto the hardware.
    let mut batches: Vec<Batch<'_, T::Data, H::Slot>> = prepared
        .minibatches
        .iter()
        .zip(&prepared.features)
        .filter_map(|(batch, features)| {
            let (graph, data) = task.prepare(batch, dataset, &mut rng)?;
            let (slot, view) = hardware.program(&graph, &mut rng);
            Some(Batch {
                features,
                nodes: batch.nodes.clone(),
                graph,
                view,
                data,
                slot,
            })
        })
        .collect();
    assert!(!batches.is_empty(), "no mini-batch is usable for this task");

    let mut history = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let _epoch_span = fare_obs::trace::span_arg("core.trainer.epoch", epoch as u64);
        let mut epoch_loss = 0.0f64;
        for (bi, batch) in batches.iter().enumerate() {
            let _batch_span = fare_obs::trace::span_arg("core.trainer.batch", bi as u64);
            let (output, cache) = model.forward(&batch.view, batch.features, hardware.reader());
            let Some((loss, grad)) = task.loss(batch, &output, &mut rng) else {
                continue;
            };
            epoch_loss += loss;
            let mut grads = model.backward(&batch.view, &cache, &grad);
            if cfg.grad_clip_norm > 0.0 {
                grads.clip_norm(cfg.grad_clip_norm);
            }
            model.apply_gradients(&grads, &mut opt);
            hardware.after_update(&mut model);
        }
        hardware.age(epoch, &model, &mut batches, &mut rng);
        let loss = epoch_loss / batches.len() as f64;
        let weights = ReadOnce::new(&model, hardware.reader());
        history.push(task.evaluate(epoch, loss, &model, &weights, &batches));
    }
    Trained {
        model,
        hardware,
        batches,
        history,
    }
}

/// Every parameter of a model as a reader returns it, read once.
///
/// The evaluation runs one forward pass per batch with unchanged master
/// weights and an unchanged fabric. A read depends on nothing else, so
/// reading each parameter once and handing out copies gives every pass
/// the same inputs as reading through the fabric each time.
struct ReadOnce(BTreeMap<(usize, usize), Matrix>);

impl ReadOnce {
    fn new(model: &Gnn, reader: &impl WeightReader) -> Self {
        let reads = model
            .param_shapes()
            .into_iter()
            .map(|p| {
                let read = reader.read(p.layer, p.param, model.param(p.layer, p.param));
                ((p.layer, p.param), read)
            })
            .collect();
        Self(reads)
    }
}

impl WeightReader for ReadOnce {
    /// The snapshot of `(layer, param)`; `value` must be the master
    /// weights it was read from.
    fn read(&self, layer: usize, param: usize, _value: &Matrix) -> Matrix {
        self.0[&(layer, param)].clone()
    }
}

/// Ideal hardware: full-precision weights, the exact batch adjacency,
/// no faults.
pub(crate) struct Ideal;

impl Hardware for Ideal {
    type Slot = ();
    type Reader = IdealReader;

    fn build(_: &TrainConfig, _: &Gnn, _: &mut StdRng) -> Self {
        Ideal
    }

    fn reader(&self) -> &IdealReader {
        &IdealReader
    }

    fn program(&self, graph: &CsrGraph, _: &mut StdRng) -> ((), GraphView) {
        // Build the sparse view straight from the batch graph, never
        // materialising a dense adjacency.
        ((), GraphView::from_graph(graph))
    }

    fn report<D>(&self, _: &Gnn, _: &[Batch<'_, D, ()>]) -> HardwareReport {
        HardwareReport {
            normalized_time: 1.0,
            mapping_cost: 0,
        }
    }
}

/// Faulty ReRAM hardware: quantised weight fabrics and adjacency
/// crossbar pools with stuck-at faults, mapped and maintained by the
/// configured [`FaultStrategy`].
pub(crate) struct Faulty {
    cfg: TrainConfig,
    reader: FaultyWeightReader,
}

/// One batch's adjacency crossbar pool.
pub(crate) struct Crossbars {
    /// The clean adjacency as programmed: its packed block grid.
    blocks: AdjacencyBlocks,
    array: CrossbarArray,
    mapping: Mapping,
    /// Memoised `G₁` solutions keyed by block position; lets the
    /// post-BIST refresh re-solve only the crossbars whose fault state
    /// actually changed.
    remap: RemapCache,
}

impl Faulty {
    /// The adjacency the model actually sees of `graph`, stored on
    /// `xbars`.
    fn view(&self, graph: &CsrGraph, xbars: &Crossbars) -> GraphView {
        if self.cfg.adjacency_faults {
            GraphView::from_pattern(corrupt_graph_mapped(graph, &xbars.array, &xbars.mapping))
        } else {
            GraphView::from_graph(graph)
        }
    }
}

impl Hardware for Faulty {
    type Slot = Crossbars;
    type Reader = FaultyWeightReader;

    fn build(cfg: &TrainConfig, model: &Gnn, rng: &mut StdRng) -> Self {
        let mut reader = FaultyWeightReader::for_model(model, cfg.crossbar_size);
        if cfg.weight_faults {
            reader.inject(&cfg.fault_spec, rng);
        }
        if cfg.weight_variation_sigma > 0.0 || cfg.weight_drift_sigma > 0.0 {
            reader.inject_variation(&VariationSpec::new(cfg.weight_variation_sigma), rng);
        }
        if cfg.strategy.clips_weights() {
            reader.set_clip(Some(cfg.clip_threshold));
        }
        // NR's weight-row reordering. The hardware recomputes the
        // permutation after every batch and stalls the pipeline for it —
        // the timing model charges exactly that. In simulation we compute
        // the placement once here and refresh it after every
        // post-deployment BIST event: the recomputation chases the same
        // static faults each time, so it is idempotent until the fault
        // map changes, and refreshing it every simulated batch would only
        // inject corruption churn the real mechanism does not have.
        if cfg.strategy.reorders_per_batch() {
            reader.optimize_placements(model, cfg.matcher);
        }
        Self { cfg: *cfg, reader }
    }

    fn reader(&self) -> &FaultyWeightReader {
        &self.reader
    }

    fn program(&self, graph: &CsrGraph, rng: &mut StdRng) -> (Crossbars, GraphView) {
        let cfg = &self.cfg;
        let n = cfg.crossbar_size;
        let blocks = AdjacencyBlocks::from_graph(graph, n);
        let count = blocks.grid().pow(2);
        let pool = ((count as f64 * cfg.crossbar_slack).ceil() as usize).max(count);
        let mut array = CrossbarArray::new(pool, n);
        if cfg.adjacency_faults {
            array.inject(&cfg.fault_spec, rng);
        }
        let mut remap = RemapCache::new();
        let map_cfg = MappingConfig {
            matcher: cfg.matcher,
            prune: true,
        };
        // NR keeps the sequential block order and re-solves each block's
        // row permutation; the cache is empty, so every block is solved.
        let mapping = if cfg.strategy.maps_adjacency() {
            map_blocks_cached(&blocks, &array, &map_cfg, &mut remap)
        } else {
            let mut mapping = sequential_block_mapping(&blocks, &array);
            if cfg.strategy.reorders_per_batch() {
                refresh_blocks_cached(&blocks, &array, &mut mapping, cfg.matcher, &mut remap);
            }
            mapping
        };
        let xbars = Crossbars {
            blocks,
            array,
            mapping,
            remap,
        };
        let view = self.view(graph, &xbars);
        (xbars, view)
    }

    fn after_update(&self, model: &mut Gnn) {
        if self.cfg.strategy.clips_weights() {
            model.clip_weights(self.cfg.clip_threshold);
        }
    }

    fn age<D>(
        &mut self,
        epoch: usize,
        model: &Gnn,
        batches: &mut [Batch<'_, D, Crossbars>],
        rng: &mut StdRng,
    ) {
        let cfg = self.cfg;
        if epoch + 1 >= cfg.epochs {
            return;
        }
        // Retention drift compounds every epoch.
        if cfg.weight_drift_sigma > 0.0 {
            self.reader.apply_drift(cfg.weight_drift_sigma, rng);
        }
        if cfg.post_deployment_density <= 0.0 {
            return;
        }
        // Post-deployment faults appear in equal per-epoch increments;
        // BIST reveals them; FARe and NR refresh their row permutations on
        // the existing assignment Π, re-solving only the crossbars whose
        // fault state changed.
        fare_obs::counters::CORE_TRAINER_POST_INJECTIONS.incr();
        let extra = FaultSpec::with_sa1_fraction(
            cfg.post_deployment_density / cfg.epochs as f64,
            cfg.fault_spec.sa1_fraction,
        );
        if cfg.adjacency_faults {
            for b in batches.iter_mut() {
                b.slot.array.inject(&extra, rng);
            }
        }
        if cfg.weight_faults {
            self.reader.inject(&extra, rng);
        }
        if cfg.adjacency_faults {
            let refresh = cfg.strategy.reorders_per_batch()
                || (cfg.strategy.maps_adjacency() && cfg.post_refresh);
            for b in batches.iter_mut() {
                let x = &mut b.slot;
                if refresh {
                    refresh_blocks_cached(
                        &x.blocks,
                        &x.array,
                        &mut x.mapping,
                        cfg.matcher,
                        &mut x.remap,
                    );
                }
                // The corruption changed (new faults and possibly new
                // permutations) — rebuild the cached view.
                b.view = self.view(&b.graph, &b.slot);
            }
        }
        // NR reacts to the BIST-detected new weight faults too.
        if cfg.strategy.reorders_per_batch() {
            self.reader.optimize_placements(model, cfg.matcher);
        }
    }

    fn report<D>(&self, model: &Gnn, batches: &[Batch<'_, D, Crossbars>]) -> HardwareReport {
        let cfg = &self.cfg;
        // Fig. 7 timing model: stages = aggregation + combination per
        // layer + the softmax/update stage.
        let num_batches = batches.len();
        let stages = 2 * model.num_layers() + 1;
        let timing = TimingModel::new(PipelineSpec::new(num_batches, stages, 1e-3, cfg.epochs));
        let times = timing.normalized();
        let normalized_time = match cfg.strategy {
            FaultStrategy::FaultUnaware => times.fault_free,
            FaultStrategy::ClippingOnly => times.clipping,
            FaultStrategy::NeuronReordering => times.neuron_reordering,
            FaultStrategy::FaRe => times.fare,
        };
        // Spatial telemetry rollup (pure observation — reads fault maps
        // and placements, touches no training state).
        if fare_obs::enabled() {
            fare_obs::heatmap::record(crossbar_heatmap(
                batches,
                cfg.epochs,
                model.num_layers(),
                num_batches,
                stages,
            ));
        }
        HardwareReport {
            normalized_time,
            mapping_cost: batches.iter().map(|b| b.slot.mapping.total_cost()).sum(),
        }
    }
}

/// Per-crossbar telemetry rollup over the concatenated adjacency pools
/// of every batch: measured SA0/SA1 fault cells and final mapping
/// mismatch cost per crossbar, plus *modeled* MVM traffic (each mapped
/// block is activated once per aggregation pass; three passes — train
/// forward, backward, evaluation forward — per layer per epoch) and the
/// chip-level energy estimate apportioned by that traffic.
fn crossbar_heatmap<D>(
    batches: &[Batch<'_, D, Crossbars>],
    epochs: usize,
    num_layers: usize,
    num_batches: usize,
    stages: usize,
) -> fare_obs::HeatmapGrid {
    let cells: usize = batches.iter().map(|b| b.slot.array.len()).sum();
    let mut grid = fare_obs::HeatmapGrid::zeros("adjacency_crossbars", cells);
    let mut offset = 0usize;
    for b in batches {
        let x = &b.slot;
        for i in 0..x.array.len() {
            let xb = x.array.crossbar(i);
            grid.sa0[offset + i] = xb.sa0_count() as u64;
            grid.sa1[offset + i] = xb.sa1_count() as u64;
        }
        for p in x.mapping.placements() {
            grid.mismatch[offset + p.crossbar] += p.mismatch_cost as u64;
            grid.mvms[offset + p.crossbar] += (epochs * num_layers * 3) as u64;
        }
        offset += x.array.len();
    }
    if cells > 0 {
        let spec = PipelineSpec::new(num_batches, stages, 1e-3, epochs);
        let report =
            fare_reram::energy::estimate(&fare_reram::ChipConfig::date2024(), cells, &spec);
        let total_mvms: u64 = grid.mvms.iter().sum();
        if total_mvms > 0 {
            for (e, &m) in grid.energy_nj.iter_mut().zip(&grid.mvms) {
                *e = report.energy_j * 1e9 * (m as f64 / total_mvms as f64);
            }
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use fare_graph::datasets::{DatasetKind, ModelKind};

    use super::*;

    #[test]
    fn evaluation_through_the_snapshot_equals_reading_through_the_fabric() {
        let dataset = Dataset::generate(DatasetKind::Ppi, 5);
        let prepared = prepare(&dataset, 5, "trainer");
        let mut rng = prepared.rng.clone();
        let dims = GnnDims {
            input: dataset.spec.feature_dim,
            hidden: 16,
            output: dataset.num_classes,
        };
        for kind in [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat] {
            let model = Gnn::with_depth(kind, dims, 3, &mut rng);
            let mut reader = FaultyWeightReader::for_model(&model, 16);
            reader.inject(&FaultSpec::density(0.2), &mut rng);
            reader.inject_variation(&VariationSpec::new(0.1), &mut rng);
            reader.set_clip(Some(0.05));
            let snapshot = ReadOnce::new(&model, &reader);
            assert_ne!(
                snapshot.0[&(0, 0)],
                *model.param(0, 0),
                "the fabric corrupts reads"
            );
            for (batch, features) in prepared.minibatches.iter().zip(&prepared.features) {
                let view = GraphView::from_graph(&batch.graph);
                let (direct, _) = model.forward(&view, features, &reader);
                let (snapped, _) = model.forward(&view, features, &snapshot);
                let bits = |m: &Matrix| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&direct), bits(&snapped), "{kind}");
            }
        }
    }
}

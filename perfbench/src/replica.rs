//! A replica of `fare_core::Trainer::run` built from public calls only,
//! with a span around every call into a layer.
//!
//! It draws from `domain_rng(seed, "trainer")` in the trainer's order and
//! carries a copy of the trainer's private masked cross-entropy, so its
//! `TrainOutcome` equals `Trainer::run`'s bit for bit. The benchmark
//! checks that before it lets the replica's layer times stand for the
//! real run. It covers the configurations the benchmark trains: no neuron
//! reordering, no weight variation and no drift.

use fare_core::mapping::sequential_mapping;
use fare_core::{
    corrupt_adjacency_mapped, map_adjacency_cached, refresh_row_permutations_cached, EpochStats,
    FaultStrategy, FaultyWeightReader, Mapping, MappingConfig, RemapCache, TrainConfig,
    TrainOutcome,
};
use fare_gnn::{Adam, Gnn, GnnDims, WeightReader};
use fare_graph::batch::make_batches;
use fare_graph::datasets::Dataset;
use fare_graph::partition::partition;
use fare_graph::GraphView;
use fare_reram::timing::{PipelineSpec, TimingModel};
use fare_reram::{CrossbarArray, FaultSpec};
use fare_tensor::{ops, Matrix};

use crate::trace::{Clock, Tracer};

/// Partitioning the dataset graph.
pub const PARTITION: &str = "graph.partition";
/// Batching, each batch's dense adjacency, and gathering its features,
/// labels and training mask.
pub const BATCH: &str = "graph.batch";
/// Allocating adjacency crossbars and injecting pre- or post-deployment
/// faults into them or into the weight fabrics.
pub const INJECT: &str = "reram.inject";
/// The initial mapping: Algorithm 1 for FARe, the sequential layout
/// otherwise.
pub const MAP: &str = "core.mapping.map";
/// The post-BIST row-permutation refresh.
pub const REFRESH: &str = "core.mapping.refresh";
/// Corrupting a batch adjacency under its mapping.
pub const CORRUPT: &str = "core.faulty.corrupt_adjacency";
/// Building or rebuilding a batch's `GraphView`.
pub const VIEW: &str = "graph.view.build";
/// `WeightReader::read` through the faulty weight fabrics.
pub const READ_WEIGHTS: &str = "core.faulty.read_weights";
/// The training forward pass.
pub const FORWARD: &str = "gnn.forward";
/// The epoch-end evaluation: forward passes and accuracy counts.
pub const EVAL: &str = "gnn.eval";
/// The backward pass.
pub const BACKWARD: &str = "gnn.backward";
/// Gradient clip, `apply_gradients` and weight clip.
pub const OPTIM: &str = "gnn.optim";
/// The replica's own masked cross-entropy.
pub const LOSS: &str = "bench.loss";

/// Every layer span the replica records.
pub const LAYERS: [&str; 13] = [
    PARTITION,
    BATCH,
    INJECT,
    MAP,
    REFRESH,
    CORRUPT,
    VIEW,
    READ_WEIGHTS,
    FORWARD,
    EVAL,
    BACKWARD,
    OPTIM,
    LOSS,
];

/// Times every weight read of the wrapped reader as a [`READ_WEIGHTS`]
/// span.
struct TimedReader<'a, C: Clock> {
    inner: &'a FaultyWeightReader,
    tracer: &'a Tracer<C>,
}

impl<C: Clock> WeightReader for TimedReader<'_, C> {
    fn read(&self, layer: usize, param: usize, value: &Matrix) -> Matrix {
        self.tracer
            .span(READ_WEIGHTS, || self.inner.read(layer, param, value))
    }
}

/// Per-batch hardware state, as the trainer keeps it.
struct BatchState {
    adj: Matrix,
    view: GraphView,
    features: Matrix,
    labels: Vec<usize>,
    train_mask: Vec<bool>,
    array: CrossbarArray,
    mapping: Mapping,
    remap: RemapCache,
}

/// Trains `cfg` on `dataset` exactly as `Trainer::new(*cfg, seed).run`
/// does, recording layer spans on `tracer`.
///
/// # Panics
///
/// Panics if `cfg` uses neuron reordering, weight variation or drift.
pub fn run<C: Clock>(
    cfg: &TrainConfig,
    seed: u64,
    dataset: &Dataset,
    tracer: &Tracer<C>,
) -> TrainOutcome {
    assert!(
        !cfg.strategy.reorders_per_batch(),
        "the replica does not cover neuron reordering"
    );
    assert!(
        cfg.weight_variation_sigma == 0.0 && cfg.weight_drift_sigma == 0.0,
        "the replica does not cover weight variation or drift"
    );
    let mut rng = fare_rt::domain_rng(seed, "trainer");
    let n = cfg.crossbar_size;
    let map_cfg = MappingConfig {
        matcher: cfg.matcher,
        prune: true,
        ..MappingConfig::default()
    };

    let parts = tracer.span(PARTITION, || {
        partition(&dataset.graph, dataset.spec.partitions, &mut rng)
    });
    let batches = tracer.span(BATCH, || {
        make_batches(
            &dataset.graph,
            &parts,
            dataset.spec.clusters_per_batch,
            &mut rng,
        )
    });
    let num_batches = batches.len();

    let dims = GnnDims {
        input: dataset.spec.feature_dim,
        hidden: cfg.hidden_dim,
        output: dataset.num_classes,
    };
    let mut model = Gnn::with_depth(cfg.model, dims, cfg.depth, &mut rng);
    let mut reader = FaultyWeightReader::for_model(&model, n);
    if cfg.weight_faults {
        tracer.span(INJECT, || reader.inject(&cfg.fault_spec, &mut rng));
    }
    if cfg.strategy.clips_weights() {
        reader.set_clip(Some(cfg.clip_threshold));
    }
    let mut opt = Adam::new(cfg.learning_rate, &model).with_weight_decay(cfg.weight_decay);

    let mut states = Vec::with_capacity(num_batches);
    for batch in &batches {
        let adj = tracer.span(BATCH, || batch.dense_adjacency());
        let blocks = adj.rows().div_ceil(n).pow(2);
        let pool = ((blocks as f64 * cfg.crossbar_slack).ceil() as usize).max(blocks);
        let array = tracer.span(INJECT, || {
            let mut array = CrossbarArray::new(pool, n);
            if cfg.adjacency_faults {
                array.inject(&cfg.fault_spec, &mut rng);
            }
            array
        });
        let mut remap = RemapCache::new();
        let mapping = tracer.span(MAP, || match cfg.strategy {
            FaultStrategy::FaRe => map_adjacency_cached(&adj, &array, &map_cfg, &mut remap),
            _ => sequential_mapping(&adj, &array),
        });
        let (features, labels, train_mask) =
            tracer.span(BATCH, || -> (Matrix, Vec<usize>, Vec<bool>) {
                (
                    batch.gather_features(&dataset.features),
                    batch.gather_labels(&dataset.labels),
                    batch.nodes.iter().map(|&u| dataset.train_mask[u]).collect(),
                )
            });
        let seen = if cfg.adjacency_faults {
            tracer.span(CORRUPT, || corrupt_adjacency_mapped(&adj, &array, &mapping))
        } else {
            adj.clone()
        };
        let view = tracer.span(VIEW, || GraphView::from_dense(seen));
        states.push(BatchState {
            adj,
            view,
            features,
            labels,
            train_mask,
            array,
            mapping,
            remap,
        });
    }

    let per_epoch_extra = if cfg.post_deployment_density > 0.0 {
        cfg.post_deployment_density / cfg.epochs as f64
    } else {
        0.0
    };
    let mut history = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let mut epoch_loss = 0.0f64;
        for state in &states {
            let timed = TimedReader {
                inner: &reader,
                tracer,
            };
            let (logits, cache) = tracer.span(FORWARD, || {
                model.forward(&state.view, &state.features, &timed)
            });
            // Intermediates are dropped inside the spans that consume
            // them, so freeing them is attributed too.
            let (loss, grad) = tracer.span(LOSS, || {
                let out = masked_cross_entropy(&logits, &state.labels, &state.train_mask);
                drop(logits);
                out
            });
            epoch_loss += loss;
            let mut grads = tracer.span(BACKWARD, || {
                let grads = model.backward(&state.view, &cache, &grad);
                drop((cache, grad));
                grads
            });
            tracer.span(OPTIM, || {
                if cfg.grad_clip_norm > 0.0 {
                    grads.clip_norm(cfg.grad_clip_norm);
                }
                model.apply_gradients(&grads, &mut opt);
                if cfg.strategy.clips_weights() {
                    model.clip_weights(cfg.clip_threshold);
                }
                drop(grads);
            });
        }

        if per_epoch_extra > 0.0 && epoch + 1 < cfg.epochs {
            let extra = FaultSpec::with_sa1_fraction(per_epoch_extra, cfg.fault_spec.sa1_fraction);
            if cfg.adjacency_faults {
                for state in &mut states {
                    tracer.span(INJECT, || state.array.inject(&extra, &mut rng));
                }
            }
            if cfg.weight_faults {
                tracer.span(INJECT, || reader.inject(&extra, &mut rng));
            }
            if cfg.strategy.maps_adjacency() && cfg.adjacency_faults && cfg.post_refresh {
                for state in &mut states {
                    tracer.span(REFRESH, || {
                        state.mapping = refresh_row_permutations_cached(
                            &state.adj,
                            &state.array,
                            &state.mapping,
                            cfg.matcher,
                            &mut state.remap,
                        );
                    });
                }
            }
            if cfg.adjacency_faults {
                for state in &mut states {
                    let seen = tracer.span(CORRUPT, || {
                        corrupt_adjacency_mapped(&state.adj, &state.array, &state.mapping)
                    });
                    tracer.span(VIEW, || state.view = GraphView::from_dense(seen));
                }
            }
        }

        let timed = TimedReader {
            inner: &reader,
            tracer,
        };
        let (train_accuracy, test_accuracy) =
            tracer.span(EVAL, || evaluate(&model, &timed, &states));
        history.push(EpochStats {
            epoch,
            loss: epoch_loss / num_batches.max(1) as f64,
            train_accuracy,
            test_accuracy,
        });
    }

    let stages = 2 * model.num_layers() + 1;
    let times = TimingModel::new(PipelineSpec::new(
        num_batches.max(1),
        stages,
        1e-3,
        cfg.epochs,
    ))
    .normalized();
    let normalized_time = match cfg.strategy {
        FaultStrategy::FaultUnaware => times.fault_free,
        FaultStrategy::ClippingOnly => times.clipping,
        FaultStrategy::NeuronReordering => times.neuron_reordering,
        FaultStrategy::FaRe => times.fare,
    };
    let last = *history.last().expect("at least one epoch");
    TrainOutcome {
        final_train_accuracy: last.train_accuracy,
        final_test_accuracy: last.test_accuracy,
        best_test_accuracy: history
            .iter()
            .map(|e| e.test_accuracy)
            .fold(0.0f64, f64::max),
        normalized_time,
        final_mapping_cost: states.iter().map(|s| s.mapping.total_cost()).sum(),
        num_batches,
        history,
    }
}

/// The trainer's masked cross-entropy: mean loss over the masked rows and
/// a gradient that is zero elsewhere.
fn masked_cross_entropy(logits: &Matrix, labels: &[usize], mask: &[bool]) -> (f64, Matrix) {
    let selected: Vec<usize> = (0..mask.len()).filter(|&i| mask[i]).collect();
    if selected.is_empty() {
        return (0.0, Matrix::zeros(logits.rows(), logits.cols()));
    }
    let probs = ops::softmax_rows(logits);
    let n = selected.len() as f32;
    let mut loss = 0.0f64;
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    for &i in &selected {
        let label = labels[i];
        loss -= (probs[(i, label)].max(1e-12) as f64).ln();
        for c in 0..logits.cols() {
            grad[(i, c)] = (probs[(i, c)] - if c == label { 1.0 } else { 0.0 }) / n;
        }
    }
    (loss / selected.len() as f64, grad)
}

/// The trainer's epoch-end accuracy over the train and test splits.
fn evaluate(model: &Gnn, reader: &impl WeightReader, states: &[BatchState]) -> (f64, f64) {
    let mut train = (0usize, 0usize);
    let mut test = (0usize, 0usize);
    for state in states {
        let (logits, _) = model.forward(&state.view, &state.features, reader);
        let preds = logits.argmax_rows();
        for (i, &label) in state.labels.iter().enumerate() {
            let correct = (preds[i] == label) as usize;
            if state.train_mask[i] {
                train.0 += correct;
                train.1 += 1;
            } else {
                test.0 += correct;
                test.1 += 1;
            }
        }
    }
    (
        train.0 as f64 / train.1.max(1) as f64,
        test.0 as f64 / test.1.max(1) as f64,
    )
}

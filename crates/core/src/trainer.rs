//! The FARe training pipeline: partition → mini-batch → map → train on
//! faulty crossbars → clip → (per-epoch BIST + refresh), for node
//! classification.
//!
//! [`Trainer::run`] trains on faulty hardware and [`run_fault_free`] on
//! ideal hardware; both are node classification through the one epoch
//! loop in `engine`, so accuracy differences isolate the hardware
//! effects.

use fare_gnn::{Gnn, WeightReader};
use fare_graph::batch::MiniBatch;
use fare_graph::datasets::{Dataset, ModelKind};
use fare_graph::CsrGraph;
use fare_matching::Matcher;
use fare_reram::FaultSpec;
use fare_rt::rand::rngs::StdRng;
use fare_tensor::{ops, Matrix};

use crate::engine::{self, Batch, Faulty, Hardware, Ideal, Prepared, Task};
use crate::FaultStrategy;

/// Configuration of one training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// GNN architecture.
    pub model: ModelKind,
    /// Hidden layer width.
    pub hidden_dim: usize,
    /// Number of GNN layers (>= 2). Deeper models add pipeline stages.
    pub depth: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate (Table II: 0.01).
    pub learning_rate: f32,
    /// Decoupled (AdamW-style) weight decay; 0 disables it.
    pub weight_decay: f32,
    /// Global gradient-norm clip; 0 disables it. Stabilises training
    /// against outlier gradients from fault-corrupted forward passes.
    pub grad_clip_norm: f32,
    /// Weight clip threshold θ.
    pub clip_threshold: f32,
    /// Pre-deployment fault statistics.
    pub fault_spec: FaultSpec,
    /// Log-normal σ of programming variation on stored weights
    /// (extension; 0 disables it).
    pub weight_variation_sigma: f64,
    /// Per-epoch retention-drift σ compounded onto the variation field
    /// (extension; 0 disables it; requires or implies a variation
    /// field).
    pub weight_drift_sigma: f64,
    /// Extra fault density added *in total* over the run as
    /// post-deployment faults, injected in equal per-epoch increments
    /// (paper Fig. 6 uses 0.01).
    pub post_deployment_density: f64,
    /// Mitigation scheme.
    pub strategy: FaultStrategy,
    /// Crossbar dimension (must be a multiple of 8 for the weight path).
    pub crossbar_size: usize,
    /// Crossbar over-provisioning for the adjacency pool: the algorithm
    /// gets `ceil(blocks × slack)` crossbars to choose from.
    pub crossbar_slack: f64,
    /// Assignment solver for all matchings.
    pub matcher: Matcher,
    /// Inject faults into the weight fabrics (combination phase)?
    pub weight_faults: bool,
    /// Inject faults into the adjacency crossbars (aggregation phase)?
    pub adjacency_faults: bool,
    /// For FARe: refresh row permutations after each post-deployment BIST
    /// scan (the paper's maintenance step). Disable for ablation only.
    pub post_refresh: bool,
}

fare_rt::json_struct_to!(TrainConfig {
    model,
    hidden_dim,
    depth,
    epochs,
    learning_rate,
    weight_decay,
    grad_clip_norm,
    clip_threshold,
    fault_spec,
    weight_variation_sigma,
    weight_drift_sigma,
    post_deployment_density,
    strategy,
    crossbar_size,
    crossbar_slack,
    matcher,
    weight_faults,
    adjacency_faults,
    post_refresh
});

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            model: ModelKind::Gcn,
            hidden_dim: 16,
            depth: 2,
            epochs: 20,
            learning_rate: 0.01,
            weight_decay: 0.0,
            grad_clip_norm: 0.0,
            clip_threshold: crate::clipping::DEFAULT_THRESHOLD,
            fault_spec: FaultSpec::fault_free(),
            weight_variation_sigma: 0.0,
            weight_drift_sigma: 0.0,
            post_deployment_density: 0.0,
            strategy: FaultStrategy::FaRe,
            crossbar_size: 16,
            crossbar_slack: 1.5,
            matcher: Matcher::BSuitor,
            weight_faults: true,
            adjacency_faults: true,
            post_refresh: true,
        }
    }
}

impl TrainConfig {
    /// Checks the configuration for inconsistencies every runner
    /// rejects: zero epochs, fewer than two layers, a crossbar size that
    /// is not a positive multiple of 8, crossbar slack below 1 or not
    /// finite, or a post-deployment fault density outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        if self.epochs == 0 {
            return Err("epochs must be positive".into());
        }
        if self.depth < 2 {
            return Err("depth must be at least 2".into());
        }
        if self.crossbar_size == 0 || !self.crossbar_size.is_multiple_of(8) {
            return Err("crossbar size must be a positive multiple of 8".into());
        }
        if !(self.crossbar_slack.is_finite() && self.crossbar_slack >= 1.0) {
            return Err("crossbar slack must be >= 1.0 and finite".into());
        }
        if !(0.0..=1.0).contains(&self.post_deployment_density) {
            return Err("post-deployment density must be in [0, 1]".into());
        }
        Ok(())
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch's batches.
    pub loss: f64,
    /// Training-split accuracy evaluated on the faulty hardware.
    pub train_accuracy: f64,
    /// Test-split accuracy evaluated on the faulty hardware.
    pub test_accuracy: f64,
}

fare_rt::json_struct_to!(EpochStats {
    epoch,
    loss,
    train_accuracy,
    test_accuracy
});

/// Result of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainOutcome {
    /// Per-epoch statistics.
    pub history: Vec<EpochStats>,
    /// Final-epoch training accuracy.
    pub final_train_accuracy: f64,
    /// Final-epoch test accuracy.
    pub final_test_accuracy: f64,
    /// Best test accuracy over all epochs (for early-stopping analyses).
    pub best_test_accuracy: f64,
    /// Execution time normalised to fault-free pipelined training
    /// (Fig. 7's metric) for this strategy.
    pub normalized_time: f64,
    /// Total adjacency mismatch cost under the final mappings.
    pub final_mapping_cost: usize,
    /// Number of mini-batches per epoch.
    pub num_batches: usize,
}

fare_rt::json_struct_to!(TrainOutcome {
    history,
    final_train_accuracy,
    final_test_accuracy,
    best_test_accuracy,
    normalized_time,
    final_mapping_cost,
    num_batches
});

/// Cross-entropy restricted to masked rows: returns the mean loss over
/// selected rows and a gradient that is zero elsewhere.
fn masked_cross_entropy(logits: &Matrix, labels: &[usize], mask: &[bool]) -> (f64, Matrix) {
    assert_eq!(labels.len(), logits.rows());
    assert_eq!(mask.len(), logits.rows());
    let selected: Vec<usize> = (0..mask.len()).filter(|&i| mask[i]).collect();
    if selected.is_empty() {
        return (0.0, Matrix::zeros(logits.rows(), logits.cols()));
    }
    let probs = ops::softmax_rows(logits);
    let n = selected.len() as f32;
    let mut loss = 0.0f64;
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    for &i in &selected {
        let (label, probs_i) = (labels[i], probs.row(i));
        loss -= (probs_i[label].max(1e-12) as f64).ln();
        for (c, (g, &p)) in grad.row_mut(i).iter_mut().zip(probs_i).enumerate() {
            *g = (p - if c == label { 1.0 } else { 0.0 }) / n;
        }
    }
    (loss / selected.len() as f64, grad)
}

/// Node classification: masked cross-entropy on the training split,
/// scored by train/test accuracy.
struct Classification;

/// A batch's labels and training mask.
struct Labels {
    labels: Vec<usize>,
    train_mask: Vec<bool>,
}

impl Task for Classification {
    type Data = Labels;
    type Epoch = EpochStats;
    const RNG_DOMAIN: &'static str = "trainer";

    fn output_dim(&self, _: &TrainConfig, dataset: &Dataset) -> usize {
        dataset.num_classes
    }

    fn prepare(
        &self,
        batch: &MiniBatch,
        dataset: &Dataset,
        _: &mut StdRng,
    ) -> Option<(CsrGraph, Labels)> {
        let labels = Labels {
            labels: batch.gather_labels(&dataset.labels),
            train_mask: batch.nodes.iter().map(|&u| dataset.train_mask[u]).collect(),
        };
        Some((batch.graph.clone(), labels))
    }

    fn loss<S>(
        &self,
        batch: &Batch<'_, Labels, S>,
        logits: &Matrix,
        _: &mut StdRng,
    ) -> Option<(f64, Matrix)> {
        Some(masked_cross_entropy(
            logits,
            &batch.data.labels,
            &batch.data.train_mask,
        ))
    }

    /// Accuracy over train/test splits, evaluated batch by batch on the
    /// current hardware state.
    fn evaluate<S>(
        &mut self,
        epoch: usize,
        loss: f64,
        model: &Gnn,
        reader: &impl WeightReader,
        batches: &[Batch<'_, Labels, S>],
    ) -> EpochStats {
        let mut train = (0usize, 0usize);
        let mut test = (0usize, 0usize);
        for batch in batches {
            let (logits, _) = model.forward(&batch.view, batch.features, reader);
            let preds = logits.argmax_rows();
            for (i, &label) in batch.data.labels.iter().enumerate() {
                let correct = (preds[i] == label) as usize;
                if batch.data.train_mask[i] {
                    train.0 += correct;
                    train.1 += 1;
                } else {
                    test.0 += correct;
                    test.1 += 1;
                }
            }
        }
        let train_accuracy = train.0 as f64 / train.1.max(1) as f64;
        let test_accuracy = test.0 as f64 / test.1.max(1) as f64;
        fare_obs::record_epoch(epoch, loss, train_accuracy, test_accuracy);
        EpochStats {
            epoch,
            loss,
            train_accuracy,
            test_accuracy,
        }
    }
}

/// Partitions and batches `dataset` for node classification.
pub(crate) fn prepare(dataset: &Dataset, seed: u64) -> Prepared<'_> {
    engine::prepare(dataset, seed, Classification::RNG_DOMAIN)
}

/// Node classification of `prepared` under `config` on hardware `H`.
pub(crate) fn classify<H: Hardware>(prepared: &Prepared, config: &TrainConfig) -> TrainOutcome {
    let run = engine::train::<_, H>(prepared, config, &mut Classification);
    let report = run.hardware.report(&run.model, &run.batches);
    let history = run.history;
    let last = history.last().copied().expect("at least one epoch");
    let best_test_accuracy = history
        .iter()
        .map(|e| e.test_accuracy)
        .fold(0.0f64, f64::max);
    TrainOutcome {
        final_train_accuracy: last.train_accuracy,
        final_test_accuracy: last.test_accuracy,
        best_test_accuracy,
        normalized_time: report.normalized_time,
        final_mapping_cost: report.mapping_cost,
        num_batches: run.batches.len(),
        history,
    }
}

/// Drives a full training run of one configuration on one dataset.
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
    seed: u64,
}

impl Trainer {
    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`TrainConfig::validate`].
    pub fn new(config: TrainConfig, seed: u64) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        Self { config, seed }
    }

    /// The configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Runs training on faulty hardware and returns the outcome.
    ///
    /// Deterministic for a given `(config, seed, dataset)`.
    pub fn run(&self, dataset: &Dataset) -> TrainOutcome {
        classify::<Faulty>(&prepare(dataset, self.seed), &self.config)
    }
}

/// Trains the same configuration on **ideal** hardware (no quantisation,
/// no faults) — the "fault-free" reference bar of every figure.
///
/// Uses the same partitioning, batching, model init and update schedule
/// as [`Trainer::run`] so accuracy differences isolate the hardware
/// effects. Hardware has no part in the run, so it ignores the
/// hardware-only fields by definition.
///
/// Ignored hardware fields: `clip_threshold`, `fault_spec`,
/// `weight_variation_sigma`, `weight_drift_sigma`,
/// `post_deployment_density`, `strategy`, `crossbar_size`,
/// `crossbar_slack`, `matcher`, `weight_faults`, `adjacency_faults`,
/// `post_refresh`.
///
/// # Panics
///
/// Panics if the configuration fails [`TrainConfig::validate`].
pub fn run_fault_free(config: &TrainConfig, seed: u64, dataset: &Dataset) -> TrainOutcome {
    classify::<Ideal>(&prepare(dataset, seed), config)
}

#[cfg(test)]
mod tests {
    use fare_graph::datasets::DatasetKind;

    use super::*;

    fn quick_config(strategy: FaultStrategy, density: f64) -> TrainConfig {
        TrainConfig {
            epochs: 3,
            fault_spec: FaultSpec::density(density),
            strategy,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn masked_cross_entropy_ignores_unmasked_rows() {
        let logits = Matrix::from_rows(&[&[5.0, -5.0], &[-5.0, 5.0]]);
        // Row 1 is wrong but masked out.
        let (loss, grad) = masked_cross_entropy(&logits, &[0, 0], &[true, false]);
        assert!(loss < 1e-3);
        assert_eq!(grad.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn masked_cross_entropy_empty_mask() {
        let logits = Matrix::zeros(2, 2);
        let (loss, grad) = masked_cross_entropy(&logits, &[0, 1], &[false, false]);
        assert_eq!(loss, 0.0);
        assert_eq!(grad.frobenius_norm(), 0.0);
    }

    #[test]
    fn fault_free_run_learns_ppi() {
        let ds = Dataset::generate(DatasetKind::Ppi, 3);
        let config = TrainConfig {
            epochs: 15,
            ..TrainConfig::default()
        };
        let out = run_fault_free(&config, 3, &ds);
        assert!(
            out.final_test_accuracy > 0.6,
            "fault-free accuracy too low: {}",
            out.final_test_accuracy
        );
        // Accuracy improved over training.
        assert!(out.history[0].test_accuracy < out.final_test_accuracy + 0.05);
    }

    #[test]
    fn trainer_runs_all_strategies() {
        let ds = Dataset::generate(DatasetKind::Ppi, 4);
        for strategy in FaultStrategy::all() {
            let out = Trainer::new(quick_config(strategy, 0.03), 4).run(&ds);
            assert_eq!(out.history.len(), 3, "{strategy}");
            assert!(out.num_batches > 1);
            assert!(out.final_test_accuracy >= 0.0 && out.final_test_accuracy <= 1.0);
        }
    }

    #[test]
    fn zero_density_fare_matches_ideal_closely() {
        // With no faults, FARe differs from ideal only by quantisation.
        let ds = Dataset::generate(DatasetKind::Ppi, 5);
        let config = TrainConfig {
            epochs: 10,
            fault_spec: FaultSpec::fault_free(),
            strategy: FaultStrategy::FaRe,
            ..TrainConfig::default()
        };
        let faulty = Trainer::new(config, 5).run(&ds);
        let ideal = run_fault_free(&config, 5, &ds);
        assert!(
            (faulty.final_test_accuracy - ideal.final_test_accuracy).abs() < 0.1,
            "quantisation-only gap too large: {} vs {}",
            faulty.final_test_accuracy,
            ideal.final_test_accuracy
        );
    }

    #[test]
    fn timing_ordering_matches_fig7() {
        let ds = Dataset::generate(DatasetKind::Ppi, 6);
        let times: Vec<f64> = FaultStrategy::all()
            .iter()
            .map(|&s| {
                Trainer::new(quick_config(s, 0.01), 6)
                    .run(&ds)
                    .normalized_time
            })
            .collect();
        let (unaware, nr, clip, fare) = (times[0], times[1], times[2], times[3]);
        assert_eq!(unaware, 1.0);
        assert!(clip < fare);
        // At this test's tiny pipeline geometry (few batches) the relative
        // clip-stage charge is inflated; the paper-scale ~1% figure is
        // asserted in the fig7 experiment tests. Here we check ordering
        // and rough magnitude only.
        assert!(fare < 1.2, "FARe overhead too big: {fare}");
        assert!(nr > 2.0, "NR overhead too small: {nr}");
        assert!(nr > 2.0 * fare);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let ds = Dataset::generate(DatasetKind::Ppi, 7);
        let a = Trainer::new(quick_config(FaultStrategy::FaRe, 0.02), 7).run(&ds);
        let b = Trainer::new(quick_config(FaultStrategy::FaRe, 0.02), 7).run(&ds);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn moderate_variation_tolerated_with_fare() {
        let ds = Dataset::generate(DatasetKind::Ppi, 15);
        let base = TrainConfig {
            epochs: 8,
            fault_spec: FaultSpec::density(0.02),
            strategy: FaultStrategy::FaRe,
            ..TrainConfig::default()
        };
        let clean = Trainer::new(base, 15).run(&ds).final_test_accuracy;
        let varied = Trainer::new(
            TrainConfig {
                weight_variation_sigma: 0.1,
                ..base
            },
            15,
        )
        .run(&ds)
        .final_test_accuracy;
        // 10% programming variation should cost only a few points —
        // training adapts to the static multiplicative field.
        assert!(
            varied > clean - 0.1,
            "variation too damaging: {clean:.3} -> {varied:.3}"
        );
    }

    #[test]
    fn regularisation_knobs_do_not_break_training() {
        let ds = Dataset::generate(DatasetKind::Ppi, 18);
        let out = Trainer::new(
            TrainConfig {
                epochs: 8,
                weight_decay: 0.001,
                grad_clip_norm: 1.0,
                fault_spec: FaultSpec::density(0.02),
                strategy: FaultStrategy::FaRe,
                ..TrainConfig::default()
            },
            18,
        )
        .run(&ds);
        assert!(
            out.final_test_accuracy > 0.6,
            "regularised run failed to learn: {:.3}",
            out.final_test_accuracy
        );
        assert!(out.best_test_accuracy >= out.final_test_accuracy - 1e-12);
        assert!(out.best_test_accuracy <= 1.0);
    }

    #[test]
    fn mild_drift_tolerated() {
        let ds = Dataset::generate(DatasetKind::Ppi, 17);
        let base = TrainConfig {
            epochs: 8,
            strategy: FaultStrategy::FaRe,
            ..TrainConfig::default()
        };
        let clean = Trainer::new(base, 17).run(&ds).final_test_accuracy;
        let drifted = Trainer::new(
            TrainConfig {
                weight_drift_sigma: 0.01,
                ..base
            },
            17,
        )
        .run(&ds)
        .final_test_accuracy;
        // 1% per-epoch drift over 8 epochs is absorbed by training.
        assert!(
            drifted > clean - 0.1,
            "drift too damaging: {clean:.3} -> {drifted:.3}"
        );
    }

    #[test]
    fn extreme_variation_degrades_accuracy() {
        let ds = Dataset::generate(DatasetKind::Ppi, 16);
        let base = TrainConfig {
            epochs: 8,
            fault_spec: FaultSpec::fault_free(),
            strategy: FaultStrategy::FaultUnaware,
            ..TrainConfig::default()
        };
        let clean = Trainer::new(base, 16).run(&ds).final_test_accuracy;
        let wrecked = Trainer::new(
            TrainConfig {
                weight_variation_sigma: 2.0,
                ..base
            },
            16,
        )
        .run(&ds)
        .final_test_accuracy;
        assert!(
            wrecked < clean,
            "σ=2 variation should hurt: {clean:.3} vs {wrecked:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn rejects_bad_crossbar_size() {
        Trainer::new(
            TrainConfig {
                crossbar_size: 12,
                ..TrainConfig::default()
            },
            0,
        );
    }
}

//! Parameterised runners for every figure of the evaluation section.
//!
//! Each runner reproduces the corresponding experiment's *protocol* —
//! same workloads, fault ratios, densities, and comparison baselines as
//! the paper — on the scaled synthetic datasets. The `fare-bench` crate
//! wraps them in one binary per figure; integration tests assert the
//! qualitative shapes (who wins, by roughly what factor).

use fare_graph::datasets::{Dataset, DatasetKind, ModelKind};
use fare_reram::timing::{NormalizedTimes, PipelineSpec, TimingModel};
use fare_reram::FaultSpec;
use fare_rt::par::scoped_map;
use fare_tensor::fixed::StuckPolarity;

use crate::engine::{Faulty, Ideal, Prepared};
use crate::trainer::{classify, prepare};
use crate::{FaultStrategy, TrainConfig, TrainOutcome};

/// One (dataset, model) pairing from Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Workload {
    /// Dataset preset.
    pub dataset: DatasetKind,
    /// Model architecture.
    pub model: ModelKind,
}

fare_rt::json_struct_to!(Workload { dataset, model });

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}+{}", self.dataset, self.model)
    }
}

/// All six Table II workloads.
pub fn table2_workloads() -> Vec<Workload> {
    DatasetKind::all()
        .iter()
        .flat_map(|&dataset| {
            dataset
                .spec()
                .models
                .iter()
                .map(move |&model| Workload { dataset, model })
        })
        .collect()
}

/// Shared experiment parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentParams {
    /// Training epochs per run (paper: 100; scale down for CI).
    pub epochs: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Independent trials averaged per bar (fault pattern + init vary by
    /// trial). The paper plots single runs on large graphs; the scaled
    /// graphs here need a few trials to tame fault-placement variance.
    pub trials: usize,
}

impl Default for ExperimentParams {
    fn default() -> Self {
        Self {
            epochs: 30,
            seed: 42,
            trials: 3,
        }
    }
}

fn base_config(model: ModelKind, epochs: usize) -> TrainConfig {
    TrainConfig {
        model,
        epochs,
        ..TrainConfig::default()
    }
}

/// One cell of a sweep, on the sweep's dataset of the given index.
pub(crate) enum Cell {
    /// A model's fault-free reference, on ideal hardware.
    FaultFree(usize, ModelKind),
    /// A configuration on faulty hardware.
    Faulty(usize, TrainConfig),
}

/// Trains every cell on the datasets of `kinds` once per trial (trial
/// `t` on seed `params.seed + 1000 t`) and returns each cell's outcomes
/// in trial order.
///
/// Each (dataset, trial seed) is partitioned and batched once; every
/// cell on that dataset continues from the shared preparation, so each
/// run reads the RNG stream a stand-alone run would. All (cell × trial)
/// runs go through one flat parallel map; inside a run everything is
/// serial.
pub(crate) fn run_cells(
    params: &ExperimentParams,
    kinds: &[DatasetKind],
    cells: &[Cell],
) -> Vec<Vec<TrainOutcome>> {
    let datasets: Vec<Dataset> = kinds
        .iter()
        .map(|&kind| Dataset::generate(kind, params.seed))
        .collect();
    let trials = params.trials.max(1);
    let prepared: Vec<Prepared> = datasets
        .iter()
        .flat_map(|ds| (0..trials).map(move |t| (ds, params.seed.wrapping_add(1000 * t as u64))))
        .map(|(ds, seed)| {
            fare_obs::counters::CORE_EXPERIMENT_PREPARED.incr();
            prepare(ds, seed)
        })
        .collect();
    let runs: Vec<(&Cell, usize)> = cells
        .iter()
        .flat_map(|cell| (0..trials).map(move |t| (cell, t)))
        .collect();
    let outcomes = scoped_map(runs, |(cell, t)| match *cell {
        Cell::FaultFree(d, model) => classify::<Ideal>(
            &prepared[d * trials + t],
            &base_config(model, params.epochs),
        ),
        Cell::Faulty(d, ref config) => classify::<Faulty>(&prepared[d * trials + t], config),
    });
    outcomes.chunks(trials).map(<[_]>::to_vec).collect()
}

/// Mean final test accuracy over `outcomes`.
pub(crate) fn mean_accuracy(outcomes: &[TrainOutcome]) -> f64 {
    outcomes.iter().map(|o| o.final_test_accuracy).sum::<f64>() / outcomes.len() as f64
}

// ---------------------------------------------------------------------
// Fig. 3 — SA0 vs SA1 severity, weights vs adjacency (SAGE + Amazon2M).
// ---------------------------------------------------------------------

/// Which computation phase faults were injected into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPhase {
    /// Crossbars storing GNN weights (combination).
    Weights,
    /// Crossbars storing the adjacency matrix (aggregation).
    Adjacency,
}

fare_rt::json_enum!(FaultPhase { Weights, Adjacency });

impl std::fmt::Display for FaultPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPhase::Weights => write!(f, "weights"),
            FaultPhase::Adjacency => write!(f, "adjacency"),
        }
    }
}

/// One bar of Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Case {
    /// Phase the 5 % faults were injected into.
    pub phase: FaultPhase,
    /// Fault polarity (SA0-only or SA1-only).
    pub polarity: StuckPolarity,
    /// Final test accuracy of fault-unaware training.
    pub accuracy: f64,
}

fare_rt::json_struct_to!(Fig3Case {
    phase,
    polarity,
    accuracy
});

/// Fig. 3 result: four fault bars plus the fault-free reference.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Result {
    /// Fault-free test accuracy.
    pub fault_free: f64,
    /// The four (phase × polarity) bars.
    pub cases: Vec<Fig3Case>,
}

fare_rt::json_struct_to!(Fig3Result { fault_free, cases });

impl Fig3Result {
    /// Accuracy of a specific bar.
    ///
    /// # Panics
    ///
    /// Panics if the case is missing.
    pub fn accuracy_of(&self, phase: FaultPhase, polarity: StuckPolarity) -> f64 {
        self.cases
            .iter()
            .find(|c| c.phase == phase && c.polarity == polarity)
            .map(|c| c.accuracy)
            .expect("missing fig3 case")
    }
}

/// Runs the Fig. 3 experiment: 5 % SA0-only / SA1-only pre-deployment
/// faults on the weight and adjacency crossbars *separately*, with
/// fault-unaware training (SAGE + Amazon2M).
pub fn fig3(params: &ExperimentParams) -> Fig3Result {
    let model = ModelKind::Sage;
    let bars = [
        (FaultPhase::Weights, StuckPolarity::StuckAtZero),
        (FaultPhase::Weights, StuckPolarity::StuckAtOne),
        (FaultPhase::Adjacency, StuckPolarity::StuckAtZero),
        (FaultPhase::Adjacency, StuckPolarity::StuckAtOne),
    ];

    let mut cells = vec![Cell::FaultFree(0, model)];
    cells.extend(bars.iter().map(|&(phase, polarity)| {
        Cell::Faulty(
            0,
            TrainConfig {
                fault_spec: match polarity {
                    StuckPolarity::StuckAtZero => FaultSpec::density(0.05).sa0_only(),
                    StuckPolarity::StuckAtOne => FaultSpec::density(0.05).sa1_only(),
                },
                strategy: FaultStrategy::FaultUnaware,
                weight_faults: phase == FaultPhase::Weights,
                adjacency_faults: phase == FaultPhase::Adjacency,
                ..base_config(model, params.epochs)
            },
        )
    }));
    let outcomes = run_cells(params, &[DatasetKind::Amazon2M], &cells);

    Fig3Result {
        fault_free: mean_accuracy(&outcomes[0]),
        cases: bars
            .iter()
            .zip(&outcomes[1..])
            .map(|(&(phase, polarity), outs)| Fig3Case {
                phase,
                polarity,
                accuracy: mean_accuracy(outs),
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Fig. 4 — training curves, fault-unaware vs FARe (GCN + Reddit).
// ---------------------------------------------------------------------

/// Fig. 4 result: per-epoch training-accuracy curves.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Result {
    /// Fault densities swept (paper: 1–5 %).
    pub densities: Vec<f64>,
    /// Fault-free training-accuracy curve.
    pub fault_free: Vec<f64>,
    /// Fault-unaware curves, one per density (panel a).
    pub unaware: Vec<Vec<f64>>,
    /// FARe curves, one per density (panel b).
    pub fare: Vec<Vec<f64>>,
}

fare_rt::json_struct_to!(Fig4Result {
    densities,
    fault_free,
    unaware,
    fare
});

/// Runs Fig. 4: training accuracy vs epoch for fault-unaware vs FARe at
/// each density (GCN + Reddit, SA0:SA1 = 9:1).
pub fn fig4(params: &ExperimentParams, densities: &[f64]) -> Fig4Result {
    let model = ModelKind::Gcn;
    // Per-epoch training accuracy, averaged over the trials.
    let mean_curve = |outs: &[TrainOutcome]| -> Vec<f64> {
        let sum = |i: usize| {
            outs.iter()
                .map(|o| o.history[i].train_accuracy)
                .sum::<f64>()
        };
        (0..params.epochs)
            .map(|i| sum(i) / outs.len() as f64)
            .collect()
    };

    let mut cells = vec![Cell::FaultFree(0, model)];
    for strategy in [FaultStrategy::FaultUnaware, FaultStrategy::FaRe] {
        cells.extend(densities.iter().map(|&density| {
            Cell::Faulty(
                0,
                TrainConfig {
                    fault_spec: FaultSpec::density(density),
                    strategy,
                    ..base_config(model, params.epochs)
                },
            )
        }));
    }
    let outcomes = run_cells(params, &[DatasetKind::Reddit], &cells);
    let (unaware, fare) = outcomes[1..].split_at(densities.len());
    Fig4Result {
        densities: densities.to_vec(),
        fault_free: mean_curve(&outcomes[0]),
        unaware: unaware.iter().map(|o| mean_curve(o)).collect(),
        fare: fare.iter().map(|o| mean_curve(o)).collect(),
    }
}

// ---------------------------------------------------------------------
// Fig. 5 / Fig. 6 — test-accuracy comparison across workloads.
// ---------------------------------------------------------------------

/// One bar of Fig. 5 / Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyCell {
    /// Workload (dataset + model).
    pub workload: Workload,
    /// Mitigation strategy.
    pub strategy: FaultStrategy,
    /// Pre-deployment fault density.
    pub density: f64,
    /// Final test accuracy.
    pub accuracy: f64,
}

fare_rt::json_struct_to!(AccuracyCell {
    workload,
    strategy,
    density,
    accuracy
});

/// Fig. 5 / Fig. 6 result: all bars plus per-workload fault-free
/// references.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyComparison {
    /// SA1 fraction used (0.1 for 9:1, 0.5 for 1:1).
    pub sa1_fraction: f64,
    /// Total post-deployment density added over the run (Fig. 6; 0 for
    /// Fig. 5).
    pub post_deployment_density: f64,
    /// Fault-free reference accuracy per workload.
    pub fault_free: Vec<(Workload, f64)>,
    /// All (workload × strategy × density) bars.
    pub cells: Vec<AccuracyCell>,
}

fare_rt::json_struct_to!(AccuracyComparison {
    sa1_fraction,
    post_deployment_density,
    fault_free,
    cells
});

impl AccuracyComparison {
    /// Accuracy of a specific bar.
    ///
    /// # Panics
    ///
    /// Panics if the cell is missing.
    pub fn accuracy_of(&self, workload: Workload, strategy: FaultStrategy, density: f64) -> f64 {
        self.cells
            .iter()
            .find(|c| {
                c.workload == workload
                    && c.strategy == strategy
                    && (c.density - density).abs() < 1e-12
            })
            .map(|c| c.accuracy)
            .expect("missing accuracy cell")
    }

    /// Fault-free reference of a workload.
    ///
    /// # Panics
    ///
    /// Panics if the workload is missing.
    pub fn fault_free_of(&self, workload: Workload) -> f64 {
        self.fault_free
            .iter()
            .find(|(w, _)| *w == workload)
            .map(|(_, a)| *a)
            .expect("missing fault-free reference")
    }

    /// Mean accuracy of one strategy over all bars.
    pub fn mean_accuracy(&self, strategy: FaultStrategy) -> f64 {
        let vals: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.strategy == strategy)
            .map(|c| c.accuracy)
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    }
}

/// Runs the Fig. 5 protocol: every workload × strategy × density at the
/// given SA1 fraction, pre-deployment faults only.
///
/// Pass `workloads = table2_workloads()` for the full figure or a subset
/// for quick runs.
pub fn fig5(
    params: &ExperimentParams,
    workloads: &[Workload],
    sa1_fraction: f64,
    densities: &[f64],
) -> AccuracyComparison {
    fig6(params, workloads, sa1_fraction, densities, 0.0)
}

/// Runs the Fig. 6 protocol: pre-deployment densities plus
/// `post_deployment_density` extra faults spread uniformly over the
/// epochs (paper: 1 %).
pub fn fig6(
    params: &ExperimentParams,
    workloads: &[Workload],
    sa1_fraction: f64,
    pre_densities: &[f64],
    post_deployment_density: f64,
) -> AccuracyComparison {
    let mut cells: Vec<Cell> = workloads
        .iter()
        .enumerate()
        .map(|(wi, w)| Cell::FaultFree(wi, w.model))
        .collect();
    let mut bars = Vec::new();
    for (wi, &workload) in workloads.iter().enumerate() {
        for strategy in FaultStrategy::all() {
            for &density in pre_densities {
                bars.push((workload, strategy, density));
                cells.push(Cell::Faulty(
                    wi,
                    TrainConfig {
                        fault_spec: FaultSpec::with_sa1_fraction(density, sa1_fraction),
                        post_deployment_density,
                        strategy,
                        ..base_config(workload.model, params.epochs)
                    },
                ));
            }
        }
    }
    fare_obs::counters::CORE_EXPERIMENT_CELLS.add(bars.len() as u64);
    let kinds: Vec<DatasetKind> = workloads.iter().map(|w| w.dataset).collect();
    let outcomes = run_cells(params, &kinds, &cells);
    let (fault_free, faulty) = outcomes.split_at(workloads.len());

    AccuracyComparison {
        sa1_fraction,
        post_deployment_density,
        fault_free: workloads
            .iter()
            .zip(fault_free)
            .map(|(&w, outs)| (w, mean_accuracy(outs)))
            .collect(),
        cells: bars
            .into_iter()
            .zip(faulty)
            .map(|((workload, strategy, density), outs)| AccuracyCell {
                workload,
                strategy,
                density,
                accuracy: mean_accuracy(outs),
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Fig. 7 — normalised execution time per dataset.
// ---------------------------------------------------------------------

/// Fig. 7 result: normalised execution times per dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Result {
    /// `(dataset, times)` rows using the paper-scale pipeline geometry
    /// (N = partitions / batch from Table II, S = 5, 100 epochs).
    pub rows: Vec<(DatasetKind, NormalizedTimes)>,
}

fare_rt::json_struct_to!(Fig7Result { rows });

/// Runs the Fig. 7 timing model with each dataset's paper-scale pipeline
/// geometry.
pub fn fig7() -> Fig7Result {
    let rows = DatasetKind::all()
        .iter()
        .map(|&kind| {
            let spec = kind.spec();
            let num_batches = (spec.paper_partitions / spec.paper_batch).max(1);
            let timing = TimingModel::new(PipelineSpec::new(num_batches, 5, 1e-3, 100));
            (kind, timing.normalized())
        })
        .collect();
    Fig7Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_six_workloads() {
        let w = table2_workloads();
        assert_eq!(w.len(), 6);
        assert!(w.contains(&Workload {
            dataset: DatasetKind::Ppi,
            model: ModelKind::Gat
        }));
        assert!(w.contains(&Workload {
            dataset: DatasetKind::Ogbl,
            model: ModelKind::Sage
        }));
    }

    #[test]
    fn fig7_fare_low_overhead_nr_high() {
        let result = fig7();
        assert_eq!(result.rows.len(), 4);
        for (kind, times) in &result.rows {
            assert!(times.fare < 1.05, "{kind}: FARe {}", times.fare);
            assert!(
                times.neuron_reordering > 2.0,
                "{kind}: NR {}",
                times.neuron_reordering
            );
            assert!(times.clipping < times.fare);
            // Paper: "up to 4× speedup" over NR.
            assert!(times.fare_speedup_over_nr() > 2.5);
        }
    }

    #[test]
    fn fig7_speedup_grows_with_batch_count() {
        let result = fig7();
        // Amazon2M (N=500) has more batches than PPI (N=50): larger NR
        // penalty.
        let ppi = result
            .rows
            .iter()
            .find(|(k, _)| *k == DatasetKind::Ppi)
            .unwrap();
        let amz = result
            .rows
            .iter()
            .find(|(k, _)| *k == DatasetKind::Amazon2M)
            .unwrap();
        assert!(amz.1.neuron_reordering > ppi.1.neuron_reordering);
    }

    #[test]
    fn accuracy_comparison_lookup_helpers() {
        // Tiny run to exercise the bookkeeping, not the science.
        let params = ExperimentParams {
            epochs: 1,
            seed: 1,
            trials: 1,
        };
        let w = vec![Workload {
            dataset: DatasetKind::Ppi,
            model: ModelKind::Gcn,
        }];
        let cmp = fig5(&params, &w, 0.1, &[0.01]);
        assert_eq!(cmp.cells.len(), 4); // 1 workload × 4 strategies × 1 density
        let _ = cmp.accuracy_of(w[0], FaultStrategy::FaRe, 0.01);
        let _ = cmp.fault_free_of(w[0]);
        assert!(cmp.mean_accuracy(FaultStrategy::FaRe) >= 0.0);
    }
}

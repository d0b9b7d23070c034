//! A figure sweep partitions and batches each (dataset, trial seed)
//! once, however many cells train on it.
//!
//! Telemetry counters are process-global, so this check lives in its
//! own test binary: no other test can run training alongside it.

use fare_core::experiments::{fig5, ExperimentParams, Workload};
use fare_graph::datasets::{DatasetKind, ModelKind};
use fare_obs::counters::CORE_EXPERIMENT_PREPARED;
use fare_obs::RunManifest;

#[test]
fn fig5_prepares_each_dataset_and_trial_once() {
    fare_obs::set_mode(fare_obs::Mode::Json);
    fare_obs::reset();
    let params = ExperimentParams {
        epochs: 1,
        seed: 3,
        trials: 2,
    };
    let workloads = [
        Workload {
            dataset: DatasetKind::Ppi,
            model: ModelKind::Gcn,
        },
        Workload {
            dataset: DatasetKind::Reddit,
            model: ModelKind::Sage,
        },
    ];
    let densities = [0.01, 0.03, 0.05];
    fig5(&params, &workloads, 0.1, &densities);

    let (w, t, d) = (workloads.len() as u64, 2, densities.len() as u64);
    assert_eq!(CORE_EXPERIMENT_PREPARED.get(), w * t);
    let runs = RunManifest::capture("fig5", params.seed, &0u64)
        .timers
        .into_iter()
        .find(|timer| timer.name == "core.trainer.run")
        .map_or(0, |timer| timer.count);
    // Four strategies per density plus the fault-free reference.
    assert_eq!(runs, w * t * (4 * d + 1));
    fare_obs::set_mode(fare_obs::Mode::Off);
}

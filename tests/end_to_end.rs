//! Cross-crate end-to-end tests: the full dataset → partition → batch →
//! map → corrupt → train pipeline, exercised through the facade crate.

use fare::core::{
    corrupt_adjacency_mapped, corrupt_adjacency_unaware, map_adjacency, run_fault_free,
    FaultStrategy, MappingConfig, TrainConfig, Trainer,
};
use fare::graph::batch::make_batches;
use fare::graph::datasets::{Dataset, DatasetKind, ModelKind};
use fare::graph::partition::partition;
use fare::reram::{CrossbarArray, FaultSpec};
use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::SeedableRng;

#[test]
fn batched_mapping_reduces_corruption_on_every_batch() {
    let ds = Dataset::generate(DatasetKind::Ppi, 11);
    let mut rng = StdRng::seed_from_u64(11);
    let parts = partition(&ds.graph, ds.spec.partitions, &mut rng);
    let batches = make_batches(&ds.graph, &parts, ds.spec.clusters_per_batch, &mut rng);
    assert!(batches.len() >= 5);

    let n = 16;
    let mut total_fare = 0usize;
    let mut total_unaware = 0usize;
    for batch in &batches {
        let adj = batch.dense_adjacency();
        let blocks = adj.rows().div_ceil(n).pow(2);
        let mut array = CrossbarArray::new(blocks * 2, n);
        array.inject(&FaultSpec::with_ratio(0.05, 1.0, 1.0), &mut rng);

        let mapping = map_adjacency(&adj, &array, &MappingConfig::default());
        let mapped = corrupt_adjacency_mapped(&adj, &array, &mapping);
        let unaware = corrupt_adjacency_unaware(&adj, &array);

        let errs = |m: &fare::tensor::Matrix| {
            adj.iter()
                .zip(m.iter())
                .filter(|(a, b)| (**a > 0.5) != (**b > 0.5))
                .count()
        };
        let e_fare = errs(&mapped);
        let e_unaware = errs(&unaware);
        assert!(
            e_fare <= e_unaware,
            "batch of {} nodes: FARe {e_fare} > unaware {e_unaware}",
            batch.num_nodes()
        );
        total_fare += e_fare;
        total_unaware += e_unaware;
    }
    // Aggregated over batches the mapping must win strictly.
    assert!(
        total_fare < total_unaware,
        "FARe total {total_fare} vs unaware {total_unaware}"
    );
}

#[test]
fn training_improves_accuracy_under_faults_with_fare() {
    let ds = Dataset::generate(DatasetKind::Reddit, 3);
    let config = TrainConfig {
        model: ModelKind::Gcn,
        epochs: 10,
        fault_spec: FaultSpec::density(0.03),
        strategy: FaultStrategy::FaRe,
        ..TrainConfig::default()
    };
    let out = Trainer::new(config, 3).run(&ds);
    let first = out.history.first().unwrap().test_accuracy;
    let last = out.final_test_accuracy;
    assert!(
        last > first + 0.1,
        "no learning under FARe: {first:.3} -> {last:.3}"
    );
    assert!(last > 0.7, "final accuracy too low: {last:.3}");
}

#[test]
fn post_deployment_faults_accumulate() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut array = CrossbarArray::new(10, 16);
    array.inject(&FaultSpec::density(0.02), &mut rng);
    let before = array.fault_count();
    // Simulate 5 epochs of wear-out at 0.2% each.
    for _ in 0..5 {
        array.inject(&FaultSpec::density(0.002), &mut rng);
    }
    assert!(array.fault_count() > before);
    assert!((array.fault_density() - 0.03).abs() < 0.01);
}

#[test]
fn post_deployment_training_stays_stable_with_fare() {
    let ds = Dataset::generate(DatasetKind::Ppi, 9);
    let base = TrainConfig {
        model: ModelKind::Gcn,
        epochs: 12,
        fault_spec: FaultSpec::density(0.02),
        post_deployment_density: 0.01,
        ..TrainConfig::default()
    };
    let fare = Trainer::new(
        TrainConfig {
            strategy: FaultStrategy::FaRe,
            ..base
        },
        9,
    )
    .run(&ds);
    let ideal = run_fault_free(&base, 9, &ds);
    // FARe with growing faults stays within a usable band of fault-free.
    assert!(
        fare.final_test_accuracy > ideal.final_test_accuracy - 0.15,
        "FARe {:.3} vs fault-free {:.3}",
        fare.final_test_accuracy,
        ideal.final_test_accuracy
    );
}

#[test]
fn all_model_kinds_train_end_to_end_on_their_table2_dataset() {
    for (kind, model) in [
        (DatasetKind::Ppi, ModelKind::Gat),
        (DatasetKind::Reddit, ModelKind::Gcn),
        (DatasetKind::Ogbl, ModelKind::Sage),
    ] {
        let ds = Dataset::generate(kind, 13);
        let config = TrainConfig {
            model,
            epochs: 5,
            fault_spec: FaultSpec::density(0.02),
            strategy: FaultStrategy::FaRe,
            ..TrainConfig::default()
        };
        let out = Trainer::new(config, 13).run(&ds);
        assert!(
            out.final_test_accuracy > 0.4,
            "{kind:?}+{model:?}: accuracy {:.3}",
            out.final_test_accuracy
        );
    }
}

#[test]
fn outcome_metadata_is_consistent() {
    let ds = Dataset::generate(DatasetKind::Ppi, 21);
    let config = TrainConfig {
        epochs: 4,
        fault_spec: FaultSpec::density(0.02),
        strategy: FaultStrategy::FaRe,
        ..TrainConfig::default()
    };
    let out = Trainer::new(config, 21).run(&ds);
    assert_eq!(out.history.len(), 4);
    assert_eq!(
        out.history.last().unwrap().test_accuracy,
        out.final_test_accuracy
    );
    assert_eq!(
        out.history.last().unwrap().train_accuracy,
        out.final_train_accuracy
    );
    assert_eq!(
        out.num_batches,
        ds.spec.partitions.div_ceil(ds.spec.clusters_per_batch)
    );
    assert!(out.normalized_time > 1.0);
    for (i, e) in out.history.iter().enumerate() {
        assert_eq!(e.epoch, i);
        assert!(e.loss.is_finite());
    }
}

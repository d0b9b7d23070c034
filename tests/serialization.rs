//! The JSON the binaries write and read back: `train --json` serialises
//! a [`TrainOutcome`] with `fare_rt::json`, every run records its
//! [`TrainConfig`] in its [`RunManifest`], and `fare-report` reads that
//! manifest with [`parse_manifest`]. Numbers read back bit-exactly, and
//! a diverged run's non-finite numbers come out as `null`, not as
//! invalid JSON.

use fare::core::{EpochStats, FaultStrategy, TrainConfig, TrainOutcome, Trainer};
use fare::graph::datasets::{Dataset, DatasetKind, ModelKind};
use fare::obs::RunManifest;
use fare::report::parse_manifest;
use fare::reram::FaultSpec;
use fare_rt::json::{field, Json, JsonError};

/// The boolean field `name` of the object `v`.
fn flag(v: &Json, name: &str) -> bool {
    match v.get(name) {
        Some(Json::Bool(b)) => *b,
        other => panic!("field {name} is not a boolean: {other:?}"),
    }
}

/// Decodes a [`TrainConfig`] from the JSON its writer produces.
fn config_from_json(v: &Json) -> Result<TrainConfig, JsonError> {
    let spec = v
        .get("fault_spec")
        .ok_or_else(|| JsonError::new("no fault_spec"))?;
    Ok(TrainConfig {
        model: field(v, "model")?,
        hidden_dim: field(v, "hidden_dim")?,
        depth: field(v, "depth")?,
        epochs: field(v, "epochs")?,
        learning_rate: field(v, "learning_rate")?,
        weight_decay: field(v, "weight_decay")?,
        grad_clip_norm: field(v, "grad_clip_norm")?,
        clip_threshold: field(v, "clip_threshold")?,
        fault_spec: FaultSpec {
            density: field(spec, "density")?,
            sa1_fraction: field(spec, "sa1_fraction")?,
        },
        weight_variation_sigma: field(v, "weight_variation_sigma")?,
        weight_drift_sigma: field(v, "weight_drift_sigma")?,
        post_deployment_density: field(v, "post_deployment_density")?,
        strategy: field(v, "strategy")?,
        crossbar_size: field(v, "crossbar_size")?,
        crossbar_slack: field(v, "crossbar_slack")?,
        matcher: field(v, "matcher")?,
        weight_faults: flag(v, "weight_faults"),
        adjacency_faults: flag(v, "adjacency_faults"),
        post_refresh: flag(v, "post_refresh"),
    })
}

/// Decodes a [`TrainOutcome`] from the JSON `train --json` writes.
fn outcome_from_json(v: &Json) -> Result<TrainOutcome, JsonError> {
    let Some(Json::Arr(history)) = v.get("history") else {
        return Err(JsonError::new("no history array"));
    };
    let history = history
        .iter()
        .map(|h| {
            Ok(EpochStats {
                epoch: field(h, "epoch")?,
                loss: field(h, "loss")?,
                train_accuracy: field(h, "train_accuracy")?,
                test_accuracy: field(h, "test_accuracy")?,
            })
        })
        .collect::<Result<_, JsonError>>()?;
    Ok(TrainOutcome {
        history,
        final_train_accuracy: field(v, "final_train_accuracy")?,
        final_test_accuracy: field(v, "final_test_accuracy")?,
        best_test_accuracy: field(v, "best_test_accuracy")?,
        normalized_time: field(v, "normalized_time")?,
        final_mapping_cost: field(v, "final_mapping_cost")?,
        num_batches: field(v, "num_batches")?,
    })
}

#[test]
fn fault_spec_and_config_round_trip() {
    let config = TrainConfig {
        model: ModelKind::Gat,
        strategy: FaultStrategy::NeuronReordering,
        fault_spec: FaultSpec::with_ratio(0.03, 9.0, 1.0),
        post_refresh: false,
        ..TrainConfig::default()
    };
    let manifest = RunManifest::capture("config-round-trip", 4, &config);
    let back = parse_manifest(&manifest.to_json_pretty()).expect("manifest parses");
    assert_eq!(back, manifest);
    let tree = fare_rt::json::parse(&back.config).expect("recorded config is JSON");
    assert_eq!(
        tree.to_compact(),
        back.config,
        "config text is a fixed point"
    );
    assert_eq!(config_from_json(&tree).expect("config decodes"), config);
}

#[test]
fn train_outcome_round_trips() {
    let ds = Dataset::generate(DatasetKind::Ppi, 9);
    let config = TrainConfig {
        epochs: 2,
        fault_spec: FaultSpec::density(0.02),
        ..TrainConfig::default()
    };
    let out: TrainOutcome = Trainer::new(config, 9).run(&ds);
    let json = fare_rt::json::to_string(&out).expect("serialises");
    let tree = fare_rt::json::parse(&json).expect("train --json output is valid JSON");
    assert_eq!(
        tree.to_compact(),
        json,
        "second round-trip must be lossless"
    );
    let back = outcome_from_json(&tree).expect("outcome decodes");
    assert_eq!(back.history.len(), 2);
    assert_eq!(back, out, "every number reads back bit-exactly");
}

#[test]
fn train_outcome_writes_non_finite_numbers_as_null() {
    let out = TrainOutcome {
        history: vec![EpochStats {
            epoch: 0,
            loss: f64::NAN,
            train_accuracy: 0.5,
            test_accuracy: f64::NEG_INFINITY,
        }],
        final_train_accuracy: 0.5,
        final_test_accuracy: f64::INFINITY,
        best_test_accuracy: 0.25,
        normalized_time: 1.0,
        final_mapping_cost: 3,
        num_batches: 2,
    };
    let text = fare_rt::json::to_string_pretty(&out).unwrap();
    let tree = fare_rt::json::parse(&text).expect("train --json output is valid JSON");
    let Some(Json::Arr(history)) = tree.get("history") else {
        panic!("no history array in {text}");
    };
    assert_eq!(history[0].get("loss"), Some(&Json::Null));
    assert_eq!(history[0].get("test_accuracy"), Some(&Json::Null));
    assert_eq!(
        history[0].get("train_accuracy").unwrap().to_compact(),
        "0.5"
    );
    assert_eq!(tree.get("final_test_accuracy"), Some(&Json::Null));
    assert_eq!(tree.get("final_mapping_cost").unwrap().to_compact(), "3");
}

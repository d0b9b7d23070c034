//! Every runner honours or rejects every configuration knob.
//!
//! Each probe sets one `TrainConfig` field away from its default. A
//! runner honours the probe when its history moves off the unprobed
//! run's history bit for bit, and rejects it when `TrainConfig::validate`
//! fails. Silently ignoring a knob is the failure this test exists for.
//! The one exception is the ideal-hardware runner, which ignores the
//! hardware-only fields by definition; its doc comment lists them, and
//! the test holds that list, the runner's behaviour and this file's copy
//! of the list to each other.

use fare_core::clustering::run_graph_clustering;
use fare_core::link_prediction::run_link_prediction;
use fare_core::{run_fault_free, FaultStrategy, TrainConfig, TrainOutcome, Trainer};
use fare_graph::datasets::{Dataset, DatasetKind, ModelKind};
use fare_matching::Matcher;
use fare_reram::FaultSpec;

/// The knobs a link run was once found to drop, at the values that
/// exposed it.
const PROBES: [&str; 4] = [
    "weight_decay",
    "grad_clip_norm",
    "weight_variation_sigma",
    "post_deployment_density",
];

/// The fields `run_fault_free` documents as ignored.
const IDEAL_IGNORES: [&str; 12] = [
    "clip_threshold",
    "fault_spec",
    "weight_variation_sigma",
    "weight_drift_sigma",
    "post_deployment_density",
    "strategy",
    "crossbar_size",
    "crossbar_slack",
    "matcher",
    "weight_faults",
    "adjacency_faults",
    "post_refresh",
];

const SEED: u64 = 11;

fn probe(mut cfg: TrainConfig, field: &str) -> TrainConfig {
    match field {
        "weight_decay" => cfg.weight_decay = 0.5,
        "grad_clip_norm" => cfg.grad_clip_norm = 1e-6,
        "weight_variation_sigma" => cfg.weight_variation_sigma = 1.5,
        "post_deployment_density" => cfg.post_deployment_density = 0.5,
        "clip_threshold" => cfg.clip_threshold = 0.25,
        "fault_spec" => cfg.fault_spec = FaultSpec::with_ratio(0.2, 1.0, 1.0),
        "weight_drift_sigma" => cfg.weight_drift_sigma = 0.3,
        "strategy" => cfg.strategy = FaultStrategy::FaultUnaware,
        "crossbar_size" => cfg.crossbar_size = 32,
        "crossbar_slack" => cfg.crossbar_slack = 3.0,
        "matcher" => cfg.matcher = Matcher::Hungarian,
        "weight_faults" => cfg.weight_faults = false,
        "adjacency_faults" => cfg.adjacency_faults = false,
        "post_refresh" => cfg.post_refresh = false,
        _ => panic!("no probe for field {field}"),
    }
    cfg
}

fn classification() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        fault_spec: FaultSpec::with_ratio(0.03, 1.0, 1.0),
        strategy: FaultStrategy::FaRe,
        ..TrainConfig::default()
    }
}

fn link() -> TrainConfig {
    TrainConfig {
        model: ModelKind::Sage,
        clip_threshold: 4.0,
        ..classification()
    }
}

fn train_bits(out: &TrainOutcome) -> Vec<u64> {
    out.history
        .iter()
        .flat_map(|e| [e.loss, e.train_accuracy, e.test_accuracy])
        .map(f64::to_bits)
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Runner {
    Trainer,
    FaultFree,
    Link,
    Clustering,
}

impl Runner {
    fn base(self) -> TrainConfig {
        match self {
            Runner::Trainer | Runner::FaultFree => classification(),
            Runner::Link | Runner::Clustering => link(),
        }
    }

    /// The bits of the run's history (the outcome, for clustering).
    fn history(self, cfg: &TrainConfig, ds: &Dataset) -> Vec<u64> {
        match self {
            Runner::Trainer => train_bits(&Trainer::new(*cfg, SEED).run(ds)),
            Runner::FaultFree => train_bits(&run_fault_free(cfg, SEED, ds)),
            Runner::Link => run_link_prediction(cfg, SEED, ds)
                .history
                .iter()
                .flat_map(|e| [e.loss.to_bits(), e.auc.to_bits()])
                .collect(),
            Runner::Clustering => {
                let out = run_graph_clustering(cfg, SEED, ds);
                [out.purity, out.nmi, out.link_auc]
                    .map(f64::to_bits)
                    .to_vec()
            }
        }
    }
}

#[test]
fn every_runner_honours_or_rejects_every_probe() {
    let ds = Dataset::generate(DatasetKind::Ppi, SEED);
    for runner in [Runner::Trainer, Runner::Link, Runner::Clustering] {
        let base = runner.history(&runner.base(), &ds);
        for field in PROBES {
            let cfg = probe(runner.base(), field);
            if cfg.validate().is_err() {
                continue;
            }
            assert_ne!(
                runner.history(&cfg, &ds),
                base,
                "{runner:?} silently ignores {field}"
            );
        }
    }
}

#[test]
fn ideal_runner_ignores_exactly_its_documented_hardware_fields() {
    // The documented list: the backticked names of the paragraph that
    // opens with "Ignored hardware fields:" in the doc comment of
    // `run_fault_free`.
    let source = include_str!("../src/trainer.rs");
    let doc: Vec<&str> = source
        .lines()
        .skip_while(|l| !l.starts_with("/// Ignored hardware fields:"))
        .take_while(|l| l.trim() != "///")
        .collect();
    let doc = doc.join(" ");
    let documented: Vec<&str> = doc.split('`').skip(1).step_by(2).collect();
    assert_eq!(documented, IDEAL_IGNORES);

    let ds = Dataset::generate(DatasetKind::Ppi, SEED);
    let runner = Runner::FaultFree;
    let base = runner.history(&runner.base(), &ds);
    for field in IDEAL_IGNORES {
        let cfg = probe(runner.base(), field);
        assert!(cfg.validate().is_ok(), "probe of {field} must be valid");
        assert_eq!(
            runner.history(&cfg, &ds),
            base,
            "the ideal runner documents {field} as ignored but honours it"
        );
    }
    for field in PROBES.iter().filter(|f| !IDEAL_IGNORES.contains(f)) {
        assert_ne!(
            runner.history(&probe(runner.base(), field), &ds),
            base,
            "the ideal runner silently ignores {field}"
        );
    }
}

#[test]
fn validate_names_each_inconsistency() {
    assert_eq!(TrainConfig::default().validate(), Ok(()));
    type Edit = fn(&mut TrainConfig);
    let cases: [(Edit, &str); 9] = [
        (|c| c.epochs = 0, "epochs must be positive"),
        (|c| c.depth = 1, "depth must be at least 2"),
        (|c| c.crossbar_size = 12, "multiple of 8"),
        (|c| c.crossbar_size = 0, "positive multiple of 8"),
        (|c| c.crossbar_slack = 0.5, "slack must be >= 1.0"),
        (|c| c.crossbar_slack = f64::NAN, "slack must be >= 1.0"),
        (|c| c.crossbar_slack = f64::INFINITY, "finite"),
        (
            |c| c.post_deployment_density = -0.1,
            "density must be in [0, 1]",
        ),
        (
            |c| c.post_deployment_density = f64::NAN,
            "density must be in [0, 1]",
        ),
    ];
    for (set, message) in cases {
        let mut cfg = TrainConfig::default();
        set(&mut cfg);
        let err = cfg.validate().expect_err(message);
        assert!(
            err.contains(message),
            "{err:?} does not mention {message:?}"
        );
    }
}

#[test]
#[should_panic(expected = "crossbar slack must be >= 1.0")]
fn link_runner_rejects_what_validate_rejects() {
    let ds = Dataset::generate(DatasetKind::Ppi, SEED);
    let cfg = TrainConfig {
        crossbar_slack: 0.5,
        ..link()
    };
    run_link_prediction(&cfg, SEED, &ds);
}

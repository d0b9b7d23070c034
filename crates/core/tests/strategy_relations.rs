//! Each strategy touches only what `FaultStrategy` says it does.
//!
//! `clips_weights`, `maps_adjacency` and `reorders_per_batch` name the
//! only places a strategy may act. So when the faults a mechanism guards
//! against are switched off, two strategies that differ only in that
//! mechanism must train bit for bit alike:
//!
//! - without weight faults, clipping is the only difference between
//!   `ClippingOnly` and `FaultUnaware`, and no weight reaches θ;
//! - without adjacency faults, the mapping is the only difference
//!   between `FaRe` and `ClippingOnly`, and every mapping reads back the
//!   same adjacency;
//! - without any fault, `FaRe` ≡ `ClippingOnly` and `NeuronReordering`
//!   ≡ `FaultUnaware`.
//!
//! Only the first relation needs θ out of the healthy weights' reach.
//! The others hold at any θ, so they also run at a θ that clips healthy
//! weights: a strategy that clips where it should not then shows.
//!
//! Every per-epoch loss, train accuracy and test accuracy (AUC for link
//! prediction) is compared by `to_bits`, on the classification runner
//! over three (preset, model) pairs and on the link runner, at two seeds,
//! with and without post-deployment faults. The relations are
//! thread-count invariant, so the suite must pass under any
//! `FARE_RT_THREADS`.

use fare_core::clipping::DEFAULT_THRESHOLD;
use fare_core::link_prediction::run_link_prediction;
use fare_core::{FaultStrategy, TrainConfig, Trainer};
use fare_graph::datasets::{Dataset, DatasetKind, ModelKind};
use fare_reram::FaultSpec;

const SEEDS: [u64; 2] = [3, 11];
const EPOCHS: usize = 3;
/// θ the link tasks train with (as in `examples/link_prediction.rs`).
const LINK_THRESHOLD: f32 = 4.0;
/// A θ that clips healthy weights within the first epoch.
const TIGHT_THRESHOLD: f32 = 0.05;

/// The classification workloads: one per model.
const WORKLOADS: [(DatasetKind, ModelKind); 3] = [
    (DatasetKind::Ppi, ModelKind::Gcn),
    (DatasetKind::Amazon2M, ModelKind::Sage),
    (DatasetKind::Reddit, ModelKind::Gat),
];

/// Which faults a relation switches off.
#[derive(Debug, Clone, Copy)]
enum FaultsOff {
    Weight,
    Adjacency,
    All,
}

/// A relation: under `off`, strategy `a` trains exactly like `b`, at
/// the runner's θ and, if `any_theta`, at [`TIGHT_THRESHOLD`] too.
struct Relation {
    off: FaultsOff,
    a: FaultStrategy,
    b: FaultStrategy,
    any_theta: bool,
}

const RELATIONS: [Relation; 4] = [
    Relation {
        off: FaultsOff::Weight,
        a: FaultStrategy::ClippingOnly,
        b: FaultStrategy::FaultUnaware,
        any_theta: false,
    },
    Relation {
        off: FaultsOff::Adjacency,
        a: FaultStrategy::FaRe,
        b: FaultStrategy::ClippingOnly,
        any_theta: true,
    },
    Relation {
        off: FaultsOff::All,
        a: FaultStrategy::FaRe,
        b: FaultStrategy::ClippingOnly,
        any_theta: true,
    },
    Relation {
        off: FaultsOff::All,
        a: FaultStrategy::NeuronReordering,
        b: FaultStrategy::FaultUnaware,
        any_theta: true,
    },
];

impl Relation {
    /// The θ values the relation is checked at, given the runner's θ.
    fn thetas(&self, runner: f32) -> Vec<f32> {
        if self.any_theta {
            vec![runner, TIGHT_THRESHOLD]
        } else {
            vec![runner]
        }
    }
}

/// 5% faults at 1:1 with `post` post-deployment density and θ `theta`,
/// then `off` applied.
fn config(
    model: ModelKind,
    strategy: FaultStrategy,
    off: FaultsOff,
    post: f64,
    theta: f32,
) -> TrainConfig {
    let mut cfg = TrainConfig {
        model,
        epochs: EPOCHS,
        clip_threshold: theta,
        fault_spec: FaultSpec::with_ratio(0.05, 1.0, 1.0),
        post_deployment_density: post,
        strategy,
        ..TrainConfig::default()
    };
    match off {
        FaultsOff::Weight => cfg.weight_faults = false,
        FaultsOff::Adjacency => cfg.adjacency_faults = false,
        FaultsOff::All => {
            cfg.fault_spec = FaultSpec::fault_free();
            cfg.post_deployment_density = 0.0;
        }
    }
    cfg
}

/// The per-epoch numbers of a classification run, as bits.
fn classification_bits(dataset: &Dataset, cfg: TrainConfig, seed: u64) -> Vec<[u64; 3]> {
    Trainer::new(cfg, seed)
        .run(dataset)
        .history
        .iter()
        .map(|e| {
            [
                e.loss.to_bits(),
                e.train_accuracy.to_bits(),
                e.test_accuracy.to_bits(),
            ]
        })
        .collect()
}

/// The per-epoch numbers of a link-prediction run, as bits.
fn link_bits(dataset: &Dataset, cfg: TrainConfig, seed: u64) -> Vec<[u64; 2]> {
    run_link_prediction(&cfg, seed, dataset)
        .history
        .iter()
        .map(|e| [e.loss.to_bits(), e.auc.to_bits()])
        .collect()
}

#[test]
fn classification_strategies_differ_only_where_they_act() {
    for (kind, model) in WORKLOADS {
        for seed in SEEDS {
            let dataset = Dataset::generate(kind, seed);
            for post in [0.0, 0.01] {
                for r in &RELATIONS {
                    for theta in r.thetas(DEFAULT_THRESHOLD) {
                        let run = |s| {
                            classification_bits(
                                &dataset,
                                config(model, s, r.off, post, theta),
                                seed,
                            )
                        };
                        let (got, want) = (run(r.a), run(r.b));
                        assert_eq!(got.len(), EPOCHS);
                        assert_eq!(
                            got, want,
                            "{kind:?}/{model:?} seed {seed} post {post} θ {theta}: {} != {} with {:?} faults off",
                            r.a, r.b, r.off
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn link_strategies_differ_only_where_they_act() {
    for seed in SEEDS {
        let dataset = Dataset::generate(DatasetKind::Ogbl, seed);
        for post in [0.0, 0.01] {
            for r in &RELATIONS {
                for theta in r.thetas(LINK_THRESHOLD) {
                    let run = |s| {
                        link_bits(
                            &dataset,
                            config(ModelKind::Sage, s, r.off, post, theta),
                            seed,
                        )
                    };
                    let (got, want) = (run(r.a), run(r.b));
                    assert_eq!(got.len(), EPOCHS);
                    assert_eq!(
                        got, want,
                        "Ogbl seed {seed} post {post} θ {theta}: {} != {} with {:?} faults off",
                        r.a, r.b, r.off
                    );
                }
            }
        }
    }
}

//! Bit-for-bit pins of every training runner.
//!
//! Each case runs one public entry point — [`Trainer::run`],
//! [`run_fault_free`], [`run_link_prediction`] or
//! [`run_graph_clustering`] — and folds the `to_bits` of every history
//! field and every scalar outcome field (plus the link runner's
//! embeddings) into one FNV-1a digest. The expected digests were
//! recorded once and must not move: any change to a runner's RNG draw
//! order, arithmetic order or gating shows up here. The digests are
//! thread-count invariant, so the suite must pass under any
//! `FARE_RT_THREADS`.

use fare_core::clustering::{run_graph_clustering, ClusteringOutcome};
use fare_core::link_prediction::{run_link_prediction, LinkOutcome};
use fare_core::{run_fault_free, FaultStrategy, TrainConfig, TrainOutcome, Trainer};
use fare_graph::datasets::{Dataset, DatasetKind, ModelKind};
use fare_reram::FaultSpec;

/// FNV-1a over a stream of 64-bit words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn f64(self, x: f64) -> Self {
        self.word(x.to_bits())
    }
}

fn train_digest(out: &TrainOutcome) -> u64 {
    let mut h = Fnv::new();
    for e in &out.history {
        h = h
            .word(e.epoch as u64)
            .f64(e.loss)
            .f64(e.train_accuracy)
            .f64(e.test_accuracy);
    }
    h.f64(out.final_train_accuracy)
        .f64(out.final_test_accuracy)
        .f64(out.best_test_accuracy)
        .f64(out.normalized_time)
        .word(out.final_mapping_cost as u64)
        .word(out.num_batches as u64)
        .0
}

fn link_digest(out: &LinkOutcome) -> u64 {
    let mut h = Fnv::new();
    for e in &out.history {
        h = h.word(e.epoch as u64).f64(e.loss).f64(e.auc);
    }
    h = h.f64(out.final_auc).word(out.test_edges as u64);
    h = h
        .word(out.embeddings.rows() as u64)
        .word(out.embeddings.cols() as u64);
    for r in 0..out.embeddings.rows() {
        for &v in out.embeddings.row(r) {
            h = h.word(v.to_bits() as u64);
        }
    }
    h.0
}

fn clustering_digest(out: &ClusteringOutcome) -> u64 {
    Fnv::new()
        .f64(out.purity)
        .f64(out.nmi)
        .f64(out.link_auc)
        .word(out.k as u64)
        .0
}

fn classification(strategy: FaultStrategy) -> TrainConfig {
    TrainConfig {
        epochs: 3,
        fault_spec: FaultSpec::with_ratio(0.03, 1.0, 1.0),
        strategy,
        ..TrainConfig::default()
    }
}

fn link(strategy: FaultStrategy) -> TrainConfig {
    TrainConfig {
        model: ModelKind::Sage,
        epochs: 3,
        clip_threshold: 4.0,
        fault_spec: FaultSpec::with_ratio(0.03, 1.0, 1.0),
        strategy,
        ..TrainConfig::default()
    }
}

/// The `amazon_gat_unaware` benchmark workload: GAT, fault-unaware,
/// 10 epochs, 5% faults at SA0:SA1 = 9:1.
fn gat_unaware() -> TrainConfig {
    TrainConfig {
        model: ModelKind::Gat,
        epochs: 10,
        fault_spec: FaultSpec::with_sa1_fraction(0.05, 0.1),
        strategy: FaultStrategy::FaultUnaware,
        ..TrainConfig::default()
    }
}

const SEED: u64 = 11;

/// Every pinned case: its name and its digest on this build.
fn cases() -> Vec<(&'static str, u64)> {
    let ds = Dataset::generate(DatasetKind::Ppi, SEED);
    let trainer = |cfg: TrainConfig| train_digest(&Trainer::new(cfg, SEED).run(&ds));
    let fare = classification(FaultStrategy::FaRe);
    let nr = classification(FaultStrategy::NeuronReordering);
    let gat_fare = TrainConfig {
        model: ModelKind::Gat,
        ..fare
    };
    let amazon = Dataset::generate(DatasetKind::Amazon2M, SEED);
    vec![
        (
            "trainer/unaware",
            trainer(classification(FaultStrategy::FaultUnaware)),
        ),
        ("trainer/nr", trainer(nr)),
        (
            "trainer/clipping",
            trainer(classification(FaultStrategy::ClippingOnly)),
        ),
        ("trainer/fare", trainer(fare)),
        (
            "trainer/fare+variation+drift",
            trainer(TrainConfig {
                weight_variation_sigma: 0.1,
                weight_drift_sigma: 0.02,
                ..fare
            }),
        ),
        (
            "trainer/fare+post",
            trainer(TrainConfig {
                post_deployment_density: 0.03,
                ..fare
            }),
        ),
        (
            "trainer/fare+post-norefresh",
            trainer(TrainConfig {
                post_deployment_density: 0.03,
                post_refresh: false,
                ..fare
            }),
        ),
        (
            "trainer/nr+post",
            trainer(TrainConfig {
                post_deployment_density: 0.03,
                ..nr
            }),
        ),
        (
            "trainer/fare-no-weight-faults",
            trainer(TrainConfig {
                weight_faults: false,
                ..fare
            }),
        ),
        (
            "trainer/fare-no-adjacency-faults",
            trainer(TrainConfig {
                adjacency_faults: false,
                ..fare
            }),
        ),
        (
            "trainer/regularised",
            trainer(TrainConfig {
                weight_decay: 0.01,
                grad_clip_norm: 1.0,
                ..fare
            }),
        ),
        (
            "fault_free",
            train_digest(&run_fault_free(&fare, SEED, &ds)),
        ),
        (
            "link/fare",
            link_digest(&run_link_prediction(&link(FaultStrategy::FaRe), SEED, &ds)),
        ),
        (
            "link/nr",
            link_digest(&run_link_prediction(
                &link(FaultStrategy::NeuronReordering),
                SEED,
                &ds,
            )),
        ),
        (
            "link/unaware",
            link_digest(&run_link_prediction(
                &link(FaultStrategy::FaultUnaware),
                SEED,
                &ds,
            )),
        ),
        (
            "clustering/fare",
            clustering_digest(&run_graph_clustering(&link(FaultStrategy::FaRe), SEED, &ds)),
        ),
        (
            "gat/amazon-unaware",
            train_digest(&Trainer::new(gat_unaware(), SEED).run(&amazon)),
        ),
        (
            "gat/fare+post",
            trainer(TrainConfig {
                post_deployment_density: 0.03,
                ..gat_fare
            }),
        ),
        (
            "gat/fault_free",
            train_digest(&run_fault_free(&gat_fare, SEED, &ds)),
        ),
        (
            "gat/link",
            link_digest(&run_link_prediction(
                &TrainConfig {
                    model: ModelKind::Gat,
                    ..link(FaultStrategy::FaRe)
                },
                SEED,
                &ds,
            )),
        ),
    ]
}

const EXPECTED: &[(&str, u64)] = &[
    ("trainer/unaware", 0x9419c34d4e334df2),
    ("trainer/nr", 0xc6b79a20ad8e9db4),
    ("trainer/clipping", 0xe120be536b7e7b9a),
    ("trainer/fare", 0xf8c882bf810b8586),
    ("trainer/fare+variation+drift", 0x05e2076794aefa56),
    ("trainer/fare+post", 0xbdb11def048ac1dc),
    ("trainer/fare+post-norefresh", 0x13599e6ef68e8d64),
    ("trainer/nr+post", 0x840d2dea31c2b0d8),
    ("trainer/fare-no-weight-faults", 0x6a4817cc24cb6c9b),
    ("trainer/fare-no-adjacency-faults", 0x902262625714956b),
    ("trainer/regularised", 0x3e742a0b28bba2cf),
    ("fault_free", 0xacf00a5a14c7d0f8),
    ("link/fare", 0x2cf238fdd35f6881),
    ("link/nr", 0x153c80001bcfbbe8),
    ("link/unaware", 0xb2be949078f5072d),
    ("clustering/fare", 0x1ede90419c2d0377),
    ("gat/amazon-unaware", 0x11775dbf9ada48f2),
    ("gat/fare+post", 0xce2a7786207b8646),
    ("gat/fault_free", 0x67fd89a61907e309),
    ("gat/link", 0xc550173d4d34ceec),
];

#[test]
fn every_runner_matches_its_pinned_digest() {
    let actual = cases();
    let table: String = actual
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    let names: Vec<&str> = actual.iter().map(|(n, _)| *n).collect();
    let expected_names: Vec<&str> = EXPECTED.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names, expected_names,
        "pinned case list changed; actual:\n{table}"
    );
    let moved: Vec<&str> = actual
        .iter()
        .zip(EXPECTED)
        .filter(|((_, a), (_, e))| a != e)
        .map(|((name, _), _)| *name)
        .collect();
    assert!(
        moved.is_empty(),
        "runner digests moved: {moved:?}; actual:\n{table}"
    );
}

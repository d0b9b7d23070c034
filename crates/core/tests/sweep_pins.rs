//! Bit-for-bit pins of every trial-averaged figure sweep.
//!
//! Each case runs one sweep — [`fig3`], [`fig4`], [`fig5`], [`fig6`]
//! or one of the training ablations — at a tiny configuration (two
//! epochs, two trials) and folds the `to_bits` of every number in its
//! result into one FNV-1a digest. The structural ablations (matcher,
//! pruning, slack) map one instance per row; their
//! digests fold every field except the host wall time. The expected digests were recorded
//! once and must not move: a change to how a sweep seeds, schedules,
//! shares or reduces its runs shows up here. The digests are
//! thread-count invariant, so the suite must pass under any
//! `FARE_RT_THREADS`.

use fare_core::ablation::{
    clip_threshold_ablation, depth_ablation, matcher_ablation, prune_ablation, refresh_ablation,
    slack_ablation,
};
use fare_core::experiments::{
    fig3, fig4, fig5, fig6, AccuracyComparison, ExperimentParams, Workload,
};
use fare_graph::datasets::{DatasetKind, ModelKind};

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

    fn f64s(self, xs: &[f64]) -> Self {
        xs.iter().fold(self.word(xs.len() as u64), |h, &x| h.f64(x))
    }
}

fn params() -> ExperimentParams {
    ExperimentParams {
        epochs: 2,
        seed: 17,
        trials: 2,
    }
}

fn comparison_digest(cmp: &AccuracyComparison) -> u64 {
    let mut h = Fnv::new()
        .f64(cmp.sa1_fraction)
        .f64(cmp.post_deployment_density);
    for (w, acc) in &cmp.fault_free {
        h = h.word(w.dataset as u64).word(w.model as u64).f64(*acc);
    }
    for c in &cmp.cells {
        h = h
            .word(c.workload.dataset as u64)
            .word(c.workload.model as u64)
            .word(c.strategy as u64)
            .f64(c.density)
            .f64(c.accuracy);
    }
    h.0
}

fn fig3_digest() -> u64 {
    let r = fig3(&params());
    let mut h = Fnv::new().f64(r.fault_free);
    for c in &r.cases {
        h = h
            .word(c.phase as u64)
            .word(c.polarity as u64)
            .f64(c.accuracy);
    }
    h.0
}

fn fig4_digest() -> u64 {
    let r = fig4(&params(), &[0.02, 0.05]);
    let mut h = Fnv::new().f64s(&r.densities).f64s(&r.fault_free);
    for c in r.unaware.iter().chain(&r.fare) {
        h = h.f64s(c);
    }
    h.0
}

fn fig5_digest() -> u64 {
    let workloads = [
        Workload {
            dataset: DatasetKind::Ppi,
            model: ModelKind::Gcn,
        },
        Workload {
            dataset: DatasetKind::Ppi,
            model: ModelKind::Gat,
        },
    ];
    comparison_digest(&fig5(&params(), &workloads, 0.5, &[0.01, 0.05]))
}

fn fig6_digest() -> u64 {
    let workloads = [Workload {
        dataset: DatasetKind::Amazon2M,
        model: ModelKind::Sage,
    }];
    comparison_digest(&fig6(&params(), &workloads, 0.1, &[0.03], 0.01))
}

fn clip_digest() -> u64 {
    clip_threshold_ablation(&params(), &[0.25, 1.0, 8.0])
        .iter()
        .fold(Fnv::new(), |h, r| {
            h.word(r.threshold.to_bits() as u64).f64(r.accuracy)
        })
        .0
}

fn refresh_digest() -> u64 {
    refresh_ablation(&params())
        .iter()
        .fold(Fnv::new(), |h, r| h.word(r.refresh as u64).f64(r.accuracy))
        .0
}

fn depth_digest() -> u64 {
    depth_ablation(&params(), &[2, 3])
        .iter()
        .fold(Fnv::new(), |h, r| {
            h.word(r.depth as u64)
                .f64(r.accuracy)
                .f64(r.normalized_time)
        })
        .0
}

/// Seed and fault density of the structural ablations, as the
/// `ablation` binary runs them.
const STRUCTURAL_SEED: u64 = 17;
const STRUCTURAL_DENSITY: f64 = 0.05;

fn matcher_digest() -> u64 {
    matcher_ablation(STRUCTURAL_SEED, STRUCTURAL_DENSITY)
        .iter()
        .fold(Fnv::new(), |h, r| {
            h.word(r.matcher as u64).word(r.mapping_cost as u64)
        })
        .0
}

fn prune_digest() -> u64 {
    prune_ablation(STRUCTURAL_SEED, STRUCTURAL_DENSITY)
        .iter()
        .fold(Fnv::new(), |h, r| {
            h.word(r.prune as u64)
                .word(r.mapping_cost as u64)
                .word(r.sa1_cost as u64)
        })
        .0
}

fn slack_digest() -> u64 {
    slack_ablation(
        STRUCTURAL_SEED,
        STRUCTURAL_DENSITY,
        &[1.0, 1.25, 1.5, 2.0, 3.0],
    )
    .iter()
    .fold(Fnv::new(), |h, r| {
        h.f64(r.slack)
            .word(r.crossbars as u64)
            .word(r.mapping_cost as u64)
    })
    .0
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: digest {got:#018x} != pinned {want:#018x}; a sweep's results moved"
    );
}

#[test]
fn fig3_pinned() {
    check("fig3", fig3_digest(), 0xbc25_bf6e_bc41_1682);
}

#[test]
fn fig4_pinned() {
    check("fig4", fig4_digest(), 0xfdd5_789f_6fcf_2254);
}

#[test]
fn fig5_pinned() {
    check("fig5", fig5_digest(), 0x7d31_9ae4_3c44_cb82);
}

#[test]
fn fig6_pinned() {
    check("fig6", fig6_digest(), 0x3ea9_4213_96c4_93bd);
}

#[test]
fn clip_threshold_ablation_pinned() {
    check(
        "clip_threshold_ablation",
        clip_digest(),
        0x0c6d_c3db_f761_13e9,
    );
}

#[test]
fn refresh_ablation_pinned() {
    check("refresh_ablation", refresh_digest(), 0xd316_9bf8_f6aa_2c1e);
}

#[test]
fn depth_ablation_pinned() {
    check("depth_ablation", depth_digest(), 0xdbe5_0dbd_1585_020b);
}

#[test]
fn matcher_ablation_pinned() {
    check("matcher_ablation", matcher_digest(), 0x7e4d_6355_f77c_6291);
}

#[test]
fn prune_ablation_pinned() {
    check("prune_ablation", prune_digest(), 0x81e2_9c83_87f0_7704);
}

#[test]
fn slack_ablation_pinned() {
    check("slack_ablation", slack_digest(), 0x9150_1d83_84f9_9533);
}

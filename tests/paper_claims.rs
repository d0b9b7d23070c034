//! Integration tests asserting the *qualitative claims* of the paper's
//! evaluation section on scaled-down runs. Absolute numbers differ from
//! the paper (synthetic graphs, smaller scale); the shapes must not.

use fare::core::experiments::{
    fig3, fig5, fig7, table2_workloads, ExperimentParams, FaultPhase, Workload,
};
use fare::core::related::{table1, Overhead};
use fare::core::FaultStrategy;
use fare::graph::datasets::{DatasetKind, ModelKind};
use fare::tensor::fixed::StuckPolarity;

fn quick_params() -> ExperimentParams {
    ExperimentParams {
        epochs: 12,
        seed: 42,
        trials: 2,
    }
}

#[test]
fn table1_only_fare_has_every_capability_cheaply() {
    let rows = table1();
    let winners: Vec<_> = rows
        .iter()
        .filter(|t| {
            t.training
                && t.combination
                && t.aggregation
                && t.post_deployment
                && t.overhead == Overhead::Low
        })
        .collect();
    assert_eq!(winners.len(), 1);
    assert_eq!(winners[0].reference, "FARe");
}

#[test]
fn fig3_sa1_more_severe_than_sa0() {
    let result = fig3(&quick_params());
    // Weights: SA1 must be drastically worse than SA0 (weight explosion).
    let w_sa0 = result.accuracy_of(FaultPhase::Weights, StuckPolarity::StuckAtZero);
    let w_sa1 = result.accuracy_of(FaultPhase::Weights, StuckPolarity::StuckAtOne);
    assert!(
        w_sa1 + 0.10 < w_sa0,
        "weights: SA1 ({w_sa1:.3}) should be well below SA0 ({w_sa0:.3})"
    );
    // Adjacency: SA1 (fabricated edges) at least as harmful as SA0
    // (deleted edges).
    let a_sa0 = result.accuracy_of(FaultPhase::Adjacency, StuckPolarity::StuckAtZero);
    let a_sa1 = result.accuracy_of(FaultPhase::Adjacency, StuckPolarity::StuckAtOne);
    assert!(
        a_sa1 <= a_sa0 + 0.02,
        "adjacency: SA1 ({a_sa1:.3}) should not beat SA0 ({a_sa0:.3})"
    );
    // And no faulty case beats the fault-free reference materially.
    assert!(w_sa1 < result.fault_free - 0.05);
}

/// Median of three samples, without sorting floats in-place elsewhere.
fn median3(a: f64, b: f64, c: f64) -> f64 {
    let mut v = [a, b, c];
    v.sort_by(|x, y| x.partial_cmp(y).unwrap());
    v[1]
}

#[test]
fn fig5_shape_fare_restores_accuracy_at_one_to_one() {
    // The paper's headline scenario: 5% faults at SA0:SA1 = 1:1. One
    // representative workload, evaluated at three base seeds and
    // compared on the *median* so the bands can be tighter than any
    // single seed would allow (see EXPERIMENTS.md, "Tolerance bands").
    let w = Workload {
        dataset: DatasetKind::Amazon2M,
        model: ModelKind::Sage,
    };
    let run = |seed: u64| {
        let params = ExperimentParams {
            epochs: 20,
            seed,
            trials: 2,
        };
        let cmp = fig5(&params, &[w], 0.5, &[0.05]);
        (
            cmp.fault_free_of(w),
            cmp.accuracy_of(w, FaultStrategy::FaultUnaware, 0.05),
            cmp.accuracy_of(w, FaultStrategy::FaRe, 0.05),
            cmp.accuracy_of(w, FaultStrategy::ClippingOnly, 0.05),
        )
    };
    let (f0, u0, r0, c0) = run(42);
    let (f1, u1, r1, c1) = run(43);
    let (f2, u2, r2, c2) = run(44);
    let free = median3(f0, f1, f2);
    let unaware = median3(u0, u1, u2);
    let fare = median3(r0, r1, r2);
    let clip = median3(c0, c1, c2);

    // Fault-unaware training collapses: the median loses more than half
    // the fault-free accuracy (observed median gap ~0.60).
    assert!(
        unaware < free - 0.5,
        "unaware ({unaware:.3}) should collapse vs fault-free ({free:.3})"
    );
    // FARe restores most of the lost accuracy (observed median lift
    // ~0.50; band 0.40).
    assert!(
        fare > unaware + 0.40,
        "FARe ({fare:.3}) should restore accuracy over unaware ({unaware:.3})"
    );
    // FARe ends close to fault-free. The median band is 0.12 — down
    // from the 0.15 single-seed band of PR 1, though still above the
    // paper's ~0.02: at this scaled-down size a clipped stuck-at-one
    // cell pins a weight at the clip threshold, which costs ~0.1
    // accuracy at 5% density regardless of mapping quality (observed
    // median gap 0.101).
    assert!(
        fare > free - 0.12,
        "FARe ({fare:.3}) should approach fault-free ({free:.3})"
    );
    // FARe >= clipping-only (the adjacency mapping must not hurt);
    // median FARe actually edges out clipping (observed +0.006).
    assert!(
        fare + 0.02 >= clip,
        "FARe ({fare:.3}) vs clipping ({clip:.3})"
    );
}

#[test]
fn fig5_mean_strategy_ordering_nine_to_one() {
    // Across two workloads and two densities the mean ordering of the
    // paper must hold: unaware < NR and clipping <= FARe-ish bands.
    let ws = vec![
        Workload {
            dataset: DatasetKind::Ppi,
            model: ModelKind::Gcn,
        },
        Workload {
            dataset: DatasetKind::Amazon2M,
            model: ModelKind::Sage,
        },
    ];
    let cmp = fig5(&quick_params(), &ws, 0.1, &[0.03, 0.05]);
    let unaware = cmp.mean_accuracy(FaultStrategy::FaultUnaware);
    let fare = cmp.mean_accuracy(FaultStrategy::FaRe);
    let clip = cmp.mean_accuracy(FaultStrategy::ClippingOnly);
    assert!(fare > unaware, "FARe {fare:.3} vs unaware {unaware:.3}");
    assert!(clip > unaware, "clipping {clip:.3} vs unaware {unaware:.3}");
    assert!(fare + 0.02 >= clip, "FARe {fare:.3} vs clipping {clip:.3}");
}

#[test]
fn fig7_claims_hold_at_paper_scale() {
    let result = fig7();
    for (kind, t) in &result.rows {
        // FARe ~1% overhead.
        assert!(
            t.fare > 1.0 && t.fare < 1.05,
            "{kind}: FARe normalised time {}",
            t.fare
        );
        // Clipping negligible and below FARe.
        assert!(t.clipping < t.fare);
        // NR pays per-batch stalls.
        assert!(
            t.neuron_reordering > 3.0,
            "{kind}: NR {}",
            t.neuron_reordering
        );
    }
    // "Up to 4x speedup" over NR.
    let max_speedup = result
        .rows
        .iter()
        .map(|(_, t)| t.fare_speedup_over_nr())
        .fold(0.0f64, f64::max);
    assert!(
        max_speedup > 3.5 && max_speedup < 4.5,
        "max speedup {max_speedup}"
    );
}

#[test]
fn table2_workload_list_matches_paper() {
    let ws = table2_workloads();
    assert_eq!(ws.len(), 6);
    let has = |d: DatasetKind, m: ModelKind| ws.iter().any(|w| w.dataset == d && w.model == m);
    assert!(has(DatasetKind::Ppi, ModelKind::Gcn));
    assert!(has(DatasetKind::Ppi, ModelKind::Gat));
    assert!(has(DatasetKind::Reddit, ModelKind::Gcn));
    assert!(has(DatasetKind::Amazon2M, ModelKind::Gcn));
    assert!(has(DatasetKind::Amazon2M, ModelKind::Sage));
    assert!(has(DatasetKind::Ogbl, ModelKind::Sage));
}

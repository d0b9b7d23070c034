//! Ablation studies of FARe's design choices (DESIGN.md §4).
//!
//! Five knobs the paper fixes are swept here so their contribution is
//! measurable:
//!
//! 1. the assignment solver inside Algorithm 1 (exact Hungarian vs the
//!    paper's b-Suitor ½-approximation),
//! 2. the SA1-non-overlap pruning heuristic (lines 8–17) on vs off,
//! 3. the crossbar over-provisioning slack the mapper gets to play with,
//! 4. the weight-clip threshold θ,
//! 5. post-deployment handling: row-permutation refresh on vs off.

use std::time::Instant;

use fare_graph::datasets::{DatasetKind, ModelKind};
use fare_graph::CsrGraph;
use fare_matching::Matcher;
use fare_reram::{CrossbarArray, FaultSpec};
use fare_rt::rand::Rng;

use crate::experiments::{mean_accuracy, run_cells, Cell, ExperimentParams};
use crate::mapping::{map_blocks_cached, AdjacencyBlocks, MappingConfig, RemapCache};
use crate::{FaultStrategy, TrainConfig, TrainOutcome};

/// Standard mapping instance used by the structural ablations: the
/// packed blocks of a random graph plus a faulty crossbar pool.
fn mapping_instance(
    nodes: usize,
    n: usize,
    slack: f64,
    density: f64,
    seed: u64,
) -> (AdjacencyBlocks, CrossbarArray) {
    let mut rng = fare_rt::rng(seed);
    let mut edges = Vec::new();
    for i in 0..nodes {
        for j in (i + 1)..nodes {
            if rng.gen_bool(0.08) {
                edges.push((i, j));
            }
        }
    }
    let blocks = AdjacencyBlocks::from_graph(&CsrGraph::from_edges(nodes, &edges), n);
    let count = blocks.grid().pow(2);
    let pool = ((count as f64 * slack).ceil() as usize).max(count);
    let mut array = CrossbarArray::new(pool, n);
    array.inject(&FaultSpec::with_ratio(density, 1.0, 1.0), &mut rng);
    (blocks, array)
}

/// One row of the matcher ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatcherAblation {
    /// Solver used for both matchings.
    pub matcher: Matcher,
    /// Total mismatch cost of the resulting mapping.
    pub mapping_cost: usize,
    /// Wall time of one mapping run, milliseconds.
    pub wall_time_ms: f64,
}

/// Sweeps the assignment solver on a standard instance.
pub fn matcher_ablation(seed: u64, density: f64) -> Vec<MatcherAblation> {
    let (blocks, array) = mapping_instance(96, 16, 1.5, density, seed);
    [Matcher::Hungarian, Matcher::BSuitor]
        .into_iter()
        .map(|matcher| {
            let cfg = MappingConfig {
                matcher,
                prune: true,
            };
            let t0 = Instant::now();
            let mapping = map_blocks_cached(&blocks, &array, &cfg, &mut RemapCache::new());
            MatcherAblation {
                matcher,
                mapping_cost: mapping.total_cost(),
                wall_time_ms: t0.elapsed().as_secs_f64() * 1e3,
            }
        })
        .collect()
}

/// One row of the pruning ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneAblation {
    /// Pruning heuristic enabled?
    pub prune: bool,
    /// Total mismatch cost.
    pub mapping_cost: usize,
    /// SA1-only cost (fabricated edges) — what the heuristic targets.
    pub sa1_cost: usize,
}

/// Sweeps the pruning heuristic on a sparse instance (where the paper's
/// 0.001-density blocks make it bite).
pub fn prune_ablation(seed: u64, density: f64) -> Vec<PruneAblation> {
    let (blocks, array) = mapping_instance(96, 16, 1.5, density, seed);
    [false, true]
        .into_iter()
        .map(|prune| {
            let cfg = MappingConfig {
                matcher: Matcher::BSuitor,
                prune,
            };
            let mapping = map_blocks_cached(&blocks, &array, &cfg, &mut RemapCache::new());
            PruneAblation {
                prune,
                mapping_cost: mapping.total_cost(),
                sa1_cost: mapping.total_sa1_cost(),
            }
        })
        .collect()
}

/// One row of the slack ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlackAblation {
    /// Over-provisioning factor.
    pub slack: f64,
    /// Crossbars in the pool.
    pub crossbars: usize,
    /// Total mismatch cost of the mapping.
    pub mapping_cost: usize,
}

/// Sweeps the crossbar over-provisioning slack: more spare crossbars give
/// Algorithm 1 more placement freedom at area cost.
pub fn slack_ablation(seed: u64, density: f64, slacks: &[f64]) -> Vec<SlackAblation> {
    slacks
        .iter()
        .map(|&slack| {
            let (blocks, array) = mapping_instance(96, 16, slack, density, seed);
            let mapping = map_blocks_cached(
                &blocks,
                &array,
                &MappingConfig::default(),
                &mut RemapCache::new(),
            );
            SlackAblation {
                slack,
                crossbars: array.len(),
                mapping_cost: mapping.total_cost(),
            }
        })
        .collect()
}

/// One row of the clip-threshold ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClipAblation {
    /// Threshold θ.
    pub threshold: f32,
    /// Final FARe test accuracy at that threshold.
    pub accuracy: f64,
}

/// Sweeps the clip threshold θ under 5 % faults (1:1 ratio, the regime
/// where clipping matters most).
pub fn clip_threshold_ablation(params: &ExperimentParams, thresholds: &[f32]) -> Vec<ClipAblation> {
    let config = |threshold| TrainConfig {
        model: ModelKind::Gcn,
        epochs: params.epochs,
        clip_threshold: threshold,
        fault_spec: FaultSpec::with_ratio(0.05, 1.0, 1.0),
        strategy: FaultStrategy::FaRe,
        ..TrainConfig::default()
    };
    sweep(params, DatasetKind::Reddit, thresholds, config)
        .into_iter()
        .map(|(threshold, outs)| ClipAblation {
            threshold,
            accuracy: mean_accuracy(&outs),
        })
        .collect()
}

/// One row of the post-deployment refresh ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshAblation {
    /// Row-permutation refresh after per-epoch BIST enabled?
    pub refresh: bool,
    /// Final FARe test accuracy.
    pub accuracy: f64,
}

/// FARe with vs without the per-epoch row-permutation refresh, under
/// growing post-deployment faults.
pub fn refresh_ablation(params: &ExperimentParams) -> Vec<RefreshAblation> {
    let config = |refresh| TrainConfig {
        model: ModelKind::Sage,
        epochs: params.epochs,
        fault_spec: FaultSpec::with_ratio(0.02, 1.0, 1.0),
        post_deployment_density: 0.02,
        strategy: FaultStrategy::FaRe,
        post_refresh: refresh,
        ..TrainConfig::default()
    };
    sweep(params, DatasetKind::Amazon2M, &[true, false], config)
        .into_iter()
        .map(|(refresh, outs)| RefreshAblation {
            refresh,
            accuracy: mean_accuracy(&outs),
        })
        .collect()
}

/// One row of the model-depth ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthAblation {
    /// GNN layers.
    pub depth: usize,
    /// Final FARe test accuracy.
    pub accuracy: f64,
    /// Normalised execution time (deeper models add pipeline stages).
    pub normalized_time: f64,
}

/// Sweeps model depth under FARe with 3 % faults — deeper models add
/// pipeline stages (timing) and more fault-exposed parameters
/// (accuracy).
pub fn depth_ablation(params: &ExperimentParams, depths: &[usize]) -> Vec<DepthAblation> {
    let config = |depth| TrainConfig {
        model: ModelKind::Gcn,
        depth,
        epochs: params.epochs,
        fault_spec: FaultSpec::with_ratio(0.03, 9.0, 1.0),
        strategy: FaultStrategy::FaRe,
        ..TrainConfig::default()
    };
    sweep(params, DatasetKind::Ppi, depths, config)
        .into_iter()
        .map(|(depth, outs)| DepthAblation {
            depth,
            accuracy: mean_accuracy(&outs),
            normalized_time: outs[0].normalized_time,
        })
        .collect()
}

/// Trains `config(v)` for every value `v` on the dataset of `kind` and
/// pairs each value with its outcomes in trial order.
fn sweep<V: Copy>(
    params: &ExperimentParams,
    kind: DatasetKind,
    values: &[V],
    config: impl Fn(V) -> TrainConfig,
) -> Vec<(V, Vec<TrainOutcome>)> {
    let cells: Vec<Cell> = values.iter().map(|&v| Cell::Faulty(0, config(v))).collect();
    values
        .iter()
        .copied()
        .zip(run_cells(params, &[kind], &cells))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matcher_ablation_exact_is_best_or_tied() {
        let rows = matcher_ablation(3, 0.05);
        assert_eq!(rows.len(), 2);
        let cost = |m: Matcher| {
            rows.iter()
                .find(|r| r.matcher == m)
                .map(|r| r.mapping_cost)
                .unwrap()
        };
        assert!(cost(Matcher::Hungarian) <= cost(Matcher::BSuitor));
        assert!(rows.iter().all(|r| r.wall_time_ms > 0.0));
    }

    #[test]
    fn prune_ablation_does_not_hurt_sa1() {
        // The heuristic targets SA1 exposure; it should never increase it
        // dramatically on a pool with slack.
        let rows = prune_ablation(5, 0.05);
        let on = rows.iter().find(|r| r.prune).unwrap();
        let off = rows.iter().find(|r| !r.prune).unwrap();
        assert!(
            on.sa1_cost <= off.sa1_cost + 3,
            "on {} off {}",
            on.sa1_cost,
            off.sa1_cost
        );
    }

    #[test]
    fn slack_monotonically_helps() {
        let rows = slack_ablation(7, 0.05, &[1.0, 1.5, 2.5]);
        assert_eq!(rows.len(), 3);
        // More crossbars never hurt (same seed → same faults on the
        // shared prefix of the pool).
        assert!(rows[2].mapping_cost <= rows[0].mapping_cost);
        assert!(rows[0].crossbars < rows[2].crossbars);
    }

    #[test]
    fn depth_ablation_reports_all_depths() {
        let params = ExperimentParams {
            epochs: 4,
            seed: 13,
            trials: 1,
        };
        let rows = depth_ablation(&params, &[2, 3]);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.accuracy > 0.0 && r.accuracy <= 1.0));
        // Deeper model => more pipeline stages => same or slightly lower
        // relative FARe overhead is possible; just check sanity bounds.
        assert!(rows
            .iter()
            .all(|r| r.normalized_time > 1.0 && r.normalized_time < 2.0));
    }

    #[test]
    fn clip_ablation_extreme_thresholds_are_worse() {
        let params = ExperimentParams {
            epochs: 8,
            seed: 11,
            trials: 1,
        };
        let rows = clip_threshold_ablation(&params, &[0.01, 1.0, 64.0]);
        let acc = |t: f32| rows.iter().find(|r| r.threshold == t).unwrap().accuracy;
        // θ too small clips real weights; θ too large stops bounding
        // explosions. The paper's θ = 1 should beat both extremes.
        assert!(acc(1.0) >= acc(0.01) - 0.02, "tiny θ unexpectedly fine");
        assert!(acc(1.0) >= acc(64.0) - 0.02, "huge θ unexpectedly fine");
    }
}

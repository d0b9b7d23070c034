//! Link prediction on faulty ReRAM hardware.
//!
//! The paper's Ogbl-citation2 workload is, in its original form, a link
//! prediction benchmark, and link prediction is one of the three edge
//! applications the introduction motivates. This runner trains a GNN
//! *encoder* through the same faulty aggregation/combination pipeline as
//! the node-classification [`crate::Trainer`], decodes edges with a dot
//! product ([`fare_gnn::link`]), and reports held-out AUC — so FARe's
//! protection can be evaluated on a second task family.
//!
//! The runner is the link-prediction task on the faulty hardware model
//! of the one training engine, so it honours every [`TrainConfig`] field
//! the classification trainer does, post-deployment faults included.
//!
//! Two calibration notes:
//!
//! - *Attainable AUC*: the synthetic datasets are stochastic block
//!   models, where an intra-community non-edge is statistically
//!   indistinguishable from a held-out edge. With uniformly sampled
//!   negatives the Bayes-optimal AUC is therefore well below 1
//!   (≈ 0.7–0.85 depending on community count and hub overlay); scores
//!   in that band mean the encoder fully learned the communities.
//! - *Clip threshold*: θ is task-dependent (the paper fixes it per
//!   run). Classification keeps weights inside [−1, 1] naturally, but
//!   the dot-product BCE objective legitimately grows weights larger, so
//!   link tasks should use a wider window (θ ≈ 4) — with θ = 1 the
//!   comparator clips *healthy* weights and FARe loses its edge.

use fare_gnn::link::{auc, bce_loss_and_grad, pair_scores};
use fare_gnn::{Gnn, WeightReader};
use fare_graph::batch::MiniBatch;
use fare_graph::datasets::Dataset;
use fare_graph::CsrGraph;
use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::Rng;
use fare_tensor::Matrix;

use crate::engine::{self, Batch, Faulty, Hardware, Task};
use crate::TrainConfig;

/// Per-epoch link-prediction statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkEpochStats {
    /// Epoch index.
    pub epoch: usize,
    /// Mean BCE loss over batches.
    pub loss: f64,
    /// Held-out AUC on the faulty hardware.
    pub auc: f64,
}

/// Outcome of a link-prediction run.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkOutcome {
    /// Per-epoch statistics.
    pub history: Vec<LinkEpochStats>,
    /// Final held-out AUC.
    pub final_auc: f64,
    /// Number of held-out test edges actually evaluated.
    pub test_edges: usize,
    /// Final node embeddings over the whole graph (rows indexed by
    /// global node id; nodes in batches the runner skipped stay zero).
    pub embeddings: Matrix,
}

/// Up to `count` uniformly drawn node pairs that are not edges of
/// `graph`.
fn sample_negatives(graph: &CsrGraph, count: usize, rng: &mut impl Rng) -> Vec<(usize, usize)> {
    let n = graph.num_nodes();
    let mut out = Vec::with_capacity(count);
    let mut guard = 0;
    while out.len() < count && guard < 50 * count.max(1) {
        guard += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v && !graph.has_edge(u, v) {
            out.push((u, v));
        }
    }
    out
}

/// Link prediction: dot-product BCE against sampled non-edges, scored
/// by held-out AUC.
struct LinkPrediction {
    seed: u64,
    /// Held-out edges scored by the latest evaluation.
    test_edges: usize,
}

/// A batch's training and held-out edges. The training edges form the
/// batch's graph, the one the hardware aggregates over.
struct Edges {
    train_pos: Vec<(usize, usize)>,
    test_pos: Vec<(usize, usize)>,
}

impl Task for LinkPrediction {
    type Data = Edges;
    type Epoch = LinkEpochStats;
    const RNG_DOMAIN: &'static str = "link-prediction";

    fn output_dim(&self, cfg: &TrainConfig, _: &Dataset) -> usize {
        cfg.hidden_dim
    }

    fn prepare(
        &self,
        batch: &MiniBatch,
        _: &Dataset,
        rng: &mut StdRng,
    ) -> Option<(CsrGraph, Edges)> {
        if batch.graph.num_edges() < 5 {
            return None;
        }
        // Hold out ~10% of the batch's edges for evaluation, after a
        // deterministic shuffle.
        let mut edges: Vec<(usize, usize)> = batch.graph.edges().collect();
        for i in (1..edges.len()).rev() {
            edges.swap(i, rng.gen_range(0..=i));
        }
        let holdout = (edges.len() / 10).max(1);
        let test_pos = edges[..holdout].to_vec();
        let train_pos = edges[holdout..].to_vec();
        let train_graph = CsrGraph::from_edges(batch.num_nodes(), &train_pos);
        let edges = Edges {
            train_pos,
            test_pos,
        };
        Some((train_graph, edges))
    }

    fn loss<S>(
        &self,
        batch: &Batch<'_, Edges, S>,
        emb: &Matrix,
        rng: &mut StdRng,
    ) -> Option<(f64, Matrix)> {
        let pos = &batch.data.train_pos;
        let negs = sample_negatives(&batch.graph, pos.len(), rng);
        if pos.is_empty() && negs.is_empty() {
            return None;
        }
        Some(bce_loss_and_grad(emb, pos, &negs))
    }

    fn evaluate<S>(
        &mut self,
        epoch: usize,
        loss: f64,
        model: &Gnn,
        reader: &impl WeightReader,
        batches: &[Batch<'_, Edges, S>],
    ) -> LinkEpochStats {
        let mut eval_rng = fare_rt::domain_rng(self.seed.wrapping_add(epoch as u64), "link-eval");
        let mut pos_scores = Vec::new();
        let mut neg_scores = Vec::new();
        for batch in batches {
            let (emb, _) = model.forward(&batch.view, batch.features, reader);
            let test_pos = &batch.data.test_pos;
            pos_scores.extend(pair_scores(&emb, test_pos));
            let negs = sample_negatives(&batch.graph, test_pos.len(), &mut eval_rng);
            neg_scores.extend(pair_scores(&emb, &negs));
        }
        self.test_edges = pos_scores.len();
        LinkEpochStats {
            epoch,
            loss,
            auc: auc(&pos_scores, &neg_scores),
        }
    }
}

/// Trains a link predictor under `config` on faulty hardware — every
/// field is honoured as in [`crate::Trainer::run`], and `hidden_dim`
/// doubles as the embedding dimension — and returns held-out AUC.
///
/// 10 % of each batch subgraph's edges are held out of the training
/// adjacency and used, against an equal number of sampled non-edges, for
/// evaluation. Batches with fewer than 5 edges are left out.
///
/// # Panics
///
/// Panics if the configuration fails [`TrainConfig::validate`] or no
/// batch has enough edges.
pub fn run_link_prediction(config: &TrainConfig, seed: u64, dataset: &Dataset) -> LinkOutcome {
    let mut task = LinkPrediction {
        seed,
        test_edges: 0,
    };
    let prepared = engine::prepare(dataset, seed, LinkPrediction::RNG_DOMAIN);
    let run = engine::train::<_, Faulty>(&prepared, config, &mut task);
    let final_auc = run.history.last().map(|h| h.auc).unwrap_or(0.5);

    // Assemble the global embedding matrix from a final faulty-hardware
    // forward pass over every batch (for downstream clustering).
    let mut embeddings = Matrix::zeros(dataset.graph.num_nodes(), config.hidden_dim);
    for batch in &run.batches {
        let (emb, _) = run
            .model
            .forward(&batch.view, batch.features, run.hardware.reader());
        for (local, &global) in batch.nodes.iter().enumerate() {
            embeddings.row_mut(global).copy_from_slice(emb.row(local));
        }
    }

    LinkOutcome {
        history: run.history,
        final_auc,
        test_edges: task.test_edges,
        embeddings,
    }
}

#[cfg(test)]
mod tests {
    use fare_graph::datasets::{DatasetKind, ModelKind};
    use fare_reram::FaultSpec;

    use super::*;
    use crate::FaultStrategy;

    fn config(strategy: FaultStrategy, density: f64, epochs: usize) -> TrainConfig {
        TrainConfig {
            model: ModelKind::Sage,
            epochs,
            // Wider clip window: the BCE link objective grows weights
            // past the classification default (see module docs).
            clip_threshold: 4.0,
            fault_spec: FaultSpec::with_ratio(density, 1.0, 1.0),
            strategy,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn link_prediction_learns_on_clean_hardware() {
        let ds = Dataset::generate(DatasetKind::Ogbl, 5);
        let out = run_link_prediction(&config(FaultStrategy::FaRe, 0.0, 15), 5, &ds);
        assert_eq!(out.history.len(), 15);
        assert!(out.test_edges > 10);
        // SBM negatives cap attainable AUC (see module docs); 0.58 is
        // well clear of the 0.5 chance baseline.
        assert!(
            out.final_auc > 0.58,
            "clean-hardware AUC too low: {}",
            out.final_auc
        );
        // Training actually improved ranking quality.
        assert!(out.final_auc > out.history[0].auc - 0.02);
    }

    #[test]
    fn fare_does_not_trail_unaware_under_faults() {
        let ds = Dataset::generate(DatasetKind::Ogbl, 6);
        // 3-seed median to tame variance (3% density, 1:1 ratio); per
        // seed, FARe-vs-unaware swings from -0.06 to +0.06, but the
        // median is stable (see EXPERIMENTS.md, "Tolerance bands").
        let median = |strategy: FaultStrategy| -> f64 {
            let mut aucs: Vec<f64> = (0..3)
                .map(|t| {
                    run_link_prediction(&config(strategy, 0.03, 12), 6 + 100 * t, &ds).final_auc
                })
                .collect();
            aucs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            aucs[1]
        };
        let fare = median(FaultStrategy::FaRe);
        let unaware = median(FaultStrategy::FaultUnaware);
        // Tightened from -0.03 (PR 1, 2-seed mean): observed medians
        // are FARe 0.570 vs unaware 0.555.
        assert!(
            fare > unaware - 0.01,
            "FARe AUC {fare:.3} should not trail unaware {unaware:.3}"
        );
        // Clear of the 0.5 chance line despite the faults. The median
        // FARe AUC sits at ~0.57 at this scale, so the bar moves up to
        // 0.54 (was 0.52) — separation from chance with real margin.
        assert!(fare > 0.54, "FARe AUC under faults too low: {fare:.3}");
    }

    #[test]
    fn largest_seed_does_not_overflow() {
        // Each epoch's evaluation stream is seeded with `seed + epoch`,
        // which must wrap rather than overflow (a panic in debug builds).
        let ds = Dataset::generate(DatasetKind::Ppi, 7);
        let out = run_link_prediction(&config(FaultStrategy::FaRe, 0.03, 2), u64::MAX, &ds);
        assert_eq!(out.history.len(), 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = Dataset::generate(DatasetKind::Ppi, 7);
        let a = run_link_prediction(&config(FaultStrategy::FaRe, 0.03, 3), 7, &ds);
        let b = run_link_prediction(&config(FaultStrategy::FaRe, 0.03, 3), 7, &ds);
        assert_eq!(a.history, b.history);
    }
}

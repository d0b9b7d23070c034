//! Graph clustering on faulty ReRAM hardware.
//!
//! The third application family the paper's introduction motivates. The
//! encoder is trained with the self-supervised link-prediction objective
//! ([`crate::link_prediction`]) through the same faulty pipeline, the
//! resulting node embeddings are clustered with k-means, and cluster
//! quality is scored against the (held-back) ground-truth communities
//! with purity and NMI.

use fare_gnn::cluster::{kmeans, nmi, purity};
use fare_graph::datasets::Dataset;

use crate::link_prediction::run_link_prediction;
use crate::TrainConfig;

/// Outcome of a clustering run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusteringOutcome {
    /// Cluster purity against ground-truth communities.
    pub purity: f64,
    /// Normalised mutual information against ground truth.
    pub nmi: f64,
    /// Link-prediction AUC of the underlying encoder (diagnostic).
    pub link_auc: f64,
    /// Number of clusters requested (= dataset communities).
    pub k: usize,
}

/// Trains an encoder self-supervised under `config`, clusters its
/// embeddings into the dataset's community count, and scores against
/// ground truth.
///
/// Labels are used only for *scoring*, never for training — this is the
/// unsupervised regime the paper's intro describes.
///
/// # Panics
///
/// Panics on the same configuration errors as
/// [`run_link_prediction`].
pub fn run_graph_clustering(
    config: &TrainConfig,
    seed: u64,
    dataset: &Dataset,
) -> ClusteringOutcome {
    let link = run_link_prediction(config, seed, dataset);
    let k = dataset.num_classes;
    let mut rng = fare_rt::domain_rng(seed, "clustering");
    let km = kmeans(&link.embeddings, k, 100, &mut rng);
    ClusteringOutcome {
        purity: purity(&km.assignment, &dataset.labels),
        nmi: nmi(&km.assignment, &dataset.labels),
        link_auc: link.final_auc,
        k,
    }
}

#[cfg(test)]
mod tests {
    use fare_graph::datasets::{DatasetKind, ModelKind};
    use fare_reram::FaultSpec;

    use super::*;
    use crate::FaultStrategy;

    #[test]
    fn clustering_beats_chance_on_clean_hardware() {
        let ds = Dataset::generate(DatasetKind::Reddit, 4);
        let config = TrainConfig {
            model: ModelKind::Gcn,
            epochs: 12,
            clip_threshold: 4.0,
            fault_spec: FaultSpec::fault_free(),
            strategy: FaultStrategy::FaRe,
            ..TrainConfig::default()
        };
        let out = run_graph_clustering(&config, 4, &ds);
        let chance = 1.0 / ds.num_classes as f64;
        assert_eq!(out.k, ds.num_classes);
        assert!(
            out.purity > 2.0 * chance,
            "purity {:.3} not above chance {:.3}",
            out.purity,
            chance
        );
        assert!(out.nmi > 0.1, "NMI {:.3} too low", out.nmi);
    }

    #[test]
    fn fare_clustering_not_worse_than_unaware_under_faults() {
        let ds = Dataset::generate(DatasetKind::Reddit, 8);
        let run = |strategy: FaultStrategy| -> f64 {
            let config = TrainConfig {
                model: ModelKind::Gcn,
                epochs: 8,
                clip_threshold: 4.0,
                fault_spec: FaultSpec::with_ratio(0.03, 1.0, 1.0),
                strategy,
                ..TrainConfig::default()
            };
            (0..2)
                .map(|t| run_graph_clustering(&config, 8 + 100 * t, &ds).nmi)
                .sum::<f64>()
                / 2.0
        };
        let fare = run(FaultStrategy::FaRe);
        let unaware = run(FaultStrategy::FaultUnaware);
        assert!(
            fare > unaware - 0.05,
            "FARe NMI {fare:.3} should not trail unaware {unaware:.3}"
        );
    }
}

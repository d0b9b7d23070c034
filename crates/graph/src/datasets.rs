//! Scaled-down synthetic replicas of the paper's datasets (Table II).
//!
//! The paper evaluates on PPI, Reddit, Amazon2M and Ogbl-citation2. Those
//! datasets (and METIS) are unavailable in this environment, so each
//! preset generates a seeded stochastic-block-model graph with a
//! power-law overlay whose *relative* statistics (density, community
//! count, partition/batch configuration) mirror the original at roughly
//! 1/100–1/2000 scale. Community ids double as classification labels and
//! features are noisy class centroids, so neighbourhood aggregation
//! genuinely improves accuracy — which is what makes adjacency-matrix
//! faults measurably harmful, as in the paper.

use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::{Rng, SeedableRng};
use fare_tensor::{init, Matrix};

use crate::{generate, CsrGraph};

/// Which GNN model the paper trains on a dataset (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Graph Convolutional Network.
    Gcn,
    /// Graph Attention Network.
    Gat,
    /// GraphSAGE with mean aggregation.
    Sage,
}

fare_rt::json_enum!(ModelKind { Gcn, Gat, Sage });

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelKind::Gcn => write!(f, "GCN"),
            ModelKind::Gat => write!(f, "GAT"),
            ModelKind::Sage => write!(f, "SAGE"),
        }
    }
}

/// The four dataset presets of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Protein–protein interaction (56,944 nodes / 818,716 edges).
    Ppi,
    /// Reddit (232,965 nodes / 11,606,919 edges).
    Reddit,
    /// Amazon2M (2,449,029 nodes / 61,859,140 edges).
    Amazon2M,
    /// Ogbl-citation2 (2,927,963 nodes / 30,561,187 edges).
    Ogbl,
}

fare_rt::json_enum!(DatasetKind {
    Ppi,
    Reddit,
    Amazon2M,
    Ogbl
});

impl DatasetKind {
    /// All four presets in Table II order.
    pub fn all() -> [DatasetKind; 4] {
        [
            DatasetKind::Ppi,
            DatasetKind::Reddit,
            DatasetKind::Amazon2M,
            DatasetKind::Ogbl,
        ]
    }

    /// The preset's configuration.
    pub fn spec(&self) -> DatasetSpec {
        match self {
            DatasetKind::Ppi => DatasetSpec {
                kind: *self,
                name: "PPI",
                paper_nodes: 56_944,
                paper_edges: 818_716,
                paper_batch: 5,
                paper_partitions: 250,
                nodes: 480,
                communities: 6,
                p_in: 0.12,
                p_out: 0.004,
                hub_fraction: 0.5,
                feature_dim: 24,
                partitions: 20,
                clusters_per_batch: 2,
                models: &[ModelKind::Gcn, ModelKind::Gat],
            },
            DatasetKind::Reddit => DatasetSpec {
                kind: *self,
                name: "Reddit",
                paper_nodes: 232_965,
                paper_edges: 11_606_919,
                paper_batch: 10,
                paper_partitions: 1_500,
                nodes: 600,
                communities: 8,
                p_in: 0.15,
                p_out: 0.003,
                hub_fraction: 1.0,
                feature_dim: 24,
                partitions: 30,
                clusters_per_batch: 3,
                models: &[ModelKind::Gcn],
            },
            DatasetKind::Amazon2M => DatasetSpec {
                kind: *self,
                name: "Amazon2M",
                paper_nodes: 2_449_029,
                paper_edges: 61_859_140,
                paper_batch: 20,
                paper_partitions: 10_000,
                nodes: 720,
                communities: 9,
                p_in: 0.12,
                p_out: 0.002,
                hub_fraction: 0.8,
                feature_dim: 24,
                partitions: 40,
                clusters_per_batch: 4,
                models: &[ModelKind::Gcn, ModelKind::Sage],
            },
            DatasetKind::Ogbl => DatasetSpec {
                kind: *self,
                name: "Ogbl",
                paper_nodes: 2_927_963,
                paper_edges: 30_561_187,
                paper_batch: 16,
                paper_partitions: 15_000,
                nodes: 640,
                communities: 8,
                p_in: 0.10,
                p_out: 0.002,
                hub_fraction: 1.2,
                feature_dim: 24,
                partitions: 32,
                clusters_per_batch: 3,
                models: &[ModelKind::Sage],
            },
        }
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.spec().name)
    }
}

/// Full generation recipe for a dataset preset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Which preset this is.
    pub kind: DatasetKind,
    /// Display name.
    pub name: &'static str,
    /// Node count of the original dataset (Table II).
    pub paper_nodes: usize,
    /// Edge count of the original dataset (Table II).
    pub paper_edges: usize,
    /// Clusters per mini-batch in the paper (Table II "Batch").
    pub paper_batch: usize,
    /// METIS partition count in the paper (Table II "Partitions").
    pub paper_partitions: usize,
    /// Scaled-down node count generated here.
    pub nodes: usize,
    /// Number of SBM communities (= classification classes).
    pub communities: usize,
    /// Intra-community edge probability.
    pub p_in: f64,
    /// Inter-community edge probability.
    pub p_out: f64,
    /// Power-law overlay intensity (extra edges per node).
    pub hub_fraction: f64,
    /// Node feature dimensionality.
    pub feature_dim: usize,
    /// Scaled partition count used here.
    pub partitions: usize,
    /// Clusters per mini-batch used here (scaled down with the graph so
    /// batch subgraphs stay crossbar-tractable).
    pub clusters_per_batch: usize,
    /// GNN models the paper pairs with this dataset.
    pub models: &'static [ModelKind],
}

/// A generated dataset: graph + features + labels + split.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The generation recipe.
    pub spec: DatasetSpec,
    /// The graph.
    pub graph: CsrGraph,
    /// Node features (`nodes × feature_dim`).
    pub features: Matrix,
    /// Per-node class labels in `0..num_classes`.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
    /// `true` for nodes in the training split (~70 %).
    pub train_mask: Vec<bool>,
}

impl Dataset {
    /// Generates the preset deterministically from `seed`.
    ///
    /// # Example
    ///
    /// ```
    /// use fare_graph::datasets::{Dataset, DatasetKind};
    /// let a = Dataset::generate(DatasetKind::Ppi, 7);
    /// let b = Dataset::generate(DatasetKind::Ppi, 7);
    /// assert_eq!(a.graph, b.graph);
    /// assert_eq!(a.labels, b.labels);
    /// ```
    pub fn generate(kind: DatasetKind, seed: u64) -> Self {
        let spec = kind.spec();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA12_E000);
        let (graph, labels) = generate::sbm_power_law(
            spec.nodes,
            spec.communities,
            spec.p_in,
            spec.p_out,
            spec.hub_fraction,
            &mut rng,
        );
        // Class centroids + per-node noise. Noise is strong relative to the
        // centroids so a per-node linear classifier is mediocre and
        // neighbourhood aggregation genuinely helps — the property that
        // makes adjacency faults costly.
        let centroids = init::normal(spec.communities, spec.feature_dim, 1.0, &mut rng);
        let noise = init::normal(spec.nodes, spec.feature_dim, 1.6, &mut rng);
        let features = Matrix::from_fn(spec.nodes, spec.feature_dim, |r, c| {
            centroids[(labels[r], c)] + noise[(r, c)]
        });
        let train_mask: Vec<bool> = (0..spec.nodes).map(|_| rng.gen_bool(0.7)).collect();
        let num_classes = spec.communities;
        Self {
            spec,
            graph,
            features,
            labels,
            num_classes,
            train_mask,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_generate() {
        for kind in DatasetKind::all() {
            let ds = Dataset::generate(kind, 1);
            assert_eq!(ds.graph.num_nodes(), ds.spec.nodes);
            assert_eq!(ds.features.rows(), ds.spec.nodes);
            assert_eq!(ds.features.cols(), ds.spec.feature_dim);
            assert_eq!(ds.labels.len(), ds.spec.nodes);
            assert_eq!(ds.num_classes, ds.spec.communities);
            assert!(ds.labels.iter().all(|&l| l < ds.num_classes));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate(DatasetKind::Reddit, 99);
        let b = Dataset::generate(DatasetKind::Reddit, 99);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.features, b.features);
        assert_eq!(a.train_mask, b.train_mask);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Dataset::generate(DatasetKind::Ppi, 1);
        let b = Dataset::generate(DatasetKind::Ppi, 2);
        assert_ne!(a.graph, b.graph);
    }

    #[test]
    fn split_partitions_nodes() {
        let ds = Dataset::generate(DatasetKind::Ogbl, 5);
        let train = ds.train_mask.iter().filter(|&&m| m).count();
        let test = ds.train_mask.iter().filter(|&&m| !m).count();
        assert_eq!(train + test, ds.spec.nodes);
        // ~70/30 split with slack.
        assert!(train > ds.spec.nodes / 2);
        assert!(test > 0);
    }

    #[test]
    fn relative_scale_ordering_matches_table2() {
        // Table II orders datasets by size: PPI < Reddit < Amazon2M ~ Ogbl.
        let sizes: Vec<usize> = DatasetKind::all().iter().map(|k| k.spec().nodes).collect();
        assert!(sizes[0] < sizes[1]);
        assert!(sizes[1] < sizes[2]);
    }

    #[test]
    fn features_correlate_with_labels() {
        // Mean intra-class feature distance should be below inter-class
        // distance (centroid structure exists).
        let ds = Dataset::generate(DatasetKind::Ppi, 3);
        let dist = |a: usize, b: usize| -> f32 {
            (0..ds.features.cols())
                .map(|c| (ds.features[(a, c)] - ds.features[(b, c)]).powi(2))
                .sum::<f32>()
        };
        let mut intra = (0.0f64, 0usize);
        let mut inter = (0.0f64, 0usize);
        for u in (0..ds.spec.nodes).step_by(7) {
            for v in (u + 1..ds.spec.nodes).step_by(11) {
                let d = dist(u, v) as f64;
                if ds.labels[u] == ds.labels[v] {
                    intra = (intra.0 + d, intra.1 + 1);
                } else {
                    inter = (inter.0 + d, inter.1 + 1);
                }
            }
        }
        assert!((intra.0 / intra.1 as f64) < (inter.0 / inter.1 as f64));
    }

    #[test]
    fn models_match_table2() {
        assert_eq!(
            DatasetKind::Ppi.spec().models,
            &[ModelKind::Gcn, ModelKind::Gat]
        );
        assert_eq!(DatasetKind::Reddit.spec().models, &[ModelKind::Gcn]);
        assert_eq!(
            DatasetKind::Amazon2M.spec().models,
            &[ModelKind::Gcn, ModelKind::Sage]
        );
        assert_eq!(DatasetKind::Ogbl.spec().models, &[ModelKind::Sage]);
    }

    #[test]
    fn display_names() {
        assert_eq!(DatasetKind::Ppi.to_string(), "PPI");
        assert_eq!(ModelKind::Sage.to_string(), "SAGE");
    }
}

//! Table I: the capability matrix of existing fault-tolerant techniques.
//!
//! Encoded as data so the `table1` bench binary can regenerate the
//! paper's comparison table, and so tests can assert that FARe is the
//! only row with every capability at low overhead.

/// Qualitative performance overhead of a technique.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overhead {
    /// Negligible to small overhead.
    Low,
    /// Significant overhead (stalls, redundant hardware, …).
    High,
}

impl std::fmt::Display for Overhead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Overhead::Low => write!(f, "LOW"),
            Overhead::High => write!(f, "HIGH"),
        }
    }
}

/// One row of Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Technique {
    /// Citation tag as printed in the paper.
    pub reference: &'static str,
    /// Short description.
    pub name: &'static str,
    /// Supports training (not just inference)?
    pub training: bool,
    /// Performance overhead class.
    pub overhead: Overhead,
    /// Protects the combination (weight) phase?
    pub combination: bool,
    /// Protects the aggregation (adjacency) phase?
    pub aggregation: bool,
    /// Mitigates post-deployment faults?
    pub post_deployment: bool,
}

/// The rows of Table I, in paper order, with FARe appended.
pub fn table1() -> Vec<Technique> {
    vec![
        Technique {
            reference: "[8]",
            name: "redundant columns",
            training: true,
            overhead: Overhead::High,
            combination: true,
            aggregation: true,
            post_deployment: true,
        },
        Technique {
            reference: "[10]",
            name: "unstructured pruning",
            training: false,
            overhead: Overhead::Low,
            combination: true,
            aggregation: false,
            post_deployment: false,
        },
        Technique {
            reference: "[11]",
            name: "stochastic retraining",
            training: false,
            overhead: Overhead::Low,
            combination: true,
            aggregation: true,
            post_deployment: false,
        },
        Technique {
            reference: "[9]",
            name: "fault-map compensation",
            training: false,
            overhead: Overhead::High,
            combination: true,
            aggregation: false,
            post_deployment: false,
        },
        Technique {
            reference: "[12]",
            name: "weight clipping",
            training: true,
            overhead: Overhead::Low,
            combination: true,
            aggregation: false,
            post_deployment: true,
        },
        Technique {
            reference: "[7]",
            name: "neuron reordering",
            training: true,
            overhead: Overhead::High,
            combination: true,
            aggregation: true,
            post_deployment: true,
        },
        Technique {
            reference: "FARe",
            name: "fault-aware mapping + clipping",
            training: true,
            overhead: Overhead::Low,
            combination: true,
            aggregation: true,
            post_deployment: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_fare_has_all_capabilities_at_low_overhead() {
        let rows = table1();
        let full: Vec<&Technique> = rows
            .iter()
            .filter(|t| {
                t.training
                    && t.combination
                    && t.aggregation
                    && t.post_deployment
                    && t.overhead == Overhead::Low
            })
            .collect();
        assert_eq!(full.len(), 1);
        assert_eq!(full[0].reference, "FARe");
    }

    #[test]
    fn paper_rows_present() {
        let rows = table1();
        assert_eq!(rows.len(), 7);
        for r in ["[8]", "[10]", "[11]", "[9]", "[12]", "[7]", "FARe"] {
            assert!(rows.iter().any(|t| t.reference == r), "missing row {r}");
        }
    }

    #[test]
    fn clipping_row_matches_paper() {
        let rows = table1();
        let clip = rows.iter().find(|t| t.reference == "[12]").unwrap();
        assert!(clip.training);
        assert_eq!(clip.overhead, Overhead::Low);
        assert!(clip.combination);
        assert!(!clip.aggregation);
        assert!(clip.post_deployment);
    }
}

/// The fault-mitigation scheme a training run uses — FARe or one of the
/// paper's baselines (Section V-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultStrategy {
    /// No mitigation: naive sequential mapping, raw weight reads.
    FaultUnaware,
    /// Neuron reordering (Xia et al.): permutes rows in both phases to
    /// overlap faults, recomputed after every batch on the updated
    /// weights — accurate-ish but stalls the pipeline.
    NeuronReordering,
    /// Weight clipping alone (Joardar et al.): bounds combination-phase
    /// explosions, leaves the adjacency unprotected.
    ClippingOnly,
    /// FARe: fault-aware adjacency mapping + weight clipping.
    FaRe,
}

fare_rt::json_enum!(FaultStrategy {
    FaultUnaware,
    NeuronReordering,
    ClippingOnly,
    FaRe
});

impl FaultStrategy {
    /// All strategies in the paper's comparison order.
    pub fn all() -> [FaultStrategy; 4] {
        [
            FaultStrategy::FaultUnaware,
            FaultStrategy::NeuronReordering,
            FaultStrategy::ClippingOnly,
            FaultStrategy::FaRe,
        ]
    }

    /// Does this strategy clip weight reads?
    pub fn clips_weights(&self) -> bool {
        matches!(self, FaultStrategy::ClippingOnly | FaultStrategy::FaRe)
    }

    /// Does this strategy run the fault-aware adjacency mapping
    /// (Algorithm 1)?
    pub fn maps_adjacency(&self) -> bool {
        matches!(self, FaultStrategy::FaRe)
    }

    /// Does this strategy recompute permutations after every batch
    /// (paying pipeline stalls)?
    pub fn reorders_per_batch(&self) -> bool {
        matches!(self, FaultStrategy::NeuronReordering)
    }
}

impl std::fmt::Display for FaultStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultStrategy::FaultUnaware => write!(f, "fault-unaware"),
            FaultStrategy::NeuronReordering => write!(f, "NR"),
            FaultStrategy::ClippingOnly => write!(f, "clipping"),
            FaultStrategy::FaRe => write!(f, "FARe"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capability_matrix() {
        use FaultStrategy::*;
        assert!(!FaultUnaware.clips_weights());
        assert!(!FaultUnaware.maps_adjacency());
        assert!(!FaultUnaware.reorders_per_batch());

        assert!(!NeuronReordering.clips_weights());
        assert!(NeuronReordering.reorders_per_batch());

        assert!(ClippingOnly.clips_weights());
        assert!(!ClippingOnly.maps_adjacency());

        assert!(FaRe.clips_weights());
        assert!(FaRe.maps_adjacency());
        assert!(!FaRe.reorders_per_batch());
    }

    #[test]
    fn display_names() {
        assert_eq!(FaultStrategy::FaRe.to_string(), "FARe");
        assert_eq!(FaultStrategy::NeuronReordering.to_string(), "NR");
        assert_eq!(FaultStrategy::all().len(), 4);
    }
}

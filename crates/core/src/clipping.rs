//! Weight-clipping support (paper Section IV-B).
//!
//! Clipping is a *read-side* hardware mechanism: the 16-bit comparator +
//! 2:1 mux on each tile clamps every weight the MVM consumes into
//! `[-θ, θ]`, so a stuck-at-1 cell near the MSB can inflate a weight by
//! at most `θ` instead of by the full fixed-point range. The threshold is
//! a hyper-parameter fixed for the whole run. This module provides the
//! default; the clamp itself lives in
//! [`crate::FaultyWeightReader::set_clip`] (hardware read path) and
//! [`fare_gnn::Gnn::clip_weights`] (master-copy regularisation after each
//! update).

/// Default clip threshold used by the experiments.
///
/// Healthy GNN weights under Xavier initialisation stay well inside
/// `[-1, 1]`, so θ = 1 never clips a legitimate weight yet caps
/// explosions at ~1 % of the fixed-point range.
pub const DEFAULT_THRESHOLD: f32 = 1.0;

#[cfg(test)]
mod tests {
    use fare_gnn::{Gnn, GnnDims};
    use fare_graph::datasets::ModelKind;
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::SeedableRng;

    use super::*;

    fn model() -> Gnn {
        let mut rng = StdRng::seed_from_u64(0);
        Gnn::new(
            ModelKind::Gcn,
            GnnDims {
                input: 8,
                hidden: 8,
                output: 4,
            },
            &mut rng,
        )
    }

    #[test]
    fn default_threshold_covers_fresh_weights() {
        // Xavier-initialised weights must never be clipped by the default.
        let m = model();
        let max = m
            .param_shapes()
            .iter()
            .flat_map(|s| m.param(s.layer, s.param).iter())
            .fold(0.0f32, |acc, v| acc.max(v.abs()));
        assert!(max < DEFAULT_THRESHOLD);
    }
}

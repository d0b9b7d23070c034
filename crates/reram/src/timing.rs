//! Pipelined execution-time model (paper Section V-E, Fig. 7).
//!
//! Mini-batch GNN training on the ReRAM accelerator is pipelined: with
//! `N` input subgraphs and `S` pipeline stages, end-to-end depth is
//! `N + S − 1` stage-delays per epoch. The fault-mitigation schemes
//! perturb this baseline differently:
//!
//! - **Weight clipping** adds one pipeline *stage* (the comparator+mux
//!   datapath), so depth becomes `N + S` — negligible since `N ≫ S`.
//! - **Neuron reordering** stalls the pipeline after *every batch* to
//!   recompute the permutation on the freshly updated weights; each stall
//!   costs `nr_stall_stages` stage-delays, so the penalty scales with `N`
//!   and dominates execution time (the paper reports up to ~4× and FARe's
//!   "up to 4× speedup" over it).
//! - **FARe** pays a one-time preprocessing charge (~1 % of total, the
//!   adjacency mapping, overlapped thereafter with execution on the
//!   host), one clipping stage, and a per-epoch BIST scan (~0.13 %).

/// Geometry of one training run's pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineSpec {
    /// Subgraph batches per epoch (`N`).
    pub num_batches: usize,
    /// Pipeline stages (`S`): aggregation/combination stages across
    /// layers.
    pub num_stages: usize,
    /// Delay of one pipeline stage, seconds.
    pub stage_delay_s: f64,
    /// Training epochs.
    pub epochs: usize,
}

impl PipelineSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero or the delay is non-positive.
    pub fn new(num_batches: usize, num_stages: usize, stage_delay_s: f64, epochs: usize) -> Self {
        assert!(
            num_batches > 0 && num_stages > 0 && epochs > 0,
            "counts must be positive"
        );
        assert!(stage_delay_s > 0.0, "stage delay must be positive");
        Self {
            num_batches,
            num_stages,
            stage_delay_s,
            epochs,
        }
    }
}

/// Execution-time model with the overhead constants of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Pipeline geometry.
    pub spec: PipelineSpec,
    /// Stage-delays lost per batch to a neuron-reordering stall.
    pub nr_stall_stages: f64,
    /// FARe preprocessing charge as a fraction of fault-free time (~1 %).
    pub fare_preprocess_fraction: f64,
    /// Per-epoch BIST scan charge as a fraction of epoch time (~0.13 %).
    pub bist_fraction: f64,
}

impl TimingModel {
    /// Model with the paper's overhead constants.
    pub fn new(spec: PipelineSpec) -> Self {
        Self {
            spec,
            nr_stall_stages: 3.0,
            fare_preprocess_fraction: 0.01,
            bist_fraction: 0.0013,
        }
    }

    /// Fault-free training time: `epochs × (N + S − 1) × τ`.
    pub fn fault_free(&self) -> f64 {
        let s = &self.spec;
        s.epochs as f64 * (s.num_batches + s.num_stages - 1) as f64 * s.stage_delay_s
    }

    /// Time with weight clipping only: one extra pipeline stage.
    pub fn clipping(&self) -> f64 {
        let s = &self.spec;
        s.epochs as f64 * (s.num_batches + s.num_stages) as f64 * s.stage_delay_s
    }

    /// Time with neuron reordering: a stall after every batch.
    pub fn neuron_reordering(&self) -> f64 {
        let s = &self.spec;
        let per_epoch =
            (s.num_batches + s.num_stages - 1) as f64 + s.num_batches as f64 * self.nr_stall_stages;
        s.epochs as f64 * per_epoch * s.stage_delay_s
    }

    /// Time with the full FARe scheme: clipping stage + per-epoch BIST +
    /// one-time preprocessing.
    pub fn fare(&self) -> f64 {
        self.clipping() * (1.0 + self.bist_fraction)
            + self.fare_preprocess_fraction * self.fault_free()
    }

    /// All four times normalised to the fault-free baseline.
    pub fn normalized(&self) -> NormalizedTimes {
        fare_obs::counters::RERAM_TIMING_EVALS.incr();
        let base = self.fault_free();
        NormalizedTimes {
            fault_free: 1.0,
            clipping: self.clipping() / base,
            neuron_reordering: self.neuron_reordering() / base,
            fare: self.fare() / base,
        }
    }
}

/// Execution times normalised to fault-free training (the bars of
/// Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalizedTimes {
    /// Always 1.0.
    pub fault_free: f64,
    /// Clipping-only relative time.
    pub clipping: f64,
    /// Neuron-reordering relative time.
    pub neuron_reordering: f64,
    /// FARe relative time.
    pub fare: f64,
}

fare_rt::json_struct_to!(NormalizedTimes {
    fault_free,
    clipping,
    neuron_reordering,
    fare
});

impl NormalizedTimes {
    /// FARe's speedup over neuron reordering (the paper's "up to 4×").
    pub fn fare_speedup_over_nr(&self) -> f64 {
        self.neuron_reordering / self.fare
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(n: usize, s: usize) -> TimingModel {
        TimingModel::new(PipelineSpec::new(n, s, 1e-3, 100))
    }

    #[test]
    fn fault_free_depth_formula() {
        let m = model(50, 4);
        assert!((m.fault_free() - 100.0 * 53.0 * 1e-3).abs() < 1e-9);
    }

    #[test]
    fn clipping_overhead_negligible_for_large_n() {
        let t = model(500, 4).normalized();
        assert!(t.clipping > 1.0);
        assert!(t.clipping < 1.01, "clipping {}", t.clipping);
    }

    #[test]
    fn fare_overhead_about_one_percent() {
        let t = model(500, 4).normalized();
        assert!(t.fare > 1.0);
        assert!(t.fare < 1.03, "fare overhead too big: {}", t.fare);
        assert!(t.fare >= t.clipping);
    }

    #[test]
    fn nr_overhead_dominates() {
        let t = model(500, 4).normalized();
        assert!(t.neuron_reordering > 3.0, "nr {}", t.neuron_reordering);
        assert!(t.neuron_reordering > 2.0 * t.fare);
    }

    #[test]
    fn fare_speedup_up_to_4x() {
        let t = model(1000, 4).normalized();
        let speedup = t.fare_speedup_over_nr();
        assert!(speedup > 3.0 && speedup < 4.5, "speedup {speedup}");
    }

    #[test]
    fn ordering_fault_free_clip_fare_nr() {
        let m = model(100, 5);
        assert!(m.fault_free() < m.clipping());
        assert!(m.clipping() < m.fare());
        assert!(m.fare() < m.neuron_reordering());
    }

    #[test]
    fn epochs_scale_linearly() {
        let a = TimingModel::new(PipelineSpec::new(10, 3, 1e-3, 1)).fault_free();
        let b = TimingModel::new(PipelineSpec::new(10, 3, 1e-3, 7)).fault_free();
        assert!((b / a - 7.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "counts must be positive")]
    fn zero_batches_rejected() {
        PipelineSpec::new(0, 3, 1e-3, 1);
    }
}

//! Discrete-event simulation of the pipelined training schedule
//! (paper Fig. 2).
//!
//! The analytical [`crate::timing`] model assumes the classic
//! `N + S − 1` pipeline-depth formula plus per-scheme perturbations.
//! This module *derives* those numbers instead: batches flow through `S`
//! stages, one stage-slot per cycle, with optional per-batch stall
//! cycles (neuron reordering), an optional extra stage (clipping), and
//! per-epoch service cycles (BIST). The unit tests prove the simulated
//! cycle counts equal the analytical model exactly, which is what makes
//! Fig. 7's normalised ratios trustworthy.

/// A pipeline schedule to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Batches per epoch.
    pub batches: usize,
    /// Pipeline stages each batch passes through.
    pub stages: usize,
    /// Stall cycles inserted after each batch *issues* (NR recompute).
    pub stall_after_batch: usize,
    /// Service cycles appended at the end of each epoch (BIST scan).
    pub epoch_service: usize,
    /// Epochs.
    pub epochs: usize,
}

impl Schedule {
    /// Creates a schedule.
    ///
    /// # Panics
    ///
    /// Panics if `batches`, `stages` or `epochs` is zero.
    pub fn new(batches: usize, stages: usize, epochs: usize) -> Self {
        assert!(
            batches > 0 && stages > 0 && epochs > 0,
            "counts must be positive"
        );
        Self {
            batches,
            stages,
            stall_after_batch: 0,
            epoch_service: 0,
            epochs,
        }
    }

    /// Adds per-batch stall cycles (builder style).
    pub fn with_stalls(mut self, cycles: usize) -> Self {
        self.stall_after_batch = cycles;
        self
    }

    /// Adds per-epoch service cycles (builder style).
    pub fn with_epoch_service(mut self, cycles: usize) -> Self {
        self.epoch_service = cycles;
        self
    }
}

/// Result of simulating a [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// Total cycles from first issue to last drain.
    pub total_cycles: usize,
    /// Cycles in which at least one stage did useful work.
    pub busy_cycles: usize,
    /// Pipeline utilisation: busy stage-slots / (stages × total cycles).
    pub utilization: f64,
}

/// Simulates the schedule cycle by cycle.
///
/// Each batch occupies stage `s` during exactly one cycle, one stage per
/// cycle in order; a new batch issues into stage 0 the cycle after the
/// previous one leaves it, except when a stall blocks the front end.
/// Epochs are serialised (an epoch's first batch issues after the
/// previous epoch fully drains and its service cycles elapse) — matching
/// the paper's per-epoch formula.
pub fn simulate(schedule: &Schedule) -> SimResult {
    fare_obs::counters::RERAM_PIPELINE_SIMS.incr();
    fare_obs::counters::RERAM_PIPELINE_BATCHES.add((schedule.epochs * schedule.batches) as u64);
    let s = schedule.stages;
    let mut total_cycles = 0usize;
    let mut busy_slots = 0usize;
    let mut busy_cycles = 0usize;

    for _ in 0..schedule.epochs {
        // Issue times of this epoch's batches relative to epoch start.
        let mut issue = Vec::with_capacity(schedule.batches);
        let mut t = 0usize;
        for b in 0..schedule.batches {
            issue.push(t);
            t += 1; // next batch can enter stage 0 one cycle later...
            if schedule.stall_after_batch > 0 && b + 1 < schedule.batches {
                t += schedule.stall_after_batch; // ...unless the front end stalls
            }
        }
        let drain = issue.last().expect("batches > 0") + s; // epoch length in cycles
                                                            // Count busy stage-slots cycle by cycle.
        for cycle in 0..drain {
            let mut any = false;
            for &at in issue.iter() {
                if cycle >= at && cycle < at + s {
                    busy_slots += 1;
                    any = true;
                }
            }
            if any {
                busy_cycles += 1;
            }
        }
        total_cycles += drain + schedule.epoch_service;
    }

    SimResult {
        total_cycles,
        busy_cycles,
        utilization: busy_slots as f64 / (s * total_cycles.max(1)) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_pipeline_matches_depth_formula() {
        // N + S - 1 per epoch — the analytical model's core assumption.
        for (n, s, e) in [(1usize, 1usize, 1usize), (10, 5, 1), (50, 5, 3), (7, 2, 10)] {
            let sim = simulate(&Schedule::new(n, s, e));
            assert_eq!(sim.total_cycles, e * (n + s - 1), "N={n} S={s} E={e}");
        }
    }

    #[test]
    fn stalls_add_linear_penalty() {
        // Each of the N-1 inter-batch gaps grows by the stall amount.
        let base = simulate(&Schedule::new(20, 4, 1)).total_cycles;
        let stalled = simulate(&Schedule::new(20, 4, 1).with_stalls(3)).total_cycles;
        assert_eq!(stalled, base + 3 * 19);
    }

    #[test]
    fn epoch_service_adds_per_epoch() {
        let base = simulate(&Schedule::new(10, 3, 5)).total_cycles;
        let with = simulate(&Schedule::new(10, 3, 5).with_epoch_service(2)).total_cycles;
        assert_eq!(with, base + 10);
    }

    #[test]
    fn simulated_nr_ratio_matches_timing_model() {
        // The discrete-event simulation reproduces the analytical
        // TimingModel's NR ratio when the stall constant matches.
        use crate::timing::{PipelineSpec, TimingModel};
        let (n, s, e) = (100usize, 5usize, 10usize);
        let model = TimingModel::new(PipelineSpec::new(n, s, 1e-3, e));
        let base = simulate(&Schedule::new(n, s, e));
        let nr = simulate(&Schedule::new(n, s, e).with_stalls(model.nr_stall_stages as usize));
        let sim_ratio = nr.total_cycles as f64 / base.total_cycles as f64;
        let model_ratio = model.normalized().neuron_reordering;
        // The analytical model charges N stalls, the simulator N-1 (the
        // last batch has nothing behind it); they agree to O(1/N).
        assert!(
            (sim_ratio - model_ratio).abs() < 0.05,
            "sim {sim_ratio} vs model {model_ratio}"
        );
    }

    #[test]
    fn utilization_increases_with_pipeline_fill() {
        let short = simulate(&Schedule::new(2, 8, 1));
        let long = simulate(&Schedule::new(200, 8, 1));
        assert!(long.utilization > short.utilization);
        assert!(long.utilization > 0.9, "deep pipeline should be near-full");
        assert!(short.utilization <= 1.0);
    }

    #[test]
    fn busy_cycles_never_exceed_total() {
        let sim = simulate(&Schedule::new(13, 4, 2).with_stalls(2).with_epoch_service(5));
        assert!(sim.busy_cycles <= sim.total_cycles);
        assert!(sim.utilization > 0.0 && sim.utilization <= 1.0);
    }

    #[test]
    #[should_panic(expected = "counts must be positive")]
    fn zero_batches_rejected() {
        Schedule::new(0, 1, 1);
    }
}

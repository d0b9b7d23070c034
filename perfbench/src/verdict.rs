//! When a measured unit counts as failed.
//!
//! An untimed warm-up unit sets the reference outcome. A timed unit
//! fails, once, when it panics, when it reports a non-finite loss, or
//! when its outcome differs from the reference in any bit.

use fare_core::link_prediction::LinkOutcome;
use fare_core::TrainOutcome;

/// An outcome the benchmark can check and compare bit for bit.
pub trait UnitOutcome {
    /// Every loss is finite; for an outcome without losses, every score.
    fn finite(&self) -> bool;
    /// Where `self` first differs from `other`, comparing floats by
    /// `to_bits`; `None` when they are identical.
    fn first_difference(&self, other: &Self) -> Option<String>;
}

/// The verdict on one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Finite and bit-identical to the reference.
    Passed,
    /// The unit panicked.
    Panicked,
    /// A loss was NaN or infinite.
    NonFiniteLoss,
    /// The outcome differs from the reference.
    Diverged,
}

/// Judges one unit's result against the reference outcome.
pub fn judge<T: UnitOutcome>(result: &std::thread::Result<T>, reference: &T) -> Verdict {
    match result {
        Err(_) => Verdict::Panicked,
        Ok(outcome) if !outcome.finite() => Verdict::NonFiniteLoss,
        Ok(outcome) if outcome.first_difference(reference).is_some() => Verdict::Diverged,
        Ok(_) => Verdict::Passed,
    }
}

/// Units attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Units run.
    pub attempted: u64,
    /// Units whose verdict was not [`Verdict::Passed`].
    pub failed: u64,
}

impl Tally {
    /// Counts one unit.
    pub fn record(&mut self, verdict: Verdict) {
        self.attempted += 1;
        self.failed += u64::from(verdict != Verdict::Passed);
    }

    /// Failed units over attempted units; 0 before any attempt.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

fn differ(a: f64, b: f64) -> bool {
    a.to_bits() != b.to_bits()
}

/// The first `(field, a, b)` whose values differ, described.
fn first_field<const N: usize>(prefix: &str, fields: [(&str, f64, f64); N]) -> Option<String> {
    fields
        .into_iter()
        .find(|&(_, a, b)| differ(a, b))
        .map(|(field, a, b)| format!("{prefix}{field} {a:?} vs {b:?}"))
}

impl UnitOutcome for TrainOutcome {
    fn finite(&self) -> bool {
        self.history.iter().all(|e| e.loss.is_finite())
    }

    fn first_difference(&self, other: &Self) -> Option<String> {
        if self.history.len() != other.history.len() {
            return Some(format!(
                "{} epochs vs {}",
                self.history.len(),
                other.history.len()
            ));
        }
        for (a, b) in self.history.iter().zip(&other.history) {
            let diff = first_field(
                &format!("epoch {}: ", a.epoch),
                [
                    ("loss", a.loss, b.loss),
                    ("train_accuracy", a.train_accuracy, b.train_accuracy),
                    ("test_accuracy", a.test_accuracy, b.test_accuracy),
                    ("index", a.epoch as f64, b.epoch as f64),
                ],
            );
            if diff.is_some() {
                return diff;
            }
        }
        first_field(
            "",
            [
                (
                    "final_train_accuracy",
                    self.final_train_accuracy,
                    other.final_train_accuracy,
                ),
                (
                    "final_test_accuracy",
                    self.final_test_accuracy,
                    other.final_test_accuracy,
                ),
                (
                    "best_test_accuracy",
                    self.best_test_accuracy,
                    other.best_test_accuracy,
                ),
                (
                    "normalized_time",
                    self.normalized_time,
                    other.normalized_time,
                ),
                (
                    "final_mapping_cost",
                    self.final_mapping_cost as f64,
                    other.final_mapping_cost as f64,
                ),
                (
                    "num_batches",
                    self.num_batches as f64,
                    other.num_batches as f64,
                ),
            ],
        )
    }
}

impl UnitOutcome for LinkOutcome {
    fn finite(&self) -> bool {
        self.history.iter().all(|e| e.loss.is_finite())
    }

    fn first_difference(&self, other: &Self) -> Option<String> {
        if self.history.len() != other.history.len() {
            return Some(format!(
                "{} epochs vs {}",
                self.history.len(),
                other.history.len()
            ));
        }
        for (a, b) in self.history.iter().zip(&other.history) {
            let diff = first_field(
                &format!("epoch {}: ", a.epoch),
                [("loss", a.loss, b.loss), ("auc", a.auc, b.auc)],
            );
            if diff.is_some() {
                return diff;
            }
        }
        let diff = first_field(
            "",
            [
                ("final_auc", self.final_auc, other.final_auc),
                (
                    "test_edges",
                    self.test_edges as f64,
                    other.test_edges as f64,
                ),
            ],
        );
        if diff.is_some() {
            return diff;
        }
        if self.embeddings.shape() != other.embeddings.shape() {
            return Some("embedding shape".to_string());
        }
        self.embeddings
            .iter()
            .zip(other.embeddings.iter())
            .position(|(a, b)| a.to_bits() != b.to_bits())
            .map(|i| format!("embedding entry {i}"))
    }
}

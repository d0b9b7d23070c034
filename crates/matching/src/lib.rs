//! Bipartite matching and assignment solvers.
//!
//! FARe's Algorithm 1 solves two nested matching problems:
//!
//! 1. **Row permutation** (`G₁`): match the `n` rows of an adjacency block
//!    to the `n` rows of a crossbar so the number of value/fault mismatches
//!    is minimised.
//! 2. **Block placement** (`G₂`): assign the `b` blocks of a batch to the
//!    `m ≥ b` available crossbars at minimum total cost.
//!
//! Both are linear assignment problems. This crate provides:
//!
//! - [`hungarian`] — exact O(n³) Kuhn–Munkres with potentials,
//! - [`bsuitor_assignment`] — b-Suitor (Khan et al.), the ½-approximation
//!   the paper cites as its implementation choice. For these one-to-one
//!   instances it equals the greedy matching in `(cost, row, col)` edge
//!   order, and it is computed as that matching,
//! - [`Matcher`] — a selector enum so callers can swap solvers.
//!
//! # Example
//!
//! ```
//! use fare_matching::{hungarian, CostMatrix};
//!
//! let cost = CostMatrix::from_rows(&[
//!     &[4.0, 1.0, 3.0],
//!     &[2.0, 0.0, 5.0],
//!     &[3.0, 2.0, 2.0],
//! ]);
//! let sol = hungarian(&cost);
//! assert_eq!(sol.total_cost, 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bsuitor;
mod cost;
mod hungarian;

pub use bsuitor::bsuitor_assignment;
pub use cost::CostMatrix;
pub use hungarian::hungarian;

/// Solution of a (possibly rectangular) assignment problem.
///
/// `assignment[r]` is the column assigned to row `r`, or `None` when the
/// solver left the row unassigned (only possible for approximate solvers
/// on degenerate inputs; exact solvers always assign every row when
/// `rows <= cols`).
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Per-row assigned column.
    pub assignment: Vec<Option<usize>>,
    /// Sum of the costs of the chosen entries.
    pub total_cost: f64,
}

impl Assignment {
    /// Number of rows that received a column.
    pub fn matched_count(&self) -> usize {
        self.assignment.iter().filter(|a| a.is_some()).count()
    }

    /// Returns the assignment as a permutation vector.
    ///
    /// # Panics
    ///
    /// Panics if any row is unassigned.
    pub fn to_permutation(&self) -> Vec<usize> {
        self.assignment
            .iter()
            .map(|a| a.expect("unassigned row in to_permutation"))
            .collect()
    }

    /// `true` if no two rows share a column.
    pub fn is_valid(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        self.assignment.iter().flatten().all(|&c| seen.insert(c))
    }
}

/// Selector for the assignment solver used inside Algorithm 1.
///
/// The paper uses b-Suitor (a ½-approximation) for speed; the exact
/// Hungarian solver is provided for quality ablations. b-Suitor is
/// computed as the greedy matching in `(cost, row, col)` edge order,
/// which it equals on these instances (see [`bsuitor_assignment`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Matcher {
    /// Exact O(n³) Kuhn–Munkres.
    Hungarian,
    /// b-Suitor ½-approximation (paper's choice), computed as the
    /// greedy edge-order matching it equals.
    #[default]
    BSuitor,
}

fare_rt::json_enum!(Matcher { Hungarian, BSuitor });

impl Matcher {
    /// Solves the min-cost assignment of `cost` with this solver.
    ///
    /// # Panics
    ///
    /// Panics if `cost` has more rows than columns.
    pub fn solve(&self, cost: &CostMatrix) -> Assignment {
        match self {
            Matcher::Hungarian => hungarian(cost),
            Matcher::BSuitor => bsuitor_assignment(cost),
        }
    }
}

impl std::fmt::Display for Matcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Matcher::Hungarian => write!(f, "hungarian"),
            Matcher::BSuitor => write!(f, "b-suitor"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> CostMatrix {
        CostMatrix::from_rows(&[&[4.0, 1.0, 3.0], &[2.0, 0.0, 5.0], &[3.0, 2.0, 2.0]])
    }

    #[test]
    fn matcher_solves_with_all_variants() {
        let cost = square();
        for m in [Matcher::Hungarian, Matcher::BSuitor] {
            let sol = m.solve(&cost);
            assert!(sol.is_valid(), "{m} produced invalid assignment");
            assert_eq!(sol.matched_count(), 3, "{m} left rows unmatched");
        }
    }

    #[test]
    fn matcher_display() {
        assert_eq!(Matcher::Hungarian.to_string(), "hungarian");
        assert_eq!(Matcher::BSuitor.to_string(), "b-suitor");
    }

    #[test]
    fn assignment_permutation_round_trip() {
        let sol = hungarian(&square());
        let perm = sol.to_permutation();
        assert_eq!(perm.len(), 3);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }
}

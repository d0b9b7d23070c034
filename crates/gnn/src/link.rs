//! Link prediction on top of GNN embeddings.
//!
//! The paper motivates GNN training at the edge with node
//! classification, **link prediction** and graph clustering; its
//! Ogbl-citation2 workload is a link-prediction benchmark. This module
//! provides the standard dot-product decoder: the GNN's output rows are
//! node embeddings, an edge `(u, v)` is scored as `e_u · e_v`, scores
//! are trained with binary cross-entropy against positive (real) and
//! negative (sampled) pairs, and quality is measured by AUC.

use fare_tensor::Matrix;

/// Dot-product scores of node pairs under the embedding matrix.
///
/// # Panics
///
/// Panics if any node id is out of range.
///
/// # Example
///
/// ```
/// use fare_gnn::link::pair_scores;
/// use fare_tensor::Matrix;
/// let emb = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0], &[0.0, 1.0]]);
/// let s = pair_scores(&emb, &[(0, 1), (0, 2)]);
/// assert_eq!(s, vec![1.0, 0.0]);
/// ```
pub fn pair_scores(embeddings: &Matrix, pairs: &[(usize, usize)]) -> Vec<f32> {
    pairs
        .iter()
        .map(|&(u, v)| {
            assert!(
                u < embeddings.rows() && v < embeddings.rows(),
                "pair ({u},{v}) out of range for {} embeddings",
                embeddings.rows()
            );
            embeddings
                .row(u)
                .iter()
                .zip(embeddings.row(v))
                .map(|(a, b)| a * b)
                .sum()
        })
        .collect()
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Binary cross-entropy loss over positive and negative pairs, plus the
/// gradient w.r.t. the embedding matrix.
///
/// Positive pairs are pushed toward score +∞, negatives toward −∞; the
/// returned gradient plugs straight into [`crate::Gnn::backward`] as the
/// logits gradient (embeddings are the model output).
///
/// Returns `(loss, grad)`; both pair sets contribute with equal total
/// weight regardless of their sizes.
///
/// # Panics
///
/// Panics if both pair sets are empty or any node id is out of range.
pub fn bce_loss_and_grad(
    embeddings: &Matrix,
    positive: &[(usize, usize)],
    negative: &[(usize, usize)],
) -> (f64, Matrix) {
    assert!(
        !positive.is_empty() || !negative.is_empty(),
        "need at least one pair"
    );
    let mut loss = 0.0f64;
    let mut grad = Matrix::zeros(embeddings.rows(), embeddings.cols());
    let mut accumulate = |pairs: &[(usize, usize)], target: f32| {
        if pairs.is_empty() {
            return;
        }
        let scale = 1.0 / pairs.len() as f32;
        let scores = pair_scores(embeddings, pairs);
        for (&(u, v), &s) in pairs.iter().zip(&scores) {
            let p = sigmoid(s);
            // BCE: -[t ln p + (1-t) ln (1-p)], numerically via logits.
            let l = if target > 0.5 {
                -(p.max(1e-12)).ln()
            } else {
                -((1.0 - p).max(1e-12)).ln()
            };
            loss += (scale * l) as f64;
            // dL/ds = p - t, then ds/de_u = e_v, ds/de_v = e_u. The u row
            // takes its term before the v row, so a pair (u, u) adds
            // both to one row in that order.
            let ds = scale * (p - target);
            for (g, &e) in grad.row_mut(u).iter_mut().zip(embeddings.row(v)) {
                *g += ds * e;
            }
            for (g, &e) in grad.row_mut(v).iter_mut().zip(embeddings.row(u)) {
                *g += ds * e;
            }
        }
    };
    accumulate(positive, 1.0);
    accumulate(negative, 0.0);
    (loss, grad)
}

/// Area under the ROC curve given scores of positive and negative pairs.
///
/// Computed exactly as the fraction of (positive, negative) score pairs
/// ranked correctly (ties count ½; a NaN score wins and ties with
/// nothing). Returns 0.5 when either set is empty.
///
/// The negatives are sorted once and each positive counts the ones below
/// and equal to it by binary search, in `O((P + N) log N)`. Wins and
/// ties are whole counts, so the result is the same `f64` that summing
/// every pair's 1 or ½ gives in any order.
///
/// # Example
///
/// ```
/// use fare_gnn::link::auc;
/// assert_eq!(auc(&[2.0, 3.0], &[0.0, 1.0]), 1.0);
/// assert_eq!(auc(&[0.0], &[1.0]), 0.0);
/// assert_eq!(auc(&[1.0], &[1.0]), 0.5);
/// ```
pub fn auc(positive_scores: &[f32], negative_scores: &[f32]) -> f64 {
    if positive_scores.is_empty() || negative_scores.is_empty() {
        return 0.5;
    }
    // `total_cmp` keeps -0.0 and +0.0 adjacent, so `< p` and `<= p` each
    // hold on a prefix of the sorted negatives.
    let mut negatives: Vec<f32> = negative_scores
        .iter()
        .copied()
        .filter(|n| !n.is_nan())
        .collect();
    negatives.sort_unstable_by(f32::total_cmp);
    let (mut wins, mut ties) = (0usize, 0usize);
    for &p in positive_scores {
        let below = negatives.partition_point(|&n| n < p);
        wins += below;
        ties += negatives.partition_point(|&n| n <= p) - below;
    }
    (wins as f64 + 0.5 * ties as f64) / (positive_scores.len() * negative_scores.len()) as f64
}

#[cfg(test)]
mod tests {
    use fare_rt::prop::prelude::*;
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::{Rng, SeedableRng};

    use super::*;

    /// The quadratic AUC the sorted count replaced, kept as its oracle:
    /// every (positive, negative) pair adds 1 for a win and ½ for a tie.
    fn pairwise_auc(positive_scores: &[f32], negative_scores: &[f32]) -> f64 {
        if positive_scores.is_empty() || negative_scores.is_empty() {
            return 0.5;
        }
        let mut wins = 0.0f64;
        for &p in positive_scores {
            for &n in negative_scores {
                if p > n {
                    wins += 1.0;
                } else if p == n {
                    wins += 0.5;
                }
            }
        }
        wins / (positive_scores.len() * negative_scores.len()) as f64
    }

    /// `len` scores drawn mostly from a few repeated values, so ties are
    /// common, with signed zeros, infinities and NaNs of both signs among
    /// them (`total_cmp` sorts a negative NaN first, a positive one last).
    fn tied_scores(len: usize, rng: &mut StdRng) -> Vec<f32> {
        const POOL: [f32; 9] = [
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            1.0,
            -1.0,
            0.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        (0..len)
            .map(|_| {
                if rng.gen_bool(0.7) {
                    POOL[rng.gen_range(0..POOL.len())]
                } else {
                    rng.gen_range(-2.0f32..2.0)
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn sorted_auc_bit_identical_to_pairwise_oracle(
            seed in 0u64..1_000_000,
            positives in 0usize..40,
            negatives in 0usize..40,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pos = tied_scores(positives, &mut rng);
            let neg = tied_scores(negatives, &mut rng);
            prop_assert_eq!(auc(&pos, &neg).to_bits(), pairwise_auc(&pos, &neg).to_bits());
        }
    }

    fn embeddings() -> Matrix {
        Matrix::from_rows(&[&[1.0, 0.0], &[0.9, 0.1], &[0.0, 1.0], &[-0.1, 0.9]])
    }

    #[test]
    fn scores_reflect_similarity() {
        let emb = embeddings();
        let s = pair_scores(&emb, &[(0, 1), (0, 2), (2, 3)]);
        assert!(s[0] > s[1], "similar pair should outscore dissimilar");
        assert!(s[2] > s[1]);
    }

    #[test]
    fn loss_lower_for_correct_structure() {
        let emb = embeddings();
        // Correct: similar nodes linked.
        let (good, _) = bce_loss_and_grad(&emb, &[(0, 1), (2, 3)], &[(0, 2), (1, 3)]);
        // Inverted: dissimilar nodes linked.
        let (bad, _) = bce_loss_and_grad(&emb, &[(0, 2), (1, 3)], &[(0, 1), (2, 3)]);
        assert!(good < bad, "good {good} vs bad {bad}");
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let emb = Matrix::from_rows(&[&[0.3, -0.2], &[0.1, 0.4], &[-0.5, 0.2]]);
        let pos = [(0usize, 1usize)];
        let neg = [(0usize, 2usize), (1usize, 2usize)];
        let (_, grad) = bce_loss_and_grad(&emb, &pos, &neg);
        let eps = 1e-3f32;
        for r in 0..3 {
            for c in 0..2 {
                let mut plus = emb.clone();
                plus[(r, c)] += eps;
                let mut minus = emb.clone();
                minus[(r, c)] -= eps;
                let (lp, _) = bce_loss_and_grad(&plus, &pos, &neg);
                let (lm, _) = bce_loss_and_grad(&minus, &pos, &neg);
                let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
                assert!(
                    (fd - grad[(r, c)]).abs() < 1e-3,
                    "fd {fd} vs analytic {} at ({r},{c})",
                    grad[(r, c)]
                );
            }
        }
    }

    #[test]
    fn gradient_descent_improves_auc() {
        let mut emb = Matrix::from_rows(&[&[0.1, 0.2], &[0.2, 0.1], &[-0.1, 0.1], &[0.1, -0.2]]);
        let pos = [(0usize, 1usize), (2usize, 3usize)];
        let neg = [(0usize, 2usize), (1usize, 3usize)];
        let auc_of = |e: &Matrix| auc(&pair_scores(e, &pos), &pair_scores(e, &neg));
        let before = auc_of(&emb);
        for _ in 0..200 {
            let (_, grad) = bce_loss_and_grad(&emb, &pos, &neg);
            emb -= &grad.scaled(0.5);
        }
        let after = auc_of(&emb);
        assert!(after >= before);
        assert!(after > 0.9, "AUC after training: {after}");
    }

    #[test]
    fn auc_extremes_and_ties() {
        assert_eq!(auc(&[5.0], &[1.0]), 1.0);
        assert_eq!(auc(&[1.0], &[5.0]), 0.0);
        assert_eq!(auc(&[], &[1.0]), 0.5);
        assert_eq!(auc(&[1.0, 1.0], &[1.0]), 0.5);
        assert_eq!(auc(&[0.0], &[-0.0]), 0.5);
        assert_eq!(auc(&[f32::NAN, 2.0], &[1.0, f32::NAN]), 0.25);
    }

    #[test]
    fn auc_partial_ordering() {
        let a = auc(&[3.0, 2.0], &[1.0, 2.5]);
        // pairs: (3,1)+ (3,2.5)+ (2,1)+ (2,2.5)- -> 3/4
        assert!((a - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn scores_reject_bad_ids() {
        pair_scores(&embeddings(), &[(0, 9)]);
    }

    #[test]
    #[should_panic(expected = "at least one pair")]
    fn loss_rejects_empty() {
        bce_loss_and_grad(&embeddings(), &[], &[]);
    }
}

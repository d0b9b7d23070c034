//! Free-standing numerical operations used by the GNN layers.
//!
//! These operate on [`Matrix`] values and keep the layer code in
//! `fare-gnn` readable: activations, row-wise softmax and the numerically
//! stable log-sum-exp reduction.

use crate::Matrix;

/// Rectified linear unit, elementwise.
///
/// # Example
///
/// ```
/// use fare_tensor::{ops, Matrix};
/// let m = Matrix::from_rows(&[&[-1.0, 2.0]]);
/// assert_eq!(ops::relu(&m).as_slice(), &[0.0, 2.0]);
/// ```
pub fn relu(m: &Matrix) -> Matrix {
    m.map(|v| v.max(0.0))
}

/// Derivative mask of ReLU evaluated at the pre-activation `m`.
///
/// Entry is 1.0 where `m > 0`, else 0.0.
pub fn relu_grad(m: &Matrix) -> Matrix {
    m.map(|v| if v > 0.0 { 1.0 } else { 0.0 })
}

/// Exponential linear unit with `alpha = 1`, elementwise.
///
/// Used by the GAT attention layers.
pub fn elu(m: &Matrix) -> Matrix {
    m.map(|v| if v > 0.0 { v } else { v.exp_m1() })
}

/// Derivative of [`elu`] evaluated at the pre-activation `m`.
pub fn elu_grad(m: &Matrix) -> Matrix {
    m.map(|v| if v > 0.0 { 1.0 } else { v.exp() })
}

/// Numerically stable row-wise softmax.
///
/// Each row is shifted by its max before exponentiation so large logits
/// (e.g. from fault-corrupted weights) do not overflow.
///
/// # Example
///
/// ```
/// use fare_tensor::{ops, Matrix};
/// let m = Matrix::from_rows(&[&[0.0, 0.0]]);
/// let s = ops::softmax_rows(&m);
/// assert!((s[(0, 0)] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for r in 0..out.rows() {
        softmax_in_place(out.row_mut(r));
    }
    out
}

/// Numerically stable softmax of one row, in place: the per-row step of
/// [`softmax_rows`].
///
/// A `-inf` entry folds into the max, exponentiates and sums as an
/// exact no-op, so dropping a row's `-inf` entries leaves the softmax
/// of the others unchanged bit for bit (the sparse GAT attention relies
/// on this).
pub fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    // A row of -inf (fully masked attention) softmaxes to uniform zeros
    // rather than NaN.
    if !max.is_finite() {
        row.fill(0.0);
        return;
    }
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Mean cross-entropy loss between row-softmaxed `logits` and integer
/// `labels`, together with the gradient w.r.t. the logits.
///
/// Returns `(loss, grad)` where `grad` has the same shape as `logits` and
/// already includes the `1/rows` averaging factor.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or any label is out of range.
pub fn cross_entropy_with_grad(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    assert_eq!(
        labels.len(),
        logits.rows(),
        "labels length must equal logits rows"
    );
    let probs = softmax_rows(logits);
    let n = logits.rows().max(1) as f32;
    let mut loss = 0.0;
    let mut grad = probs.clone();
    for (r, &label) in labels.iter().enumerate() {
        assert!(
            label < logits.cols(),
            "label {label} out of range for {} classes",
            logits.cols()
        );
        let p = probs[(r, label)].max(1e-12);
        loss -= p.ln();
        grad[(r, label)] -= 1.0;
    }
    grad.map_inplace(|v| v / n);
    (loss / n, grad)
}

/// Classification accuracy of `logits` against integer `labels`.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()`.
pub fn accuracy(logits: &Matrix, labels: &[usize]) -> f64 {
    assert_eq!(labels.len(), logits.rows());
    if labels.is_empty() {
        return 0.0;
    }
    let preds = logits.argmax_rows();
    let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f64 / labels.len() as f64
}

/// Row-normalises `adj + I` symmetrically: `D^{-1/2} (A+I) D^{-1/2}`.
///
/// This is the GCN propagation matrix Â from Kipf & Welling; the FARe
/// aggregation phase multiplies node features by this matrix.
pub fn gcn_normalise(adj: &Matrix) -> Matrix {
    assert_eq!(adj.rows(), adj.cols(), "adjacency must be square");
    let n = adj.rows();
    let mut a_hat = adj.clone();
    for i in 0..n {
        a_hat[(i, i)] += 1.0;
    }
    let deg_inv_sqrt: Vec<f32> = (0..n)
        .map(|i| {
            let d: f32 = a_hat.row(i).iter().sum();
            if d > 0.0 {
                1.0 / d.sqrt()
            } else {
                0.0
            }
        })
        .collect();
    Matrix::from_fn(n, n, |r, c| {
        a_hat[(r, c)] * deg_inv_sqrt[r] * deg_inv_sqrt[c]
    })
}

/// Row-normalises `adj` (mean aggregation): `D^{-1} A`.
///
/// This is the propagation matrix used by the GraphSAGE mean aggregator.
pub fn row_normalise(adj: &Matrix) -> Matrix {
    let mut out = adj.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let d: f32 = row.iter().sum();
        if d > 0.0 {
            for v in row.iter_mut() {
                *v /= d;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_and_grad() {
        let m = Matrix::from_rows(&[&[-2.0, 0.0, 3.0]]);
        assert_eq!(relu(&m).as_slice(), &[0.0, 0.0, 3.0]);
        assert_eq!(relu_grad(&m).as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn elu_continuity_at_zero() {
        let m = Matrix::from_rows(&[&[-1e-5, 1e-5]]);
        let e = elu(&m);
        assert!((e[(0, 0)] - e[(0, 1)]).abs() < 1e-4);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        let s = softmax_rows(&m);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn softmax_handles_huge_logits() {
        let m = Matrix::from_rows(&[&[1e30, 0.0]]);
        let s = softmax_rows(&m);
        assert!((s[(0, 0)] - 1.0).abs() < 1e-6);
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_fully_masked_row_is_zero() {
        let m = Matrix::from_rows(&[&[f32::NEG_INFINITY, f32::NEG_INFINITY]]);
        let s = softmax_rows(&m);
        assert_eq!(s.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn softmax_ignores_masked_entries_bitwise() {
        let inf = f32::NEG_INFINITY;
        let full = softmax_rows(&Matrix::from_rows(&[&[0.3, inf, -1.7, inf, 2.9]]));
        let mut packed = [0.3, -1.7, 2.9];
        softmax_in_place(&mut packed);
        let kept = [full[(0, 0)], full[(0, 2)], full[(0, 4)]];
        assert_eq!(packed.map(f32::to_bits), kept.map(f32::to_bits));
        assert_eq!((full[(0, 1)], full[(0, 3)]), (0.0, 0.0));
    }

    #[test]
    fn cross_entropy_perfect_prediction_low_loss() {
        let logits = Matrix::from_rows(&[&[10.0, -10.0], &[-10.0, 10.0]]);
        let (loss, grad) = cross_entropy_with_grad(&logits, &[0, 1]);
        assert!(loss < 1e-3);
        assert!(grad.frobenius_norm() < 1e-3);
    }

    #[test]
    fn cross_entropy_gradient_direction() {
        let logits = Matrix::from_rows(&[&[0.0, 0.0]]);
        let (loss, grad) = cross_entropy_with_grad(&logits, &[0]);
        assert!((loss - (2.0f32).ln()).abs() < 1e-5);
        // Gradient should push the correct logit up (negative gradient).
        assert!(grad[(0, 0)] < 0.0);
        assert!(grad[(0, 1)] > 0.0);
    }

    #[test]
    fn cross_entropy_grad_matches_finite_difference() {
        let logits = Matrix::from_rows(&[&[0.3, -0.7, 1.1], &[0.0, 0.2, -0.4]]);
        let labels = [2, 1];
        let (_, grad) = cross_entropy_with_grad(&logits, &labels);
        let eps = 1e-3;
        for r in 0..2 {
            for c in 0..3 {
                let mut plus = logits.clone();
                plus[(r, c)] += eps;
                let mut minus = logits.clone();
                minus[(r, c)] -= eps;
                let (lp, _) = cross_entropy_with_grad(&plus, &labels);
                let (lm, _) = cross_entropy_with_grad(&minus, &labels);
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - grad[(r, c)]).abs() < 1e-3,
                    "fd {fd} vs analytic {} at ({r},{c})",
                    grad[(r, c)]
                );
            }
        }
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 0.0]]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn gcn_normalise_symmetric_and_bounded() {
        let adj = Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 1.0], &[0.0, 1.0, 0.0]]);
        let norm = gcn_normalise(&adj);
        for r in 0..3 {
            for c in 0..3 {
                assert!((norm[(r, c)] - norm[(c, r)]).abs() < 1e-6);
                assert!(norm[(r, c)] >= 0.0 && norm[(r, c)] <= 1.0);
            }
        }
        // Self loops present.
        assert!(norm[(0, 0)] > 0.0);
    }

    #[test]
    fn gcn_normalise_isolated_node_is_selfloop_only() {
        let adj = Matrix::zeros(2, 2);
        let norm = gcn_normalise(&adj);
        assert!((norm[(0, 0)] - 1.0).abs() < 1e-6);
        assert_eq!(norm[(0, 1)], 0.0);
    }

    #[test]
    fn row_normalise_rows_sum_to_one_or_zero() {
        let adj = Matrix::from_rows(&[&[0.0, 2.0, 2.0], &[0.0, 0.0, 0.0], &[1.0, 0.0, 0.0]]);
        let norm = row_normalise(&adj);
        assert!((norm.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert_eq!(norm.row(1).iter().sum::<f32>(), 0.0);
        assert!((norm.row(2).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }
}

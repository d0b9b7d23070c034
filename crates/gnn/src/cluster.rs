//! Graph clustering on GNN embeddings.
//!
//! The third edge application the paper's introduction motivates. An
//! encoder trained with the link-prediction objective places nodes of
//! the same community close together; [`kmeans`] then recovers the
//! communities and [`purity`] / [`nmi`] score them against ground truth.

use fare_rt::rand::Rng;
use fare_tensor::Matrix;

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    /// Per-point cluster assignment in `0..k`.
    pub assignment: Vec<usize>,
    /// Cluster centroids, `k × dim`.
    pub centroids: Matrix,
    /// Final within-cluster sum of squares.
    pub inertia: f64,
    /// Iterations executed.
    pub iterations: usize,
}

fn sq_dist(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum()
}

/// Lloyd's k-means with k-means++ seeding.
///
/// Deterministic for a given `rng` state; runs until assignments are
/// stable or `max_iters` is reached.
///
/// # Panics
///
/// Panics if `k == 0` or `k > points.rows()`.
///
/// # Example
///
/// ```
/// use fare_gnn::cluster::kmeans;
/// use fare_tensor::Matrix;
/// use fare_rt::rand::SeedableRng;
/// let pts = Matrix::from_rows(&[&[0.0, 0.0], &[0.1, 0.0], &[5.0, 5.0], &[5.1, 5.0]]);
/// let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(1);
/// let km = kmeans(&pts, 2, 50, &mut rng);
/// assert_eq!(km.assignment[0], km.assignment[1]);
/// assert_eq!(km.assignment[2], km.assignment[3]);
/// assert_ne!(km.assignment[0], km.assignment[2]);
/// ```
pub fn kmeans(points: &Matrix, k: usize, max_iters: usize, rng: &mut impl Rng) -> KMeans {
    let n = points.rows();
    let dim = points.cols();
    assert!(k > 0, "k must be positive");
    assert!(k <= n, "k = {k} exceeds {n} points");

    // k-means++ seeding.
    let mut centroids = Matrix::zeros(k, dim);
    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(points.row(first));
    let mut min_d: Vec<f64> = (0..n)
        .map(|i| sq_dist(points.row(i), centroids.row(0)))
        .collect();
    for c in 1..k {
        let total: f64 = min_d.iter().sum();
        let next = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut pick = n - 1;
            for (i, &d) in min_d.iter().enumerate() {
                if target < d {
                    pick = i;
                    break;
                }
                target -= d;
            }
            pick
        };
        centroids.row_mut(c).copy_from_slice(points.row(next));
        for (i, d) in min_d.iter_mut().enumerate() {
            *d = d.min(sq_dist(points.row(i), centroids.row(c)));
        }
    }

    // Lloyd iterations.
    let mut assignment = vec![0usize; n];
    let mut iterations = 0;
    for iter in 0..max_iters {
        iterations = iter + 1;
        let mut changed = false;
        for (i, slot) in assignment.iter_mut().enumerate() {
            let best = (0..k)
                .min_by(|&a, &b| {
                    sq_dist(points.row(i), centroids.row(a))
                        .partial_cmp(&sq_dist(points.row(i), centroids.row(b)))
                        .expect("distances are finite")
                })
                .expect("k > 0");
            if best != *slot {
                *slot = best;
                changed = true;
            }
        }
        // Recompute centroids; empty clusters keep their previous centre.
        let mut sums = Matrix::zeros(k, dim);
        let mut counts = vec![0usize; k];
        for i in 0..n {
            counts[assignment[i]] += 1;
            for d in 0..dim {
                sums[(assignment[i], d)] += points[(i, d)];
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for d in 0..dim {
                    centroids[(c, d)] = sums[(c, d)] / counts[c] as f32;
                }
            }
        }
        if !changed && iter > 0 {
            break;
        }
    }
    let inertia = (0..n)
        .map(|i| sq_dist(points.row(i), centroids.row(assignment[i])))
        .sum();
    KMeans {
        assignment,
        centroids,
        inertia,
        iterations,
    }
}

/// Clustering purity: each cluster votes for its majority ground-truth
/// class; purity is the fraction of correctly covered points.
///
/// 1.0 means clusters align perfectly with classes; `1/k` is chance.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn purity(assignment: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(assignment.len(), labels.len(), "length mismatch");
    assert!(!assignment.is_empty(), "empty clustering");
    let k = assignment.iter().max().unwrap() + 1;
    let classes = labels.iter().max().unwrap() + 1;
    let mut counts = vec![vec![0usize; classes]; k];
    for (&a, &l) in assignment.iter().zip(labels) {
        counts[a][l] += 1;
    }
    let covered: usize = counts
        .iter()
        .map(|row| row.iter().max().copied().unwrap_or(0))
        .sum();
    covered as f64 / assignment.len() as f64
}

/// Normalised mutual information between a clustering and ground-truth
/// labels, in `[0, 1]`.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn nmi(assignment: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(assignment.len(), labels.len(), "length mismatch");
    assert!(!assignment.is_empty(), "empty clustering");
    let n = assignment.len() as f64;
    let k = assignment.iter().max().unwrap() + 1;
    let classes = labels.iter().max().unwrap() + 1;
    let mut joint = vec![vec![0.0f64; classes]; k];
    let mut pa = vec![0.0f64; k];
    let mut pl = vec![0.0f64; classes];
    for (&a, &l) in assignment.iter().zip(labels) {
        joint[a][l] += 1.0;
        pa[a] += 1.0;
        pl[l] += 1.0;
    }
    let mut mi = 0.0;
    for a in 0..k {
        for l in 0..classes {
            if joint[a][l] > 0.0 {
                mi += (joint[a][l] / n) * ((n * joint[a][l]) / (pa[a] * pl[l])).ln();
            }
        }
    }
    let entropy = |p: &[f64]| -> f64 {
        p.iter()
            .filter(|&&x| x > 0.0)
            .map(|&x| -(x / n) * (x / n).ln())
            .sum()
    };
    let ha = entropy(&pa);
    let hl = entropy(&pl);
    if ha <= 0.0 || hl <= 0.0 {
        // One side is a single cluster/class: NMI degenerates.
        return if mi > 0.0 { 1.0 } else { 0.0 };
    }
    (mi / (ha * hl).sqrt()).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::SeedableRng;

    use super::*;

    fn blobs(per: usize, centers: &[(f32, f32)], spread: f32, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = per * centers.len();
        let mut pts = Matrix::zeros(n, 2);
        let mut labels = Vec::with_capacity(n);
        for (ci, &(cx, cy)) in centers.iter().enumerate() {
            for i in 0..per {
                let r = ci * per + i;
                pts[(r, 0)] = cx + rng.gen_range(-spread..spread);
                pts[(r, 1)] = cy + rng.gen_range(-spread..spread);
                labels.push(ci);
            }
        }
        (pts, labels)
    }

    #[test]
    fn kmeans_recovers_separated_blobs() {
        let (pts, labels) = blobs(20, &[(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], 0.5, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let km = kmeans(&pts, 3, 100, &mut rng);
        assert_eq!(purity(&km.assignment, &labels), 1.0);
        assert!(nmi(&km.assignment, &labels) > 0.99);
    }

    #[test]
    fn kmeans_inertia_decreases_with_k() {
        let (pts, _) = blobs(
            15,
            &[(0.0, 0.0), (8.0, 0.0), (0.0, 8.0), (8.0, 8.0)],
            1.0,
            3,
        );
        let mut i1 = f64::INFINITY;
        for k in [1usize, 2, 4] {
            let mut rng = StdRng::seed_from_u64(4);
            let km = kmeans(&pts, k, 100, &mut rng);
            assert!(km.inertia <= i1 + 1e-9, "inertia grew at k={k}");
            i1 = km.inertia;
        }
    }

    #[test]
    fn kmeans_k_equals_n_is_exact() {
        let (pts, _) = blobs(2, &[(0.0, 0.0), (5.0, 5.0)], 0.1, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let km = kmeans(&pts, 4, 50, &mut rng);
        assert!(km.inertia < 1e-6);
    }

    #[test]
    fn purity_chance_and_perfect() {
        assert_eq!(purity(&[0, 0, 1, 1], &[0, 0, 1, 1]), 1.0);
        assert_eq!(purity(&[0, 1, 0, 1], &[0, 0, 1, 1]), 0.5);
        // Merging everything into one cluster gives majority-class purity.
        assert_eq!(purity(&[0, 0, 0, 0], &[0, 0, 1, 1]), 0.5);
    }

    #[test]
    fn nmi_extremes() {
        assert!(nmi(&[0, 0, 1, 1], &[0, 0, 1, 1]) > 0.99);
        // Independent assignment: zero information.
        let a = [0usize, 1, 0, 1];
        let l = [0usize, 0, 1, 1];
        assert!(nmi(&a, &l) < 0.01);
    }

    #[test]
    fn nmi_invariant_to_cluster_relabeling() {
        let labels = [0usize, 0, 1, 1, 2, 2];
        let a = [2usize, 2, 0, 0, 1, 1];
        assert!(nmi(&a, &labels) > 0.99);
    }

    #[test]
    #[should_panic(expected = "k = 5 exceeds")]
    fn kmeans_rejects_k_above_n() {
        let pts = Matrix::zeros(3, 2);
        kmeans(&pts, 5, 10, &mut StdRng::seed_from_u64(0));
    }
}

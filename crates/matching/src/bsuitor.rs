//! The b-Suitor algorithm for approximate weighted b-matching.
//!
//! Khan et al., *Efficient Approximation Algorithms for Weighted
//! b-Matching* (SIAM J. Sci. Comput., 2016) — the solver the FARe paper
//! uses for its bipartite matchings. Every vertex `v` may be matched to at
//! most `b(v)` neighbours; the algorithm lets vertices "propose" to their
//! heaviest eligible neighbours and guarantees at least half the optimal
//! weight.
//!
//! For FARe both matchings are one-to-one (`b ≡ 1`) *minimum-cost*
//! problems, so [`bsuitor_assignment`] converts costs to weights
//! (`w = max_cost − cost`) and greedily completes any rows the
//! ½-approximation leaves unmatched.

use std::collections::BinaryHeap;

use crate::{Assignment, CostMatrix};

/// An undirected weighted edge between vertices `u` and `v`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// First endpoint.
    pub u: usize,
    /// Second endpoint.
    pub v: usize,
    /// Non-negative weight to be maximised.
    pub weight: f64,
}

fare_rt::json_struct!(Edge { u, v, weight });

impl Edge {
    /// Creates a new edge.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or non-finite, or `u == v`.
    pub fn new(u: usize, v: usize, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "invalid edge weight {weight}"
        );
        assert_ne!(u, v, "self loops are not allowed in a matching");
        Self { u, v, weight }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Proposal {
    weight: f64,
    from: usize,
    // Tie-break on the proposing vertex id to keep the algorithm
    // deterministic.
}

impl Eq for Proposal {}

impl Ord for Proposal {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.weight
            .partial_cmp(&other.weight)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.from.cmp(&self.from))
    }
}

impl PartialOrd for Proposal {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Suitor state of one vertex: a min-heap of its current suitors, capped
/// at `b`.
#[derive(Debug, Clone, Default)]
struct SuitorSet {
    b: usize,
    // BinaryHeap is a max-heap; store reversed proposals so the *worst*
    // current suitor is at the top.
    heap: BinaryHeap<std::cmp::Reverse<Proposal>>,
}

impl SuitorSet {
    fn new(b: usize) -> Self {
        Self {
            b,
            heap: BinaryHeap::new(),
        }
    }

    /// Weight a new proposal has to beat to displace the weakest suitor.
    fn threshold(&self) -> Option<Proposal> {
        if self.heap.len() < self.b {
            None
        } else {
            self.heap.peek().map(|r| r.0)
        }
    }

    /// Accepts a proposal, returning the displaced suitor if the set was
    /// full.
    fn accept(&mut self, p: Proposal) -> Option<Proposal> {
        if self.heap.len() < self.b {
            self.heap.push(std::cmp::Reverse(p));
            None
        } else {
            let evicted = self.heap.pop().map(|r| r.0);
            self.heap.push(std::cmp::Reverse(p));
            evicted
        }
    }

    fn contains(&self, from: usize) -> bool {
        self.heap.iter().any(|r| r.0.from == from)
    }
}

/// Runs b-Suitor on an undirected weighted graph with `n` vertices.
///
/// `b[v]` bounds the number of matches vertex `v` may take. Returns the
/// matched edge set; its total weight is at least half the optimum.
///
/// # Panics
///
/// Panics if `b.len() != n` or any edge endpoint is `>= n`.
///
/// # Example
///
/// ```
/// use fare_matching::{bsuitor_matching, Edge};
/// let edges = vec![
///     Edge::new(0, 1, 10.0),
///     Edge::new(1, 2, 1.0),
///     Edge::new(2, 3, 10.0),
/// ];
/// let matched = bsuitor_matching(4, &edges, &[1, 1, 1, 1]);
/// let total: f64 = matched.iter().map(|e| e.weight).sum();
/// assert_eq!(total, 20.0);
/// ```
pub fn bsuitor_matching(n: usize, edges: &[Edge], b: &[usize]) -> Vec<Edge> {
    assert_eq!(b.len(), n, "b vector must have one entry per vertex");
    // Adjacency lists sorted by descending weight so each vertex proposes
    // to its best remaining neighbour first.
    let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for e in edges {
        assert!(e.u < n && e.v < n, "edge endpoint out of range");
        adj[e.u].push((e.v, e.weight));
        adj[e.v].push((e.u, e.weight));
    }
    for list in &mut adj {
        list.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
    }

    let mut suitors: Vec<SuitorSet> = b.iter().map(|&bi| SuitorSet::new(bi)).collect();
    // next[v] = index into adj[v] of the next neighbour v will propose to.
    let mut next = vec![0usize; n];
    // How many proposals of v are currently accepted somewhere.
    let mut accepted = vec![0usize; n];

    let mut stack: Vec<usize> = (0..n).collect();
    while let Some(u) = stack.pop() {
        while accepted[u] < b[u] && next[u] < adj[u].len() {
            let (v, w) = adj[u][next[u]];
            next[u] += 1;
            if suitors[v].contains(u) {
                continue;
            }
            let beats = match suitors[v].threshold() {
                None => true,
                Some(t) => {
                    let cand = Proposal { weight: w, from: u };
                    cand > t
                }
            };
            if !beats {
                continue;
            }
            let evicted = suitors[v].accept(Proposal { weight: w, from: u });
            accepted[u] += 1;
            if let Some(out) = evicted {
                accepted[out.from] -= 1;
                // The displaced vertex resumes proposing.
                stack.push(out.from);
            }
        }
    }

    // Extract the matching: u is matched to v iff u is a suitor of v.
    // Each unordered pair appears once because proposals are directed; we
    // emit the pair from the suitor side and dedupe mutual proposals.
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (v, suitor_set) in suitors.iter().enumerate() {
        for r in suitor_set.heap.iter() {
            let u = r.0.from;
            let key = (u.min(v), u.max(v));
            if seen.insert(key) {
                out.push(Edge {
                    u: key.0,
                    v: key.1,
                    weight: r.0.weight,
                });
            }
        }
    }
    out
}

/// Approximate min-cost assignment built on b-Suitor.
///
/// Converts the cost matrix into a bipartite weight-maximisation instance
/// (`w(r, c) = max_cost − cost(r, c)`), runs [`bsuitor_matching`] with
/// `b ≡ 1`, then greedily completes any rows the ½-approximation left
/// unmatched so the result is always a full (valid) assignment.
///
/// # Panics
///
/// Panics if `cost.rows() > cost.cols()`.
pub fn bsuitor_assignment(cost: &CostMatrix) -> Assignment {
    let n = cost.rows();
    let m = cost.cols();
    assert!(
        n <= m,
        "bsuitor_assignment requires rows <= cols, got {n}x{m}"
    );
    let max_cost = cost.max_cost();
    // Row r is vertex r; column c is vertex n + c.
    let mut edges = Vec::with_capacity(n * m);
    for r in 0..n {
        for c in 0..m {
            let w = max_cost - cost.get(r, c);
            // A tiny uniform offset keeps zero-weight (worst-cost) edges
            // proposable so every row can be matched.
            edges.push(Edge::new(r, n + c, w + 1e-9));
        }
    }
    let b = vec![1usize; n + m];
    let matched = bsuitor_matching(n + m, &edges, &b);

    let mut assignment: Vec<Option<usize>> = vec![None; n];
    let mut used = vec![false; m];
    for e in &matched {
        let (row, col) = if e.u < n {
            (e.u, e.v - n)
        } else {
            (e.v, e.u - n)
        };
        assignment[row] = Some(col);
        used[col] = true;
    }
    // Greedy completion for unmatched rows (rare).
    for (r, slot) in assignment.iter_mut().enumerate() {
        if slot.is_some() {
            continue;
        }
        let mut best: Option<(usize, f64)> = None;
        for (c, &taken) in used.iter().enumerate() {
            if taken {
                continue;
            }
            let v = cost.get(r, c);
            if best.is_none_or(|(_, bv)| v < bv) {
                best = Some((c, v));
            }
        }
        let (c, _) = best.expect("columns exhausted; rows <= cols guarantees a free column");
        *slot = Some(c);
        used[c] = true;
    }
    let total_cost = assignment
        .iter()
        .enumerate()
        .map(|(r, c)| cost.get(r, c.expect("all rows assigned")))
        .sum();
    Assignment {
        assignment,
        total_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hungarian;

    #[test]
    fn simple_path_graph_matches_heavy_edges() {
        let edges = vec![
            Edge::new(0, 1, 10.0),
            Edge::new(1, 2, 1.0),
            Edge::new(2, 3, 10.0),
        ];
        let m = bsuitor_matching(4, &edges, &[1, 1, 1, 1]);
        let total: f64 = m.iter().map(|e| e.weight).sum();
        assert_eq!(total, 20.0);
    }

    #[test]
    fn b_two_allows_two_matches_per_vertex() {
        let edges = vec![
            Edge::new(0, 1, 5.0),
            Edge::new(0, 2, 4.0),
            Edge::new(0, 3, 3.0),
        ];
        let m = bsuitor_matching(4, &edges, &[2, 1, 1, 1]);
        let total: f64 = m.iter().map(|e| e.weight).sum();
        // Vertex 0 can take its two best edges.
        assert_eq!(total, 9.0);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn matching_respects_degree_bounds() {
        use fare_rt::rand::{Rng, SeedableRng};
        let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(5);
        let n = 20;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(0.3) {
                    edges.push(Edge::new(u, v, rng.gen_range(0.0..10.0)));
                }
            }
        }
        let b: Vec<usize> = (0..n).map(|i| 1 + i % 3).collect();
        let m = bsuitor_matching(n, &edges, &b);
        let mut deg = vec![0usize; n];
        for e in &m {
            deg[e.u] += 1;
            deg[e.v] += 1;
        }
        for (v, &d) in deg.iter().enumerate() {
            assert!(d <= b[v], "vertex {v} over-matched: {d} > {}", b[v]);
        }
    }

    #[test]
    fn half_approximation_guarantee_on_random_bipartite() {
        use fare_rt::rand::{Rng, SeedableRng};
        let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let n = rng.gen_range(2..=6);
            let cost = CostMatrix::from_fn(n, n, |_, _| rng.gen_range(0.0..10.0f64).round());
            let approx = bsuitor_assignment(&cost);
            let exact = hungarian(&cost);
            assert!(approx.is_valid());
            assert_eq!(approx.matched_count(), n);
            // In weight space (max_cost - cost) the approximation is >= 1/2
            // of the optimum.
            let max_cost = cost.max_cost();
            let w_approx = n as f64 * max_cost - approx.total_cost;
            let w_exact = n as f64 * max_cost - exact.total_cost;
            assert!(
                w_approx >= 0.5 * w_exact - 1e-6,
                "approx weight {w_approx} < half of exact {w_exact}"
            );
        }
    }

    #[test]
    fn assignment_on_uniform_costs_is_complete() {
        let cost = CostMatrix::from_fn(5, 5, |_, _| 3.0);
        let sol = bsuitor_assignment(&cost);
        assert!(sol.is_valid());
        assert_eq!(sol.matched_count(), 5);
        assert_eq!(sol.total_cost, 15.0);
    }

    #[test]
    fn rectangular_assignment_is_complete() {
        let cost = CostMatrix::from_fn(3, 7, |r, c| ((r * 7 + c) % 5) as f64);
        let sol = bsuitor_assignment(&cost);
        assert!(sol.is_valid());
        assert_eq!(sol.matched_count(), 3);
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn edge_rejects_self_loop() {
        Edge::new(3, 3, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid edge weight")]
    fn edge_rejects_negative_weight() {
        Edge::new(0, 1, -1.0);
    }
}

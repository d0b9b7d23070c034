//! Seeded synthetic graph generators.
//!
//! Stand-ins for the paper's public datasets (see DESIGN.md §1). The key
//! generator is the [`sbm`] stochastic block model: communities give the
//! partitioned adjacency matrix the block-density structure FARe's
//! mapping algorithm exploits, and community ids double as learnable node
//! labels. A [`power_law`] overlay adds the heavy-tailed degree
//! distribution of social/citation graphs such as Reddit and
//! Ogbl-citation2.

use fare_rt::rand::Rng;

use crate::CsrGraph;

/// Erdős–Rényi `G(n, p)` random graph.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
pub fn erdos_renyi(n: usize, p: f64, rng: &mut impl Rng) -> CsrGraph {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                edges.push((u, v));
            }
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Stochastic block model with `communities` equal-sized blocks.
///
/// A pair inside the same block is connected with probability `p_in`;
/// across blocks with `p_out`. Returns the graph and the per-node
/// community id (usable directly as a classification label).
///
/// # Panics
///
/// Panics if `communities == 0` or a probability is outside `[0, 1]`.
///
/// # Example
///
/// ```
/// use fare_graph::generate::sbm;
/// use fare_rt::rand::SeedableRng;
/// let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(3);
/// let (g, labels) = sbm(60, 3, 0.3, 0.01, &mut rng);
/// assert_eq!(g.num_nodes(), 60);
/// assert_eq!(labels.iter().filter(|&&c| c == 0).count(), 20);
/// ```
pub fn sbm(
    n: usize,
    communities: usize,
    p_in: f64,
    p_out: f64,
    rng: &mut impl Rng,
) -> (CsrGraph, Vec<usize>) {
    assert!(communities > 0, "need at least one community");
    assert!((0.0..=1.0).contains(&p_in), "p_in out of range");
    assert!((0.0..=1.0).contains(&p_out), "p_out out of range");
    let labels: Vec<usize> = (0..n).map(|i| i * communities / n.max(1)).collect();
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let p = if labels[u] == labels[v] { p_in } else { p_out };
            if p > 0.0 && rng.gen_bool(p) {
                edges.push((u, v));
            }
        }
    }
    (CsrGraph::from_edges(n, &edges), labels)
}

/// Barabási–Albert-style preferential-attachment graph.
///
/// Each new node attaches to `m` existing nodes chosen proportionally to
/// degree, producing a power-law degree distribution.
///
/// # Panics
///
/// Panics if `m == 0` or `n <= m`.
pub fn power_law(n: usize, m: usize, rng: &mut impl Rng) -> CsrGraph {
    assert!(m > 0, "m must be positive");
    assert!(n > m, "need n > m, got n={n}, m={m}");
    let mut edges: Vec<(usize, usize)> = Vec::new();
    // Repeated-endpoint list: sampling uniformly from it is
    // degree-proportional sampling.
    let mut endpoints: Vec<usize> = Vec::new();
    // Seed clique over the first m+1 nodes.
    for u in 0..=m {
        for v in (u + 1)..=m {
            edges.push((u, v));
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for u in (m + 1)..n {
        let mut chosen = std::collections::BTreeSet::new();
        let mut guard = 0;
        while chosen.len() < m && guard < 50 * m {
            let pick = endpoints[rng.gen_range(0..endpoints.len())];
            if pick != u {
                chosen.insert(pick);
            }
            guard += 1;
        }
        for &v in &chosen {
            edges.push((u, v));
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// R-MAT (recursive matrix) generator — the standard graph-processing
/// benchmark generator (Graph500 uses it), producing skewed,
/// community-free graphs with heavy-tailed degrees.
///
/// Each of the `edges` samples recursively picks one of the four
/// quadrants of the adjacency matrix with probabilities
/// `(a, b, c, 1−a−b−c)` until a single cell remains. `scale` sets the
/// node count to `2^scale`. Duplicate edges and self loops are dropped,
/// so the realised edge count can be lower than requested.
///
/// # Panics
///
/// Panics if the probabilities are invalid (negative or summing above 1)
/// or `scale == 0`.
///
/// # Example
///
/// ```
/// use fare_graph::generate::rmat;
/// use fare_rt::rand::SeedableRng;
/// let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(1);
/// let g = rmat(8, 1024, 0.57, 0.19, 0.19, &mut rng); // Graph500 params
/// assert_eq!(g.num_nodes(), 256);
/// assert!(g.num_edges() > 300);
/// ```
pub fn rmat(scale: u32, edges: usize, a: f64, b: f64, c: f64, rng: &mut impl Rng) -> CsrGraph {
    assert!(scale > 0, "scale must be positive");
    assert!(
        a >= 0.0 && b >= 0.0 && c >= 0.0 && a + b + c <= 1.0,
        "invalid R-MAT probabilities a={a} b={b} c={c}"
    );
    let n = 1usize << scale;
    let mut list = Vec::with_capacity(edges);
    for _ in 0..edges {
        let (mut r0, mut r1, mut c0, mut c1) = (0usize, n, 0usize, n);
        while r1 - r0 > 1 {
            let rm = (r0 + r1) / 2;
            let cm = (c0 + c1) / 2;
            let p: f64 = rng.gen();
            if p < a {
                r1 = rm;
                c1 = cm;
            } else if p < a + b {
                r1 = rm;
                c0 = cm;
            } else if p < a + b + c {
                r0 = rm;
                c1 = cm;
            } else {
                r0 = rm;
                c0 = cm;
            }
        }
        if r0 != c0 {
            list.push((r0, c0));
        }
    }
    CsrGraph::from_edges(n, &list)
}

/// SBM with a power-law overlay: community structure *and* heavy-tailed
/// degrees, mimicking social/citation graphs.
///
/// `hub_fraction` of extra preferential edges are added on top of the SBM
/// baseline.
///
/// # Panics
///
/// Panics on the same conditions as [`sbm`].
pub fn sbm_power_law(
    n: usize,
    communities: usize,
    p_in: f64,
    p_out: f64,
    hub_fraction: f64,
    rng: &mut impl Rng,
) -> (CsrGraph, Vec<usize>) {
    let (base, labels) = sbm(n, communities, p_in, p_out, rng);
    let extra = ((n as f64) * hub_fraction) as usize;
    let mut edges: Vec<(usize, usize)> = base.edges().collect();
    if extra > 0 && n > 2 {
        // Degree-proportional endpoint pool from the SBM edges.
        let mut endpoints: Vec<usize> = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in &edges {
            endpoints.push(u);
            endpoints.push(v);
        }
        if endpoints.is_empty() {
            endpoints.extend(0..n);
        }
        for _ in 0..extra {
            let hub = endpoints[rng.gen_range(0..endpoints.len())];
            let other = rng.gen_range(0..n);
            if hub != other {
                edges.push((hub.min(other), hub.max(other)));
                endpoints.push(hub);
                endpoints.push(other);
            }
        }
    }
    (CsrGraph::from_edges(n, &edges), labels)
}

#[cfg(test)]
mod tests {
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::SeedableRng;

    use super::*;

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(erdos_renyi(10, 0.0, &mut rng).num_edges(), 0);
        assert_eq!(erdos_renyi(10, 1.0, &mut rng).num_edges(), 45);
    }

    #[test]
    fn erdos_renyi_edge_count_near_expectation() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = erdos_renyi(100, 0.1, &mut rng);
        let expected = 0.1 * (100.0 * 99.0 / 2.0);
        assert!((g.num_edges() as f64 - expected).abs() < expected * 0.3);
    }

    #[test]
    fn sbm_community_sizes_balanced() {
        let mut rng = StdRng::seed_from_u64(2);
        let (_, labels) = sbm(90, 3, 0.2, 0.01, &mut rng);
        for c in 0..3 {
            assert_eq!(labels.iter().filter(|&&l| l == c).count(), 30);
        }
    }

    #[test]
    fn sbm_intra_density_exceeds_inter() {
        let mut rng = StdRng::seed_from_u64(3);
        let (g, labels) = sbm(120, 4, 0.3, 0.02, &mut rng);
        let mut intra = 0usize;
        let mut inter = 0usize;
        for (u, v) in g.edges() {
            if labels[u] == labels[v] {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        // 0.3 vs 0.02 with 4 communities: intra edges should dominate
        // per-pair density by a wide margin.
        let intra_pairs = 4.0 * (30.0 * 29.0 / 2.0);
        let inter_pairs = (120.0 * 119.0 / 2.0) - intra_pairs;
        assert!(intra as f64 / intra_pairs > 4.0 * (inter as f64 / inter_pairs));
    }

    #[test]
    fn power_law_has_hubs() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = power_law(300, 2, &mut rng);
        // Preferential attachment should create at least one node with
        // degree far above the mean (~4).
        assert!(g.max_degree() as f64 > 3.0 * g.average_degree());
    }

    #[test]
    fn power_law_connected() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = power_law(100, 3, &mut rng);
        let (_, count) = g.connected_components();
        assert_eq!(count, 1);
    }

    #[test]
    fn sbm_power_law_preserves_labels_and_adds_edges() {
        let mut rng1 = StdRng::seed_from_u64(6);
        let mut rng2 = StdRng::seed_from_u64(6);
        let (base, labels1) = sbm(80, 4, 0.2, 0.01, &mut rng1);
        let (overlay, labels2) = sbm_power_law(80, 4, 0.2, 0.01, 2.0, &mut rng2);
        assert_eq!(labels1, labels2);
        assert!(overlay.num_edges() >= base.num_edges());
    }

    #[test]
    fn rmat_shape_and_skew() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = rmat(8, 2048, 0.57, 0.19, 0.19, &mut rng);
        assert_eq!(g.num_nodes(), 256);
        assert!(g.num_edges() > 500, "too few edges: {}", g.num_edges());
        // Graph500 parameters concentrate edges in low-id quadrants:
        // heavy-tailed degrees.
        let (max, mean) = (g.max_degree(), g.average_degree());
        assert!(max as f64 > 4.0 * mean, "no skew: max {max} mean {mean}");
    }

    #[test]
    fn rmat_uniform_parameters_are_unskewed() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = rmat(8, 2048, 0.25, 0.25, 0.25, &mut rng);
        // a=b=c=d=0.25 is Erdős–Rényi-like: modest max degree.
        assert!((g.max_degree() as f64) < 4.0 * g.average_degree() + 6.0);
    }

    #[test]
    #[should_panic(expected = "invalid R-MAT probabilities")]
    fn rmat_rejects_bad_probs() {
        rmat(4, 10, 0.6, 0.3, 0.3, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn generators_deterministic_from_seed() {
        let g1 = power_law(50, 2, &mut StdRng::seed_from_u64(7));
        let g2 = power_law(50, 2, &mut StdRng::seed_from_u64(7));
        assert_eq!(g1, g2);
    }

    #[test]
    #[should_panic(expected = "p must be in [0,1]")]
    fn erdos_renyi_rejects_bad_p() {
        erdos_renyi(5, 1.5, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    #[should_panic(expected = "need n > m")]
    fn power_law_rejects_small_n() {
        power_law(3, 3, &mut StdRng::seed_from_u64(0));
    }
}

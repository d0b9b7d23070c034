//! Multilevel graph partitioning (METIS substitute).
//!
//! The paper partitions each dataset into hundreds/thousands of clusters
//! with METIS before mini-batch training. This module implements the same
//! multilevel scheme METIS popularised:
//!
//! 1. **Coarsen** — repeated heavy-edge matching contracts the graph
//!    until it is small.
//! 2. **Initial partition** — greedy region growing over the coarsest
//!    graph, balancing node weight.
//! 3. **Uncoarsen + refine** — project the partition back up, applying
//!    boundary Kernighan–Lin-style moves at every level.
//!
//! Quality matters only in so far as clusters must be denser inside than
//! across (which drives the block-density statistics of the batched
//! adjacency matrices), and that is exactly what edge-cut minimisation
//! produces.

use fare_rt::rand::seq::SliceRandom;
use fare_rt::rand::Rng;

use crate::CsrGraph;

#[cfg(test)]
mod reference;

/// Assignment of every node to one of `num_parts` clusters.
#[derive(Debug, Clone)]
pub struct Partitioning {
    assignment: Vec<usize>,
    num_parts: usize,
}

impl Partitioning {
    /// Creates a partitioning from a raw assignment vector.
    ///
    /// # Panics
    ///
    /// Panics if any part id is `>= num_parts`.
    pub fn new(assignment: Vec<usize>, num_parts: usize) -> Self {
        assert!(
            assignment.iter().all(|&p| p < num_parts),
            "part id out of range"
        );
        Self {
            assignment,
            num_parts,
        }
    }

    /// Part id of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn part_of(&self, u: usize) -> usize {
        self.assignment[u]
    }

    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Per-node assignment slice.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Sizes of all parts.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_parts];
        for &p in &self.assignment {
            sizes[p] += 1;
        }
        sizes
    }

    /// Number of edges crossing between parts.
    ///
    /// # Panics
    ///
    /// Panics if `graph` has a different node count.
    pub fn edge_cut(&self, graph: &CsrGraph) -> usize {
        assert_eq!(graph.num_nodes(), self.assignment.len());
        edge_cut(graph, &self.assignment)
    }

    /// Ratio of the largest part to the ideal size (1.0 = perfectly
    /// balanced).
    pub fn imbalance(&self) -> f64 {
        let sizes = self.sizes();
        let max = *sizes.iter().max().unwrap_or(&0) as f64;
        let ideal = self.assignment.len() as f64 / self.num_parts.max(1) as f64;
        if ideal == 0.0 {
            1.0
        } else {
            max / ideal
        }
    }
}

/// Weighted graph used internally during coarsening, in CSR form: node
/// `u`'s neighbours are `neighbors[offsets[u]..offsets[u + 1]]`,
/// strictly ascending, with the matching edge weights alongside. It is
/// symmetric and loop-free, as the [`CsrGraph`] it starts from.
///
/// Weights are integers: an edge weight counts the fine edges a coarse
/// edge contracts and a node weight the fine nodes a coarse node holds.
/// Every sum of them is at most the fine graph's edge or node count, so
/// `u32` holds it exactly, and comparisons against the `f64` balance
/// thresholds convert an exact integer.
#[derive(Debug)]
struct WeightedGraph {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
    weights: Vec<u32>,
    node_weight: Vec<u32>,
}

/// Buffers the levels of one [`partition`] call share, so each level
/// allocates only the graph and node map it returns.
#[derive(Default)]
struct Scratch {
    order: Vec<usize>,
    members: Vec<(usize, usize)>,
    /// Per coarse neighbour: the edge weight summed so far.
    acc: Vec<u32>,
    /// Coarse rows in first-touch order, before the transpose sorts them.
    cols: Vec<u32>,
    weights: Vec<u32>,
    cursor: Vec<usize>,
    /// Per part: the current node's connectivity to it.
    conn: Vec<u32>,
    touched: Vec<usize>,
    part_weight: Vec<u64>,
    queue: Vec<usize>,
    queued: Vec<usize>,
}

impl WeightedGraph {
    fn from_csr(g: &CsrGraph) -> Self {
        let n = g.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(2 * g.num_edges());
        offsets.push(0);
        for u in 0..n {
            neighbors.extend(g.neighbors(u).iter().map(|&v| v as u32));
            offsets.push(neighbors.len());
        }
        assert!(
            u32::try_from(neighbors.len()).is_ok(),
            "graph too large to partition"
        );
        Self {
            offsets,
            weights: vec![1; neighbors.len()],
            neighbors,
            node_weight: vec![1; n],
        }
    }

    fn num_nodes(&self) -> usize {
        self.node_weight.len()
    }

    fn total_weight(&self) -> u64 {
        self.node_weight.iter().map(|&w| w as u64).sum()
    }

    /// `(neighbour, edge weight)` pairs of `u`, ascending by neighbour.
    fn adj(&self, u: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        let span = self.offsets[u]..self.offsets[u + 1];
        self.neighbors[span.clone()]
            .iter()
            .map(|&v| v as usize)
            .zip(self.weights[span].iter().copied())
    }

    /// Heavy-edge matching coarsening. Returns the coarse graph and the
    /// fine→coarse node map.
    fn coarsen(&self, rng: &mut impl Rng, s: &mut Scratch) -> (WeightedGraph, Vec<usize>) {
        let n = self.num_nodes();
        s.order.clear();
        s.order.extend(0..n);
        s.order.shuffle(rng);
        let mut matched = vec![usize::MAX; n];
        // The one or two fine nodes each coarse node contracts.
        s.members.clear();
        for &u in &s.order {
            if matched[u] != usize::MAX {
                continue;
            }
            // Match u with its heaviest unmatched neighbour, the first on
            // ties. Weights are positive, so 0 means "none yet".
            let (mut best, mut best_w) = (usize::MAX, 0);
            for (v, w) in self.adj(u) {
                let take = matched[v] == usize::MAX && w > best_w;
                best = if take { v } else { best };
                best_w = if take { w } else { best_w };
            }
            let c = s.members.len();
            matched[u] = c;
            if best != usize::MAX {
                matched[best] = c;
            }
            s.members.push((u, best));
        }
        // Each coarse node's edges are the fine edges leaving its members,
        // summed per coarse neighbour in a dense accumulator and listed
        // in first-touch order.
        let coarse_count = s.members.len();
        s.acc.clear();
        s.acc.resize(coarse_count, 0);
        // A coarse row lists at most the fine edges it contracts; one
        // spare slot takes the write past a full buffer's last entry.
        s.cols.clear();
        s.cols.resize(self.neighbors.len() + 1, 0);
        s.weights.clear();
        let mut offsets = Vec::with_capacity(coarse_count + 1);
        offsets.push(0);
        let mut node_weight = Vec::with_capacity(coarse_count);
        let mut end = 0;
        for (c, &(a, b)) in s.members.iter().enumerate() {
            let mut weight = 0;
            for u in [a, b].into_iter().filter(|&u| u != usize::MAX) {
                weight += self.node_weight[u];
                for (v, w) in self.adj(u) {
                    let cv = matched[v];
                    if cv == c {
                        continue;
                    }
                    // Edge weights are positive, so 0 marks "untouched";
                    // only a first touch keeps its slot.
                    s.cols[end] = cv as u32;
                    end += (s.acc[cv] == 0) as usize;
                    s.acc[cv] += w;
                }
            }
            node_weight.push(weight);
            for &cv in &s.cols[s.weights.len()..end] {
                s.weights.push(std::mem::take(&mut s.acc[cv as usize]));
            }
            offsets.push(end);
        }
        s.cols.truncate(end);
        // One transpose puts every row in ascending order: walking the
        // rows in order appends each `c` to its neighbours' rows in
        // ascending `c`. The coarse graph is symmetric, edge weights
        // included, so the transpose is the same graph, with the same
        // row lengths and hence the same offsets.
        let mut neighbors = vec![0u32; s.cols.len()];
        let mut weights = vec![0u32; s.cols.len()];
        s.cursor.clear();
        s.cursor.extend_from_slice(&offsets[..coarse_count]);
        for c in 0..coarse_count {
            for e in offsets[c]..offsets[c + 1] {
                let cv = s.cols[e] as usize;
                let slot = s.cursor[cv];
                s.cursor[cv] += 1;
                neighbors[slot] = c as u32;
                weights[slot] = s.weights[e];
            }
        }
        debug_assert!(
            (0..coarse_count).all(|c| s.cursor[c] == offsets[c + 1]),
            "the coarse graph is symmetric"
        );
        let coarse = WeightedGraph {
            offsets,
            neighbors,
            weights,
            node_weight,
        };
        (coarse, matched)
    }

    /// Greedy region-growing initial partition into `k` parts balanced by
    /// node weight.
    fn initial_partition(&self, k: usize, rng: &mut impl Rng, s: &mut Scratch) -> Vec<usize> {
        let n = self.num_nodes();
        let target = self.total_weight() as f64 / k as f64;
        let mut part = vec![usize::MAX; n];
        let part_weight = &mut s.part_weight;
        part_weight.clear();
        part_weight.resize(k, 0);
        s.order.clear();
        s.order.extend(0..n);
        s.order.shuffle(rng);
        let mut order_iter = s.order.iter().copied();
        // One part's BFS queue, `queue[head..tail]`, with a spare slot
        // for the write past its end. The BFS queues each node once: a
        // node queued twice would be assigned at its first pop and
        // skipped at its second. `queued` holds the part whose BFS last
        // queued each node.
        let queue = &mut s.queue;
        queue.clear();
        queue.resize(n + 1, 0);
        let queued = &mut s.queued;
        queued.clear();
        queued.resize(n, usize::MAX);
        #[allow(clippy::needless_range_loop)] // `part_weight[p]` is mutated inside the BFS
        for p in 0..k {
            // Grow part p from an unassigned seed via BFS until it reaches
            // the target weight.
            let Some(seed) = order_iter.find(|&u| part[u] == usize::MAX) else {
                break;
            };
            queue[0] = seed;
            queued[seed] = p;
            let (mut head, mut tail) = (0, 1);
            while head < tail {
                if p + 1 < k && part_weight[p] as f64 >= target {
                    break;
                }
                let u = queue[head];
                head += 1;
                part[u] = p;
                part_weight[p] += self.node_weight[u] as u64;
                for (v, _) in self.adj(u) {
                    let new = part[v] == usize::MAX && queued[v] != p;
                    queue[tail] = v;
                    queued[v] = if new { p } else { queued[v] };
                    tail += new as usize;
                }
            }
        }
        // Any leftover nodes go to the lightest part, the first on ties.
        for (home, &weight) in part.iter_mut().zip(&self.node_weight) {
            if *home == usize::MAX {
                let p = (0..k).min_by_key(|&p| part_weight[p]).unwrap_or(0);
                *home = p;
                part_weight[p] += weight as u64;
            }
        }
        part
    }

    /// The balance ceiling for one level: 10% headroom over the ideal
    /// part weight, plus the heaviest single node (which can never be
    /// split). Recomputed per level — contracted nodes at coarse levels
    /// are heavy, so a ceiling inherited from the coarsest level would be
    /// uselessly loose on the original graph.
    fn level_max_weight(&self, k: usize) -> f64 {
        let max_node = self.node_weight.iter().copied().max().unwrap_or(0);
        1.1 * self.total_weight() as f64 / k as f64 + max_node as f64
    }

    /// Moves nodes out of oversized parts — and into empty ones — until
    /// every part is non-empty and none exceeds `max_weight`. Each move
    /// takes the donor node whose departure costs the least edge cut, so
    /// balance is restored as cheaply as possible.
    fn balance(&self, part: &mut [usize], k: usize, max_weight: f64, s: &mut Scratch) {
        let n = self.num_nodes();
        if n == 0 || k <= 1 {
            return;
        }
        let part_weight = &mut s.part_weight;
        part_weight.clear();
        part_weight.resize(k, 0);
        let mut part_count = vec![0usize; k];
        for u in 0..n {
            part_weight[part[u]] += self.node_weight[u] as u64;
            part_count[part[u]] += 1;
        }
        loop {
            // Destination: an empty part first; otherwise the lightest
            // part (the first on ties), but only while some part is
            // overweight.
            let empty = (0..k).find(|&p| part_count[p] == 0);
            let overweight =
                (0..k).any(|p| part_weight[p] as f64 > max_weight && part_count[p] > 1);
            let dest = match empty {
                Some(p) => p,
                None if overweight => (0..k).min_by_key(|&p| part_weight[p]).unwrap(),
                None => break,
            };
            // The heaviest part that can spare a node, the last on ties.
            let donor = (0..k)
                .filter(|&p| p != dest && part_count[p] > 1)
                .max_by_key(|&p| part_weight[p]);
            let Some(donor) = donor else { break };
            if part_weight[donor] <= part_weight[dest] {
                break; // moving would only invert the imbalance
            }
            // Cheapest node to pull out: least internal connectivity,
            // crediting edges it already has toward the destination.
            let mut best: Option<(usize, i64)> = None;
            for u in 0..n {
                if part[u] != donor {
                    continue;
                }
                let mut cost = 0i64;
                for (v, w) in self.adj(u) {
                    let sign = (part[v] == donor) as i64 - (part[v] == dest) as i64;
                    cost += sign * w as i64;
                }
                if best.is_none_or(|(_, bc)| cost < bc) {
                    best = Some((u, cost));
                }
            }
            let Some((u, _)) = best else { break };
            part_weight[donor] -= self.node_weight[u] as u64;
            part_count[donor] -= 1;
            part[u] = dest;
            part_weight[dest] += self.node_weight[u] as u64;
            part_count[dest] += 1;
        }
    }

    /// One boundary-refinement sweep: move nodes to the neighbouring part
    /// with the highest cut gain if balance permits. Returns moves made.
    fn refine(&self, part: &mut [usize], k: usize, max_weight: f64, s: &mut Scratch) -> usize {
        let n = self.num_nodes();
        let part_weight = &mut s.part_weight;
        part_weight.clear();
        part_weight.resize(k, 0);
        for (&p, &w) in part.iter().zip(&self.node_weight) {
            part_weight[p] += w as u64;
        }
        // A part weight is an integer, so it fits under the ceiling iff
        // it fits under the ceiling's floor.
        let cap = max_weight.floor() as u64;
        let mut moves = 0;
        // Connectivity of the current node to each part, and the parts it
        // touches; reset after every node. Both update without a branch
        // per edge: every part is written to the next `touched` slot,
        // which only a first touch keeps.
        let conn = &mut s.conn;
        conn.clear();
        conn.resize(k, 0);
        let touched = &mut s.touched;
        touched.clear();
        touched.resize(k + 1, 0);
        for u in 0..n {
            let span = self.offsets[u]..self.offsets[u + 1];
            let mut len = 0;
            for (&v, &w) in self.neighbors[span.clone()].iter().zip(&self.weights[span]) {
                let p = part[v as usize];
                touched[len] = p;
                len += (conn[p] == 0) as usize;
                conn[p] += w;
            }
            let home = part[u];
            let here = conn[home];
            let weight = self.node_weight[u] as u64;
            // The gain of a move is `conn[p] − here`, an integer: the
            // best is the largest positive gain that fits under the
            // ceiling, the lowest part id on ties.
            let (mut best, mut best_conn) = (usize::MAX, 0);
            for &p in &touched[..len] {
                let to = std::mem::take(&mut conn[p]);
                let better = to > best_conn || (to == best_conn && p < best);
                if p != home && to > here && better && part_weight[p] + weight <= cap {
                    (best, best_conn) = (p, to);
                }
            }
            if best != usize::MAX {
                part_weight[home] -= weight;
                part_weight[best] += weight;
                part[u] = best;
                moves += 1;
            }
        }
        moves
    }
}

/// Edges `{u, v}` whose endpoints `assignment` puts in different parts.
fn edge_cut(graph: &CsrGraph, assignment: &[usize]) -> usize {
    (0..graph.num_nodes())
        .map(|u| {
            let home = assignment[u];
            graph
                .neighbors(u)
                .iter()
                .filter(|&&v| v > u && assignment[v] != home)
                .count()
        })
        .sum()
}

/// Partitions `graph` into `k` balanced parts with the multilevel scheme.
///
/// Deterministic for a given `rng` state.
///
/// # Panics
///
/// Panics if `k == 0` or `k > graph.num_nodes()` (for non-empty graphs).
///
/// # Example
///
/// ```
/// use fare_graph::{partition::partition, CsrGraph};
/// use fare_rt::rand::SeedableRng;
/// let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
/// let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(1);
/// let p = partition(&g, 2, &mut rng);
/// assert_eq!(p.num_parts(), 2);
/// assert_eq!(p.assignment().len(), 6);
/// ```
pub fn partition(graph: &CsrGraph, k: usize, rng: &mut impl Rng) -> Partitioning {
    assert!(k > 0, "k must be positive");
    let n = graph.num_nodes();
    if n == 0 {
        return Partitioning::new(Vec::new(), k);
    }
    assert!(k <= n, "cannot split {n} nodes into {k} parts");

    let mut s = Scratch::default();
    let mut levels: Vec<(WeightedGraph, Vec<usize>)> = Vec::new();
    let mut current = WeightedGraph::from_csr(graph);

    // Draw a plain region-growing candidate first (same rng state
    // `bfs_partition` would see): the multilevel result is only kept if
    // it cuts no more edges, so the fallback is a quality floor.
    let mut bfs_part = current.initial_partition(k, rng, &mut s);

    // Coarsen until small or progress stalls.
    while current.num_nodes() > (8 * k).max(64) {
        let (coarse, map) = current.coarsen(rng, &mut s);
        if coarse.num_nodes() as f64 > 0.95 * current.num_nodes() as f64 {
            break; // matching stalled (e.g. star graphs)
        }
        levels.push((std::mem::replace(&mut current, coarse), map));
    }

    let max_weight = current.level_max_weight(k);
    let mut part = current.initial_partition(k, rng, &mut s);
    current.balance(&mut part, k, max_weight, &mut s);
    for _ in 0..4 {
        if current.refine(&mut part, k, max_weight, &mut s) == 0 {
            break;
        }
    }
    current.balance(&mut part, k, max_weight, &mut s);

    // Uncoarsen with refinement (and re-balancing against the level's
    // own ceiling) at every level.
    while let Some((fine, map)) = levels.pop() {
        part = map.iter().map(|&c| part[c]).collect();
        let max_weight = fine.level_max_weight(k);
        // Alternate refinement and re-balancing: balancing can free
        // headroom that unlocks further gain moves, and vice versa.
        for _ in 0..3 {
            let moves = fine.refine(&mut part, k, max_weight, &mut s);
            fine.balance(&mut part, k, max_weight, &mut s);
            if moves == 0 {
                break;
            }
        }
        current = fine;
    }
    // `current` is the finest level again.

    let cut = edge_cut(graph, &part);
    if edge_cut(graph, &bfs_part) < cut {
        // Keep the floor candidate, restoring its guarantees (non-empty
        // parts, weight ceiling) first.
        current.balance(&mut bfs_part, k, current.level_max_weight(k), &mut s);
        if edge_cut(graph, &bfs_part) < cut {
            return Partitioning::new(bfs_part, k);
        }
    }
    Partitioning::new(part, k)
}

/// Plain BFS region-growing partitioner (no multilevel); used as a cheap
/// fallback and as an ablation baseline against [`partition`].
///
/// # Panics
///
/// Panics if `k == 0` or `k > graph.num_nodes()` (for non-empty graphs).
pub fn bfs_partition(graph: &CsrGraph, k: usize, rng: &mut impl Rng) -> Partitioning {
    assert!(k > 0, "k must be positive");
    let n = graph.num_nodes();
    if n == 0 {
        return Partitioning::new(Vec::new(), k);
    }
    assert!(k <= n, "cannot split {n} nodes into {k} parts");
    let wg = WeightedGraph::from_csr(graph);
    let part = wg.initial_partition(k, rng, &mut Scratch::default());
    Partitioning::new(part, k)
}

#[cfg(test)]
mod tests {
    use fare_rt::prop::prelude::*;
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::{RngCore, SeedableRng};

    use super::*;
    use crate::generate;

    /// A graph of `size`-ish nodes in one of five shapes: the presets'
    /// SBM with hubs, R-MAT, a star (where matching stalls), disjoint
    /// random components with isolated nodes, and a sparse random graph.
    fn oracle_graph(shape: usize, size: usize, rng: &mut StdRng) -> CsrGraph {
        match shape {
            0 => {
                let communities = 1 + rng.gen_range(0..10).min(size - 1);
                generate::sbm_power_law(size, communities, 0.15, 0.003, 1.0, rng).0
            }
            1 => {
                let scale = 1 + (size.max(2).ilog2()).min(9);
                generate::rmat(scale, 4 << scale, 0.57, 0.19, 0.19, rng)
            }
            2 => CsrGraph::from_edges(size, &(1..size).map(|v| (0, v)).collect::<Vec<_>>()),
            3 => {
                let mut edges = Vec::new();
                let mut start = 0;
                while start < size {
                    let len = rng.gen_range(1..=size.min(40));
                    let end = (start + len).min(size);
                    for u in start..end {
                        for v in u + 1..end {
                            if rng.gen_bool(0.3) {
                                edges.push((u, v));
                            }
                        }
                    }
                    start = end;
                }
                CsrGraph::from_edges(size, &edges)
            }
            _ => generate::erdos_renyi(size, (4.0 / size as f64).min(1.0), rng),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        // The production partitioner keeps the oracle's algorithm and
        // its RNG draws; only its data layout and bookkeeping differ.
        // Same seed, same graph, same `k`: same assignment, and the next
        // draw after it agrees, so every later stage sees the same
        // stream. `k` runs from 1 to `n`.
        #[test]
        fn partition_bit_identical_to_reference_oracle(
            seed in 0u64..1_000_000,
            shape in 0usize..5,
            size in 1usize..700,
            k_pick in 0usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = oracle_graph(shape, size, &mut rng);
            let n = g.num_nodes();
            let k = match k_pick {
                0 => 1,
                1 => n,
                2 => rng.gen_range(1..=n.min(40)),
                _ => rng.gen_range(1..=n),
            };
            let mut fast = StdRng::seed_from_u64(seed ^ 0x5eed);
            let mut oracle = fast.clone();
            let got = partition(&g, k, &mut fast);
            let want = reference::partition(&g, k, &mut oracle);
            prop_assert_eq!(got.assignment(), want.assignment(), "shape {} n {} k {}", shape, n, k);
            prop_assert_eq!(fast.next_u64(), oracle.next_u64());
            let got = bfs_partition(&g, k, &mut fast);
            let want = reference::bfs_partition(&g, k, &mut oracle);
            prop_assert_eq!(got.assignment(), want.assignment());
            prop_assert_eq!(fast.next_u64(), oracle.next_u64());
        }
    }

    #[test]
    fn partitioning_accessors() {
        let p = Partitioning::new(vec![0, 1, 0, 1], 2);
        assert_eq!(p.part_of(2), 0);
        assert_eq!(p.assignment(), &[0, 1, 0, 1]);
        assert_eq!(p.sizes(), vec![2, 2]);
        assert!((p.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "part id out of range")]
    fn partitioning_rejects_bad_ids() {
        Partitioning::new(vec![0, 2], 2);
    }

    #[test]
    fn partition_covers_all_nodes() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generate::erdos_renyi(200, 0.05, &mut rng);
        let p = partition(&g, 8, &mut rng);
        assert_eq!(p.assignment().len(), 200);
        let sizes = p.sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 200);
        // Every part non-empty.
        assert!(sizes.iter().all(|&s| s > 0), "sizes {sizes:?}");
    }

    #[test]
    fn partition_respects_community_structure() {
        let mut rng = StdRng::seed_from_u64(2);
        let (g, labels) = generate::sbm(200, 4, 0.3, 0.005, &mut rng);
        let p = partition(&g, 4, &mut rng);
        // The partitioner should cut far fewer edges than a random
        // assignment would.
        let cut = p.edge_cut(&g);
        let random = Partitioning::new((0..200).map(|u| u % 4).collect(), 4);
        assert!(
            cut < random.edge_cut(&g) / 2,
            "cut {cut} vs random {}",
            random.edge_cut(&g)
        );
        let _ = labels;
    }

    #[test]
    fn partition_is_reasonably_balanced() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generate::power_law(300, 2, &mut rng);
        let p = partition(&g, 6, &mut rng);
        assert!(p.imbalance() < 1.8, "imbalance {}", p.imbalance());
    }

    #[test]
    fn bfs_partition_covers_all_nodes() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generate::erdos_renyi(120, 0.08, &mut rng);
        let p = bfs_partition(&g, 5, &mut rng);
        assert_eq!(p.sizes().iter().sum::<usize>(), 120);
    }

    #[test]
    fn multilevel_no_worse_than_bfs_on_sbm() {
        let mut rng = StdRng::seed_from_u64(5);
        let (g, _) = generate::sbm(240, 6, 0.25, 0.01, &mut rng);
        let ml = partition(&g, 6, &mut StdRng::seed_from_u64(10));
        let bfs = bfs_partition(&g, 6, &mut StdRng::seed_from_u64(10));
        assert!(ml.edge_cut(&g) <= bfs.edge_cut(&g));
    }

    #[test]
    fn single_part_has_zero_cut() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = generate::erdos_renyi(50, 0.1, &mut rng);
        let p = partition(&g, 1, &mut rng);
        assert_eq!(p.edge_cut(&g), 0);
    }

    #[test]
    fn empty_graph_partition() {
        let g = CsrGraph::empty(0);
        let mut rng = StdRng::seed_from_u64(7);
        let p = partition(&g, 3, &mut rng);
        assert!(p.assignment().is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn partition_rejects_too_many_parts() {
        let g = CsrGraph::empty(2);
        partition(&g, 3, &mut StdRng::seed_from_u64(0));
    }
}

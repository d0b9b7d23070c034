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

use fare_rt::json::{field, FromJson, Json, JsonError};
use fare_rt::rand::seq::SliceRandom;
use fare_rt::rand::Rng;

use crate::CsrGraph;

/// Assignment of every node to one of `num_parts` clusters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    assignment: Vec<usize>,
    num_parts: usize,
}

fare_rt::json_struct_to!(Partitioning { assignment, num_parts });

impl FromJson for Partitioning {
    /// Rejects what [`Partitioning::new`] rejects: a part id `>=
    /// num_parts`.
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let assignment: Vec<usize> = field(v, "assignment")?;
        let num_parts: usize = field(v, "num_parts")?;
        if let Some((u, &p)) = assignment
            .iter()
            .enumerate()
            .find(|&(_, &p)| p >= num_parts)
        {
            return Err(JsonError::new(format!(
                "node {u} is in part {p}, out of range for {num_parts} parts"
            )));
        }
        Ok(Self {
            assignment,
            num_parts,
        })
    }
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

    /// Nodes belonging to part `p`, ascending.
    pub fn part_nodes(&self, p: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &q)| q == p)
            .map(|(u, _)| u)
            .collect()
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
        graph
            .edges()
            .filter(|&(u, v)| self.assignment[u] != self.assignment[v])
            .count()
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
/// strictly ascending, with the matching edge weights alongside. Edge
/// and node weights are sums of unit weights, so every weight and every
/// sum of them is an exact integer in `f64`.
#[derive(Debug)]
struct WeightedGraph {
    offsets: Vec<usize>,
    neighbors: Vec<usize>,
    weights: Vec<f64>,
    node_weight: Vec<f64>,
}

impl WeightedGraph {
    fn from_csr(g: &CsrGraph) -> Self {
        let n = g.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        for u in 0..n {
            neighbors.extend_from_slice(g.neighbors(u));
            offsets.push(neighbors.len());
        }
        Self {
            offsets,
            weights: vec![1.0; neighbors.len()],
            neighbors,
            node_weight: vec![1.0; n],
        }
    }

    fn num_nodes(&self) -> usize {
        self.node_weight.len()
    }

    /// `(neighbour, edge weight)` pairs of `u`, ascending by neighbour.
    fn adj(&self, u: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let span = self.offsets[u]..self.offsets[u + 1];
        self.neighbors[span.clone()]
            .iter()
            .copied()
            .zip(self.weights[span].iter().copied())
    }

    /// Heavy-edge matching coarsening. Returns the coarse graph and the
    /// fine→coarse node map.
    fn coarsen(&self, rng: &mut impl Rng) -> (WeightedGraph, Vec<usize>) {
        let n = self.num_nodes();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        let mut matched = vec![usize::MAX; n];
        // The one or two fine nodes each coarse node contracts.
        let mut members: Vec<(usize, usize)> = Vec::with_capacity(n);
        for &u in &order {
            if matched[u] != usize::MAX {
                continue;
            }
            // Match u with its heaviest unmatched neighbour.
            let mut best: Option<(usize, f64)> = None;
            for (v, w) in self.adj(u) {
                if matched[v] == usize::MAX
                    && best.is_none_or(|(_, bw)| w > bw)
                {
                    best = Some((v, w));
                }
            }
            let c = members.len();
            matched[u] = c;
            match best {
                Some((v, _)) => {
                    matched[v] = c;
                    members.push((u, v));
                }
                None => members.push((u, usize::MAX)),
            }
        }
        // Each coarse node's edges are the fine edges leaving its members,
        // summed per coarse neighbour in a dense accumulator; the touched
        // list, sorted, gives the ascending neighbour order.
        let coarse_count = members.len();
        let mut coarse = WeightedGraph {
            offsets: Vec::with_capacity(coarse_count + 1),
            neighbors: Vec::new(),
            weights: Vec::new(),
            node_weight: Vec::with_capacity(coarse_count),
        };
        coarse.offsets.push(0);
        let mut acc = vec![0.0f64; coarse_count];
        let mut touched: Vec<usize> = Vec::new();
        for (c, &(a, b)) in members.iter().enumerate() {
            let mut weight = 0.0;
            for u in [a, b].into_iter().filter(|&u| u != usize::MAX) {
                weight += self.node_weight[u];
                for (v, w) in self.adj(u) {
                    let cv = matched[v];
                    if cv == c {
                        continue;
                    }
                    // Edge weights are positive, so 0 marks "untouched".
                    if acc[cv] == 0.0 {
                        touched.push(cv);
                    }
                    acc[cv] += w;
                }
            }
            coarse.node_weight.push(weight);
            touched.sort_unstable();
            for &cv in &touched {
                coarse.neighbors.push(cv);
                coarse.weights.push(std::mem::take(&mut acc[cv]));
            }
            touched.clear();
            coarse.offsets.push(coarse.neighbors.len());
        }
        (coarse, matched)
    }

    /// Greedy region-growing initial partition into `k` parts balanced by
    /// node weight.
    fn initial_partition(&self, k: usize, rng: &mut impl Rng) -> Vec<usize> {
        let n = self.num_nodes();
        let total_weight: f64 = self.node_weight.iter().sum();
        let target = total_weight / k as f64;
        let mut part = vec![usize::MAX; n];
        let mut part_weight = vec![0.0f64; k];
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        let mut order_iter = order.iter().copied();
        #[allow(clippy::needless_range_loop)] // `part_weight[p]` is mutated inside the BFS
        for p in 0..k {
            // Grow part p from an unassigned seed via BFS until it reaches
            // the target weight.
            let seed = loop {
                match order_iter.next() {
                    Some(s) if part[s] == usize::MAX => break Some(s),
                    Some(_) => continue,
                    None => break None,
                }
            };
            let Some(seed) = seed else { break };
            let mut queue = std::collections::VecDeque::from([seed]);
            while let Some(u) = queue.pop_front() {
                if part[u] != usize::MAX {
                    continue;
                }
                if p + 1 < k && part_weight[p] >= target {
                    break;
                }
                part[u] = p;
                part_weight[p] += self.node_weight[u];
                for (v, _) in self.adj(u) {
                    if part[v] == usize::MAX {
                        queue.push_back(v);
                    }
                }
            }
        }
        // Any leftover nodes go to the lightest part.
        #[allow(clippy::needless_range_loop)] // `part` is indexed and mutated
        for u in 0..n {
            if part[u] == usize::MAX {
                let p = (0..k)
                    .min_by(|&a, &b| part_weight[a].partial_cmp(&part_weight[b]).unwrap())
                    .unwrap_or(0);
                part[u] = p;
                part_weight[p] += self.node_weight[u];
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
        let total: f64 = self.node_weight.iter().sum();
        let max_node = self.node_weight.iter().cloned().fold(0.0, f64::max);
        1.1 * total / k as f64 + max_node
    }

    /// Moves nodes out of oversized parts — and into empty ones — until
    /// every part is non-empty and none exceeds `max_weight`. Each move
    /// takes the donor node whose departure costs the least edge cut, so
    /// balance is restored as cheaply as possible.
    fn balance(&self, part: &mut [usize], k: usize, max_weight: f64) {
        let n = self.num_nodes();
        if n == 0 || k <= 1 {
            return;
        }
        let mut part_weight = vec![0.0f64; k];
        let mut part_count = vec![0usize; k];
        for u in 0..n {
            part_weight[part[u]] += self.node_weight[u];
            part_count[part[u]] += 1;
        }
        loop {
            // Destination: an empty part first; otherwise the lightest
            // part, but only while some part is overweight.
            let empty = (0..k).find(|&p| part_count[p] == 0);
            let overweight = (0..k).any(|p| part_weight[p] > max_weight && part_count[p] > 1);
            let dest = match empty {
                Some(p) => p,
                None if overweight => (0..k)
                    .min_by(|&a, &b| part_weight[a].partial_cmp(&part_weight[b]).unwrap())
                    .unwrap(),
                None => break,
            };
            let donor = (0..k)
                .filter(|&p| p != dest && part_count[p] > 1)
                .max_by(|&a, &b| part_weight[a].partial_cmp(&part_weight[b]).unwrap());
            let Some(donor) = donor else { break };
            if part_weight[donor] <= part_weight[dest] {
                break; // moving would only invert the imbalance
            }
            // Cheapest node to pull out: least internal connectivity,
            // crediting edges it already has toward the destination.
            let mut best: Option<(usize, f64)> = None;
            for u in 0..n {
                if part[u] != donor {
                    continue;
                }
                let mut cost = 0.0;
                for (v, w) in self.adj(u) {
                    if part[v] == donor {
                        cost += w;
                    } else if part[v] == dest {
                        cost -= w;
                    }
                }
                if best.is_none_or(|(_, bc)| cost < bc) {
                    best = Some((u, cost));
                }
            }
            let Some((u, _)) = best else { break };
            part_weight[donor] -= self.node_weight[u];
            part_count[donor] -= 1;
            part[u] = dest;
            part_weight[dest] += self.node_weight[u];
            part_count[dest] += 1;
        }
    }

    /// One boundary-refinement sweep: move nodes to the neighbouring part
    /// with the highest cut gain if balance permits. Returns moves made.
    fn refine(&self, part: &mut [usize], k: usize, max_weight: f64) -> usize {
        let n = self.num_nodes();
        let mut part_weight = vec![0.0f64; k];
        for u in 0..n {
            part_weight[part[u]] += self.node_weight[u];
        }
        let mut moves = 0;
        // Connectivity of the current node to each part, and the parts it
        // touches; reset after every node.
        let mut conn = vec![0.0f64; k];
        let mut touched: Vec<usize> = Vec::new();
        for u in 0..n {
            for (v, w) in self.adj(u) {
                let p = part[v];
                // Edge weights are positive, so 0 marks "untouched".
                if conn[p] == 0.0 {
                    touched.push(p);
                }
                conn[p] += w;
            }
            let home = part[u];
            let here = conn[home];
            // Ascending part order: among equal gains the lowest part id
            // wins.
            touched.sort_unstable();
            let mut best: Option<(usize, f64)> = None;
            for &p in &touched {
                if p == home {
                    continue;
                }
                let gain = conn[p] - here;
                if gain > 1e-12
                    && part_weight[p] + self.node_weight[u] <= max_weight
                    && best.is_none_or(|(_, bg)| gain > bg)
                {
                    best = Some((p, gain));
                }
            }
            for &p in &touched {
                conn[p] = 0.0;
            }
            touched.clear();
            if let Some((p, _)) = best {
                part_weight[home] -= self.node_weight[u];
                part_weight[p] += self.node_weight[u];
                part[u] = p;
                moves += 1;
            }
        }
        moves
    }
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

    let mut levels: Vec<(WeightedGraph, Vec<usize>)> = Vec::new();
    let mut current = WeightedGraph::from_csr(graph);

    // Draw a plain region-growing candidate first (same rng state
    // `bfs_partition` would see): the multilevel result is only kept if
    // it cuts no more edges, so the fallback is a quality floor.
    let mut bfs_part = current.initial_partition(k, rng);

    // Coarsen until small or progress stalls.
    while current.num_nodes() > (8 * k).max(64) {
        let (coarse, map) = current.coarsen(rng);
        if coarse.num_nodes() as f64 > 0.95 * current.num_nodes() as f64 {
            break; // matching stalled (e.g. star graphs)
        }
        levels.push((std::mem::replace(&mut current, coarse), map));
    }

    let max_weight = current.level_max_weight(k);
    let mut part = current.initial_partition(k, rng);
    current.balance(&mut part, k, max_weight);
    for _ in 0..4 {
        if current.refine(&mut part, k, max_weight) == 0 {
            break;
        }
    }
    current.balance(&mut part, k, max_weight);

    // Uncoarsen with refinement (and re-balancing against the level's
    // own ceiling) at every level.
    while let Some((fine, map)) = levels.pop() {
        let mut fine_part = vec![0usize; fine.num_nodes()];
        for u in 0..fine.num_nodes() {
            fine_part[u] = part[map[u]];
        }
        part = fine_part;
        let max_weight = fine.level_max_weight(k);
        // Alternate refinement and re-balancing: balancing can free
        // headroom that unlocks further gain moves, and vice versa.
        for _ in 0..3 {
            let moves = fine.refine(&mut part, k, max_weight);
            fine.balance(&mut part, k, max_weight);
            if moves == 0 {
                break;
            }
        }
        current = fine;
    }
    // `current` is the finest level again.

    let cut = |assignment: &[usize]| {
        graph
            .edges()
            .filter(|&(u, v)| assignment[u] != assignment[v])
            .count()
    };
    if cut(&bfs_part) < cut(&part) {
        // Keep the floor candidate, restoring its guarantees (non-empty
        // parts, weight ceiling) first.
        current.balance(&mut bfs_part, k, current.level_max_weight(k));
        if cut(&bfs_part) < cut(&part) {
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
    let part = wg.initial_partition(k, rng);
    Partitioning::new(part, k)
}

#[cfg(test)]
mod tests {
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::SeedableRng;

    use super::*;
    use crate::generate;

    #[test]
    fn partitioning_accessors() {
        let p = Partitioning::new(vec![0, 1, 0, 1], 2);
        assert_eq!(p.part_of(2), 0);
        assert_eq!(p.part_nodes(1), vec![1, 3]);
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

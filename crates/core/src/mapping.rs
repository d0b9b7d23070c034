//! Algorithm 1: fault-aware mapping of an adjacency matrix onto ReRAM
//! crossbars.
//!
//! The batch adjacency `A` (binary, `N × N`) is decomposed into `n × n`
//! blocks (`n` = crossbar size). Two nested bipartite matchings place it:
//!
//! - **`G₁` (row permutation)** — for every (block, crossbar) pair, match
//!   block rows to crossbar rows minimising stored-value/fault
//!   mismatches. The matching's total weight is the pair's `cost(i, j)`.
//! - **`G₂` (block placement)** — assign blocks to crossbars minimising
//!   total `cost(i, j)`.
//!
//! Between the two, the paper's pruning heuristic (Algorithm 1 lines
//! 8–17) exploits SA1 criticality: if even the best block for a crossbar
//! leaves more SA1 faults exposed than the sparsest block has ones, the
//! crossbar is removed from the pool (when crossbars are plentiful) or
//! the sparsest block is deferred (when they are not), giving the
//! optimiser more freedom.
//!
//! # Fast path
//!
//! The `G₁` instance only mentions *faulty* physical rows: a fault-free
//! physical row stores every value exactly, so pairing it with any
//! logical row costs 0. The canonical solver therefore builds an `f × n`
//! cost matrix (`f` = number of faulty rows) instead of `n × n`, assigns
//! each faulty physical row a logical block row, and completes the
//! permutation by zipping the remaining logical rows (ascending) with the
//! fault-free physical rows (ascending) at cost 0. The cost table itself
//! is built by sparse deltas instead of per-entry popcounts: each entry
//! decomposes as `cost(k, l) = sa1cnt(k) + |sa0(k) ∩ row(l)| −
//! |sa1(k) ∩ row(l)|`, a per-physical-row constant plus ±1 per (fault
//! cell, set block bit) incidence, walked through a transposed column
//! index of the packed block ([`fare_reram::PackedRows`]). For the
//! paper's default b-Suitor matcher the instance is then solved by a
//! level-greedy matching over the same base/deviant split. It returns
//! exactly what [`fare_matching::bsuitor_assignment`] returns on the full
//! table: b-Suitor, computed as the greedy matching in `(cost, row, col)`
//! edge order, which it equals (see `G1Scratch::level_greedy_assign`).
//!
//! On top of the reduced kernel, [`map_blocks_cached`] deduplicates work
//! by *content classes*: blocks with identical bit patterns and crossbars
//! with identical fault planes share a single `G₁` solution, so each
//! (block-class, fault-class) pair is solved at most once, through one
//! reused solver scratch.
//!
//! It also solves a pair only when a cheap lower bound cannot decide.
//! A row permutation keeps each column's contents, so with `k_c` ones in
//! block column `c` and `s0_c`/`s1_c` stuck cells in crossbar column `c`,
//! `LB = Σ_c max(0, s1_c − k_c) + max(0, s0_c − (n − k_c))` bounds the
//! mismatch of *every* permutation, and its first term (`LB_sa1`) bounds
//! the SA1 cost. The selection reads exact costs in bound order:
//!
//! - **Pruning** solves only the blocks whose `LB_sa1` is within the
//!   sparsest block's ones, and stops at the first that passes.
//! - **`G₂` under b-Suitor** is the greedy matching in
//!   `(cost, block, crossbar)` order, by the same argument as for `G₁`.
//!   The pairs start in `(LB, block, crossbar)` order; the next pair is
//!   the lesser of that list's front and a retry heap's. A pair whose
//!   exact cost equals its key is matched, any other goes to the heap on
//!   its exact cost. Since exact ≥ `LB`, a matched pair precedes every
//!   other free pair's exact key, so the matching is the greedy one.
//!   Hungarian reads the whole table.
//! - **Deferred blocks** skip a crossbar whose `LB` reaches the best
//!   exact cost so far: it cannot be strictly cheaper, and ties keep
//!   the first crossbar.
//!
//! Every decision is the one the full table gives, so the mapping is
//! bit-identical. [`RemapCache`] carries the work across BIST epochs: a
//! placement whose crossbar is unchanged (checked via
//! [`Crossbar::fault_version`]) keeps its permutation instead of being
//! re-solved.
//!
//! The [`mod@reference`] module keeps a naive serial implementation of the
//! same semantics, full cost table included: the oracle the property
//! tests pin the fast path against. Property tests also check that the
//! reduced `f × n` Hungarian optimum equals the full `n × n` one and that
//! both bounds stay below the exact costs, pair by pair.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fare_graph::{CsrGraph, CsrMatrix};
use fare_matching::{CostMatrix, Matcher};
use fare_reram::{Crossbar, CrossbarArray, PackedRows, StuckPolarity};
use fare_tensor::Matrix;

/// Configuration of the mapping algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappingConfig {
    /// Assignment solver for both matchings (paper default: b-Suitor).
    pub matcher: Matcher,
    /// Enables the SA1-non-overlap pruning heuristic (lines 8–17).
    pub prune: bool,
}

impl Default for MappingConfig {
    fn default() -> Self {
        Self {
            matcher: Matcher::BSuitor,
            prune: true,
        }
    }
}

/// Final placement of one adjacency block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPlacement {
    /// Block row in the block grid.
    pub block_row: usize,
    /// Block column in the block grid.
    pub block_col: usize,
    /// Index of the crossbar the block is stored on.
    pub crossbar: usize,
    /// Logical row → physical row permutation within the crossbar.
    pub row_perm: Vec<usize>,
    /// Total mismatches under this placement.
    pub mismatch_cost: usize,
    /// SA1-only mismatches (fabricated edges) under this placement.
    pub sa1_cost: usize,
}

/// A complete fault-aware mapping `Π` of one adjacency matrix.
#[derive(Debug, Clone)]
pub struct Mapping {
    n: usize,
    grid: usize,
    placements: Vec<BlockPlacement>,
    /// `grid × grid` row-major lookup: placement index of block
    /// `(br, bc)`, or `u32::MAX` when absent. Derived from `placements`.
    index: Vec<u32>,
}

impl PartialEq for Mapping {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.grid == other.grid && self.placements == other.placements
    }
}

impl Mapping {
    /// Builds a mapping, sorting placements into canonical
    /// `(block_row, block_col)` order and indexing them for O(1) lookup.
    fn new(n: usize, grid: usize, mut placements: Vec<BlockPlacement>) -> Self {
        placements.sort_by_key(|p| (p.block_row, p.block_col));
        let mut index = vec![u32::MAX; grid * grid];
        for (k, p) in placements.iter().enumerate() {
            if p.block_row < grid && p.block_col < grid {
                index[p.block_row * grid + p.block_col] = k as u32;
            }
        }
        Self {
            n,
            grid,
            placements,
            index,
        }
    }

    /// Crossbar dimension the mapping targets.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Blocks per side of the block grid.
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// All block placements (every block of the matrix is placed).
    pub fn placements(&self) -> &[BlockPlacement] {
        &self.placements
    }

    /// Total mismatch cost of the mapping.
    pub fn total_cost(&self) -> usize {
        self.placements.iter().map(|p| p.mismatch_cost).sum()
    }

    /// Total SA1-only cost (fabricated edges surviving the mapping).
    pub fn total_sa1_cost(&self) -> usize {
        self.placements.iter().map(|p| p.sa1_cost).sum()
    }

    /// Placement of block `(block_row, block_col)`, if present. O(1).
    pub fn placement_for(&self, block_row: usize, block_col: usize) -> Option<&BlockPlacement> {
        if block_row >= self.grid || block_col >= self.grid {
            return None;
        }
        let k = self.index[block_row * self.grid + block_col];
        if k == u32::MAX {
            None
        } else {
            Some(&self.placements[k as usize])
        }
    }
}

/// `(row_perm, mismatch_cost, sa1_cost)` of one solved `G₁` instance.
type PairSolution = (Vec<usize>, usize, usize);

/// Reusable scratch for the `G₁` pair solves: the integer
/// cost table, the per-row deviant index, the level set, and the
/// matching state survive across pair solves so the hot loop allocates
/// nothing (cost-only solves) or only the output permutation.
///
/// Column sets are bitsets of `words = ⌈n / 64⌉` words per row, so
/// deduplicating a row's deviants and finding its first free column are
/// a few word operations.
#[derive(Debug, Clone, Default)]
struct G1Scratch {
    /// `f × n` cost table, row-major.
    costs: Vec<u32>,
    /// CSR offsets into `dev_cols`: instance row `k`'s deviant columns
    /// (entries whose cost differs from — or was touched away from and
    /// back to — row `k`'s base) live at `dev_cols[dev_start[k]..dev_start[k + 1]]`.
    dev_start: Vec<u32>,
    /// Deviant column ids, ascending within each row, deduplicated.
    dev_cols: Vec<u32>,
    /// `f × words` bitsets of each row's deviant columns.
    dev_bits: Vec<u64>,
    /// Bit `v` set iff some entry (base or deviant) has cost `v < 64`.
    level_mask: u64,
    /// Cost levels `≥ 64` (rare: a row with 64+ SA1 cells).
    level_spill: Vec<u32>,
    /// Row → column assignment of the greedy matching.
    assign: Vec<u32>,
    /// Bitset of the columns taken, and of the padding bits past `n`.
    used: Vec<u64>,
    is_faulty: Vec<bool>,
}

/// Transposed one-bit index of a packed block: for each column, the
/// ascending list of block rows with that bit set. Built once per block
/// (or block class) and reused against every crossbar, it turns the
/// `f × n` cost build into sparse deltas — each fault cell `(c, pol)`
/// touches only the rows listed under column `c`.
#[derive(Debug, Clone)]
struct BlockColIdx {
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl BlockColIdx {
    fn build(packed: &PackedRows) -> Self {
        let n = packed.rows();
        let cols = packed.cols();
        let mut starts = vec![0u32; cols + 2];
        for l in 0..n {
            for (w, &word) in packed.row(l).iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let c = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    starts[c + 2] += 1;
                }
            }
        }
        for i in 2..starts.len() {
            starts[i] += starts[i - 1];
        }
        // `starts[c + 1]` is now column c's write cursor; after the fill
        // it has advanced to the final `starts[c + 1]` boundary.
        let mut rows = vec![0u32; starts[cols + 1] as usize];
        for l in 0..n {
            for (w, &word) in packed.row(l).iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let c = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let cursor = &mut starts[c + 1];
                    rows[*cursor as usize] = l as u32;
                    *cursor += 1;
                }
            }
        }
        starts.pop();
        Self { starts, rows }
    }

    /// Block rows (ascending) whose bit in column `c` is set.
    fn col(&self, c: usize) -> &[u32] {
        &self.rows[self.starts[c] as usize..self.starts[c + 1] as usize]
    }

    /// Ones in column `c` of the block.
    fn count(&self, c: usize) -> usize {
        (self.starts[c + 1] - self.starts[c]) as usize
    }
}

/// Per-crossbar (or per-fault-class) context for [`solve_reduced_g1_costs`]:
/// the faulty physical rows and each one's SA1 count — the *base cost* a
/// block row with no bits under that row's fault cells pays.
#[derive(Debug, Clone, Default)]
struct XbarG1Ctx {
    faulty: Vec<usize>,
    base: Vec<u32>,
}

impl XbarG1Ctx {
    fn build(xbar: &Crossbar) -> Self {
        let mut ctx = Self {
            faulty: Vec::with_capacity(xbar.n()),
            base: Vec::with_capacity(xbar.n()),
        };
        ctx.fill(xbar);
        ctx
    }

    /// Refills the context for `xbar`, keeping its buffers.
    fn fill(&mut self, xbar: &Crossbar) {
        self.faulty.clear();
        self.faulty
            .extend((0..xbar.n()).filter(|&r| xbar.row_faults(r).next().is_some()));
        self.base.clear();
        self.base.extend(self.faulty.iter().map(|&phys| {
            xbar.sa1_row_bits(phys)
                .iter()
                .map(|w| w.count_ones())
                .sum::<u32>()
        }));
    }
}

impl G1Scratch {
    /// Builds the `f × n` cost table by sparse deltas rather than
    /// per-entry popcounts: `cost(k, l) = sa1cnt(k) + |sa0(k) ∩ row(l)|
    /// − |sa1(k) ∩ row(l)|`, i.e. a per-physical-row constant (`ctx.base`)
    /// plus ±1 per (fault cell, set block bit) incidence — walked via
    /// `col_idx`. Intermediate values never dip below zero: deltas for
    /// one entry subtract at most its SA1 base. Alongside the table it
    /// records each row's touched ("deviant") columns as a CSR index and
    /// the set of distinct cost levels present.
    fn build_costs(&mut self, xbar: &Crossbar, col_idx: &BlockColIdx, ctx: &XbarG1Ctx) {
        let n = xbar.n();
        let words = n.div_ceil(64);
        let f = ctx.faulty.len();
        self.costs.clear();
        self.costs.resize(f * n, 0);
        self.dev_bits.clear();
        self.dev_bits.resize(f * words, 0);
        self.dev_start.clear();
        self.dev_start.push(0);
        self.dev_cols.clear();
        let mut levels = 0u64;
        self.level_spill.clear();
        let mut level = |v: u32, spill: &mut Vec<u32>| {
            if v < 64 {
                levels |= 1 << v;
            } else {
                spill.push(v);
            }
        };
        let rows = self.costs.chunks_exact_mut(n);
        let bits = self.dev_bits.chunks_exact_mut(words);
        for (((row, bits), &base), &phys) in rows.zip(bits).zip(&ctx.base).zip(&ctx.faulty) {
            row.fill(base);
            level(base, &mut self.level_spill);
            for (c, pol) in xbar.row_faults(phys) {
                // SA0 mismatches stored ones; SA1 is already counted in
                // the base and mismatches stored zeros — a set bit
                // cancels it.
                let delta: i32 = match pol {
                    StuckPolarity::StuckAtZero => 1,
                    StuckPolarity::StuckAtOne => -1,
                };
                for &l in col_idx.col(c) {
                    let l = l as usize;
                    row[l] = row[l].wrapping_add_signed(delta);
                    bits[l / 64] |= 1 << (l % 64);
                }
            }
            // Several fault cells can touch the same block row; the
            // bitset lists each deviant column once, ascending.
            for (w, &word) in bits.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let l = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    self.dev_cols.push(l as u32);
                    level(row[l], &mut self.level_spill);
                }
            }
            self.dev_start.push(self.dev_cols.len() as u32);
        }
        self.level_mask = levels;
        self.level_spill.sort_unstable();
        self.level_spill.dedup();
    }

    /// Greedy matching over the edges of the cost table in ascending
    /// `(cost, row, col)` order, written into `self.assign`.
    ///
    /// This is the matching [`fare_matching::bsuitor_assignment`] builds
    /// by sorting the full `f × n` table, and so the b-Suitor assignment:
    /// every vertex ranks its edges by the common total order `(cost,
    /// row id, col id)`, and with preferences derived from one global
    /// edge ranking the suitor fixed point is the greedy matching by that
    /// ranking. (The tie order is pinned by the matching crate's
    /// `bsuitor_equals_greedy_by_edge_order` property test, this walk by
    /// the mapping oracles.) Walking levels through the base/deviant
    /// split costs `O(f·n)` per populated level instead of sorting all
    /// `f·n` edges.
    fn level_greedy_assign(&mut self, f: usize, n: usize, base: &[u32]) {
        let words = n.div_ceil(64);
        self.assign.clear();
        self.assign.resize(f, u32::MAX);
        self.used.clear();
        self.used.resize(words, 0);
        if !n.is_multiple_of(64) {
            self.used[words - 1] = !0 << (n % 64);
        }
        let mut matched = 0usize;
        let level = |scratch: &mut Self, v: u32, matched: &mut usize| {
            for (k, &base_k) in base[..f].iter().enumerate() {
                if scratch.assign[k] != u32::MAX {
                    continue;
                }
                let devs = &scratch.dev_cols
                    [scratch.dev_start[k] as usize..scratch.dev_start[k + 1] as usize];
                let row = &scratch.costs[k * n..(k + 1) * n];
                let used = &scratch.used;
                let free = |l: usize| used[l / 64] & (1 << (l % 64)) == 0;
                let hit = if base_k == v {
                    // Every non-deviant column sits at the base level;
                    // deviants count only if their net cost is back at
                    // `v`. The first free column in ascending order wins:
                    // the first free non-deviant one, unless a free
                    // deviant at `v` comes before it.
                    let dev_bits = &scratch.dev_bits[k * words..(k + 1) * words];
                    let plain = used
                        .iter()
                        .zip(dev_bits)
                        .enumerate()
                        .find_map(|(w, (&u, &d))| {
                            let open = !(u | d);
                            (open != 0).then(|| w * 64 + open.trailing_zeros() as usize)
                        });
                    let before = plain.unwrap_or(n);
                    devs.iter()
                        .map(|&l| l as usize)
                        .take_while(|&l| l < before)
                        .find(|&l| free(l) && row[l] == v)
                        .or(plain)
                } else {
                    devs.iter()
                        .map(|&l| l as usize)
                        .find(|&l| free(l) && row[l] == v)
                };
                if let Some(l) = hit {
                    scratch.assign[k] = l as u32;
                    scratch.used[l / 64] |= 1 << (l % 64);
                    *matched += 1;
                }
            }
        };
        let mut mask = self.level_mask;
        while mask != 0 && matched < f {
            let v = mask.trailing_zeros();
            mask &= mask - 1;
            level(self, v, &mut matched);
        }
        let spill = std::mem::take(&mut self.level_spill);
        for &v in &spill {
            if matched == f {
                break;
            }
            level(self, v, &mut matched);
        }
        self.level_spill = spill;
        debug_assert_eq!(matched, f, "complete bipartite instance matches every row");
    }
}

/// Fills `scratch.costs` and `scratch.assign` (instance row `k` →
/// logical row) for one reduced `G₁` pair. Requires `f > 0`.
fn g1_assign(
    col_idx: &BlockColIdx,
    xbar: &Crossbar,
    ctx: &XbarG1Ctx,
    matcher: Matcher,
    scratch: &mut G1Scratch,
) {
    let n = xbar.n();
    let f = ctx.faulty.len();
    scratch.build_costs(xbar, col_idx, ctx);
    match matcher {
        // The paper's default: greedy by (cost, row, col) ≡ b-Suitor
        // (see `level_greedy_assign`).
        Matcher::BSuitor => scratch.level_greedy_assign(f, n, &ctx.base),
        _ => {
            let costs = &scratch.costs;
            let cost = CostMatrix::from_row_fn(f, n, |k, row| {
                for (l, slot) in row.iter_mut().enumerate() {
                    *slot = costs[k * n + l] as f64;
                }
            });
            let sol = matcher.solve(&cost);
            scratch.assign.clear();
            scratch.assign.extend(
                sol.assignment
                    .iter()
                    .map(|assigned| assigned.expect("reduced G1 assigns every faulty row") as u32),
            );
        }
    }
}

/// `(mismatch, sa1)` of one reduced `G₁` pair, without materialising the
/// permutation — the form the `B × X` pair table needs (`G₂` and pruning
/// consume costs only; full solutions are recomputed for the ~`B` chosen
/// pairs).
fn solve_reduced_g1_costs(
    packed: &PackedRows,
    col_idx: &BlockColIdx,
    xbar: &Crossbar,
    ctx: &XbarG1Ctx,
    matcher: Matcher,
    scratch: &mut G1Scratch,
) -> (usize, usize) {
    let n = packed.rows();
    debug_assert_eq!(n, xbar.n(), "block does not fit the crossbar");
    if ctx.faulty.is_empty() {
        return (0, 0);
    }
    g1_assign(col_idx, xbar, ctx, matcher, scratch);
    let mut mismatch = 0usize;
    let mut sa1 = 0usize;
    for (k, &l) in scratch.assign.iter().enumerate() {
        let l = l as usize;
        mismatch += scratch.costs[k * n + l] as usize;
        sa1 += xbar.row_sa1_mismatch_packed(packed.row(l), ctx.faulty[k]);
    }
    (mismatch, sa1)
}

/// Writes the logical → physical row permutation of a reduced `G₁`
/// assignment into `perm` (`n` = `perm.len()` rows): faulty physical row
/// `faulty[k]` stores logical row `assign[k]`, and the logical rows left
/// over (ascending) take the fault-free physical rows (ascending) at
/// cost 0. Fault-free crossbars (`faulty` empty) get the identity, which
/// is optimal.
fn fill_permutation(
    perm: &mut [usize],
    faulty: &[usize],
    assign: &[u32],
    is_faulty: &mut Vec<bool>,
) {
    let n = perm.len();
    perm.fill(usize::MAX);
    for (&phys, &l) in faulty.iter().zip(assign) {
        perm[l as usize] = phys;
    }
    is_faulty.clear();
    is_faulty.resize(n, false);
    for &phys in faulty {
        is_faulty[phys] = true;
    }
    let mut free = (0..n).filter(|&q| !is_faulty[q]);
    for slot in perm.iter_mut() {
        if *slot == usize::MAX {
            *slot = free
                .next()
                .expect("as many fault-free rows as unmatched logical rows");
        }
    }
}

/// A binary adjacency cut into the zero-padded `n × n` block grid the
/// crossbars store, each block packed into bit rows: the form every
/// mapping entry point works on. Block `(br, bc)` holds rows `br·n..`
/// and columns `bc·n..` of the adjacency; its cells past the
/// adjacency's edge are 0.
///
/// # Example
///
/// ```
/// use fare_core::mapping::AdjacencyBlocks;
/// use fare_graph::CsrGraph;
///
/// let g = CsrGraph::from_edges(5, &[(0, 1), (3, 4)]);
/// let blocks = AdjacencyBlocks::from_graph(&g, 4);
/// assert_eq!(blocks.grid(), 2);
/// // Edge (3, 4) is row 3 of block (0, 1), and (4, 3) row 0 of block (1, 0).
/// assert_eq!(blocks.block(0, 1).ones(3), 1);
/// assert_eq!(blocks.block(1, 0).ones(0), 1);
/// assert_eq!(blocks.block(1, 1).ones(0), 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdjacencyBlocks {
    n: usize,
    grid: usize,
    /// Row-major over the block grid.
    blocks: Vec<PackedRows>,
}

impl AdjacencyBlocks {
    /// Packs `graph`'s adjacency straight from its CSR lists.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty or `n == 0`.
    pub fn from_graph(graph: &CsrGraph, n: usize) -> Self {
        Self::from_rows(graph.num_nodes(), n, |u| graph.neighbors(u))
    }

    /// Packs a dense adjacency, reading entries `> 0.5` as stored 1s:
    /// block `(br, bc)` equals
    /// `PackedRows::from_matrix(&adj.block(br * n, bc * n, n, n))`.
    ///
    /// # Panics
    ///
    /// Panics if `adj` is not square, is empty, or `n == 0`.
    pub fn from_matrix(adj: &Matrix, n: usize) -> Self {
        assert_eq!(adj.rows(), adj.cols(), "adjacency must be square");
        let ones = CsrMatrix::binary_pattern(adj);
        Self::from_rows(adj.rows(), n, |r| ones.row_indices(r))
    }

    /// Packs the `nodes × nodes` adjacency whose row `r` stores 1s at the
    /// columns `row(r)`.
    fn from_rows<'a>(nodes: usize, n: usize, row: impl Fn(usize) -> &'a [usize]) -> Self {
        assert!(nodes > 0, "adjacency must be non-empty");
        assert!(n > 0, "crossbar size must be positive");
        let grid = nodes.div_ceil(n);
        let mut blocks = vec![PackedRows::zeros(n, n); grid * grid];
        for r in 0..nodes {
            for &c in row(r) {
                blocks[(r / n) * grid + c / n].set(r % n, c % n);
            }
        }
        Self { n, grid, blocks }
    }

    /// Blocks per side of the grid.
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// Block `(block_row, block_col)`.
    ///
    /// # Panics
    ///
    /// Panics if the block is outside the grid.
    pub fn block(&self, block_row: usize, block_col: usize) -> &PackedRows {
        assert!(
            block_row < self.grid && block_col < self.grid,
            "block outside the grid"
        );
        &self.blocks[block_row * self.grid + block_col]
    }

    /// `(block_row, block_col)` of every block, in storage order.
    fn positions(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.grid).flat_map(move |br| (0..self.grid).map(move |bc| (br, bc)))
    }

    fn check_fits(&self, array: &CrossbarArray) {
        assert_eq!(self.n, array.n(), "block size does not match the crossbars");
        assert!(
            self.blocks.len() <= array.len(),
            "not enough crossbars: {} blocks > {} crossbars",
            self.blocks.len(),
            array.len()
        );
    }
}

/// Class of every item, numbered in order of first occurrence, and the
/// first item of each class: items `i` and `j` share a class iff
/// `same(i, j)`. `key` is a cheap necessary condition (`same(i, j)`
/// implies `key(i) == key(j)`), so `same` runs only on a key match.
fn content_classes(
    len: usize,
    key: impl Fn(usize) -> u64,
    same: impl Fn(usize, usize) -> bool,
) -> (Vec<u32>, Vec<usize>) {
    let mut class = Vec::with_capacity(len);
    let mut firsts: Vec<(u64, usize)> = Vec::new();
    for i in 0..len {
        let k = key(i);
        let c = match firsts.iter().position(|&(fk, f)| fk == k && same(f, i)) {
            Some(c) => c,
            None => {
                firsts.push((k, i));
                firsts.len() - 1
            }
        };
        class.push(c as u32);
    }
    (class, firsts.into_iter().map(|(_, f)| f).collect())
}

/// A multiplicative fold of `words`: the key [`content_classes`] compares
/// before it compares the words themselves.
fn fold_words(words: &[u64]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Stuck cells per crossbar column, dense over the `n` columns: the
/// crossbar half of [`pair_bounds`]. Appends the SA0 counts to `sa0` and
/// the SA1 counts to `sa1`.
fn column_faults(xbar: &Crossbar, sa0: &mut Vec<u32>, sa1: &mut Vec<u32>) {
    let (s0, s1) = (sa0.len(), sa1.len());
    sa0.resize(s0 + xbar.n(), 0);
    sa1.resize(s1 + xbar.n(), 0);
    for r in 0..xbar.n() {
        for (c, pol) in xbar.row_faults(r) {
            match pol {
                StuckPolarity::StuckAtZero => sa0[s0 + c] += 1,
                StuckPolarity::StuckAtOne => sa1[s1 + c] += 1,
            }
        }
    }
}

/// Lower bounds `(LB, LB_sa1)` on the `(mismatch, sa1)` cost of a block
/// with `ones[c]` ones in column `c` on a crossbar with `sa0[c]`/`sa1[c]`
/// stuck cells there, under *any* row permutation and hence under every
/// matcher. A row permutation keeps each column's contents: column `c`
/// stores the block's `k_c` ones on `k_c` of its `n` cells, so at least
/// `s1_c − k_c` of its SA1 cells hold a 0 (the SA1 cost) and at least
/// `s0_c − (n − k_c)` of its SA0 cells hold a 1.
fn pair_bounds(ones: &[u32], sa0: &[u32], sa1: &[u32]) -> (usize, usize) {
    let n = ones.len() as u32;
    let (mut lb, mut lb_sa1) = (0, 0);
    for ((&k, &s0), &s1) in ones.iter().zip(sa0).zip(sa1) {
        let sa1 = s1.saturating_sub(k);
        lb_sa1 += sa1;
        lb += sa1 + s0.saturating_sub(n - k);
    }
    (lb as usize, lb_sa1 as usize)
}

/// The exact `(mismatch, sa1)` `G₁` cost of a solved class pair, and
/// where its assignment starts in [`PairCosts::assigned`].
#[derive(Clone, Copy)]
struct Solved {
    mismatch: usize,
    sa1: usize,
    start: usize,
}

/// The `(mismatch, sa1)` `G₁` cost of every (block, crossbar) pair,
/// solved on demand.
///
/// Blocks with identical bits share a class, and so do crossbars with
/// identical fault planes. `G₁` solutions are pure functions of (block
/// bits, fault planes, matcher), so each (block class, fault class) pair
/// is solved at most once, through one reused scratch, and is exact for
/// every member pair; its assignment is kept, so a chosen pair's
/// permutation needs no second solve. Its [`pair_bounds`] are computed
/// up front; the selection asks for an exact cost only where a bound
/// cannot decide.
struct PairCosts<'a> {
    blocks: &'a AdjacencyBlocks,
    array: &'a CrossbarArray,
    matcher: Matcher,
    block_class: Vec<u32>,
    xbar_class: Vec<u32>,
    /// Transposed column index per block class.
    col_idx: Vec<BlockColIdx>,
    /// Faulty rows and base costs per fault class.
    xbar_ctx: Vec<XbarG1Ctx>,
    /// `(LB, LB_sa1)` per class pair, row-major by block class.
    bounds: Vec<(usize, usize)>,
    /// The solve of each class pair, once solved.
    exact: Vec<Option<Solved>>,
    /// Every solved assignment (instance row → logical row), back to
    /// back.
    assigned: Vec<u32>,
    scratch: G1Scratch,
    /// Class pairs solved exactly so far.
    solved: usize,
}

impl<'a> PairCosts<'a> {
    fn new(blocks: &'a AdjacencyBlocks, array: &'a CrossbarArray, matcher: Matcher) -> Self {
        let n = blocks.n;
        let packed = &blocks.blocks;
        let (block_class, firsts) = content_classes(
            packed.len(),
            |i| fold_words(packed[i].bits()),
            |i, j| packed[i].bits() == packed[j].bits(),
        );
        let col_idx: Vec<BlockColIdx> = firsts
            .iter()
            .map(|&i| BlockColIdx::build(&packed[i]))
            .collect();
        let xbar = |j: usize| array.crossbar(j);
        let (xbar_class, firsts) = content_classes(
            array.len(),
            |j| {
                let (sa0, sa1) = xbar(j).fault_bits();
                fold_words(sa0) ^ fold_words(sa1).rotate_left(32)
            },
            |i, j| xbar(i).fault_bits() == xbar(j).fault_bits(),
        );
        let mut sa0 = Vec::with_capacity(firsts.len() * n);
        let mut sa1 = Vec::with_capacity(firsts.len() * n);
        let xbar_ctx = firsts
            .iter()
            .map(|&j| {
                column_faults(xbar(j), &mut sa0, &mut sa1);
                XbarG1Ctx::build(xbar(j))
            })
            .collect();
        let mut ones = Vec::with_capacity(n);
        let mut bounds = Vec::with_capacity(col_idx.len() * firsts.len());
        for idx in &col_idx {
            ones.clear();
            ones.extend((0..n).map(|c| idx.count(c) as u32));
            for (s0, s1) in sa0.chunks_exact(n).zip(sa1.chunks_exact(n)) {
                bounds.push(pair_bounds(&ones, s0, s1));
            }
        }
        Self {
            blocks,
            array,
            matcher,
            block_class,
            xbar_class,
            col_idx,
            xbar_ctx,
            exact: vec![None; bounds.len()],
            bounds,
            assigned: Vec::new(),
            scratch: G1Scratch::default(),
            solved: 0,
        }
    }

    fn class_pair(&self, i: usize, j: usize) -> usize {
        self.block_class[i] as usize * self.xbar_ctx.len() + self.xbar_class[j] as usize
    }

    /// `(LB, LB_sa1)` of block `i` on crossbar `j`.
    fn bound(&self, i: usize, j: usize) -> (usize, usize) {
        self.bounds[self.class_pair(i, j)]
    }

    /// The solve of block `i` on crossbar `j`, run on the class pair's
    /// first use.
    fn solve(&mut self, i: usize, j: usize) -> Solved {
        let k = self.class_pair(i, j);
        if let Some(solved) = self.exact[k] {
            return solved;
        }
        // Block `i` and crossbar `j` share their class's bits and fault
        // planes, so they stand for the class pair.
        let (mismatch, sa1) = solve_reduced_g1_costs(
            &self.blocks.blocks[i],
            &self.col_idx[self.block_class[i] as usize],
            self.array.crossbar(j),
            &self.xbar_ctx[self.xbar_class[j] as usize],
            self.matcher,
            &mut self.scratch,
        );
        debug_assert!(
            mismatch >= self.bounds[k].0 && sa1 >= self.bounds[k].1,
            "pair bound {:?} exceeds the exact cost {:?}",
            self.bounds[k],
            (mismatch, sa1)
        );
        let solved = Solved {
            mismatch,
            sa1,
            start: self.assigned.len(),
        };
        // A fault-free crossbar's solve assigns nothing.
        if !self.xbar_ctx[self.xbar_class[j] as usize].faulty.is_empty() {
            self.assigned.extend_from_slice(&self.scratch.assign);
        }
        self.exact[k] = Some(solved);
        self.solved += 1;
        solved
    }

    /// Exact `(mismatch, sa1)` of block `i` on crossbar `j`.
    fn exact(&mut self, i: usize, j: usize) -> (usize, usize) {
        let solved = self.solve(i, j);
        (solved.mismatch, solved.sa1)
    }

    /// Full solution of a chosen pair, from the kept assignment: the
    /// permutation realises exactly the cost the selection read.
    fn solution(&mut self, i: usize, j: usize) -> PairSolution {
        let solved = self.solve(i, j);
        let faulty = &self.xbar_ctx[self.xbar_class[j] as usize].faulty;
        let assign = &self.assigned[solved.start..solved.start + faulty.len()];
        let mut perm = vec![0; self.blocks.n];
        fill_permutation(&mut perm, faulty, assign, &mut self.scratch.is_faulty);
        (perm, solved.mismatch, solved.sa1)
    }
}

/// The selection half of Algorithm 1 over lazily solved pair costs: the
/// pruning heuristic (lines 8–17), the `G₂` placement of the live blocks
/// on the live crossbars, and the greedy placement of deferred blocks.
/// Every decision equals the one taken over the full cost table
/// ([`reference::map_adjacency`]); a pair is solved only when its bound
/// cannot make the decision alone.
fn select_placements(
    blocks: &AdjacencyBlocks,
    m: usize,
    cfg: &MappingConfig,
    pairs: &mut PairCosts,
) -> Mapping {
    let b = blocks.blocks.len();
    let grid = blocks.grid;
    let ones: Vec<usize> = blocks
        .blocks
        .iter()
        .map(|p| (0..p.rows()).map(|r| p.ones(r)).sum())
        .collect();

    // Pruning (lines 8–17): crossbar `j` is hopeless iff no live block
    // has an SA1 cost within the sparsest live block's ones. A block
    // whose SA1 bound exceeds that budget cannot pass, so only the others
    // are solved, up to the first that passes.
    let mut live_blocks: Vec<usize> = (0..b).collect();
    let mut live_xbars: Vec<usize> = (0..m).collect();
    let mut deferred_blocks: Vec<usize> = Vec::new();
    if cfg.prune {
        let mut j_idx = 0;
        while j_idx < live_xbars.len() {
            let j = live_xbars[j_idx];
            let Some(sparsest) = live_blocks.iter().copied().min_by_key(|&i| ones[i]) else {
                break;
            };
            let budget = ones[sparsest];
            let hopeless = !live_blocks
                .iter()
                .any(|&i| pairs.bound(i, j).1 <= budget && pairs.exact(i, j).1 <= budget);
            if hopeless {
                if live_xbars.len() > live_blocks.len() {
                    // Plenty of crossbars: drop this hopeless one.
                    live_xbars.remove(j_idx);
                    continue; // same j_idx now points at the next crossbar
                }
                // b == m: defer the sparsest block instead for freedom.
                live_blocks.retain(|&i| i != sparsest);
                deferred_blocks.push(sparsest);
            }
            j_idx += 1;
        }
    }

    // G₂ over the live sets: `chosen` collects (block, crossbar) pairs.
    let mut chosen: Vec<(usize, usize)> = Vec::with_capacity(b);
    let mut used_xbars = vec![false; m];
    let live_pairs = || {
        live_blocks
            .iter()
            .flat_map(|&i| live_xbars.iter().map(move |&j| (i, j)))
    };
    if cfg.matcher == Matcher::BSuitor {
        // b-Suitor on integer costs is the greedy matching in `(cost,
        // block, crossbar)` order (see `G1Scratch::level_greedy_assign`), so it
        // needs a pair's exact cost only once the pair reaches the front
        // of that order. The pairs start keyed on lower bounds, in `(LB,
        // block, crossbar)` order: a stable counting sort by `LB` of the
        // live pairs, which come in `(block, crossbar)` order. A pair
        // whose exact cost equals its key precedes every other free
        // pair's exact key and is matched; any other goes to a heap,
        // keyed on its exact cost, and the next pair is the lesser of the
        // two fronts.
        let keyed: Vec<(usize, usize, usize)> = live_pairs()
            .map(|(i, j)| (pairs.bound(i, j).0, i, j))
            .collect();
        let max_key = keyed.iter().map(|&(key, _, _)| key).max().unwrap_or(0);
        let mut cursor = vec![0usize; max_key + 2];
        for &(key, _, _) in &keyed {
            cursor[key + 1] += 1;
        }
        for key in 1..cursor.len() {
            cursor[key] += cursor[key - 1];
        }
        let mut sorted = vec![(0, 0, 0); keyed.len()];
        for &pair in &keyed {
            let slot = &mut cursor[pair.0];
            sorted[*slot] = pair;
            *slot += 1;
        }
        let mut sorted = sorted.into_iter().peekable();
        let mut retry: BinaryHeap<Reverse<(usize, usize, usize)>> = BinaryHeap::new();
        let mut placed = vec![false; b];
        while chosen.len() < live_blocks.len() {
            let from_retry = match (sorted.peek(), retry.peek()) {
                (Some(next), Some(Reverse(again))) => again < next,
                (None, Some(_)) => true,
                _ => false,
            };
            let (key, i, j) = if from_retry {
                retry.pop().map(|Reverse(pair)| pair)
            } else {
                sorted.next()
            }
            .expect("G2 assigns every block");
            if placed[i] || used_xbars[j] {
                continue;
            }
            let cost = pairs.exact(i, j).0;
            if cost == key {
                placed[i] = true;
                used_xbars[j] = true;
                chosen.push((i, j));
            } else {
                retry.push(Reverse((cost, i, j)));
            }
        }
    } else if !live_blocks.is_empty() {
        // Hungarian reads the whole table.
        let costs: Vec<f64> = live_pairs()
            .map(|(i, j)| pairs.exact(i, j).0 as f64)
            .collect();
        let g2 = CostMatrix::from_vec(live_blocks.len(), live_xbars.len(), costs);
        let sol = cfg.matcher.solve(&g2);
        for (&i, assigned) in live_blocks.iter().zip(&sol.assignment) {
            let j = live_xbars[assigned.expect("G2 assigns every block")];
            used_xbars[j] = true;
            chosen.push((i, j));
        }
    }

    // Deferred blocks: each takes its cheapest free crossbar, the first
    // on ties. A crossbar whose bound reaches the best exact cost so far
    // cannot be strictly cheaper, so it is not solved.
    for &i in &deferred_blocks {
        let mut best: Option<(usize, usize)> = None;
        for j in (0..m).filter(|&j| !used_xbars[j]) {
            if best.is_some_and(|(cost, _)| pairs.bound(i, j).0 >= cost) {
                continue;
            }
            let cost = pairs.exact(i, j).0;
            if best.is_none_or(|(min, _)| cost < min) {
                best = Some((cost, j));
            }
        }
        let (_, j) = best.expect("b <= m guarantees a free crossbar for deferred blocks");
        used_xbars[j] = true;
        chosen.push((i, j));
    }

    let placements = chosen
        .into_iter()
        .map(|(i, j)| {
            let (perm, cost, sa1) = pairs.solution(i, j);
            BlockPlacement {
                block_row: i / grid,
                block_col: i % grid,
                crossbar: j,
                row_perm: perm,
                mismatch_cost: cost,
                sa1_cost: sa1,
            }
        })
        .collect();
    Mapping::new(blocks.n, grid, placements)
}

/// Cross-epoch memo of solved `G₁` instances, indexed by block position.
///
/// [`map_blocks_cached`] records which crossbar each block went to and
/// that crossbar's [`Crossbar::fault_version`]; [`refresh_blocks_cached`]
/// re-solves only the pairs whose crossbar mutated since and keeps the
/// mapping's own permutation for the rest — the common case after a BIST
/// scan that found few new faults. An entry holds no permutation, so a
/// hit allocates nothing. The cache also keeps what a re-solve reads
/// that never changes with the faults: each block's transposed column
/// index (handed over by [`map_blocks_cached`], or built at the block's
/// first miss), and one crossbar context and one solver scratch that
/// every re-solve refills.
///
/// The cache tracks one mapping of one adjacency: refresh the mapping
/// that [`map_blocks_cached`] returned with it, or that the last refresh
/// through it updated (true per batch in the trainer, which owns one
/// cache per batch state). A full [`map_blocks_cached`] clears it first,
/// so re-mapping a different adjacency through the same cache is safe.
#[derive(Debug, Clone, Default)]
pub struct RemapCache {
    /// Per block position (row-major over the block grid): the crossbar
    /// it was last solved against, at which fault version.
    entries: Vec<Option<CacheEntry>>,
    /// Per block position: its column index in `col_idx`, or `u32::MAX`
    /// before one is built.
    block_idx: Vec<u32>,
    col_idx: Vec<BlockColIdx>,
    ctx: XbarG1Ctx,
    scratch: G1Scratch,
}

/// The crossbar a block was solved against, at which fault version.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CacheEntry {
    crossbar: usize,
    version: u64,
}

impl RemapCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoised block placements.
    pub fn len(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// `true` when nothing is memoised yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all memoised solutions and column indexes.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.block_idx.clear();
        self.col_idx.clear();
    }

    fn entry(array: &CrossbarArray, p: &BlockPlacement) -> CacheEntry {
        CacheEntry {
            crossbar: p.crossbar,
            version: array.crossbar(p.crossbar).fault_version(),
        }
    }

    /// Sizes the cache to `blocks` block positions, emptying it first if
    /// it held another grid.
    fn cover(&mut self, blocks: usize) {
        if self.entries.len() != blocks {
            self.clear();
            self.entries.resize(blocks, None);
            self.block_idx.resize(blocks, u32::MAX);
        }
    }
}

/// Runs Algorithm 1: the fault-aware mapping of `adj` onto `array`.
///
/// Every block ends up placed (blocks the pruning step defers are
/// greedily placed on leftover crossbars afterwards — the hardware must
/// store the whole matrix either way).
///
/// A dense adapter: packs `adj` ([`AdjacencyBlocks::from_matrix`]) and
/// runs [`map_blocks_cached`].
///
/// # Panics
///
/// Panics if `adj` is not square/empty, or there are fewer crossbars than
/// blocks.
///
/// # Example
///
/// ```
/// use fare_core::{map_adjacency, MappingConfig};
/// use fare_reram::CrossbarArray;
/// use fare_tensor::Matrix;
///
/// let adj = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
/// let array = CrossbarArray::new(2, 4); // fault-free
/// let mapping = map_adjacency(&adj, &array, &MappingConfig::default());
/// assert_eq!(mapping.total_cost(), 0);
/// ```
pub fn map_adjacency(adj: &Matrix, array: &CrossbarArray, cfg: &MappingConfig) -> Mapping {
    let mut cache = RemapCache::new();
    map_adjacency_cached(adj, array, cfg, &mut cache)
}

/// [`map_adjacency`] that additionally warms `cache` with the chosen
/// placements so later [`refresh_row_permutations_cached`] calls skip
/// crossbars whose fault state did not change.
pub fn map_adjacency_cached(
    adj: &Matrix,
    array: &CrossbarArray,
    cfg: &MappingConfig,
    cache: &mut RemapCache,
) -> Mapping {
    map_blocks_cached(
        &AdjacencyBlocks::from_matrix(adj, array.n()),
        array,
        cfg,
        cache,
    )
}

/// Algorithm 1 on a packed block grid; warms `cache` with the chosen
/// placements so later [`refresh_blocks_cached`] calls skip crossbars
/// whose fault state did not change.
///
/// # Panics
///
/// Panics if the blocks are not `array.n()` wide or there are fewer
/// crossbars than blocks.
pub fn map_blocks_cached(
    blocks: &AdjacencyBlocks,
    array: &CrossbarArray,
    cfg: &MappingConfig,
    cache: &mut RemapCache,
) -> Mapping {
    let _span = fare_obs::trace::span("core.mapping.map_adjacency");
    blocks.check_fits(array);
    let mut pairs = PairCosts::new(blocks, array, cfg.matcher);
    let mapping = select_placements(blocks, array.len(), cfg, &mut pairs);
    fare_obs::counters::CORE_MAPPING_PAIRS_SOLVED.add(pairs.solved as u64);
    cache.clear();
    cache.cover(blocks.blocks.len());
    for p in mapping.placements() {
        cache.entries[p.block_row * blocks.grid + p.block_col] = Some(RemapCache::entry(array, p));
    }
    // Blocks of one class share a column index.
    cache.block_idx = pairs.block_class;
    cache.col_idx = pairs.col_idx;
    mapping
}

/// The cheap fault-unaware mapping: block `k` (row-major) goes to
/// crossbar `k` with the identity row permutation.
///
/// This is both the "fault-unaware" baseline's layout and the starting
/// point neuron reordering permutes within. A dense adapter onto
/// [`sequential_block_mapping`].
///
/// # Panics
///
/// Panics if there are fewer crossbars than blocks.
pub fn sequential_mapping(adj: &Matrix, array: &CrossbarArray) -> Mapping {
    sequential_block_mapping(&AdjacencyBlocks::from_matrix(adj, array.n()), array)
}

/// [`sequential_mapping`] of a packed block grid.
///
/// # Panics
///
/// Panics if the blocks are not `array.n()` wide or there are fewer
/// crossbars than blocks.
pub fn sequential_block_mapping(blocks: &AdjacencyBlocks, array: &CrossbarArray) -> Mapping {
    blocks.check_fits(array);
    let n = blocks.n;
    let placements = blocks
        .positions()
        .zip(&blocks.blocks)
        .enumerate()
        .map(|(k, ((br, bc), packed))| {
            let xbar = array.crossbar(k);
            let (mut mismatch, mut sa1) = (0, 0);
            for p in 0..n {
                mismatch += xbar.row_mismatch_packed(packed.row(p), p);
                sa1 += xbar.row_sa1_mismatch_packed(packed.row(p), p);
            }
            BlockPlacement {
                block_row: br,
                block_col: bc,
                crossbar: k,
                row_perm: (0..n).collect(),
                mismatch_cost: mismatch,
                sa1_cost: sa1,
            }
        })
        .collect();
    Mapping::new(n, blocks.grid, placements)
}

/// Post-deployment refresh (Section IV-A): keeps the block→crossbar
/// assignment `Π` but recomputes each block's row permutation against the
/// crossbar's *current* fault state.
///
/// This is the linear-cost maintenance step FARe runs after each
/// per-epoch BIST scan instead of re-running the full Algorithm 1.
///
/// # Panics
///
/// Panics if `mapping` refers to crossbars `array` does not have, or its
/// geometry disagrees with `adj`.
pub fn refresh_row_permutations(
    adj: &Matrix,
    array: &CrossbarArray,
    mapping: &Mapping,
    matcher: Matcher,
) -> Mapping {
    let mut cache = RemapCache::new();
    refresh_row_permutations_cached(adj, array, mapping, matcher, &mut cache)
}

/// [`refresh_row_permutations`] with cross-epoch memoisation: pairs whose
/// crossbar's [`Crossbar::fault_version`] matches the cached entry keep
/// their permutation; only mutated crossbars are re-solved. With an
/// empty cache this degenerates to a full recompute, so results are
/// identical either way. A dense adapter onto [`refresh_blocks_cached`]
/// that refreshes a copy of `mapping`.
///
/// # Panics
///
/// Panics if `mapping` refers to crossbars `array` does not have, or its
/// geometry disagrees with `adj`.
pub fn refresh_row_permutations_cached(
    adj: &Matrix,
    array: &CrossbarArray,
    mapping: &Mapping,
    matcher: Matcher,
    cache: &mut RemapCache,
) -> Mapping {
    let blocks = AdjacencyBlocks::from_matrix(adj, array.n());
    let mut refreshed = mapping.clone();
    refresh_blocks_cached(&blocks, array, &mut refreshed, matcher, cache);
    refreshed
}

/// [`refresh_row_permutations_cached`] of a packed block grid, in place:
/// a placement whose crossbar is unchanged since `cache` saw it is left
/// as it is, without allocating.
///
/// # Panics
///
/// Panics if `mapping` refers to crossbars `array` does not have, or its
/// geometry disagrees with `blocks`.
pub fn refresh_blocks_cached(
    blocks: &AdjacencyBlocks,
    array: &CrossbarArray,
    mapping: &mut Mapping,
    matcher: Matcher,
    cache: &mut RemapCache,
) {
    let _span = fare_obs::trace::span("core.mapping.refresh");
    let n = array.n();
    assert_eq!(mapping.n, n, "mapping crossbar size mismatch");
    assert_eq!(blocks.n, n, "block size does not match the crossbars");
    assert_eq!(
        mapping.grid, blocks.grid,
        "mapping grid does not match adjacency"
    );

    cache.cover(blocks.blocks.len());
    let mut misses = 0;
    for p in &mut mapping.placements {
        let entry = RemapCache::entry(array, p);
        let at = p.block_row * blocks.grid + p.block_col;
        if cache.entries[at] == Some(entry) {
            continue;
        }
        misses += 1;
        let xbar = array.crossbar(p.crossbar);
        let packed = blocks.block(p.block_row, p.block_col);
        if cache.block_idx[at] == u32::MAX {
            cache.block_idx[at] = cache.col_idx.len() as u32;
            cache.col_idx.push(BlockColIdx::build(packed));
        }
        let col_idx = &cache.col_idx[cache.block_idx[at] as usize];
        cache.ctx.fill(xbar);
        (p.mismatch_cost, p.sa1_cost) = solve_reduced_g1_costs(
            packed,
            col_idx,
            xbar,
            &cache.ctx,
            matcher,
            &mut cache.scratch,
        );
        fill_permutation(
            &mut p.row_perm,
            &cache.ctx.faulty,
            &cache.scratch.assign,
            &mut cache.scratch.is_faulty,
        );
        cache.entries[at] = Some(entry);
    }
    let hits = mapping.placements.len() - misses;
    fare_obs::counters::CORE_REMAP_CACHE_HITS.add(hits as u64);
    fare_obs::counters::CORE_REMAP_CACHE_MISSES.add(misses as u64);
}

/// Naive serial oracles for the fast path.
///
/// The functions here intentionally avoid the packed kernels, the class
/// deduplication and the level-greedy `G₁` solver: they
/// are the smallest honest implementation of the mapping semantics. The
/// property tests assert the production path is bit-identical to them.
pub mod reference {
    use super::*;

    /// Decomposes `adj` into the zero-padded `n × n` block grid.
    fn decompose(adj: &Matrix, n: usize) -> (usize, Vec<(usize, usize, Matrix)>) {
        assert_eq!(adj.rows(), adj.cols(), "adjacency must be square");
        assert!(adj.rows() > 0, "adjacency must be non-empty");
        let grid = adj.rows().div_ceil(n);
        let mut blocks = Vec::with_capacity(grid * grid);
        for br in 0..grid {
            for bc in 0..grid {
                blocks.push((br, bc, adj.block(br * n, bc * n, n, n)));
            }
        }
        (grid, blocks)
    }

    /// Number of ones in a block (edge density × n²).
    fn ones_count(block: &Matrix) -> usize {
        block.count_where(|v| v > 0.5)
    }

    /// Serial, slice-kernel version of the reduced `G₁` solve. Same
    /// semantics as the fast path: an `f × n` instance over the faulty
    /// physical rows, completed with fault-free rows at cost 0.
    pub fn solve_row_permutation(
        block: &Matrix,
        xbar: &Crossbar,
        matcher: Matcher,
    ) -> (Vec<usize>, usize, usize) {
        let n = block.rows();
        let faulty = xbar.faulty_rows();
        if faulty.is_empty() {
            return ((0..n).collect(), 0, 0);
        }
        let cost = CostMatrix::from_fn(faulty.len(), n, |k, l| {
            xbar.row_mismatch(block.row(l), faulty[k]) as f64
        });
        let sol = matcher.solve(&cost);
        let mut perm = vec![usize::MAX; n];
        let mut mismatch = 0usize;
        let mut sa1 = 0usize;
        for (k, assigned) in sol.assignment.iter().enumerate() {
            let l = assigned.expect("reduced G1 assigns every faulty row");
            perm[l] = faulty[k];
            mismatch += xbar.row_mismatch(block.row(l), faulty[k]);
            sa1 += xbar.row_sa1_mismatch(block.row(l), faulty[k]);
        }
        let mut free = (0..xbar.n()).filter(|q| !faulty.contains(q));
        for slot in perm.iter_mut() {
            if *slot == usize::MAX {
                *slot = free
                    .next()
                    .expect("as many fault-free rows as unmatched logical rows");
            }
        }
        (perm, mismatch, sa1)
    }

    /// Serial oracle for [`super::map_adjacency`]: solves every
    /// (block, crossbar) pair naively, then runs the selection half of
    /// Algorithm 1 — pruning (lines 8–17), the `G₂` placement over the
    /// live sets and greedy placement of deferred blocks — reading the
    /// full cost table.
    pub fn map_adjacency(adj: &Matrix, array: &CrossbarArray, cfg: &MappingConfig) -> Mapping {
        let n = array.n();
        let (grid, blocks) = decompose(adj, n);
        let b = blocks.len();
        let m = array.len();
        assert!(b <= m, "not enough crossbars: {b} blocks > {m} crossbars");
        let pair: Vec<Vec<PairSolution>> = blocks
            .iter()
            .map(|(_, _, block)| {
                (0..m)
                    .map(|j| solve_row_permutation(block, array.crossbar(j), cfg.matcher))
                    .collect()
            })
            .collect();
        let block_meta: Vec<(usize, usize)> = blocks.iter().map(|(br, bc, _)| (*br, *bc)).collect();
        let ones: Vec<usize> = blocks.iter().map(|(_, _, bl)| ones_count(bl)).collect();
        let cost_at = |i: usize, j: usize| (pair[i][j].1, pair[i][j].2);
        let take_at = |i: usize, j: usize| pair[i][j].clone();

        // Pruning heuristic (lines 8-17).
        let mut live_blocks: Vec<usize> = (0..b).collect();
        let mut live_xbars: Vec<usize> = (0..m).collect();
        let mut deferred_blocks: Vec<usize> = Vec::new();
        if cfg.prune {
            let mut j_idx = 0;
            while j_idx < live_xbars.len() {
                let j = live_xbars[j_idx];
                let min_sa1 = live_blocks
                    .iter()
                    .map(|&i| cost_at(i, j).1)
                    .min()
                    .unwrap_or(0);
                // The sparsest still-live block.
                let sparsest = live_blocks.iter().copied().min_by_key(|&i| ones[i]);
                let Some(sparsest) = sparsest else { break };
                if min_sa1 > ones[sparsest] {
                    if live_xbars.len() > live_blocks.len() {
                        // Plenty of crossbars: drop this hopeless one.
                        live_xbars.remove(j_idx);
                        continue; // same j_idx now points at the next crossbar
                    } else {
                        // b == m: defer the sparsest block instead for freedom.
                        live_blocks.retain(|&i| i != sparsest);
                        deferred_blocks.push(sparsest);
                    }
                }
                j_idx += 1;
            }
        }

        // Final G₂ assignment over the live sets.
        let mut placements: Vec<BlockPlacement> = Vec::with_capacity(b);
        let mut used_xbars = vec![false; m];
        if !live_blocks.is_empty() {
            let g2 = CostMatrix::from_fn(live_blocks.len(), live_xbars.len(), |bi, xj| {
                let (i, j) = (live_blocks[bi], live_xbars[xj]);
                cost_at(i, j).0 as f64
            });
            let sol = cfg.matcher.solve(&g2);
            for (bi, assigned) in sol.assignment.iter().enumerate() {
                let i = live_blocks[bi];
                let j = live_xbars[assigned.expect("G2 assigns every block")];
                used_xbars[j] = true;
                let (perm, cost, sa1) = take_at(i, j);
                let (br, bc) = block_meta[i];
                placements.push(BlockPlacement {
                    block_row: br,
                    block_col: bc,
                    crossbar: j,
                    row_perm: perm,
                    mismatch_cost: cost,
                    sa1_cost: sa1,
                });
            }
        }

        // Deferred blocks: greedy best-remaining-crossbar placement.
        for &i in &deferred_blocks {
            let (br, bc) = block_meta[i];
            let best = (0..m)
                .filter(|&j| !used_xbars[j])
                .min_by_key(|&j| cost_at(i, j).0)
                .expect("b <= m guarantees a free crossbar for deferred blocks");
            used_xbars[best] = true;
            let (perm, cost, sa1) = take_at(i, best);
            placements.push(BlockPlacement {
                block_row: br,
                block_col: bc,
                crossbar: best,
                row_perm: perm,
                mismatch_cost: cost,
                sa1_cost: sa1,
            });
        }

        Mapping::new(n, grid, placements)
    }

    /// Serial oracle for [`super::refresh_row_permutations`].
    pub fn refresh_row_permutations(
        adj: &Matrix,
        array: &CrossbarArray,
        mapping: &Mapping,
        matcher: Matcher,
    ) -> Mapping {
        let n = array.n();
        assert_eq!(mapping.n(), n, "mapping crossbar size mismatch");
        assert_eq!(
            mapping.grid(),
            adj.rows().div_ceil(n),
            "mapping grid does not match adjacency"
        );
        let placements = mapping
            .placements()
            .iter()
            .map(|p| {
                let block = adj.block(p.block_row * n, p.block_col * n, n, n);
                let (perm, cost, sa1) =
                    solve_row_permutation(&block, array.crossbar(p.crossbar), matcher);
                BlockPlacement {
                    row_perm: perm,
                    mismatch_cost: cost,
                    sa1_cost: sa1,
                    ..p.clone()
                }
            })
            .collect();
        Mapping::new(n, mapping.grid(), placements)
    }
}

#[cfg(test)]
mod tests {
    use fare_reram::{FaultSpec, StuckPolarity};
    use fare_rt::prop::prelude::*;
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::{Rng, SeedableRng};

    use super::*;

    fn random_adj(n: usize, p: f64, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut adj = Matrix::zeros(n, n);
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_bool(p) {
                    adj[(i, j)] = 1.0;
                    adj[(j, i)] = 1.0;
                }
            }
        }
        adj
    }

    fn faulty_array(count: usize, n: usize, density: f64, seed: u64) -> CrossbarArray {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut array = CrossbarArray::new(count, n);
        array.inject(&FaultSpec::density(density), &mut rng);
        array
    }

    #[test]
    fn fault_free_mapping_has_zero_cost() {
        let adj = random_adj(16, 0.2, 1);
        let array = CrossbarArray::new(4, 8);
        let mapping = map_adjacency(&adj, &array, &MappingConfig::default());
        assert_eq!(mapping.total_cost(), 0);
        assert_eq!(mapping.placements().len(), 4);
    }

    #[test]
    fn every_block_is_placed_on_distinct_crossbar() {
        let adj = random_adj(24, 0.15, 2);
        let array = faulty_array(12, 8, 0.05, 3);
        let mapping = map_adjacency(&adj, &array, &MappingConfig::default());
        assert_eq!(mapping.placements().len(), 9); // ceil(24/8)² = 9
        let mut used = std::collections::HashSet::new();
        for p in mapping.placements() {
            assert!(used.insert(p.crossbar), "crossbar {} reused", p.crossbar);
            assert!(p.crossbar < array.len());
        }
    }

    #[test]
    fn row_perms_are_valid_permutations() {
        let adj = random_adj(16, 0.2, 4);
        let array = faulty_array(6, 8, 0.05, 5);
        let mapping = map_adjacency(&adj, &array, &MappingConfig::default());
        for p in mapping.placements() {
            let mut sorted = p.row_perm.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), p.row_perm.len(), "duplicate physical rows");
            assert!(p.row_perm.iter().all(|&q| q < array.n()));
        }
    }

    #[test]
    fn fare_cost_no_worse_than_unaware() {
        for seed in 0..5 {
            let adj = random_adj(32, 0.1, seed);
            let array = faulty_array(20, 16, 0.05, seed + 100);
            let fare = map_adjacency(&adj, &array, &MappingConfig::default());
            let unaware = sequential_mapping(&adj, &array);
            assert!(
                fare.total_cost() <= unaware.total_cost(),
                "seed {seed}: fare {} > unaware {}",
                fare.total_cost(),
                unaware.total_cost()
            );
        }
    }

    #[test]
    fn hungarian_no_worse_than_bsuitor() {
        let adj = random_adj(32, 0.1, 9);
        let array = faulty_array(8, 16, 0.05, 10);
        let exact = map_adjacency(
            &adj,
            &array,
            &MappingConfig {
                matcher: Matcher::Hungarian,
                prune: false,
            },
        );
        let approx = map_adjacency(
            &adj,
            &array,
            &MappingConfig {
                matcher: Matcher::BSuitor,
                prune: false,
            },
        );
        assert!(exact.total_cost() <= approx.total_cost());
    }

    #[test]
    fn mapping_dodges_a_targeted_fault() {
        // Crossbar 0 has an SA0 right where the only 1 of the matrix sits;
        // crossbar 1 is clean. FARe must avoid corruption entirely.
        let mut adj = Matrix::zeros(4, 4);
        adj[(0, 1)] = 1.0;
        adj[(1, 0)] = 1.0;
        let mut array = CrossbarArray::new(2, 4);
        array
            .crossbar_mut(0)
            .inject_fault(0, 1, StuckPolarity::StuckAtZero);
        let mapping = map_adjacency(&adj, &array, &MappingConfig::default());
        assert_eq!(mapping.total_cost(), 0);
    }

    #[test]
    fn refreshed_sequential_keeps_block_order() {
        // NR's layout: sequential placement, every row permutation solved.
        let adj = random_adj(16, 0.2, 11);
        let array = faulty_array(4, 8, 0.05, 12);
        let blocks = AdjacencyBlocks::from_matrix(&adj, 8);
        let mut nr = sequential_block_mapping(&blocks, &array);
        let mut cache = RemapCache::new();
        refresh_blocks_cached(&blocks, &array, &mut nr, Matcher::BSuitor, &mut cache);
        for (k, p) in nr.placements().iter().enumerate() {
            assert_eq!(p.crossbar, k);
        }
        let unaware = sequential_mapping(&adj, &array);
        assert!(nr.total_cost() <= unaware.total_cost());
    }

    #[test]
    fn refresh_keeps_assignment_reoptimises_perms() {
        let adj = random_adj(16, 0.2, 13);
        let mut array = faulty_array(8, 8, 0.02, 14);
        let mapping = map_adjacency(&adj, &array, &MappingConfig::default());
        // New post-deployment faults appear.
        let mut rng = StdRng::seed_from_u64(15);
        array.inject(&FaultSpec::density(0.02), &mut rng);
        let refreshed = refresh_row_permutations(&adj, &array, &mapping, Matcher::BSuitor);
        for (a, b) in mapping.placements().iter().zip(refreshed.placements()) {
            assert_eq!(a.crossbar, b.crossbar, "assignment must be preserved");
            assert_eq!((a.block_row, a.block_col), (b.block_row, b.block_col));
        }
        // Refreshed cost reflects the *current* fault state; stale cost
        // fields do not.
        let stale_actual: usize = mapping
            .placements()
            .iter()
            .map(|p| {
                let block = adj.block(p.block_row * 8, p.block_col * 8, 8, 8);
                array
                    .crossbar(p.crossbar)
                    .mismatch_count(&block, Some(&p.row_perm))
            })
            .sum();
        assert!(refreshed.total_cost() <= stale_actual);
    }

    #[test]
    fn pruning_never_loses_blocks() {
        let adj = random_adj(32, 0.02, 16); // sparse: pruning likely active
        let array = faulty_array(16, 8, 0.05, 17);
        let pruned = map_adjacency(
            &adj,
            &array,
            &MappingConfig {
                matcher: Matcher::BSuitor,
                prune: true,
            },
        );
        assert_eq!(pruned.placements().len(), 16);
        let mut seen = std::collections::HashSet::new();
        for p in pruned.placements() {
            assert!(seen.insert((p.block_row, p.block_col)));
        }
    }

    #[test]
    fn placement_lookup() {
        let adj = random_adj(16, 0.2, 18);
        let array = faulty_array(4, 8, 0.03, 19);
        let mapping = map_adjacency(&adj, &array, &MappingConfig::default());
        assert!(mapping.placement_for(0, 0).is_some());
        assert!(mapping.placement_for(1, 1).is_some());
        assert!(mapping.placement_for(2, 0).is_none());
        assert_eq!(mapping.grid(), 2);
        assert_eq!(mapping.n(), 8);
    }

    #[test]
    fn placement_lookup_agrees_with_linear_scan() {
        let adj = random_adj(24, 0.15, 40);
        let array = faulty_array(12, 8, 0.04, 41);
        let mapping = map_adjacency(&adj, &array, &MappingConfig::default());
        for br in 0..4 {
            for bc in 0..4 {
                let scanned = mapping
                    .placements()
                    .iter()
                    .find(|p| p.block_row == br && p.block_col == bc);
                assert_eq!(mapping.placement_for(br, bc), scanned);
            }
        }
    }

    #[test]
    #[should_panic(expected = "not enough crossbars")]
    fn too_few_crossbars_panics() {
        let adj = random_adj(32, 0.1, 20);
        let array = CrossbarArray::new(2, 8);
        map_adjacency(&adj, &array, &MappingConfig::default());
    }

    /// 8×8 adjacency over 4×4 crossbars with block (0,0) all-zero and the
    /// other three blocks at distinct densities.
    fn defer_fixture() -> Matrix {
        let mut adj = Matrix::zeros(8, 8);
        // Block (0,1): rows 0..4, cols 4..8 — 5 ones.
        for &(r, c) in &[(0, 4), (0, 5), (1, 6), (2, 7), (3, 4)] {
            adj[(r, c)] = 1.0;
        }
        // Block (1,0): rows 4..8, cols 0..4 — 3 ones.
        for &(r, c) in &[(4, 0), (5, 1), (6, 2)] {
            adj[(r, c)] = 1.0;
        }
        // Block (1,1): rows 4..8, cols 4..8 — 6 ones.
        for &(r, c) in &[(4, 5), (5, 4), (5, 6), (6, 5), (6, 7), (7, 6)] {
            adj[(r, c)] = 1.0;
        }
        adj
    }

    fn drench_sa1(xbar: &mut Crossbar) {
        for r in 0..xbar.n() {
            for c in 0..xbar.n() {
                xbar.inject_fault(r, c, StuckPolarity::StuckAtOne);
            }
        }
    }

    #[test]
    fn prune_defers_sparsest_block_when_b_equals_m() {
        // b == m == 4 and crossbar 0 is all-SA1: even the densest block
        // leaves min_sa1 = 16 - 6 = 10 > 0 = ones of the empty block, so
        // Algorithm 1's line-15 branch defers the sparsest block rather
        // than dropping the crossbar.
        let adj = defer_fixture();
        let mut array = CrossbarArray::new(4, 4);
        drench_sa1(array.crossbar_mut(0));
        let cfg = MappingConfig::default();
        let mapping = map_adjacency(&adj, &array, &cfg);
        assert_eq!(
            mapping.placements().len(),
            4,
            "deferred block must still be placed"
        );
        let mut used = std::collections::HashSet::new();
        for p in mapping.placements() {
            assert!(used.insert(p.crossbar));
        }
        // G₂ gives the three live blocks the clean crossbars at cost 0;
        // the deferred empty block greedily takes the only remaining
        // (drenched) crossbar.
        let empty = mapping.placement_for(0, 0).unwrap();
        assert_eq!(empty.crossbar, 0);
        assert_eq!(empty.mismatch_cost, 16);
        assert_eq!(mapping.total_cost(), 16);
        assert_eq!(mapping, reference::map_adjacency(&adj, &array, &cfg));
    }

    #[test]
    fn prune_drops_hopeless_crossbar_when_plentiful() {
        // Same drenched crossbar but m > b: the line-13 branch removes it
        // from the pool instead, and no block lands on it.
        let adj = defer_fixture();
        let mut array = CrossbarArray::new(6, 4);
        drench_sa1(array.crossbar_mut(0));
        let cfg = MappingConfig::default();
        let mapping = map_adjacency(&adj, &array, &cfg);
        assert_eq!(mapping.placements().len(), 4);
        assert!(
            mapping.placements().iter().all(|p| p.crossbar != 0),
            "pruned crossbar must stay empty"
        );
        assert_eq!(mapping.total_cost(), 0);
        assert_eq!(mapping, reference::map_adjacency(&adj, &array, &cfg));
    }

    #[test]
    fn deferred_blocks_take_their_cheapest_free_crossbar() {
        // b == m == 4. Crossbars 0–2 are all-SA1 but for 0, 1 and 2 SA0
        // cells in row 3; crossbar 3 is clean. Pruning defers the empty
        // block at crossbar 0, drops crossbar 1 and defers the 3-one
        // block (1, 0) at crossbar 2. `G₂` puts block (0, 1) on crossbar
        // 3 and block (1, 1) on crossbar 2, its cheapest faulty one. The
        // empty block then takes crossbar 1 (15 SA1 cells) over crossbar
        // 0 (16), although crossbar 0 comes first and set the best cost.
        let adj = defer_fixture();
        let mut array = CrossbarArray::new(4, 4);
        for (j, sa0_cols) in [(0, 0..0), (1, 3..4), (2, 2..4)] {
            let xbar = array.crossbar_mut(j);
            drench_sa1(xbar);
            for c in sa0_cols {
                xbar.inject_fault(3, c, StuckPolarity::StuckAtZero);
            }
        }
        let cfg = MappingConfig::default();
        let mapping = map_adjacency(&adj, &array, &cfg);
        let placed: Vec<(usize, usize)> = mapping
            .placements()
            .iter()
            .map(|p| (p.crossbar, p.mismatch_cost))
            .collect();
        assert_eq!(placed, [(1, 15), (3, 0), (0, 13), (2, 8)]);
        assert_eq!(mapping, reference::map_adjacency(&adj, &array, &cfg));
    }

    #[test]
    fn fast_path_matches_reference_oracle() {
        for (seed, matcher) in [
            (50, Matcher::BSuitor),
            (51, Matcher::Hungarian),
            (52, Matcher::BSuitor),
        ] {
            let adj = random_adj(24, 0.12, seed);
            let array = faulty_array(12, 8, 0.06, seed + 100);
            let cfg = MappingConfig {
                matcher,
                ..MappingConfig::default()
            };
            let fast = map_adjacency(&adj, &array, &cfg);
            let oracle = reference::map_adjacency(&adj, &array, &cfg);
            assert_eq!(fast, oracle, "seed {seed} {matcher}");
        }
    }

    #[test]
    fn cached_refresh_matches_uncached_and_oracle() {
        let adj = random_adj(24, 0.15, 70);
        let mut array = faulty_array(9, 8, 0.03, 71);
        let mut cache = RemapCache::new();
        let mapping = map_adjacency_cached(&adj, &array, &MappingConfig::default(), &mut cache);
        assert_eq!(cache.len(), mapping.placements().len());

        // No mutation: the refresh must be pure cache hits and identical
        // to a cold full recompute.
        let warm =
            refresh_row_permutations_cached(&adj, &array, &mapping, Matcher::BSuitor, &mut cache);
        let cold = refresh_row_permutations(&adj, &array, &mapping, Matcher::BSuitor);
        assert_eq!(warm, cold);
        assert_eq!(
            warm,
            reference::refresh_row_permutations(&adj, &array, &mapping, Matcher::BSuitor)
        );

        // Mutate a subset of crossbars; the incremental refresh must
        // still equal the full recompute bit-for-bit.
        let mut rng = StdRng::seed_from_u64(72);
        for j in [0usize, 3, 5] {
            let xbar = array.crossbar_mut(j);
            let r = rng.gen_range(0..8);
            let c = rng.gen_range(0..8);
            xbar.inject_fault(r, c, StuckPolarity::StuckAtOne);
        }
        let warm =
            refresh_row_permutations_cached(&adj, &array, &warm, Matcher::BSuitor, &mut cache);
        let cold = refresh_row_permutations(&adj, &array, &mapping, Matcher::BSuitor);
        assert_eq!(warm, cold);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // The lazy selection is bit-exact only because `LB` and `LB_sa1`
        // never exceed a pair's exact costs. Check every (block, crossbar)
        // pair under both exact and approximate `G₁` matchers, over block
        // densities 0–100%, fault densities 0–100% at SA1 shares 0, ½
        // and 1, with padded, empty and full blocks in every case.
        #[test]
        fn pair_bounds_never_exceed_exact_costs(
            seed in 0u64..100_000,
            edge_p in 0.0f64..=1.0,
            fault_density in 0.0f64..=1.0,
            sa1_pick in 0usize..3,
        ) {
            let n = 8;
            // 21 nodes: the last block row and column are 5/8 padding.
            let adj = random_adj(21, edge_p, seed);
            let mut blocks = AdjacencyBlocks::from_matrix(&adj, n).blocks;
            let mut full = PackedRows::zeros(n, n);
            for r in 0..n {
                for c in 0..n {
                    full.set(r, c);
                }
            }
            blocks.push(full);
            blocks.push(PackedRows::zeros(n, n));
            let sa1_fraction = [0.0, 0.5, 1.0][sa1_pick];
            let mut rng = StdRng::seed_from_u64(seed ^ 0xB0D);
            let mut array = CrossbarArray::new(6, n);
            array.inject(&FaultSpec::with_sa1_fraction(fault_density, sa1_fraction), &mut rng);
            let mut scratch = G1Scratch::default();
            for (i, block) in blocks.iter().enumerate() {
                let col_idx = BlockColIdx::build(block);
                let ones: Vec<u32> = (0..n).map(|c| col_idx.count(c) as u32).collect();
                for j in 0..array.len() {
                    let xbar = array.crossbar(j);
                    let ctx = XbarG1Ctx::build(xbar);
                    let (mut sa0, mut sa1) = (Vec::new(), Vec::new());
                    column_faults(xbar, &mut sa0, &mut sa1);
                    let (lb, lb_sa1) = pair_bounds(&ones, &sa0, &sa1);
                    for matcher in [Matcher::BSuitor, Matcher::Hungarian] {
                        let (mismatch, sa1) =
                            solve_reduced_g1_costs(block, &col_idx, xbar, &ctx, matcher, &mut scratch);
                        prop_assert!(
                            lb <= mismatch && lb_sa1 <= sa1,
                            "block {} on crossbar {} ({}): bounds ({}, {}) > costs ({}, {})",
                            i, j, matcher, lb, lb_sa1, mismatch, sa1
                        );
                    }
                }
            }
        }
    }
}

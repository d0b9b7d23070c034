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
//! level-greedy matching over the same base/deviant split — exactly the
//! b-Suitor assignment, because with all preferences derived from the
//! common edge order `(cost, row, col)` the suitor fixed point *is* the
//! greedy matching by that order (see `G1Scratch::greedy_assign`).
//!
//! On top of the reduced kernel, [`map_adjacency`] deduplicates work by
//! *content classes*: blocks with identical bit patterns and crossbars
//! with identical fault planes share a single `G₁` solution, and the
//! unique (block-class, fault-class) pairs are solved on the worker pool
//! with per-worker solver scratch. [`RemapCache`] extends the same idea
//! across BIST epochs: a (block, crossbar) pair whose fault state is
//! unchanged (checked via [`Crossbar::fault_version`]) reuses its stored
//! permutation instead of re-solving.
//!
//! The [`reference`] module keeps a naive serial implementation of the
//! same semantics: the oracle the property tests pin the fast path
//! against. A property test also checks that the reduced `f × n` Hungarian
//! optimum equals the full `n × n` one, pair by pair.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

use fare_graph::{CsrGraph, CsrMatrix};
use fare_matching::{CostMatrix, Matcher};
use fare_reram::{Crossbar, CrossbarArray, PackedRows, StuckPolarity};
use fare_rt::json::{field, FromJson, Json, JsonError, ToJson};
use fare_rt::par::scoped_map_init;
use fare_tensor::Matrix;

/// Configuration of the mapping algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappingConfig {
    /// Assignment solver for both matchings (paper default: b-Suitor).
    pub matcher: Matcher,
    /// Enables the SA1-non-overlap pruning heuristic (lines 8–17).
    pub prune: bool,
    /// Optional tile-locality term (extension beyond the paper).
    pub locality: Option<LocalityConfig>,
}

fare_rt::json_struct!(MappingConfig { matcher, prune, locality });

impl Default for MappingConfig {
    fn default() -> Self {
        Self {
            matcher: Matcher::BSuitor,
            prune: true,
            locality: None,
        }
    }
}

/// Tile-locality extension: blocks in the same block-row produce partial
/// sums that must be accumulated together, so scattering them across
/// tiles costs inter-tile communication. This term biases the `G₂`
/// assignment toward keeping each block-row inside its *target tile*
/// (`block_row` spread evenly over the pool's tiles) at the price of a
/// few extra mismatches — the trade-off the `ablation` binary sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalityConfig {
    /// Crossbars per tile (Table III: 96).
    pub crossbars_per_tile: usize,
    /// Weight λ of the tile-distance penalty, in mismatch units per tile
    /// hop.
    pub weight: f64,
}

fare_rt::json_struct!(LocalityConfig { crossbars_per_tile, weight });

impl LocalityConfig {
    /// Creates a locality term.
    ///
    /// # Panics
    ///
    /// Panics if `crossbars_per_tile == 0` or `weight` is negative.
    pub fn new(crossbars_per_tile: usize, weight: f64) -> Self {
        assert!(crossbars_per_tile > 0, "crossbars_per_tile must be positive");
        assert!(weight >= 0.0 && weight.is_finite(), "invalid weight {weight}");
        Self {
            crossbars_per_tile,
            weight,
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

fare_rt::json_struct!(BlockPlacement { block_row, block_col, crossbar, row_perm, mismatch_cost, sa1_cost });

/// A complete fault-aware mapping `Π` of one adjacency matrix.
#[derive(Debug, Clone)]
pub struct Mapping {
    n: usize,
    grid: usize,
    placements: Vec<BlockPlacement>,
    /// `grid × grid` row-major lookup: placement index of block
    /// `(br, bc)`, or `u32::MAX` when absent. Derived; rebuilt on load.
    index: Vec<u32>,
}

impl PartialEq for Mapping {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.grid == other.grid && self.placements == other.placements
    }
}

impl ToJson for Mapping {
    fn to_json(&self) -> Json {
        // Serialise only the semantic fields; the lookup index is
        // rebuilt on load.
        Json::Obj(vec![
            ("n".to_string(), self.n.to_json()),
            ("grid".to_string(), self.grid.to_json()),
            ("placements".to_string(), self.placements.to_json()),
        ])
    }
}

impl FromJson for Mapping {
    /// Rejects anything [`map_adjacency`] and friends cannot produce: a
    /// zero crossbar size, a placement count other than `grid²`, a block
    /// outside the grid or placed twice, a crossbar used twice, or a
    /// `row_perm` that is not a permutation of `0..n`.
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let n: usize = field(v, "n")?;
        let grid: usize = field(v, "grid")?;
        let placements: Vec<BlockPlacement> = field(v, "placements")?;
        if n == 0 {
            return Err(JsonError::new("mapping crossbar size must be positive"));
        }
        if grid.checked_mul(grid) != Some(placements.len()) {
            return Err(JsonError::new(format!(
                "mapping has {} placements for a {grid}x{grid} block grid",
                placements.len()
            )));
        }
        let mut blocks = vec![false; placements.len()];
        let mut crossbars = HashSet::new();
        for p in &placements {
            if p.block_row >= grid || p.block_col >= grid {
                return Err(JsonError::new(format!(
                    "block ({}, {}) outside the {grid}x{grid} grid",
                    p.block_row, p.block_col
                )));
            }
            if std::mem::replace(&mut blocks[p.block_row * grid + p.block_col], true) {
                return Err(JsonError::new(format!(
                    "block ({}, {}) placed twice",
                    p.block_row, p.block_col
                )));
            }
            if !crossbars.insert(p.crossbar) {
                return Err(JsonError::new(format!(
                    "crossbar {} used twice",
                    p.crossbar
                )));
            }
            // Length first: `n` is untrusted, so size `seen` only once it
            // is known to match data that was actually read.
            let is_perm = p.row_perm.len() == n && {
                let mut seen = vec![false; n];
                p.row_perm
                    .iter()
                    .all(|&q| q < n && !std::mem::replace(&mut seen[q], true))
            };
            if !is_perm {
                return Err(JsonError::new(format!(
                    "row_perm of block ({}, {}) is not a permutation of 0..{n}",
                    p.block_row, p.block_col
                )));
            }
        }
        Ok(Mapping::new(n, grid, placements))
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

    /// Mean inter-tile spread per block-row: the average number of
    /// *extra* tiles (beyond one) each block-row's partial sums must be
    /// gathered from. 0 means every block-row lives inside a single tile.
    ///
    /// # Panics
    ///
    /// Panics if `crossbars_per_tile == 0`.
    pub fn tile_spread(&self, crossbars_per_tile: usize) -> f64 {
        assert!(crossbars_per_tile > 0, "crossbars_per_tile must be positive");
        if self.grid == 0 {
            return 0.0;
        }
        // Single pass: per block-row, count distinct tiles as they appear
        // (block-rows hold at most `grid` tiles, so a linear scan of the
        // per-row tile list beats hashing).
        let mut tiles: Vec<Vec<usize>> = vec![Vec::new(); self.grid];
        let mut total_extra = 0usize;
        for p in &self.placements {
            if p.block_row >= self.grid {
                continue;
            }
            let tile = p.crossbar / crossbars_per_tile;
            let seen = &mut tiles[p.block_row];
            if !seen.contains(&tile) {
                if !seen.is_empty() {
                    total_extra += 1;
                }
                seen.push(tile);
            }
        }
        total_extra as f64 / self.grid as f64
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

/// Reusable per-worker scratch for the `G₁` pair solves: the integer
/// cost table, the per-row deviant index, the level set, and the
/// matching state survive across pair solves so the hot loop allocates
/// nothing (cost-only solves) or only the output permutation.
#[derive(Default)]
struct G1Scratch {
    /// `f × n` cost table, row-major.
    costs: Vec<u32>,
    /// CSR offsets into `dev_cols`: instance row `k`'s deviant columns
    /// (entries whose cost differs from — or was touched away from and
    /// back to — row `k`'s base) live at `dev_cols[dev_start[k]..dev_start[k + 1]]`.
    dev_start: Vec<u32>,
    /// Deviant column ids, ascending within each row, deduplicated.
    dev_cols: Vec<u32>,
    /// Per-row collection buffer for deviants before sort/dedup.
    dev_tmp: Vec<u32>,
    /// Bit `v` set iff some entry (base or deviant) has cost `v < 64`.
    level_mask: u64,
    /// Cost levels `≥ 64` (rare: a row with 64+ SA1 cells).
    level_spill: Vec<u32>,
    /// Row → column assignment of the greedy matching.
    assign: Vec<u32>,
    /// Column-taken flags.
    used: Vec<bool>,
    is_faulty: Vec<bool>,
}

/// Transposed one-bit index of a packed block: for each column, the
/// ascending list of block rows with that bit set. Built once per block
/// (or block class) and reused against every crossbar, it turns the
/// `f × n` cost build into sparse deltas — each fault cell `(c, pol)`
/// touches only the rows listed under column `c`.
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
}

/// Per-crossbar (or per-fault-class) context for [`solve_reduced_g1`]:
/// the faulty physical rows and each one's SA1 count — the *base cost* a
/// block row with no bits under that row's fault cells pays.
struct XbarG1Ctx {
    faulty: Vec<usize>,
    base: Vec<u32>,
}

impl XbarG1Ctx {
    fn build(xbar: &Crossbar) -> Self {
        let faulty = xbar.faulty_rows();
        let base = faulty
            .iter()
            .map(|&phys| xbar.sa1_row_bits(phys).iter().map(|w| w.count_ones()).sum())
            .collect();
        Self { faulty, base }
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
        let f = ctx.faulty.len();
        self.costs.clear();
        self.costs.resize(f * n, 0);
        self.dev_start.clear();
        self.dev_start.push(0);
        self.dev_cols.clear();
        self.level_mask = 0;
        self.level_spill.clear();
        for (k, &base) in ctx.base.iter().enumerate() {
            self.costs[k * n..(k + 1) * n].fill(base);
            if base < 64 {
                self.level_mask |= 1 << base;
            } else {
                self.level_spill.push(base);
            }
            self.dev_tmp.clear();
            for &(c, pol) in xbar.row_faults(ctx.faulty[k]) {
                // SA0 mismatches stored ones; SA1 is already counted in
                // the base and mismatches stored zeros — a set bit
                // cancels it.
                let delta: i32 = match pol {
                    StuckPolarity::StuckAtZero => 1,
                    StuckPolarity::StuckAtOne => -1,
                };
                for &l in col_idx.col(c) {
                    let slot = &mut self.costs[k * n + l as usize];
                    *slot = slot.wrapping_add_signed(delta);
                    self.dev_tmp.push(l);
                }
            }
            // Several fault cells can touch the same block row; dedup so
            // each deviant column appears once, ascending.
            self.dev_tmp.sort_unstable();
            self.dev_tmp.dedup();
            for &l in &self.dev_tmp {
                let v = self.costs[k * n + l as usize];
                if v < 64 {
                    self.level_mask |= 1 << v;
                } else {
                    self.level_spill.push(v);
                }
            }
            self.dev_cols.extend_from_slice(&self.dev_tmp);
            self.dev_start.push(self.dev_cols.len() as u32);
        }
        self.level_spill.sort_unstable();
        self.level_spill.dedup();
    }

    /// Greedy matching over the edges of the cost table in ascending
    /// `(cost, row, col)` order, written into `self.assign`.
    ///
    /// This produces *exactly* the b-Suitor assignment: every vertex
    /// ranks its edges by the common total order `(cost, row id, col
    /// id)`, and with preferences derived from one global edge ranking
    /// the suitor fixed point is the unique stable matching — the greedy
    /// matching by that ranking. (Pinned structurally by the matching
    /// crate's `bsuitor_equals_greedy_by_edge_order` property test and
    /// end-to-end by the mapping oracles.) Walking levels through the
    /// base/deviant split costs `O(f·n)` per populated level instead of
    /// materialising and replaying `2·f·n` proposal orders.
    fn greedy_assign(&mut self, f: usize, n: usize, base: &[u32]) {
        self.assign.clear();
        self.assign.resize(f, u32::MAX);
        self.used.clear();
        self.used.resize(n, false);
        let mut matched = 0usize;
        let level = |scratch: &mut Self, v: u32, matched: &mut usize| {
            for k in 0..f {
                if scratch.assign[k] != u32::MAX {
                    continue;
                }
                let devs = &scratch.dev_cols
                    [scratch.dev_start[k] as usize..scratch.dev_start[k + 1] as usize];
                let row = &scratch.costs[k * n..(k + 1) * n];
                let hit = if base[k] == v {
                    // Every non-deviant column sits at the base level;
                    // deviants count only if their net cost is back at
                    // `v`. First free column in ascending order wins.
                    let mut di = 0;
                    let mut found = None;
                    for (l, &taken) in scratch.used.iter().enumerate() {
                        let deviant = devs.get(di) == Some(&(l as u32));
                        if deviant {
                            di += 1;
                        }
                        if !taken && (!deviant || row[l] == v) {
                            found = Some(l);
                            break;
                        }
                    }
                    found
                } else {
                    devs.iter()
                        .map(|&l| l as usize)
                        .find(|&l| !scratch.used[l] && row[l] == v)
                };
                if let Some(l) = hit {
                    scratch.assign[k] = l as u32;
                    scratch.used[l] = true;
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
        // (see `greedy_assign`).
        Matcher::BSuitor => scratch.greedy_assign(f, n, &ctx.base),
        _ => {
            let costs = &scratch.costs;
            let cost = CostMatrix::from_row_fn(f, n, |k, row| {
                for (l, slot) in row.iter_mut().enumerate() {
                    *slot = costs[k * n + l] as f64;
                }
            });
            let sol = matcher.solve(&cost);
            scratch.assign.clear();
            scratch.assign.extend(sol.assignment.iter().map(|assigned| {
                assigned.expect("reduced G1 assigns every faulty row") as u32
            }));
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

/// Solves the reduced `f × n` row-permutation matching of one packed
/// block onto one crossbar (`f` = number of faulty physical rows, in
/// ascending order inside `ctx`). Returns a full `n`-element permutation:
/// logical rows not matched to a faulty physical row take the fault-free
/// physical rows in ascending order at cost 0.
fn solve_reduced_g1(
    packed: &PackedRows,
    col_idx: &BlockColIdx,
    xbar: &Crossbar,
    ctx: &XbarG1Ctx,
    matcher: Matcher,
    scratch: &mut G1Scratch,
) -> PairSolution {
    let n = packed.rows();
    debug_assert_eq!(n, xbar.n(), "block does not fit the crossbar");
    let faulty = &ctx.faulty;
    let f = faulty.len();
    // Fault-free crossbars need no search: identity is optimal (cost 0).
    if f == 0 {
        return ((0..n).collect(), 0, 0);
    }
    g1_assign(col_idx, xbar, ctx, matcher, scratch);

    let mut perm = vec![usize::MAX; n];
    let mut mismatch = 0usize;
    let mut sa1 = 0usize;
    for (k, &l) in scratch.assign.iter().enumerate() {
        let l = l as usize;
        perm[l] = faulty[k];
        mismatch += scratch.costs[k * n + l] as usize;
        sa1 += xbar.row_sa1_mismatch_packed(packed.row(l), faulty[k]);
    }
    // Cost-0 completion: remaining logical rows (ascending) onto
    // fault-free physical rows (ascending).
    scratch.is_faulty.clear();
    scratch.is_faulty.resize(n, false);
    for &phys in faulty {
        scratch.is_faulty[phys] = true;
    }
    let is_faulty = &scratch.is_faulty;
    let mut free = (0..n).filter(move |&q| !is_faulty[q]);
    for slot in perm.iter_mut() {
        if *slot == usize::MAX {
            *slot = free.next().expect("as many fault-free rows as unmatched logical rows");
        }
    }
    (perm, mismatch, sa1)
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
        assert!(block_row < self.grid && block_col < self.grid, "block outside the grid");
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

/// Shared back half of Algorithm 1: pruning (lines 8–17), the `G₂`
/// placement over the live sets, and greedy placement of deferred
/// blocks. Parameterised over how pair costs/solutions are produced so
/// the fast path (deduplicated class table) and the reference oracle
/// (naive per-pair table) provably run the identical selection logic.
///
/// `cost_at(i, j)` returns `(mismatch, sa1)` for block `i` on crossbar
/// `j`; `take_at(i, j)` materialises the full solution for the chosen
/// pairs only.
fn assemble_mapping<C, T>(
    n: usize,
    grid: usize,
    block_meta: &[(usize, usize)],
    ones: &[usize],
    m: usize,
    cfg: &MappingConfig,
    cost_at: C,
    take_at: T,
    parallel_g2: bool,
) -> Mapping
where
    C: Fn(usize, usize) -> (usize, usize) + Sync,
    T: Fn(usize, usize) -> PairSolution,
{
    let b = block_meta.len();

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
            let sparsest = live_blocks
                .iter()
                .copied()
                .min_by_key(|&i| ones[i]);
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

    // Final G₂ assignment over the live sets, optionally with the
    // tile-locality penalty.
    let locality_penalty = |block_row: usize, xbar: usize| -> f64 {
        match &cfg.locality {
            None => 0.0,
            Some(loc) => {
                let num_tiles = m.div_ceil(loc.crossbars_per_tile).max(1);
                let target_tile = block_row * num_tiles / grid.max(1);
                let tile = xbar / loc.crossbars_per_tile;
                loc.weight * target_tile.abs_diff(tile) as f64
            }
        }
    };
    let mut placements: Vec<BlockPlacement> = Vec::with_capacity(b);
    let mut used_xbars = vec![false; m];
    if !live_blocks.is_empty() {
        let g2_entry = |i: usize, j: usize| -> f64 {
            cost_at(i, j).0 as f64 + locality_penalty(block_meta[i].0, j)
        };
        let g2 = if parallel_g2 {
            // Row-parallel assembly; entries are computed by the exact
            // expression the serial branch uses, so both are bit-equal.
            let xbars = &live_xbars;
            let rows: Vec<Vec<f64>> = scoped_map_init(
                live_blocks.clone(),
                || (),
                |_, i| xbars.iter().map(|&j| g2_entry(i, j)).collect(),
            );
            CostMatrix::from_vec(live_blocks.len(), live_xbars.len(), rows.concat())
        } else {
            CostMatrix::from_fn(live_blocks.len(), live_xbars.len(), |bi, xj| {
                g2_entry(live_blocks[bi], live_xbars[xj])
            })
        };
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

/// Cross-epoch memo of solved `G₁` instances, keyed by block position.
///
/// [`map_adjacency_cached`] fills it with the chosen placements;
/// [`refresh_row_permutations_cached`] re-solves only the pairs whose
/// crossbar mutated since (detected via [`Crossbar::fault_version`]) and
/// reuses the stored permutation for the rest — the common case after a
/// BIST scan that found few new faults.
///
/// The cache assumes the adjacency block at a given `(block_row,
/// block_col)` key is the same across calls (true per batch in the
/// trainer, which owns one cache per batch state). A full
/// [`map_adjacency_cached`] clears it first, so re-mapping a different
/// adjacency through the same cache is safe.
#[derive(Debug, Clone, Default)]
pub struct RemapCache {
    entries: HashMap<(usize, usize), CacheEntry>,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    crossbar: usize,
    version: u64,
    solution: PairSolution,
}

impl RemapCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoised block placements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is memoised yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all memoised solutions.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    fn store(&mut self, array: &CrossbarArray, placements: &[BlockPlacement]) {
        for p in placements {
            self.entries.insert(
                (p.block_row, p.block_col),
                CacheEntry {
                    crossbar: p.crossbar,
                    version: array.crossbar(p.crossbar).fault_version(),
                    solution: (p.row_perm.clone(), p.mismatch_cost, p.sa1_cost),
                },
            );
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
    map_blocks_cached(&AdjacencyBlocks::from_matrix(adj, array.n()), array, cfg, cache)
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
    fare_obs::timers::CORE_MAPPING_MAP.time(|| map_blocks_cached_inner(blocks, array, cfg, cache))
}

fn map_blocks_cached_inner(
    blocks: &AdjacencyBlocks,
    array: &CrossbarArray,
    cfg: &MappingConfig,
    cache: &mut RemapCache,
) -> Mapping {
    fare_obs::counters::CORE_MAPPINGS_BUILT.incr();
    blocks.check_fits(array);
    let n = blocks.n;
    let grid = blocks.grid;
    let packed = &blocks.blocks;
    let b = packed.len();
    let m = array.len();
    let block_meta: Vec<(usize, usize)> = blocks.positions().collect();
    let ones: Vec<usize> = packed
        .iter()
        .map(|p| (0..p.rows()).map(|r| p.ones(r)).sum())
        .collect();

    // Content classes: identical blocks share one class; crossbars with
    // identical fault planes share one class. G₁ solutions are pure
    // functions of (block bits, fault planes, matcher), so solving one
    // representative per class pair is bit-exact.
    let mut block_class: Vec<u32> = vec![0; b];
    let mut block_reps: Vec<usize> = Vec::new();
    {
        let mut seen: HashMap<&[u64], u32> = HashMap::new();
        for (i, p) in packed.iter().enumerate() {
            let next = block_reps.len() as u32;
            let class = *seen.entry(p.bits()).or_insert_with(|| {
                block_reps.push(i);
                next
            });
            block_class[i] = class;
        }
    }
    let mut xbar_class: Vec<u32> = vec![0; m];
    let mut xbar_reps: Vec<usize> = Vec::new();
    {
        let mut seen: HashMap<(&[u64], &[u64]), u32> = HashMap::new();
        for j in 0..m {
            let planes = array.crossbar(j).fault_bits();
            let next = xbar_reps.len() as u32;
            let class = *seen.entry(planes).or_insert_with(|| {
                xbar_reps.push(j);
                next
            });
            xbar_class[j] = class;
        }
    }
    // Per-class precomputation, amortised across every pair the class
    // participates in: each block class gets its transposed column index
    // (reused against all fault classes), each fault class its base
    // costs/histogram (reused against all block classes).
    let col_idx: Vec<BlockColIdx> = block_reps
        .iter()
        .map(|&i| BlockColIdx::build(&packed[i]))
        .collect();
    let xbar_ctx: Vec<XbarG1Ctx> = xbar_reps
        .iter()
        .map(|&j| XbarG1Ctx::build(array.crossbar(j)))
        .collect();

    // Solve each unique (block-class, fault-class) pair exactly once, on
    // the worker pool, with per-worker solver scratch.
    let bc_count = block_reps.len();
    let xc_count = xbar_reps.len();
    let pairs: Vec<(usize, usize)> = (0..bc_count)
        .flat_map(|ci| (0..xc_count).map(move |cj| (ci, cj)))
        .collect();
    fare_obs::counters::CORE_MAPPING_PAIRS_SOLVED.add(pairs.len() as u64);
    // The pair table needs only `(mismatch, sa1)` — `G₂` and the pruning
    // heuristic consume costs, never permutations — so the fan-out solve
    // skips permutation assembly (and its per-pair allocation) entirely.
    // Full solutions are recomputed below for the ~`B` chosen pairs.
    let unique: Vec<(usize, usize)> = {
        let block_reps = &block_reps;
        let xbar_reps = &xbar_reps;
        let col_idx = &col_idx;
        let xbar_ctx = &xbar_ctx;
        scoped_map_init(pairs, G1Scratch::default, |scratch, (ci, cj)| {
            solve_reduced_g1_costs(
                &packed[block_reps[ci]],
                &col_idx[ci],
                array.crossbar(xbar_reps[cj]),
                &xbar_ctx[cj],
                cfg.matcher,
                scratch,
            )
        })
    };
    let cost_at =
        |i: usize, j: usize| unique[block_class[i] as usize * xc_count + xbar_class[j] as usize];
    let take_scratch = RefCell::new(G1Scratch::default());

    let mapping = assemble_mapping(
        n,
        grid,
        &block_meta,
        &ones,
        m,
        cfg,
        cost_at,
        |i, j| {
            // Deterministic re-solve of a chosen pair: same inputs as the
            // cost-only pass, so the permutation realises exactly the
            // `(mismatch, sa1)` the table promised. Crossbar `j` shares
            // its fault planes with its class representative, so the
            // class context applies verbatim.
            solve_reduced_g1(
                &packed[i],
                &col_idx[block_class[i] as usize],
                array.crossbar(j),
                &xbar_ctx[xbar_class[j] as usize],
                cfg.matcher,
                &mut take_scratch.borrow_mut(),
            )
        },
        true,
    );

    cache.clear();
    cache.store(array, mapping.placements());
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

/// Neuron-reordering-style mapping: keeps the sequential block→crossbar
/// assignment but optimises the row permutation within each crossbar.
///
/// This is the aggregation-phase half of the NR baseline — permutation
/// without fault-polarity-aware block placement.
///
/// # Panics
///
/// Panics if the blocks are not `array.n()` wide or there are fewer
/// crossbars than blocks.
pub fn reordered_block_mapping(
    blocks: &AdjacencyBlocks,
    array: &CrossbarArray,
    matcher: Matcher,
) -> Mapping {
    blocks.check_fits(array);
    let items: Vec<(usize, (usize, usize))> = blocks.positions().enumerate().collect();
    let placements = scoped_map_init(items, G1Scratch::default, |scratch, (k, (br, bc))| {
        let xbar = array.crossbar(k);
        let packed = &blocks.blocks[k];
        let col_idx = BlockColIdx::build(packed);
        let ctx = XbarG1Ctx::build(xbar);
        let (perm, cost, sa1) = solve_reduced_g1(packed, &col_idx, xbar, &ctx, matcher, scratch);
        BlockPlacement {
            block_row: br,
            block_col: bc,
            crossbar: k,
            row_perm: perm,
            mismatch_cost: cost,
            sa1_cost: sa1,
        }
    });
    Mapping::new(blocks.n, blocks.grid, placements)
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
/// crossbar's [`Crossbar::fault_version`] matches the cached entry reuse
/// the stored permutation; only mutated crossbars are re-solved (in
/// parallel). With an empty cache this degenerates to a full (parallel)
/// recompute, so results are identical either way. A dense adapter onto
/// [`refresh_blocks_cached`].
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
    refresh_blocks_cached(&blocks, array, mapping, matcher, cache)
}

/// [`refresh_row_permutations_cached`] of a packed block grid.
///
/// # Panics
///
/// Panics if `mapping` refers to crossbars `array` does not have, or its
/// geometry disagrees with `blocks`.
pub fn refresh_blocks_cached(
    blocks: &AdjacencyBlocks,
    array: &CrossbarArray,
    mapping: &Mapping,
    matcher: Matcher,
    cache: &mut RemapCache,
) -> Mapping {
    let _span = fare_obs::trace::span("core.mapping.refresh");
    fare_obs::timers::CORE_MAPPING_REFRESH
        .time(|| refresh_blocks_cached_inner(blocks, array, mapping, matcher, cache))
}

fn refresh_blocks_cached_inner(
    blocks: &AdjacencyBlocks,
    array: &CrossbarArray,
    mapping: &Mapping,
    matcher: Matcher,
    cache: &mut RemapCache,
) -> Mapping {
    let n = array.n();
    assert_eq!(mapping.n, n, "mapping crossbar size mismatch");
    assert_eq!(blocks.n, n, "block size does not match the crossbars");
    assert_eq!(mapping.grid, blocks.grid, "mapping grid does not match adjacency");

    let mut solutions: Vec<Option<PairSolution>> = vec![None; mapping.placements.len()];
    let mut misses: Vec<(usize, usize, usize, usize)> = Vec::new();
    for (idx, p) in mapping.placements.iter().enumerate() {
        let hit = cache.entries.get(&(p.block_row, p.block_col)).filter(|e| {
            e.crossbar == p.crossbar
                && e.version == array.crossbar(p.crossbar).fault_version()
        });
        match hit {
            Some(e) => solutions[idx] = Some(e.solution.clone()),
            None => misses.push((idx, p.block_row, p.block_col, p.crossbar)),
        }
    }
    fare_obs::counters::CORE_REMAP_CACHE_HITS
        .add((mapping.placements.len() - misses.len()) as u64);
    fare_obs::counters::CORE_REMAP_CACHE_MISSES.add(misses.len() as u64);

    let solved = scoped_map_init(misses, G1Scratch::default, |scratch, (idx, br, bc, xi)| {
        let packed = blocks.block(br, bc);
        let col_idx = BlockColIdx::build(packed);
        let xbar = array.crossbar(xi);
        let ctx = XbarG1Ctx::build(xbar);
        (
            idx,
            solve_reduced_g1(packed, &col_idx, xbar, &ctx, matcher, scratch),
        )
    });
    for (idx, sol) in solved {
        solutions[idx] = Some(sol);
    }

    let placements: Vec<BlockPlacement> = mapping
        .placements
        .iter()
        .zip(solutions)
        .map(|(p, sol)| {
            let (perm, cost, sa1) = sol.expect("every placement solved or cached");
            BlockPlacement {
                row_perm: perm,
                mismatch_cost: cost,
                sa1_cost: sa1,
                ..p.clone()
            }
        })
        .collect();
    let refreshed = Mapping::new(n, mapping.grid, placements);
    cache.store(array, refreshed.placements());
    refreshed
}

/// Naive serial oracles for the fast path.
///
/// The functions here intentionally avoid the packed kernels, the class
/// deduplication, the level-greedy `G₁` solver, and the worker pool: they
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
    /// (block, crossbar) pair naively, then runs the identical pruning
    /// and `G₂` selection.
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
        assemble_mapping(
            n,
            grid,
            &block_meta,
            &ones,
            m,
            cfg,
            |i, j| (pair[i][j].1, pair[i][j].2),
            |i, j| pair[i][j].clone(),
            false,
        )
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
                ..MappingConfig::default()
            },
        );
        let approx = map_adjacency(
            &adj,
            &array,
            &MappingConfig {
                matcher: Matcher::BSuitor,
                prune: false,
                ..MappingConfig::default()
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
        array.crossbar_mut(0).inject_fault(0, 1, StuckPolarity::StuckAtZero);
        let mapping = map_adjacency(&adj, &array, &MappingConfig::default());
        assert_eq!(mapping.total_cost(), 0);
    }

    #[test]
    fn reordered_sequential_keeps_block_order() {
        let adj = random_adj(16, 0.2, 11);
        let array = faulty_array(4, 8, 0.05, 12);
        let blocks = AdjacencyBlocks::from_matrix(&adj, 8);
        let nr = reordered_block_mapping(&blocks, &array, Matcher::BSuitor);
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
                ..MappingConfig::default()
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
    fn locality_term_reduces_tile_spread() {
        use crate::mapping::LocalityConfig;
        let adj = random_adj(32, 0.15, 30);
        let array = faulty_array(16, 8, 0.04, 31);
        let plain = map_adjacency(&adj, &array, &MappingConfig::default());
        let local = map_adjacency(
            &adj,
            &array,
            &MappingConfig {
                locality: Some(LocalityConfig::new(4, 10.0)),
                ..MappingConfig::default()
            },
        );
        assert!(
            local.tile_spread(4) <= plain.tile_spread(4),
            "locality {} vs plain {}",
            local.tile_spread(4),
            plain.tile_spread(4)
        );
        // All blocks still placed on distinct crossbars.
        assert_eq!(local.placements().len(), plain.placements().len());
    }

    #[test]
    fn zero_weight_locality_is_noop() {
        use crate::mapping::LocalityConfig;
        let adj = random_adj(16, 0.2, 32);
        let array = faulty_array(8, 8, 0.05, 33);
        let plain = map_adjacency(&adj, &array, &MappingConfig::default());
        let zero = map_adjacency(
            &adj,
            &array,
            &MappingConfig {
                locality: Some(LocalityConfig::new(4, 0.0)),
                ..MappingConfig::default()
            },
        );
        assert_eq!(zero.total_cost(), plain.total_cost());
    }

    #[test]
    fn tile_spread_metric_bounds() {
        let adj = random_adj(16, 0.2, 34);
        let array = faulty_array(8, 8, 0.03, 35);
        let mapping = map_adjacency(&adj, &array, &MappingConfig::default());
        // grid = 2, so each block-row has 2 blocks: spread in [0, 1].
        let s = mapping.tile_spread(4);
        assert!((0.0..=1.0).contains(&s), "spread {s}");
        // One-crossbar-per-tile: spread is maximal (both blocks of a row
        // are always on different "tiles").
        assert_eq!(mapping.tile_spread(1), 1.0);
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
        assert_eq!(mapping.placements().len(), 4, "deferred block must still be placed");
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

    #[test]
    fn mapping_json_round_trip_rebuilds_lookup() {
        let adj = random_adj(16, 0.2, 80);
        let array = faulty_array(4, 8, 0.05, 81);
        let mapping = map_adjacency(&adj, &array, &MappingConfig::default());
        let back = Mapping::from_json(&mapping.to_json()).unwrap();
        assert_eq!(back, mapping);
        assert_eq!(back.placement_for(1, 0), mapping.placement_for(1, 0));
    }
}

//! Several BIST rounds of the trainer's ageing step, pinned bit for bit
//! to the naive oracles.
//!
//! At the trainer's geometry (16 × 16 crossbars, a pool of 1.5× the
//! block count, 5% faults at SA0:SA1 = 9:1), every batch graph of two
//! Reddit-preset datasets is mapped, then aged for four rounds of 0.1%
//! more faults at 9:1. Each round injects, refreshes through the batch's
//! [`RemapCache`] and corrupts the CSR pattern, exactly as a faulty run
//! does. The refreshed mapping must equal the full recompute of
//! [`reference::refresh_row_permutations`], and the corrupted pattern
//! must equal the dense [`corrupt_adjacency_mapped`] and a plain
//! read-back of every block through [`Crossbar::read_binary`]. The
//! cache's `core.remap_cache.{hits,misses}` must equal the number of
//! placements whose crossbar's fault planes did and did not change.
//! FARe (Algorithm 1 hands its column indexes to the cache) and neuron
//! reordering (sequential placement refreshed from a cold cache, which
//! builds them) are both covered.
//!
//! Telemetry counters are process-global, so this check lives in its
//! own test binary: no other test can touch the cache alongside it.

use fare_core::mapping::{
    map_blocks_cached, reference, refresh_blocks_cached, sequential_block_mapping, AdjacencyBlocks,
    MappingConfig, RemapCache,
};
use fare_core::{corrupt_adjacency_mapped, corrupt_graph_mapped, Mapping, TrainConfig};
use fare_graph::batch::make_batches;
use fare_graph::datasets::{Dataset, DatasetKind};
use fare_graph::partition::partition;
use fare_graph::{CsrGraph, CsrMatrix};
use fare_obs::counters::{CORE_REMAP_CACHE_HITS, CORE_REMAP_CACHE_MISSES};
use fare_reram::{Crossbar, CrossbarArray, FaultSpec};
use fare_tensor::Matrix;

const ROUNDS: usize = 4;

/// Every placed block read back through its crossbar under its row
/// permutation, written over the in-bounds cells of the adjacency.
fn read_back(adj: &Matrix, array: &CrossbarArray, mapping: &Mapping) -> Matrix {
    let n = array.n();
    let mut out = adj.clone();
    for p in mapping.placements() {
        let (r0, c0) = (p.block_row * n, p.block_col * n);
        let read = array
            .crossbar(p.crossbar)
            .read_binary(&adj.block(r0, c0, n, n), Some(&p.row_perm));
        for r in 0..n.min(adj.rows() - r0) {
            for c in 0..n.min(adj.cols() - c0) {
                out[(r0 + r, c0 + c)] = read[(r, c)];
            }
        }
    }
    out
}

fn fault_planes(xbar: &Crossbar) -> (Vec<u64>, Vec<u64>) {
    let (sa0, sa1) = xbar.fault_bits();
    (sa0.to_vec(), sa1.to_vec())
}

/// Ages one batch's crossbars for [`ROUNDS`] BIST rounds from `mapping`
/// and checks every round against the oracles. Returns how many
/// placements kept and re-solved their permutation.
fn age(
    graph: &CsrGraph,
    array: &mut CrossbarArray,
    mut mapping: Mapping,
    cache: &mut RemapCache,
    cfg: &TrainConfig,
    rng: &mut fare_rt::rand::rngs::StdRng,
) -> (u64, u64) {
    let blocks = AdjacencyBlocks::from_graph(graph, array.n());
    let adj = graph.to_dense();
    let extra = FaultSpec::with_sa1_fraction(0.001, cfg.fault_spec.sa1_fraction);
    let (mut kept, mut solved) = (0, 0);
    for round in 0..ROUNDS {
        let before: Vec<_> = (0..array.len())
            .map(|j| fault_planes(array.crossbar(j)))
            .collect();
        array.inject(&extra, rng);
        let changed = mapping
            .placements()
            .iter()
            .filter(|p| fault_planes(array.crossbar(p.crossbar)) != before[p.crossbar])
            .count() as u64;
        let unchanged = mapping.placements().len() as u64 - changed;
        kept += unchanged;
        solved += changed;

        let (hits, misses) = (CORE_REMAP_CACHE_HITS.get(), CORE_REMAP_CACHE_MISSES.get());
        let full = reference::refresh_row_permutations(&adj, array, &mapping, cfg.matcher);
        refresh_blocks_cached(&blocks, array, &mut mapping, cfg.matcher, cache);
        assert_eq!(mapping, full, "round {round}: refresh");
        assert_eq!(
            CORE_REMAP_CACHE_HITS.get() - hits,
            unchanged,
            "round {round}: hits"
        );
        assert_eq!(
            CORE_REMAP_CACHE_MISSES.get() - misses,
            changed,
            "round {round}: misses"
        );

        let pattern = corrupt_graph_mapped(graph, array, &mapping);
        let dense = corrupt_adjacency_mapped(&adj, array, &mapping);
        assert_eq!(pattern, CsrMatrix::binary_pattern(&dense), "round {round}");
        assert_eq!(dense, read_back(&adj, array, &mapping), "round {round}");
    }
    (kept, solved)
}

#[test]
fn bist_rounds_bit_identical_to_oracles() {
    fare_obs::set_mode(fare_obs::Mode::Json);
    fare_obs::reset();
    let cfg = TrainConfig {
        fault_spec: FaultSpec::with_sa1_fraction(0.05, 0.1),
        ..TrainConfig::default()
    };
    let n = cfg.crossbar_size;
    let map_cfg = MappingConfig {
        matcher: cfg.matcher,
        prune: true,
    };
    let (mut programmed, mut kept, mut solved) = (0, 0, 0);
    for seed in [5, 21] {
        let dataset = Dataset::generate(DatasetKind::Reddit, seed);
        let mut rng = fare_rt::domain_rng(seed, "trainer");
        let parts = partition(&dataset.graph, dataset.spec.partitions, &mut rng);
        let batches = make_batches(
            &dataset.graph,
            &parts,
            dataset.spec.clusters_per_batch,
            &mut rng,
        );
        for batch in &batches {
            let graph = &batch.graph;
            let blocks = AdjacencyBlocks::from_graph(graph, n);
            let count = blocks.grid().pow(2);
            let pool = ((count as f64 * cfg.crossbar_slack).ceil() as usize).max(count);
            let mut array = CrossbarArray::new(pool, n);
            array.inject(&cfg.fault_spec, &mut rng);

            // FARe: Algorithm 1, then refreshes through its warm cache.
            let mut cache = RemapCache::new();
            let mapping = map_blocks_cached(&blocks, &array, &map_cfg, &mut cache);
            assert_eq!(
                mapping,
                reference::map_adjacency(&graph.to_dense(), &array, &map_cfg)
            );
            let mut fare_array = array.clone();
            let aged = age(graph, &mut fare_array, mapping, &mut cache, &cfg, &mut rng);
            (kept, solved) = (kept + aged.0, solved + aged.1);

            // Neuron reordering: the sequential layout, refreshed from a
            // cold cache (every placement misses once), then aged.
            let mut cache = RemapCache::new();
            let mut nr = sequential_block_mapping(&blocks, &array);
            let misses = CORE_REMAP_CACHE_MISSES.get();
            refresh_blocks_cached(&blocks, &array, &mut nr, cfg.matcher, &mut cache);
            assert_eq!(
                CORE_REMAP_CACHE_MISSES.get() - misses,
                nr.placements().len() as u64
            );
            let aged = age(graph, &mut array, nr, &mut cache, &cfg, &mut rng);
            (kept, solved) = (kept + aged.0, solved + aged.1);
            programmed += 1;
        }
    }
    // Both branches of the cache ran often.
    assert!(programmed >= 20, "{programmed} batches");
    assert!(
        kept > 500 && solved > 100,
        "kept {kept}, re-solved {solved}"
    );
    fare_obs::set_mode(fare_obs::Mode::Off);
}

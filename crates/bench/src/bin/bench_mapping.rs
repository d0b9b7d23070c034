//! Mapping-pipeline benchmark at the trainer's geometry.
//!
//! By default the crossbars are the ones `TrainConfig::default()` gives
//! the trainer: 16 × 16, a pool of 1.5× the block count, the b-Suitor
//! matcher and pruning on. The adjacency is batch-sized: 60 nodes of
//! average degree about 5, like a Reddit-preset mini-batch (three
//! clusters, 49–69 nodes, average degree 4–6). It times
//! the production [`fare_core::map_adjacency`] and the first
//! post-deployment refresh through the remap cache. Before anything is
//! timed both are checked bit-identical to the serial oracles in
//! [`fare_core::mapping::reference`].
//!
//! ```text
//! cargo run --release -p fare-bench --bin bench_mapping -- \
//!     [--nodes N] [--xbar-size N] [--density D] [--iters N] [--smoke] [--out PATH]
//! ```
//!
//! Writes a [`fare_obs::RunManifest`] (default `BENCH_mapping.json`)
//! with one `bench` entry per kernel (`<kernel>.ns_per_iter`) — the same
//! schema every other manifest in the workspace uses, so
//! `fare-report diff BENCH_mapping.json <fresh.json>` compares bench
//! runs across PRs with the one code path.

use std::time::Instant;

use fare_bench::string_flag;
use fare_core::mapping::{self, reference};
use fare_core::{
    map_adjacency, refresh_row_permutations_cached, MappingConfig, RemapCache, TrainConfig,
};
use fare_obs::RunManifest;
use fare_reram::{CrossbarArray, FaultSpec, StuckPolarity};
use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::{Rng, SeedableRng};
use fare_tensor::Matrix;

/// Random symmetric 0/1 adjacency with average degree `avg_degree`.
fn random_adjacency(nodes: usize, avg_degree: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut adj = Matrix::zeros(nodes, nodes);
    let edges = nodes * avg_degree / 2;
    for _ in 0..edges {
        let i = rng.gen_range(0..nodes);
        let j = rng.gen_range(0..nodes);
        if i != j {
            adj[(i, j)] = 1.0;
            adj[(j, i)] = 1.0;
        }
    }
    adj
}

/// Times `f` over `iters` runs (after one untimed warmup) in ns/iter.
fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    let train = TrainConfig::default();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let nodes: usize = string_flag("--nodes")
        .map(|v| v.parse().expect("numeric --nodes"))
        .unwrap_or(60);
    let n: usize = string_flag("--xbar-size")
        .map(|v| v.parse().expect("numeric --xbar-size"))
        .unwrap_or(train.crossbar_size);
    let density: f64 = string_flag("--density")
        .map(|v| v.parse().expect("numeric --density"))
        .unwrap_or(0.05);
    let iters: usize = string_flag("--iters")
        .map(|v| v.parse().expect("numeric --iters"))
        .unwrap_or(if smoke { 10 } else { 2_000 });
    let out_path = string_flag("--out").unwrap_or_else(|| "BENCH_mapping.json".into());
    let threads = fare_rt::par::current_threads() as u64;

    // The trainer's FaRe mapping: its matcher, pruning on, and a pool of
    // `ceil(blocks * slack)` crossbars.
    let cfg = MappingConfig {
        matcher: train.matcher,
        prune: true,
        ..MappingConfig::default()
    };
    let blocks = nodes.div_ceil(n).pow(2);
    let m = ((blocks as f64 * train.crossbar_slack).ceil() as usize).max(blocks);
    eprintln!(
        "setup: {nodes}-node adjacency, {blocks} blocks on {m} {n}x{n} crossbars, \
         {:.0}% fault density, {:?}",
        density * 100.0,
        cfg.matcher
    );
    let adj = random_adjacency(nodes, 5, 11);
    let mut array = CrossbarArray::new(m, n);
    let mut rng = StdRng::seed_from_u64(11);
    array.inject(&FaultSpec::density(density), &mut rng);
    let size = format!("nodes={nodes},blocks={blocks},xbars={m}x{n},density={density}");

    let fast = map_adjacency(&adj, &array, &cfg);
    let oracle = reference::map_adjacency(&adj, &array, &cfg);
    assert!(
        fast == oracle,
        "map_adjacency diverges from the serial oracle"
    );

    eprintln!("timing map_adjacency ({iters} iters)...");
    let map_ns = time_ns(iters, || {
        std::hint::black_box(map_adjacency(&adj, &array, &cfg));
    });

    // Post-deployment refresh: a sparse BIST delta touches a handful of
    // crossbars; the incremental path re-solves only those.
    let mut cache = RemapCache::new();
    let mapping = mapping::map_adjacency_cached(&adj, &array, &cfg, &mut cache);
    let touched = (m / 50).max(1);
    for k in 0..touched {
        let xi = (k * 37) % m;
        let r = (k * 13) % n;
        let c = (k * 29) % n;
        let pol = if k % 2 == 0 {
            StuckPolarity::StuckAtOne
        } else {
            StuckPolarity::StuckAtZero
        };
        array.crossbar_mut(xi).inject_fault(r, c, pol);
    }
    // `cache` was warmed before the delta; keep that state around so
    // every timed iteration measures the same thing — the first
    // post-BIST refresh, where only the `touched` crossbars miss.
    let pre_delta_cache = cache.clone();
    let incr = refresh_row_permutations_cached(&adj, &array, &mapping, cfg.matcher, &mut cache);
    let refreshed_oracle = reference::refresh_row_permutations(&adj, &array, &mapping, cfg.matcher);
    assert!(
        incr == refreshed_oracle,
        "incremental refresh diverges from the serial oracle"
    );

    eprintln!("timing incremental cached refresh ({iters} iters)...");
    let refresh_ns = time_ns(iters, || {
        let mut warm = pre_delta_cache.clone();
        std::hint::black_box(refresh_row_permutations_cached(
            &adj,
            &array,
            &mapping,
            cfg.matcher,
            &mut warm,
        ));
    });

    let rows: [(&str, f64); 2] = [
        ("map_adjacency", map_ns),
        ("refresh_incremental_cached", refresh_ns),
    ];
    let mut manifest =
        RunManifest::capture("bench_mapping", 11, &size).with_bench("threads", threads as f64);
    for (kernel, ns) in &rows {
        manifest = manifest.with_bench(&format!("{kernel}.ns_per_iter"), *ns);
    }

    for (kernel, ns) in &rows {
        println!("{kernel:<28} {size:<52} {ns:>16.0} ns/iter  ({threads} threads)");
    }

    std::fs::write(&out_path, manifest.to_json_pretty() + "\n")
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}

//! Benches for Algorithm 1 and its ablations:
//!
//! - full fault-aware mapping with pruning on vs off,
//! - Hungarian vs b-Suitor inside the mapping,
//! - post-deployment: full remap vs row-permutation-only refresh (the
//!   paper's optimisation).

use fare_rt::bench::{criterion_group, criterion_main, Criterion};
use fare_core::mapping::{
    map_adjacency, map_adjacency_cached, refresh_row_permutations,
    refresh_row_permutations_cached, sequential_mapping, MappingConfig, RemapCache,
};
use fare_matching::Matcher;
use fare_reram::{CrossbarArray, FaultSpec};
use fare_tensor::Matrix;
use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::{Rng, SeedableRng};
use std::hint::black_box;

fn setup(nodes: usize, n: usize, density: f64) -> (Matrix, CrossbarArray) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut adj = Matrix::zeros(nodes, nodes);
    for i in 0..nodes {
        for j in (i + 1)..nodes {
            if rng.gen_bool(0.08) {
                adj[(i, j)] = 1.0;
                adj[(j, i)] = 1.0;
            }
        }
    }
    let blocks = nodes.div_ceil(n).pow(2);
    let mut array = CrossbarArray::new((blocks * 3) / 2, n);
    array.inject(&FaultSpec::density(density), &mut rng);
    (adj, array)
}

fn bench_mapping(c: &mut Criterion) {
    let (adj, array) = setup(96, 16, 0.05);
    let mut group = c.benchmark_group("algorithm1");
    group.bench_function("fare_bsuitor_prune", |b| {
        let cfg = MappingConfig {
            matcher: Matcher::BSuitor,
            prune: true,
            ..MappingConfig::default()
        };
        b.iter(|| black_box(map_adjacency(black_box(&adj), &array, &cfg)))
    });
    group.bench_function("fare_bsuitor_noprune", |b| {
        let cfg = MappingConfig {
            matcher: Matcher::BSuitor,
            prune: false,
            ..MappingConfig::default()
        };
        b.iter(|| black_box(map_adjacency(black_box(&adj), &array, &cfg)))
    });
    group.bench_function("fare_hungarian_prune", |b| {
        let cfg = MappingConfig {
            matcher: Matcher::Hungarian,
            prune: true,
            ..MappingConfig::default()
        };
        b.iter(|| black_box(map_adjacency(black_box(&adj), &array, &cfg)))
    });
    group.bench_function("sequential_unaware", |b| {
        b.iter(|| black_box(sequential_mapping(black_box(&adj), &array)))
    });
    group.finish();
}

fn bench_post_deployment(c: &mut Criterion) {
    let (adj, mut array) = setup(96, 16, 0.03);
    let cfg = MappingConfig::default();
    let mapping = map_adjacency(&adj, &array, &cfg);
    // Post-deployment faults appear.
    let mut rng = StdRng::seed_from_u64(12);
    array.inject(&FaultSpec::density(0.01), &mut rng);

    let mut group = c.benchmark_group("post_deployment");
    group.bench_function("full_remap", |b| {
        b.iter(|| black_box(map_adjacency(black_box(&adj), &array, &cfg)))
    });
    group.bench_function("row_perm_refresh", |b| {
        b.iter(|| {
            black_box(refresh_row_permutations(
                black_box(&adj),
                &array,
                &mapping,
                Matcher::BSuitor,
            ))
        })
    });
    group.bench_function("row_perm_refresh_cached", |b| {
        // Warm the cache against the post-injection array once: the
        // steady-state BIST epoch where few crossbars mutated.
        let mut cache = RemapCache::new();
        let mapping = map_adjacency_cached(&adj, &array, &cfg, &mut cache);
        b.iter(|| {
            let mut warm = cache.clone();
            black_box(refresh_row_permutations_cached(
                black_box(&adj),
                &array,
                &mapping,
                Matcher::BSuitor,
                &mut warm,
            ))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_mapping, bench_post_deployment
}
criterion_main!(benches);

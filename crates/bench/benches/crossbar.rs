//! Micro-benches of the ReRAM substrate: fault injection, binary
//! read-back, mismatch counting and the weight corruption path.

use fare_rt::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fare_reram::weights::WeightFabric;
use fare_reram::{Bist, CrossbarArray, FaultSpec};
use fare_tensor::{FixedFormat, Matrix};
use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_injection(c: &mut Criterion) {
    let mut group = c.benchmark_group("injection");
    for &count in &[16usize, 96] {
        group.bench_with_input(BenchmarkId::new("inject_5pct", count), &count, |b, &count| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                let mut array = CrossbarArray::new(count, 128);
                array.inject(&FaultSpec::density(0.05), &mut rng);
                black_box(array.fault_count())
            })
        });
    }
    group.finish();
}

fn bench_read_paths(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut array = CrossbarArray::new(4, 128);
    array.inject(&FaultSpec::density(0.05), &mut rng);
    let stored = Matrix::from_fn(128, 128, |i, j| if (i * 131 + j) % 17 == 0 { 1.0 } else { 0.0 });
    let perm: Vec<usize> = (0..128).rev().collect();

    let mut group = c.benchmark_group("read");
    group.bench_function("read_binary_identity", |b| {
        b.iter(|| black_box(array.crossbar(0).read_binary(black_box(&stored), None)))
    });
    group.bench_function("read_binary_permuted", |b| {
        b.iter(|| black_box(array.crossbar(0).read_binary(black_box(&stored), Some(&perm))))
    });
    group.bench_function("mismatch_count", |b| {
        b.iter(|| black_box(array.crossbar(0).mismatch_count(black_box(&stored), None)))
    });
    group.bench_function("bist_scan", |b| {
        b.iter(|| black_box(Bist::scan(black_box(&array))))
    });
    group.finish();
}

fn bench_weight_path(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut fabric = WeightFabric::for_shape(128, 64, 128, FixedFormat::default());
    fabric.inject(&FaultSpec::density(0.05), &mut rng);
    let weights = Matrix::from_fn(128, 64, |r, c| ((r * 64 + c) as f32 * 0.37).sin() * 0.4);
    let mut rng2 = StdRng::seed_from_u64(4);
    let mut placement: Vec<usize> = (0..128).collect();
    for i in (1..128).rev() {
        placement.swap(i, rng2.gen_range(0..=i));
    }

    let mut group = c.benchmark_group("weights");
    group.bench_function("corrupt_identity", |b| {
        b.iter(|| black_box(fabric.corrupt(black_box(&weights))))
    });
    // The trainer's per-forward read: the overlay is built once per
    // fault state and placement, then reused.
    let overlay = fabric.fault_overlay(None);
    group.bench_function("read_through_cached", |b| {
        b.iter(|| black_box(fabric.read_through(black_box(&weights), &overlay)))
    });
    group.bench_function("corrupt_permuted", |b| {
        b.iter(|| black_box(fabric.corrupt_permuted(black_box(&weights), Some(&placement))))
    });
    group.bench_function("placement_cost", |b| {
        b.iter(|| black_box(fabric.placement_cost(black_box(&weights), None)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_injection, bench_read_paths, bench_weight_path
}
criterion_main!(benches);

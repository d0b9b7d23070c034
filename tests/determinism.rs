//! Bit-exact reproducibility of seeded runs (C-DETERMINISM).
//!
//! Every result in the repo is keyed by a `u64` seed, so two runs with
//! the same seed must produce *identical* — not merely close — numbers.
//! This holds across thread counts too: `fare_rt::par` reassembles
//! chunked results positionally, so the parallel experiment drivers and
//! the mapping pipeline cannot reorder floating-point reductions.

use std::sync::Mutex;

use fare::core::mapping::{
    map_adjacency, map_adjacency_cached, refresh_row_permutations, refresh_row_permutations_cached,
    MappingConfig, RemapCache,
};
use fare::core::{FaultStrategy, TrainConfig, Trainer};
use fare::graph::datasets::{Dataset, DatasetKind, ModelKind};
use fare::obs::{self, ClockMode, Mode};
use fare::reram::{CrossbarArray, FaultSpec};
use fare::tensor::Matrix;

/// Telemetry mode and counters are process-global. The counter gates
/// below flip the mode to `Json`; any instrumented work running
/// concurrently in this binary would pollute their manifests, so every
/// test here takes this lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn quick_config() -> TrainConfig {
    TrainConfig {
        model: ModelKind::Gcn,
        epochs: 4,
        fault_spec: FaultSpec::density(0.03),
        strategy: FaultStrategy::FaRe,
        ..TrainConfig::default()
    }
}

/// Same-seed GCN training yields bit-identical loss trajectories.
#[test]
fn same_seed_training_is_bit_identical() {
    let _g = lock();
    let ds = Dataset::generate(DatasetKind::Ppi, 11);
    let a = Trainer::new(quick_config(), 11).run(&ds);
    let b = Trainer::new(quick_config(), 11).run(&ds);
    assert_eq!(a.history.len(), b.history.len());
    for (ea, eb) in a.history.iter().zip(&b.history) {
        assert_eq!(ea.loss.to_bits(), eb.loss.to_bits(), "epoch {}", ea.epoch);
        assert_eq!(ea.train_accuracy.to_bits(), eb.train_accuracy.to_bits());
        assert_eq!(ea.test_accuracy.to_bits(), eb.test_accuracy.to_bits());
    }
    assert_eq!(a, b);
}

/// Different seeds actually change the trajectory (the seed is not
/// silently ignored anywhere in the pipeline).
#[test]
fn different_seeds_diverge() {
    let _g = lock();
    let ds = Dataset::generate(DatasetKind::Ppi, 11);
    let a = Trainer::new(quick_config(), 11).run(&ds);
    let b = Trainer::new(quick_config(), 12).run(&ds);
    assert_ne!(a.history, b.history);
}

/// The fault-aware mapping pipeline is serial, so it must produce the
/// same placement whatever the thread count: 1 thread and 4 threads.
#[test]
fn mapping_identical_across_thread_counts() {
    let _g = lock();
    let mut rng = fare_rt::rng(21);
    let adj = Matrix::from_fn(96, 96, |i, j| {
        if i != j && (i * 13 + j * 7) % 11 == 0 {
            1.0
        } else {
            0.0
        }
    });
    let adj = adj.zip_map(&adj.transpose(), |a, b| if a + b > 0.0 { 1.0 } else { 0.0 });
    let mut array = CrossbarArray::new(18, 32);
    array.inject(&FaultSpec::density(0.05), &mut rng);
    let cfg = MappingConfig::default();

    fare_rt::par::set_threads(1);
    let one = map_adjacency(&adj, &array, &cfg);
    fare_rt::par::set_threads(4);
    let four = map_adjacency(&adj, &array, &cfg);
    fare_rt::par::set_threads(0);
    assert_eq!(one, four);
}

/// The incremental post-BIST refresh — cache hits for untouched
/// crossbars, serial re-solves for mutated ones — is bit-identical to
/// the full recompute at 1, 2 and 8 threads.
#[test]
fn incremental_refresh_identical_across_thread_counts() {
    let _g = lock();
    use fare::matching::Matcher;
    use fare::reram::StuckPolarity;

    let mut rng = fare_rt::rng(22);
    let adj = Matrix::from_fn(96, 96, |i, j| {
        if i != j && (i * 17 + j * 5) % 13 == 0 {
            1.0
        } else {
            0.0
        }
    });
    let adj = adj.zip_map(&adj.transpose(), |a, b| if a + b > 0.0 { 1.0 } else { 0.0 });
    let mut array = CrossbarArray::new(18, 32);
    array.inject(&FaultSpec::density(0.04), &mut rng);
    let cfg = MappingConfig::default();

    let mut cache = RemapCache::new();
    let mapping = map_adjacency_cached(&adj, &array, &cfg, &mut cache);

    // Post-deployment BIST finds new faults on a subset of crossbars.
    for j in [1usize, 7, 12] {
        array
            .crossbar_mut(j)
            .inject_fault(j % 32, (3 * j) % 32, StuckPolarity::StuckAtOne);
    }

    let run = |t: usize| {
        fare_rt::par::set_threads(t);
        let mut c = cache.clone();
        let incremental =
            refresh_row_permutations_cached(&adj, &array, &mapping, cfg.matcher, &mut c);
        let full = refresh_row_permutations(&adj, &array, &mapping, cfg.matcher);
        (incremental, full)
    };
    let (inc1, full1) = run(1);
    let (inc2, full2) = run(2);
    let (inc8, full8) = run(8);
    fare_rt::par::set_threads(0);
    assert_eq!(inc1, full1, "incremental refresh must equal full recompute");
    assert_eq!(inc1, inc2);
    assert_eq!(inc1, inc8);
    assert_eq!(full1, full2);
    assert_eq!(full1, full8);

    // Both matchers: the Hungarian refresh path is thread-invariant too.
    fare_rt::par::set_threads(2);
    let h2 = refresh_row_permutations(&adj, &array, &mapping, Matcher::Hungarian);
    fare_rt::par::set_threads(1);
    let h1 = refresh_row_permutations(&adj, &array, &mapping, Matcher::Hungarian);
    fare_rt::par::set_threads(0);
    assert_eq!(h1, h2);
}

/// Full training (which drives the parallel experiment plumbing through
/// partitioning, batching, mapping and epochs) is thread-count
/// invariant end to end.
#[test]
fn training_identical_across_thread_counts() {
    let _g = lock();
    let ds = Dataset::generate(DatasetKind::Ppi, 13);
    fare_rt::par::set_threads(1);
    let one = Trainer::new(quick_config(), 13).run(&ds);
    fare_rt::par::set_threads(4);
    let four = Trainer::new(quick_config(), 13).run(&ds);
    fare_rt::par::set_threads(0);
    for (ea, eb) in one.history.iter().zip(&four.history) {
        assert_eq!(ea.loss.to_bits(), eb.loss.to_bits(), "epoch {}", ea.epoch);
    }
    assert_eq!(one, four);
}

/// The compute kernels — the dense matmul family and the sparse
/// aggregation kernels — produce bit-identical output at 1, 2 and 8
/// threads. They are serial, so the thread count must not reach them.
#[test]
fn compute_kernels_identical_across_thread_counts() {
    let _g = lock();
    use fare::graph::{generate, CsrMatrix, GraphView};
    use fare::tensor::init;
    use fare_rt::rand::{Rng, SeedableRng};

    let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(31);
    let g = generate::erdos_renyi(64, 0.1, &mut rng);
    let x = init::normal(64, 12, 1.0, &mut rng);
    let a = Matrix::from_fn(33, 17, |_, _| rng.gen_range(-1.0f32..1.0));
    let b = Matrix::from_fn(17, 9, |_, _| rng.gen_range(-1.0f32..1.0));
    let view = GraphView::from_graph(&g);
    let sparse = CsrMatrix::from_dense(&g.to_dense());

    let bits = |m: &Matrix| m.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    let run = |t: usize| {
        fare_rt::par::set_threads(t);
        [
            a.matmul(&b),
            a.transpose().t_matmul(&b),
            a.matmul_t(&b.transpose()),
            sparse.spmm(&x),
            view.gcn_norm().spmm(&x),
            view.mean_norm().spmm(&x),
        ]
    };
    let one = run(1);
    let two = run(2);
    let eight = run(8);
    fare_rt::par::set_threads(0);
    for (k, serial) in one.iter().enumerate() {
        assert_eq!(
            bits(serial),
            bits(&two[k]),
            "kernel {k} differs at 2 threads"
        );
        assert_eq!(
            bits(serial),
            bits(&eight[k]),
            "kernel {k} differs at 8 threads"
        );
    }
}

/// Counter-determinism gate: the telemetry manifest — every counter,
/// timer and per-epoch record — is bit-identical on a serial and a
/// 4-worker pool. Counters count *logical* events (faults injected,
/// epochs run, cache hits), never per-chunk worker activity, and the
/// fixed clock removes wall time, so nothing in the manifest may depend
/// on how work was chunked.
#[test]
fn telemetry_manifest_identical_across_thread_counts() {
    let _g = lock();
    let ds = Dataset::generate(DatasetKind::Ppi, 17);
    let capture = |t: usize| {
        fare_rt::par::set_threads(t);
        obs::set_mode(Mode::Json);
        obs::set_clock(ClockMode::Fixed(500));
        obs::reset();
        let out = Trainer::new(quick_config(), 17).run(&ds);
        let manifest = obs::RunManifest::capture("determinism", 17, &quick_config())
            .with_bench("final_test_accuracy", out.final_test_accuracy);
        obs::set_clock(ClockMode::Wall);
        obs::set_mode(Mode::Off);
        obs::reset();
        (out, manifest.to_json_pretty())
    };
    let (out1, manifest1) = capture(1);
    let (out4, manifest4) = capture(4);
    fare_rt::par::set_threads(0);
    assert_eq!(out1, out4, "training output differs across thread counts");
    assert_eq!(
        manifest1, manifest4,
        "telemetry manifest differs across thread counts"
    );
}

/// Disabled telemetry is a pure observer: turning it off changes no bit
/// of the training output (counters sit behind a relaxed-atomic mode
/// check and never feed back into the computation).
#[test]
fn disabled_telemetry_does_not_perturb_training() {
    let _g = lock();
    let ds = Dataset::generate(DatasetKind::Ppi, 19);

    obs::set_mode(Mode::Off);
    obs::reset();
    let off = Trainer::new(quick_config(), 19).run(&ds);

    obs::set_mode(Mode::Json);
    obs::set_clock(ClockMode::Fixed(500));
    obs::reset();
    let on = Trainer::new(quick_config(), 19).run(&ds);
    obs::set_clock(ClockMode::Wall);
    obs::set_mode(Mode::Off);
    obs::reset();

    assert_eq!(off, on, "telemetry fed back into the training computation");
}

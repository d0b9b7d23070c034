//! Compute-core benchmark on a graph larger than any preset.
//!
//! It times one GCN forward+backward through the real [`fare_gnn::Gnn`]
//! on a [`fare_graph::GraphView`] built once per graph, and the sparse
//! GCN aggregation `Â · X` that step runs twice. One more entry times a
//! GAT forward+backward at the scale the trainer runs: the first
//! Cluster-GCN mini-batch of the Amazon2M preset, where every product is
//! tiny.
//!
//! ```text
//! cargo run --release -p fare-bench --bin bench_core -- \
//!     [--nodes N] [--avg-degree D] [--iters N] [--smoke] [--out PATH]
//! ```
//!
//! Writes a [`fare_obs::RunManifest`] (default `BENCH_core.json`) with
//! one `bench` entry per kernel (`<kernel>.ns_per_iter`) — the same
//! schema every other manifest in the workspace uses, so
//! `fare-report diff BENCH_core.json <fresh.json>` compares bench runs
//! across PRs with the one code path.

use fare_bench::{check_args, numeric_flag, string_flag, time_ns};
use fare_gnn::{Gnn, GnnDims, IdealReader};
use fare_graph::batch::make_batches;
use fare_graph::datasets::{Dataset, DatasetKind, ModelKind};
use fare_graph::partition::partition;
use fare_graph::{CsrGraph, GraphView};
use fare_obs::RunManifest;
use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::{Rng, SeedableRng};
use fare_tensor::{init, ops, Matrix};

/// Random undirected graph with ~`n * avg_degree / 2` distinct edges.
/// Sampling pairs directly (instead of Erdős–Rényi's `n²` coin flips)
/// keeps setup cheap at benchmark scale.
fn random_graph(n: usize, avg_degree: usize, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = n * avg_degree / 2;
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            edges.push((u, v));
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// One forward+backward through the real model on the cached view.
fn fwd_bwd(model: &Gnn, view: &GraphView, x: &Matrix, labels: &[usize]) -> f32 {
    let (logits, cache) = model.forward(view, x, &IdealReader);
    let (loss, grad_logits) = ops::cross_entropy_with_grad(&logits, labels);
    let _grads = model.backward(view, &cache, &grad_logits);
    loss
}

fn main() {
    check_args(
        &["--nodes", "--avg-degree", "--iters", "--out"],
        &["--smoke"],
    );
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n: usize = numeric_flag("--nodes", if smoke { 2_000 } else { 20_000 });
    let avg_degree: usize = numeric_flag("--avg-degree", 20);
    let iters: usize = numeric_flag("--iters", if smoke { 1 } else { 3 });
    let out_path = string_flag("--out").unwrap_or_else(|| "BENCH_core.json".into());
    let threads = fare_rt::par::current_threads() as u64;

    eprintln!("generating graph: n={n}, avg_degree≈{avg_degree}");
    let g = random_graph(n, avg_degree, 7);
    let dims = GnnDims {
        input: 32,
        hidden: 16,
        output: 8,
    };
    let mut rng = StdRng::seed_from_u64(7);
    let x = init::normal(n, dims.input, 1.0, &mut rng);
    let labels: Vec<usize> = (0..n).map(|i| i % dims.output).collect();
    let model = Gnn::new(ModelKind::Gcn, dims, &mut rng);
    let view = GraphView::from_graph(&g);
    let size = format!("n={n},e={},d={}", g.num_edges(), dims.hidden);

    eprintln!("timing gcn step ({} iters)...", iters * 10);
    let step_ns = time_ns(iters * 10, || {
        std::hint::black_box(fwd_bwd(&model, &view, &x, &labels));
    });
    let agg_ns = time_ns(iters * 10, || {
        std::hint::black_box(view.gcn_norm().spmm(&x));
    });

    // GAT at mini-batch scale: the first batch the trainer draws for
    // Amazon2M at seed 41 (partition and batches from the trainer's RNG
    // domain), on the preset's 24 → 16 → classes model.
    let dataset = Dataset::generate(DatasetKind::Amazon2M, 41);
    let mut brng = fare_rt::domain_rng(41, "trainer");
    let parts = partition(&dataset.graph, dataset.spec.partitions, &mut brng);
    let batch = make_batches(
        &dataset.graph,
        &parts,
        dataset.spec.clusters_per_batch,
        &mut brng,
    )
    .swap_remove(0);
    let batch_dims = GnnDims {
        input: dataset.spec.feature_dim,
        hidden: 16,
        output: dataset.num_classes,
    };
    let gat = Gnn::new(ModelKind::Gat, batch_dims, &mut brng);
    let batch_view = GraphView::from_graph(&batch.graph);
    let batch_x = batch.gather_features(&dataset.features);
    let batch_labels = batch.gather_labels(&dataset.labels);
    let batch_size = format!(
        "n={},e={},{}->{}->{}",
        batch.num_nodes(),
        batch.graph.num_edges(),
        batch_dims.input,
        batch_dims.hidden,
        batch_dims.output
    );
    // A step takes microseconds in a release build; a smoke run (debug
    // build in verify.sh) only needs it to run.
    let gat_ns = time_ns(iters * if smoke { 10 } else { 1000 }, || {
        std::hint::black_box(fwd_bwd(&gat, &batch_view, &batch_x, &batch_labels));
    });

    let rows: [(&str, &str, f64); 3] = [
        ("gcn_fwd_bwd_csr", &size, step_ns),
        ("gcn_aggregate_csr", &size, agg_ns),
        ("gat_fwd_bwd_batch", &batch_size, gat_ns),
    ];
    let mut manifest =
        RunManifest::capture("bench_core", 7, &size).with_bench("threads", threads as f64);
    for (kernel, _, ns) in &rows {
        manifest = manifest.with_bench(&format!("{kernel}.ns_per_iter"), *ns);
    }

    for (kernel, sz, ns) in &rows {
        println!("{kernel:<28} {sz:<28} {ns:>14.0} ns/iter  ({threads} threads)");
    }

    std::fs::write(&out_path, manifest.to_json_pretty() + "\n")
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}

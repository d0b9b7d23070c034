//! Cross-crate checks of the fault model itself: statistics of the
//! injection campaign and how faults propagate into the numerics.

use fare::core::FaultyWeightReader;
use fare::gnn::{Gnn, GnnDims, IdealReader, WeightReader};
use fare::graph::datasets::ModelKind;
use fare::reram::weights::WeightFabric;
use fare::reram::{CrossbarArray, FaultSpec, StuckPolarity};
use fare::tensor::{FixedFormat, Matrix};
use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::SeedableRng;

#[test]
fn injection_statistics_match_spec_across_scales() {
    let mut rng = StdRng::seed_from_u64(1);
    for (count, n, density) in [
        (64usize, 32usize, 0.05f64),
        (16, 128, 0.01),
        (100, 16, 0.03),
    ] {
        let mut array = CrossbarArray::new(count, n);
        array.inject(&FaultSpec::with_ratio(density, 9.0, 1.0), &mut rng);
        let measured = array.fault_density();
        assert!(
            (measured - density).abs() < density * 0.35 + 0.002,
            "{count}x{n}: target {density}, measured {measured}"
        );
        if array.fault_count() > 100 {
            let sa1_frac = array.sa1_count() as f64 / array.fault_count() as f64;
            assert!((sa1_frac - 0.1).abs() < 0.06, "sa1 fraction {sa1_frac}");
        }
    }
}

#[test]
fn sa1_explosions_are_bounded_by_reader_clip() {
    let mut rng = StdRng::seed_from_u64(2);
    let dims = GnnDims {
        input: 16,
        hidden: 16,
        output: 8,
    };
    let model = Gnn::new(ModelKind::Gcn, dims, &mut rng);
    let mut reader = FaultyWeightReader::for_model(&model, 16);
    reader.inject(&FaultSpec::density(0.05).sa1_only(), &mut rng);

    // Without clipping: at 5% SA1-only density some weight must explode.
    let mut worst = 0.0f32;
    for ps in model.param_shapes() {
        let read = reader.read(ps.layer, ps.param, model.param(ps.layer, ps.param));
        worst = worst.max(read.max().abs()).max(read.min().abs());
    }
    assert!(worst > 5.0, "expected an explosion, worst |w| = {worst}");

    // With clipping: every read weight is bounded by θ.
    reader.set_clip(Some(1.0));
    for ps in model.param_shapes() {
        let read = reader.read(ps.layer, ps.param, model.param(ps.layer, ps.param));
        assert!(read.iter().all(|v| v.abs() <= 1.0));
    }
}

#[test]
fn sa0_only_faults_never_explode_weights() {
    // Sign-magnitude storage: SA0 shrinks magnitudes. No clipping needed.
    let mut rng = StdRng::seed_from_u64(3);
    let mut fabric = WeightFabric::for_shape(64, 32, 16, FixedFormat::default());
    fabric.inject(&FaultSpec::density(0.10).sa0_only(), &mut rng);
    let w = Matrix::from_fn(64, 32, |r, c| ((r + c) as f32 * 0.13).sin() * 0.5);
    let out = fabric.corrupt(&w);
    for (a, b) in w.iter().zip(out.iter()) {
        assert!(
            b.abs() <= a.abs() + fabric.format().resolution(),
            "SA0 grew |{a}| to |{b}|"
        );
    }
}

#[test]
fn faulty_reader_equals_ideal_reader_when_fault_free() {
    let mut rng = StdRng::seed_from_u64(4);
    let dims = GnnDims {
        input: 8,
        hidden: 8,
        output: 4,
    };
    let model = Gnn::new(ModelKind::Sage, dims, &mut rng);
    let reader = FaultyWeightReader::for_model(&model, 16);
    let adj = Matrix::from_fn(6, 6, |i, j| if (i + 1) % 6 == j { 1.0 } else { 0.0 });
    let adj = fare::graph::GraphView::from_dense(&adj + &adj.transpose());
    let x = Matrix::from_fn(6, 8, |i, j| ((i * 8 + j) as f32 * 0.21).cos());
    let (faulty_logits, _) = model.forward(&adj, &x, &reader);
    let (ideal_logits, _) = model.forward(&adj, &x, &IdealReader);
    // Only quantisation separates them.
    for (a, b) in faulty_logits.iter().zip(ideal_logits.iter()) {
        assert!((a - b).abs() < 0.05, "{a} vs {b}");
    }
}

#[test]
fn adjacency_polarity_semantics_through_full_stack() {
    // SA0 under an edge deletes it; SA1 under a non-edge fabricates one;
    // matching polarities are invisible.
    let mut adj = Matrix::zeros(8, 8);
    adj[(0, 1)] = 1.0;
    adj[(1, 0)] = 1.0;
    adj[(2, 3)] = 1.0;
    adj[(3, 2)] = 1.0;
    let mut array = CrossbarArray::new(1, 8);
    array
        .crossbar_mut(0)
        .inject_fault(0, 1, StuckPolarity::StuckAtZero); // on edge
    array
        .crossbar_mut(0)
        .inject_fault(4, 5, StuckPolarity::StuckAtOne); // on non-edge
    array
        .crossbar_mut(0)
        .inject_fault(2, 3, StuckPolarity::StuckAtOne); // matches stored 1

    let out = fare::core::corrupt_adjacency_unaware(&adj, &array);
    assert_eq!(out[(0, 1)], 0.0, "SA0 must delete the edge");
    assert_eq!(out[(4, 5)], 1.0, "SA1 must fabricate an edge");
    assert_eq!(out[(2, 3)], 1.0, "SA1 under a stored 1 is harmless");
    // Asymmetric corruption: the paper stores A in full, so only the hit
    // direction changes.
    assert_eq!(out[(1, 0)], 1.0);
}

#[test]
fn fault_density_survives_weight_fabric_geometry() {
    // The fabric's grid allocation must not distort injected density.
    let mut rng = StdRng::seed_from_u64(6);
    let mut fabric = WeightFabric::for_shape(100, 50, 32, FixedFormat::default());
    fabric.inject(&FaultSpec::density(0.04), &mut rng);
    let measured = fabric.array().fault_density();
    assert!((measured - 0.04).abs() < 0.015, "measured {measured}");
}

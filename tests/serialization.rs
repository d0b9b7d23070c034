//! Serde round-trip tests: the data-structure types of the workspace
//! serialise and deserialise losslessly (C-SERDE), enabling experiment
//! checkpointing and the bench harness's `--json` output.

use fare::core::mapping::{map_adjacency, BlockPlacement, Mapping, MappingConfig};
use fare::core::{EpochStats, FaultStrategy, TrainConfig, TrainOutcome, Trainer};
use fare::gnn::{Gnn, GnnDims};
use fare::graph::datasets::{Dataset, DatasetKind, ModelKind};
use fare::graph::batch::{make_batches, MiniBatch};
use fare::graph::partition::partition;
use fare::graph::{CsrGraph, Partitioning};
use fare::reram::weights::WeightFabric;
use fare::reram::{Bist, Crossbar, CrossbarArray, FaultMap, FaultSpec};
use fare::tensor::{FixedFormat, Matrix};
use fare_rt::json::Json;
use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::SeedableRng;

fn round_trip<T: fare_rt::json::ToJson + fare_rt::json::FromJson + PartialEq + std::fmt::Debug>(
    value: &T,
) {
    let json = fare_rt::json::to_string(value).expect("serialises");
    let back: T = fare_rt::json::from_str(&json).expect("deserialises");
    assert_eq!(&back, value);
}

#[test]
fn matrix_round_trips() {
    let m = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.25 - 1.0);
    round_trip(&m);
}

#[test]
fn csr_graph_round_trips() {
    let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (0, 5)]);
    round_trip(&g);
}

#[test]
fn fault_spec_and_config_round_trip() {
    round_trip(&FaultSpec::with_ratio(0.03, 9.0, 1.0));
    round_trip(&TrainConfig {
        model: ModelKind::Gat,
        strategy: FaultStrategy::NeuronReordering,
        fault_spec: FaultSpec::density(0.05),
        ..TrainConfig::default()
    });
}

#[test]
fn crossbar_array_and_fault_map_round_trip() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut array = CrossbarArray::new(4, 16);
    array.inject(&FaultSpec::density(0.05), &mut rng);
    round_trip(&array);
    let map: FaultMap = Bist::scan(&array);
    round_trip(&map);
}

/// `value`'s JSON with field `name` replaced by the JSON text `with`.
fn with_field<T: fare_rt::json::ToJson>(value: &T, name: &str, with: &str) -> String {
    let Json::Obj(mut fields) = fare_rt::json::ToJson::to_json(value) else {
        panic!("not a JSON object");
    };
    let slot = fields
        .iter_mut()
        .find(|(k, _)| k == name)
        .expect("field exists");
    slot.1 = fare_rt::json::parse(with).expect("valid replacement");
    Json::Obj(fields).to_compact()
}

fn rejects<T: fare_rt::json::FromJson + std::fmt::Debug>(text: &str, what: &str) {
    let parsed: Result<T, _> = fare_rt::json::from_str(text);
    assert!(parsed.is_err(), "{what}: accepted {text}");
}

#[test]
fn matrix_from_json_rejects_data_length_other_than_rows_times_cols() {
    rejects::<Matrix>(r#"{"rows":2,"cols":2,"data":[1.0]}"#, "too few entries");
    rejects::<Matrix>(
        r#"{"rows":4294967296,"cols":4294967296,"data":[]}"#,
        "rows x cols overflows",
    );
}

#[test]
fn csr_graph_from_json_rejects_offsets_not_starting_at_zero() {
    rejects::<CsrGraph>(r#"{"offsets":[],"neighbors":[]}"#, "no offsets");
    rejects::<CsrGraph>(r#"{"offsets":[1,1],"neighbors":[]}"#, "offsets from 1");
}

#[test]
fn csr_graph_from_json_rejects_decreasing_offsets() {
    rejects::<CsrGraph>(
        r#"{"offsets":[0,2,1,2],"neighbors":[1,2]}"#,
        "decreasing offsets",
    );
}

#[test]
fn csr_graph_from_json_rejects_last_offset_other_than_neighbour_count() {
    rejects::<CsrGraph>(
        r#"{"offsets":[0,5],"neighbors":[1]}"#,
        "offsets past the end",
    );
    rejects::<CsrGraph>(
        r#"{"offsets":[0,0],"neighbors":[1]}"#,
        "unreached neighbour",
    );
}

#[test]
fn csr_graph_from_json_rejects_unsorted_or_repeated_neighbours() {
    let triangle = r#"{"offsets":[0,2,4,6],"neighbors":[1,2,0,2,0,1]}"#;
    let _: CsrGraph = fare_rt::json::from_str(triangle).expect("a valid triangle");
    rejects::<CsrGraph>(
        r#"{"offsets":[0,2,4,6],"neighbors":[2,1,0,2,0,1]}"#,
        "descending neighbours",
    );
    rejects::<CsrGraph>(
        r#"{"offsets":[0,2,3,4],"neighbors":[1,1,0,0]}"#,
        "repeated neighbour",
    );
}

#[test]
fn csr_graph_from_json_rejects_out_of_range_neighbour() {
    rejects::<CsrGraph>(
        r#"{"offsets":[0,1,1],"neighbors":[7]}"#,
        "neighbour 7 of 2 nodes",
    );
}

#[test]
fn csr_graph_from_json_rejects_self_loop() {
    rejects::<CsrGraph>(r#"{"offsets":[0,1,1],"neighbors":[0]}"#, "self loop");
}

#[test]
fn csr_graph_from_json_rejects_edge_without_its_reverse() {
    rejects::<CsrGraph>(r#"{"offsets":[0,1,1],"neighbors":[1]}"#, "one-way edge");
}

#[test]
fn weight_fabric_round_trips_and_reads_identically() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut fabric = WeightFabric::for_shape(20, 9, 16, FixedFormat::default());
    fabric.inject(&FaultSpec::density(0.05), &mut rng);
    round_trip(&fabric);
    let back: WeightFabric =
        fare_rt::json::from_str(&fare_rt::json::to_string(&fabric).unwrap()).unwrap();
    let w = Matrix::from_fn(20, 9, |r, c| ((r * 9 + c) as f32 * 0.37).sin());
    assert_eq!(back.corrupt(&w), fabric.corrupt(&w));
}

#[test]
fn partitioning_and_minibatch_round_trip() {
    let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
    let parts = partition(&g, 2, &mut StdRng::seed_from_u64(1));
    round_trip(&parts);
    for batch in make_batches(&g, &parts, 1, &mut StdRng::seed_from_u64(2)) {
        round_trip(&batch);
    }
}

#[test]
fn partitioning_from_json_rejects_part_id_out_of_range() {
    let parts = Partitioning::new(vec![0, 1, 1, 0], 2);
    rejects::<Partitioning>(&with_field(&parts, "assignment", "[0, 2, 1, 0]"), "part id 2 of 2");
    rejects::<Partitioning>(&with_field(&parts, "num_parts", "0"), "no parts");
}

#[test]
fn minibatch_from_json_rejects_node_list_not_matching_graph() {
    let batch = MiniBatch {
        nodes: vec![4, 7, 9],
        graph: CsrGraph::from_edges(3, &[(0, 1), (1, 2)]),
    };
    rejects::<MiniBatch>(&with_field(&batch, "nodes", "[4, 7]"), "too few nodes");
    rejects::<MiniBatch>(&with_field(&batch, "nodes", "[4, 7, 9, 11]"), "too many nodes");
    rejects::<MiniBatch>(&with_field(&batch, "nodes", "[4, 7, 4]"), "repeated node");
}

#[test]
fn crossbar_from_json_rejects_zero_size() {
    rejects::<Crossbar>(r#"{"n":0,"rows":[]}"#, "zero-size crossbar");
}

#[test]
fn crossbar_array_from_json_rejects_mismatched_or_missing_crossbars() {
    let array = CrossbarArray::new(3, 8);
    rejects::<CrossbarArray>(
        &with_field(&array, "n", "16"),
        "array n differs from its crossbars",
    );
    let mixed = with_field(
        &array,
        "crossbars",
        &fare_rt::json::to_string(&vec![Crossbar::new(8), Crossbar::new(4)]).unwrap(),
    );
    rejects::<CrossbarArray>(&mixed, "crossbars of mixed size");
    rejects::<CrossbarArray>(&with_field(&array, "crossbars", "[]"), "no crossbars");
}

#[test]
fn weight_fabric_from_json_rejects_inconsistent_geometry() {
    // 20 x 9 weights on 16 x 16 crossbars: 16 / 8 = 2 weights per
    // crossbar row, a 2 x 5 grid of 10 crossbars.
    let fabric = WeightFabric::for_shape(20, 9, 16, FixedFormat::default());
    let bad = [
        ("grid_rows", "3"),
        ("grid_cols", "4"),
        ("weights_per_row", "4"),
        ("n", "12"),
        ("n", "0"),
        ("rows", "0"),
        ("rows", "40"),
        ("cols", "0"),
        ("fmt", r#"{"frac_bits":40}"#),
    ];
    for (name, value) in bad {
        rejects::<WeightFabric>(
            &with_field(&fabric, name, value),
            &format!("{name} = {value}"),
        );
    }
    let short = fare_rt::json::to_string(&CrossbarArray::new(9, 16)).unwrap();
    rejects::<WeightFabric>(&with_field(&fabric, "array", &short), "array too short");
    let wrong_n = fare_rt::json::to_string(&CrossbarArray::new(10, 8)).unwrap();
    rejects::<WeightFabric>(
        &with_field(&fabric, "array", &wrong_n),
        "array of 8x8 crossbars",
    );
}

#[test]
fn model_round_trips_and_still_runs() {
    let mut rng = StdRng::seed_from_u64(5);
    let dims = GnnDims {
        input: 6,
        hidden: 8,
        output: 3,
    };
    for kind in [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat] {
        let model = Gnn::new(kind, dims, &mut rng);
        let json = fare_rt::json::to_string(&model).expect("serialises");
        let back: Gnn = fare_rt::json::from_str(&json).expect("deserialises");
        assert_eq!(back, model);
        // The restored model computes identically (edge checkpointing).
        let adj = fare::graph::GraphView::from_dense(Matrix::from_rows(&[
            &[0.0, 1.0, 0.0],
            &[1.0, 0.0, 1.0],
            &[0.0, 1.0, 0.0],
        ]));
        let x = Matrix::from_fn(3, 6, |r, c| ((r * 6 + c) as f32 * 0.3).sin());
        let (a, _) = model.forward(&adj, &x, &fare::gnn::IdealReader);
        let (b, _) = back.forward(&adj, &x, &fare::gnn::IdealReader);
        assert_eq!(a, b, "{kind}");
    }
}

/// A 16-node adjacency mapped onto 8 × 8 crossbars: a 2 × 2 block grid.
fn sample_mapping() -> Mapping {
    let mut rng = StdRng::seed_from_u64(7);
    let adj = Matrix::from_fn(16, 16, |i, j| {
        if i != j && (i * 5 + j) % 7 == 0 {
            1.0
        } else {
            0.0
        }
    });
    let adj = adj.zip_map(&adj.transpose(), |a, b| if a + b > 0.0 { 1.0 } else { 0.0 });
    let mut array = CrossbarArray::new(8, 8);
    array.inject(&FaultSpec::density(0.05), &mut rng);
    map_adjacency(&adj, &array, &MappingConfig::default())
}

#[test]
fn mapping_round_trips() {
    round_trip(&sample_mapping());
}

#[test]
fn mapping_from_json_rejects_bad_geometry() {
    let mapping = sample_mapping();
    let bad = [
        ("n", "0"),
        // A row_perm of length 8 cannot be a permutation of 0..2^40, and
        // the check must not allocate 2^40 slots to find that out.
        ("n", "1099511627776"),
        ("grid", "0"),
        ("grid", "3"),
        // grid² overflows usize: rejected, not allocated.
        ("grid", "4294967296"),
        ("placements", "[]"),
    ];
    for (name, value) in bad {
        rejects::<Mapping>(
            &with_field(&mapping, name, value),
            &format!("{name} = {value}"),
        );
    }
    rejects::<Mapping>(r#"{"n":0,"grid":0,"placements":[]}"#, "zero-size crossbars");
}

#[test]
fn mapping_from_json_rejects_bad_placements() {
    let mapping = sample_mapping();
    let edits: [(&str, fn(&mut [BlockPlacement])); 7] = [
        ("block outside the grid", |p| p[0].block_row = 2),
        ("block placed twice", |p| {
            p[1].block_row = p[0].block_row;
            p[1].block_col = p[0].block_col;
        }),
        ("crossbar used twice", |p| p[1].crossbar = p[0].crossbar),
        ("repeated physical row", |p| {
            p[0].row_perm[1] = p[0].row_perm[0]
        }),
        ("physical row out of range", |p| p[0].row_perm[0] = 8),
        ("short row_perm", |p| {
            p[0].row_perm.pop();
        }),
        ("long row_perm", |p| p[0].row_perm.push(8)),
    ];
    for (what, edit) in edits {
        let mut placements = mapping.placements().to_vec();
        edit(&mut placements);
        let text = fare_rt::json::to_string(&placements).unwrap();
        rejects::<Mapping>(&with_field(&mapping, "placements", &text), what);
    }
}

#[test]
fn train_outcome_round_trips() {
    let ds = Dataset::generate(DatasetKind::Ppi, 9);
    let config = TrainConfig {
        epochs: 2,
        fault_spec: FaultSpec::density(0.02),
        ..TrainConfig::default()
    };
    let out: TrainOutcome = Trainer::new(config, 9).run(&ds);
    // JSON round-trips of f64 may differ by one ULP in serde_json's
    // reader, so compare with tolerance; the *second* round-trip must be
    // a fixed point.
    let json = fare_rt::json::to_string(&out).expect("serialises");
    let back: TrainOutcome = fare_rt::json::from_str(&json).expect("deserialises");
    assert_eq!(back.history.len(), out.history.len());
    for (a, b) in back.history.iter().zip(&out.history) {
        assert_eq!(a.epoch, b.epoch);
        assert!((a.loss - b.loss).abs() < 1e-12);
        assert!((a.train_accuracy - b.train_accuracy).abs() < 1e-12);
        assert!((a.test_accuracy - b.test_accuracy).abs() < 1e-12);
    }
    assert_eq!(back.num_batches, out.num_batches);
    assert_eq!(back.final_mapping_cost, out.final_mapping_cost);
    let json2 = fare_rt::json::to_string(&back).expect("serialises");
    let back2: TrainOutcome = fare_rt::json::from_str(&json2).expect("deserialises");
    assert_eq!(back2, back, "second round-trip must be lossless");
    let stats: EpochStats = back.history[0];
    round_trip(&stats);
}

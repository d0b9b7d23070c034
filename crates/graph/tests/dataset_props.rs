//! Property tests for the dataset-file readers: seeded truncations, byte
//! swaps and extreme-number edits of a small valid edge list, label file
//! and feature file must make `read_edge_list`, `read_labels`,
//! `read_features` and `assemble_dataset` return `Ok` or `Err`, never
//! panic; and every dataset that assembles must have one label and one
//! feature row per node.

use fare_graph::io::{assemble_dataset, read_edge_list, read_features, read_labels};
use fare_rt::prop::prelude::*;
use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::{Rng, SeedableRng};

/// A 12-node graph: two 6-cycles joined by one edge, with a comment, a
/// blank line and a duplicate edge.
const EDGES: &str =
    "# two rings\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n\n6 7\n7 8\n8 9\n9 10\n10 11\n11 6\n0 6\n1 0\n";

/// One class per node, three classes.
const LABELS: &str = "0\n0\n1\n1\n2\n2\n0\n1\n2\n0\n1\n2\n";

/// Three features per node.
const FEATURES: &str = "\
0.5 -1 2e-3\n1 0 0\n-0.25 3.5 1\n0 0 0\n1e3 -2 0.125\n7 7 7\n\
0.1 0.2 0.3\n-1 -1 -1\n2 4 8\n0 1 0\n1.5e-2 9 -9\n3 2 1\n";

/// Bytes that split, join or spoil a line or a number; `0xff` is not
/// UTF-8.
const BYTES: &[u8] = b"0123456789-+.eE #\n\t\xff";

/// Numbers at the readers' limits: the node-id cap (2^22), `u64::MAX` and
/// one past it, signs, fractions, and floats that are infinite, NaN or at
/// the edge of `f32`. No accepted node id
/// exceeds 99, so a mutant never allocates a large graph.
const TOKENS: [&str; 15] = [
    "0",
    "1",
    "11",
    "99",
    "4194304",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "-0",
    "0.5",
    "1e999",
    "nan",
    "inf",
    "3.4028235e38",
    "1e-45",
];

/// `text` after one to three seeded edits: a truncation, a byte swap, a
/// short deletion or, most often, the number at or after a position
/// replaced by an extreme token.
fn mutate(text: &str, rng: &mut StdRng) -> Vec<u8> {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=3) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.gen_range(0..bytes.len());
        match rng.gen_range(0..8) {
            0 => bytes.truncate(at),
            1 => bytes[at] = BYTES[rng.gen_range(0..BYTES.len())],
            2 => {
                let end = (at + rng.gen_range(1..8)).min(bytes.len());
                bytes.drain(at..end);
            }
            _ => {
                let Some(start) = bytes[at..].iter().position(u8::is_ascii_digit) else {
                    continue;
                };
                let start = at + start;
                let end = bytes[start..]
                    .iter()
                    .position(|b| !b.is_ascii_digit() && !b"-+.eE".contains(b))
                    .map_or(bytes.len(), |len| start + len);
                let token = TOKENS[rng.gen_range(0..TOKENS.len())];
                bytes.splice(start..end, token.bytes());
            }
        }
    }
    bytes
}

/// The three files of `seed`'s mutant: each file is edited with
/// probability one half, so every reader sees valid input often enough
/// for the others' mutants to reach `assemble_dataset`.
fn mutant(seed: u64) -> [Vec<u8>; 3] {
    let mut rng = StdRng::seed_from_u64(seed);
    [EDGES, LABELS, FEATURES].map(|text| {
        if rng.gen_bool(0.5) {
            mutate(text, &mut rng)
        } else {
            text.as_bytes().to_vec()
        }
    })
}

/// Reads and assembles `seed`'s mutant. `Ok(None)` when a reader
/// rejected its file, `Ok(Some(nodes))` when the dataset assembled, an
/// error message when an assembled dataset is mis-shaped.
fn read_and_assemble(seed: u64) -> Result<Option<usize>, String> {
    let [edges, labels, features] = mutant(seed);
    let graph = read_edge_list(edges.as_slice());
    let labels = read_labels(labels.as_slice());
    let features = read_features(features.as_slice());
    let (Ok(graph), Ok(labels), Ok(features)) = (graph, labels, features) else {
        return Ok(None);
    };
    let n = graph.num_nodes();
    // Synthesised features take the other branch of `assemble_dataset`.
    let features = (!seed.is_multiple_of(4)).then_some(features);
    let partitions = 1 + (seed % 5) as usize;
    let clusters = 1 + (seed % 2) as usize;
    let Ok(d) = assemble_dataset(graph, labels, features, partitions, clusters, seed) else {
        return Ok(None);
    };
    let shapes = [
        ("graph nodes", d.graph.num_nodes()),
        ("labels", d.labels.len()),
        ("feature rows", d.features.rows()),
        ("train mask", d.train_mask.len()),
    ];
    for (what, len) in shapes {
        if len != n {
            return Err(format!("seed {seed}: {len} {what} for {n} nodes"));
        }
    }
    if d.labels.iter().any(|&l| l >= d.num_classes) {
        return Err(format!("seed {seed}: a label is not below num_classes"));
    }
    Ok(Some(n))
}

#[test]
fn the_unmutated_files_assemble() {
    let graph = read_edge_list(EDGES.as_bytes()).expect("edge list parses");
    let labels = read_labels(LABELS.as_bytes()).expect("labels parse");
    let features = read_features(FEATURES.as_bytes()).expect("features parse");
    let d = assemble_dataset(graph, labels, Some(features), 2, 1, 7).expect("assembles");
    assert_eq!(d.graph.num_nodes(), 12);
    assert_eq!(d.features.shape(), (12, 3));
    assert_eq!(d.num_classes, 3);
}

#[test]
fn mutants_reach_assemble_dataset() {
    // Guards the property below against vacuity: a good share of the
    // mutants must assemble, and a good share must be rejected.
    let assembled = (0..256)
        .filter(|&seed| matches!(read_and_assemble(seed), Ok(Some(_))))
        .count();
    assert!(
        (25..=230).contains(&assembled),
        "{assembled} of 256 mutants assemble"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_dataset_files_read_or_error_and_assemble_well_shaped(seed in any::<u64>()) {
        if let Err(e) = read_and_assemble(seed) {
            prop_assert!(false, "{}", e);
        }
    }
}

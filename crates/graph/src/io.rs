//! Loading real graph datasets from disk.
//!
//! The reproduction ships synthetic Table II replicas, but a downstream
//! user will want to run FARe on their own graphs. This module reads the
//! common whitespace-separated formats:
//!
//! - **edge list** — one `u v` pair per line; `#` starts a comment;
//!   duplicate edges and self loops are dropped (matching
//!   [`CsrGraph::from_edges`]);
//! - **labels** — one integer class per line, node order;
//! - **features** — one whitespace-separated float row per line, node
//!   order (optional — [`propagated_features`] synthesises
//!   structure-correlated features when absent).
//!
//! All parsers take `impl BufRead` (pass `&mut reader` to reuse one) and
//! have path-based conveniences.

use std::error::Error;
use std::fmt;
use std::io::{BufRead, BufReader};
use std::path::Path;

use fare_rt::rand::rngs::StdRng;
use fare_rt::rand::{Rng, SeedableRng};
use fare_tensor::{init, Matrix};

use crate::datasets::{Dataset, DatasetKind, DatasetSpec, ModelKind};
use crate::{CsrGraph, GraphView};

/// Error parsing a graph/label/feature file.
#[derive(Debug)]
pub enum ParseDataError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed content at a 1-based line number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for ParseDataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDataError::Io(e) => write!(f, "i/o error: {e}"),
            ParseDataError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
        }
    }
}

impl Error for ParseDataError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseDataError::Io(e) => Some(e),
            ParseDataError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for ParseDataError {
    fn from(e: std::io::Error) -> Self {
        ParseDataError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> ParseDataError {
    ParseDataError::Parse {
        line,
        message: message.into(),
    }
}

/// Most nodes an edge list may describe: 2²² = 4,194,304, above the
/// largest Table II graph (Ogbl-citation2, 2,927,963 nodes). The graph
/// allocates per node up front, so an untrusted id must not size it.
const MAX_NODES: usize = 1 << 22;

/// Reads an undirected edge list. Node ids may be sparse; the graph gets
/// `max_id + 1` nodes, at most 2²² = 4,194,304.
///
/// # Errors
///
/// Returns [`ParseDataError`] on I/O failure, malformed lines, or a node
/// id of 2²² or more.
///
/// # Example
///
/// ```
/// use fare_graph::io::read_edge_list;
/// let text = "# a triangle\n0 1\n1 2\n2 0\n";
/// let g = read_edge_list(text.as_bytes())?;
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 3);
/// # Ok::<(), fare_graph::io::ParseDataError>(())
/// ```
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<CsrGraph, ParseDataError> {
    let mut edges = Vec::new();
    let mut max_id = 0usize;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let u: usize = parts
            .next()
            .ok_or_else(|| parse_err(i + 1, "missing source node"))?
            .parse()
            .map_err(|e| parse_err(i + 1, format!("bad source node: {e}")))?;
        let v: usize = parts
            .next()
            .ok_or_else(|| parse_err(i + 1, "missing target node"))?
            .parse()
            .map_err(|e| parse_err(i + 1, format!("bad target node: {e}")))?;
        if parts.next().is_some() {
            return Err(parse_err(i + 1, "expected exactly two node ids"));
        }
        if u.max(v) >= MAX_NODES {
            return Err(parse_err(
                i + 1,
                format!("node id {} exceeds the {MAX_NODES}-node cap", u.max(v)),
            ));
        }
        max_id = max_id.max(u).max(v);
        edges.push((u, v));
    }
    let nodes = if edges.is_empty() { 0 } else { max_id + 1 };
    Ok(CsrGraph::from_edges(nodes, &edges))
}

/// Reads per-node integer labels, one per line.
///
/// # Errors
///
/// Returns [`ParseDataError`] on I/O failure or malformed lines.
pub fn read_labels<R: BufRead>(reader: R) -> Result<Vec<usize>, ParseDataError> {
    let mut labels = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        labels.push(
            line.parse()
                .map_err(|e| parse_err(i + 1, format!("bad label: {e}")))?,
        );
    }
    Ok(labels)
}

/// Reads per-node feature rows (whitespace-separated floats).
///
/// # Errors
///
/// Returns [`ParseDataError`] on I/O failure, malformed floats,
/// non-finite values (`nan`, `inf`, or a literal beyond `f32` range), or
/// ragged rows.
pub fn read_features<R: BufRead>(reader: R) -> Result<Matrix, ParseDataError> {
    let mut rows: Vec<Vec<f32>> = Vec::new();
    let mut width: Option<usize> = None;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let row: Vec<f32> = line
            .split_whitespace()
            .map(|t| match t.parse::<f32>() {
                Ok(v) if v.is_finite() => Ok(v),
                Ok(_) => Err(parse_err(i + 1, format!("non-finite feature value `{t}`"))),
                Err(e) => Err(parse_err(i + 1, format!("bad feature value: {e}"))),
            })
            .collect::<Result<_, _>>()?;
        match width {
            None => width = Some(row.len()),
            Some(w) if w != row.len() => {
                return Err(parse_err(
                    i + 1,
                    format!("ragged feature row: expected {w} values, got {}", row.len()),
                ))
            }
            _ => {}
        }
        rows.push(row);
    }
    let w = width.unwrap_or(0);
    let data: Vec<f32> = rows.into_iter().flatten().collect();
    Ok(Matrix::from_vec(data.len() / w.max(1), w, data))
}

/// Synthesises structure-correlated features when a dataset has none:
/// random Gaussian vectors smoothed by one round of mean aggregation (so
/// connected nodes get similar features), with the last column carrying
/// the node's standardised log-degree (so degree-driven tasks are
/// learnable too).
///
/// # Panics
///
/// Panics if `dim == 0`.
pub fn propagated_features(graph: &CsrGraph, dim: usize, seed: u64) -> Matrix {
    assert!(dim > 0, "feature dim must be positive");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF0_0D);
    let raw = init::normal(graph.num_nodes(), dim, 1.0, &mut rng);
    let smoothed = GraphView::from_graph(graph).mean_norm().spmm(&raw);
    // Blend: keep some per-node identity so features are not purely
    // positional.
    let mut out = raw.zip_map(&smoothed, |a, b| 0.5 * a + b);
    // Standardised log-degree channel.
    let n = graph.num_nodes();
    if n > 0 {
        let logdeg: Vec<f32> = (0..n)
            .map(|u| ((graph.degree(u) + 1) as f32).ln())
            .collect();
        let mean = logdeg.iter().sum::<f32>() / n as f32;
        let var = logdeg.iter().map(|d| (d - mean).powi(2)).sum::<f32>() / n as f32;
        let std = var.sqrt().max(1e-6);
        let last = dim - 1;
        for (u, &d) in logdeg.iter().enumerate() {
            out[(u, last)] = (d - mean) / std;
        }
    }
    out
}

/// Assembles a custom [`Dataset`] from loaded parts.
///
/// `features = None` synthesises them with [`propagated_features`];
/// the train mask is a seeded 70/30 split. `partitions` and
/// `clusters_per_batch` configure mini-batching exactly like the
/// presets.
///
/// # Errors
///
/// Returns [`ParseDataError::Parse`] (line 0) when the graph is empty,
/// the label count does not match the node count, a label id is not
/// below the node count, features are mis-shaped, `partitions` is 0 or
/// more than the node count, or `clusters_per_batch` is 0.
pub fn assemble_dataset(
    graph: CsrGraph,
    labels: Vec<usize>,
    features: Option<Matrix>,
    partitions: usize,
    clusters_per_batch: usize,
    seed: u64,
) -> Result<Dataset, ParseDataError> {
    let n = graph.num_nodes();
    if labels.len() != n {
        return Err(parse_err(
            0,
            format!("{} labels for {n} nodes", labels.len()),
        ));
    }
    if n == 0 {
        return Err(parse_err(0, "empty graph"));
    }
    // Labels are class ids, and the largest sizes the model's output
    // layer: bound them by the node count.
    let max_label = labels.iter().copied().max().unwrap_or(0);
    if max_label >= n {
        return Err(parse_err(
            0,
            format!("label {max_label} is not below the node count {n}"),
        ));
    }
    let num_classes = max_label + 1;
    if partitions == 0 || partitions > n {
        return Err(parse_err(
            0,
            format!("cannot split {n} nodes into {partitions} partitions"),
        ));
    }
    if clusters_per_batch == 0 {
        return Err(parse_err(0, "clusters_per_batch must be positive"));
    }
    let features = match features {
        Some(f) => {
            if f.rows() != n {
                return Err(parse_err(
                    0,
                    format!("{} feature rows for {n} nodes", f.rows()),
                ));
            }
            f
        }
        None => propagated_features(&graph, 24, seed),
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5917);
    let train_mask: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.7)).collect();
    let spec = DatasetSpec {
        kind: DatasetKind::Ppi, // placeholder tag; `name` identifies it
        name: "custom",
        paper_nodes: 0,
        paper_edges: 0,
        paper_batch: 0,
        paper_partitions: 0,
        nodes: n,
        communities: num_classes,
        p_in: 0.0,
        p_out: 0.0,
        hub_fraction: 0.0,
        feature_dim: features.cols(),
        partitions,
        clusters_per_batch,
        models: &[ModelKind::Gcn],
    };
    Ok(Dataset {
        spec,
        graph,
        features,
        labels,
        num_classes,
        train_mask,
    })
}

/// Loads a dataset from files: an edge list, a label file, and an
/// optional feature file.
///
/// # Errors
///
/// Returns [`ParseDataError`] on any I/O or format problem.
pub fn load_dataset(
    edge_list: &Path,
    labels: &Path,
    features: Option<&Path>,
    partitions: usize,
    clusters_per_batch: usize,
    seed: u64,
) -> Result<Dataset, ParseDataError> {
    let graph = read_edge_list(BufReader::new(std::fs::File::open(edge_list)?))?;
    let labels = read_labels(BufReader::new(std::fs::File::open(labels)?))?;
    let features = features
        .map(|p| read_features(BufReader::new(std::fs::File::open(p)?)))
        .transpose()?;
    assemble_dataset(
        graph,
        labels,
        features,
        partitions,
        clusters_per_batch,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_list_with_comments_and_blanks() {
        let text = "# header\n\n0 1\n1 2\n\n# tail\n2 0\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn edge_list_sparse_ids() {
        let g = read_edge_list("0 5\n".as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 6);
        assert!(g.has_edge(0, 5));
    }

    #[test]
    fn empty_edge_list_is_empty_graph() {
        let g = read_edge_list("# nothing\n".as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 0);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let err = read_edge_list("0 x\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 1"));
        let err = read_edge_list("0 1 2\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("exactly two"));
        let err = read_edge_list("7\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("missing target"));
    }

    #[test]
    fn edge_list_rejects_id_whose_node_count_overflows() {
        // `max_id + 1` would wrap to 0 in a release build.
        let err = read_edge_list("0 18446744073709551615\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn edge_list_rejects_id_past_the_node_cap() {
        let last = format!("0 1\n2 {}\n", MAX_NODES - 1);
        assert_eq!(
            read_edge_list(last.as_bytes()).unwrap().num_nodes(),
            MAX_NODES
        );
        let over = format!("0 1\n{MAX_NODES} 2\n");
        let err = read_edge_list(over.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn labels_parse() {
        assert_eq!(
            read_labels("0\n1\n# c\n2\n".as_bytes()).unwrap(),
            vec![0, 1, 2]
        );
        assert!(read_labels("1.5\n".as_bytes()).is_err());
    }

    #[test]
    fn features_parse_and_reject_ragged() {
        let f = read_features("1.0 2.0\n3.0 4.0\n".as_bytes()).unwrap();
        assert_eq!(f.shape(), (2, 2));
        assert_eq!(f[(1, 0)], 3.0);
        let err = read_features("1.0 2.0\n3.0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("ragged"));
    }

    #[test]
    fn features_reject_non_finite_values_with_their_line() {
        let non_finite = [
            "nan",
            "NaN",
            "-nan",
            "+NAN",
            "inf",
            "-inf",
            "+Inf",
            "infinity",
            "-Infinity",
            "1e39",
        ];
        for bad in non_finite {
            let text = format!("# header\n1.0 2.0\n3.0 {bad}\n");
            match read_features(text.as_bytes()) {
                Err(ParseDataError::Parse { line, message }) => {
                    assert_eq!(line, 3, "{bad}");
                    assert!(message.contains("non-finite"), "{bad}: {message}");
                }
                other => panic!("{bad}: expected a parse error, got {other:?}"),
            }
        }
        assert!(read_features("1.0 -0.0\n1e-40 -3.4e38\n".as_bytes()).is_ok());
    }

    #[test]
    fn propagated_features_correlate_with_structure() {
        // Two cliques: intra-clique feature distance should be smaller
        // than inter-clique.
        let mut edges = Vec::new();
        for u in 0..6 {
            for v in (u + 1)..6 {
                edges.push((u, v));
            }
        }
        for u in 6..12 {
            for v in (u + 1)..12 {
                edges.push((u, v));
            }
        }
        let g = CsrGraph::from_edges(12, &edges);
        let f = propagated_features(&g, 8, 3);
        let dist =
            |a: usize, b: usize| -> f32 { (0..8).map(|c| (f[(a, c)] - f[(b, c)]).powi(2)).sum() };
        let intra = (dist(0, 1) + dist(6, 7)) / 2.0;
        let inter = (dist(0, 6) + dist(1, 7)) / 2.0;
        assert!(intra < inter, "intra {intra} vs inter {inter}");
    }

    #[test]
    fn propagated_features_carry_degree_channel() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let f = propagated_features(&g, 4, 1);
        // The hub (node 0) has the largest value in the degree channel.
        let hub = f[(0, 3)];
        for u in 1..5 {
            assert!(hub > f[(u, 3)], "hub degree channel not maximal");
        }
    }

    #[test]
    fn assemble_dataset_validates() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(assemble_dataset(g.clone(), vec![0, 1], None, 2, 1, 0).is_err());
        let ds = assemble_dataset(g, vec![0, 1, 0, 1], None, 2, 1, 0).unwrap();
        assert_eq!(ds.num_classes, 2);
        assert_eq!(ds.spec.name, "custom");
        assert_eq!(ds.features.shape(), (4, 24));
    }

    #[test]
    fn assemble_dataset_rejects_inputs_that_would_panic_later() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let build = |labels: Vec<usize>, partitions, clusters_per_batch| {
            assemble_dataset(g.clone(), labels, None, partitions, clusters_per_batch, 0)
        };
        for labels in [vec![0, 1, usize::MAX, 1], vec![0, 1, 4, 1]] {
            let err = build(labels.clone(), 2, 1).expect_err("label id out of range");
            assert!(
                err.to_string().contains("not below the node count"),
                "{labels:?}: {err}"
            );
        }
        for partitions in [0, 5] {
            let err = build(vec![0, 1, 0, 1], partitions, 1).expect_err("bad partition count");
            assert!(
                err.to_string().contains("partitions"),
                "{partitions}: {err}"
            );
        }
        let err = build(vec![0, 1, 0, 1], 2, 0).expect_err("zero clusters per batch");
        assert!(err.to_string().contains("clusters_per_batch"), "{err}");
        // The largest id the node count allows, and as many partitions
        // as nodes, are accepted.
        assert_eq!(build(vec![0, 3, 0, 1], 4, 1).unwrap().num_classes, 4);
    }

    #[test]
    fn load_dataset_end_to_end_from_disk() {
        let dir = std::env::temp_dir().join(format!("fare_io_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("edges.txt");
        let labels = dir.join("labels.txt");
        std::fs::write(&edges, "0 1\n1 2\n2 3\n3 0\n").unwrap();
        std::fs::write(&labels, "0\n0\n1\n1\n").unwrap();
        let ds = load_dataset(&edges, &labels, None, 2, 1, 7).unwrap();
        assert_eq!(ds.graph.num_nodes(), 4);
        assert_eq!(ds.num_classes, 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}

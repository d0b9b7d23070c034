//! Faulty-hardware plumbing: the weight reader backed by crossbar
//! fabrics, and adjacency corruption under a given mapping (sparse; the
//! dense adapters are in `crate::dense`).

use std::collections::BTreeMap;

use fare_gnn::{Gnn, WeightReader};
use fare_graph::{CsrGraph, CsrMatrix};
use fare_reram::variation::{VariationField, VariationSpec};
use fare_reram::weights::{FaultOverlay, WeightFabric};
use fare_reram::{Crossbar, CrossbarArray, FaultSpec, StuckPolarity};
use fare_rt::rand::Rng;
use fare_tensor::{FixedFormat, Matrix};

use fare_matching::{CostMatrix, Matcher};

use crate::mapping::Mapping;

/// A [`WeightReader`] that routes every parameter through its own
/// [`WeightFabric`] — 16-bit quantisation plus stuck-cell corruption.
///
/// Optionally holds a per-parameter **row placement** (logical →
/// physical), which is how the neuron-reordering baseline steers weight
/// rows around damaging faults.
///
/// Each parameter's stuck cells under its placement are folded into a
/// [`FaultOverlay`], rebuilt by every call that changes the faults or
/// the placement, so a read is one quantise plus a sparse patch.
///
/// # Example
///
/// ```
/// use fare_core::FaultyWeightReader;
/// use fare_gnn::{Gnn, GnnDims, WeightReader};
/// use fare_graph::datasets::ModelKind;
/// use fare_reram::FaultSpec;
/// use fare_rt::rand::SeedableRng;
///
/// let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(0);
/// let model = Gnn::new(ModelKind::Gcn, GnnDims { input: 8, hidden: 8, output: 4 }, &mut rng);
/// let mut reader = FaultyWeightReader::for_model(&model, 16);
/// reader.inject(&FaultSpec::density(0.05), &mut rng);
/// let read = reader.read(0, 0, model.param(0, 0));
/// assert_eq!(read.shape(), model.param(0, 0).shape());
/// ```
#[derive(Debug, Clone)]
pub struct FaultyWeightReader {
    params: BTreeMap<(usize, usize), ParamState>,
    clip: Option<f32>,
}

/// One parameter's hardware state.
#[derive(Debug, Clone)]
struct ParamState {
    fabric: WeightFabric,
    /// Logical → physical row placement; identity when `None`.
    placement: Option<Vec<usize>>,
    /// The fabric's faults under `placement`.
    overlay: FaultOverlay,
    variation: Option<VariationField>,
}

impl ParamState {
    fn rebuild_overlay(&mut self) {
        self.overlay = self.fabric.fault_overlay(self.placement.as_deref());
    }
}

impl FaultyWeightReader {
    /// Allocates one fabric per model parameter on `n × n` crossbars with
    /// the default 16-bit fixed-point format.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a multiple of 8 (cells per weight).
    pub fn for_model(model: &Gnn, n: usize) -> Self {
        let fmt = FixedFormat::default();
        let params = model
            .param_shapes()
            .into_iter()
            .map(|ps| {
                let fabric = WeightFabric::for_shape(ps.rows, ps.cols, n, fmt);
                let overlay = fabric.fault_overlay(None);
                let state = ParamState {
                    fabric,
                    placement: None,
                    overlay,
                    variation: None,
                };
                ((ps.layer, ps.param), state)
            })
            .collect();
        Self { params, clip: None }
    }

    /// Draws a static programming-variation field for every parameter
    /// (extension beyond the paper's SAF model; see
    /// [`fare_reram::variation`]).
    pub fn inject_variation(&mut self, spec: &VariationSpec, rng: &mut impl Rng) {
        for state in self.params.values_mut() {
            let (rows, cols) = state.fabric.shape();
            state.variation = Some(VariationField::generate(rows, cols, spec, rng));
        }
    }

    /// Compounds per-epoch retention drift onto every parameter's
    /// variation field (no-op for parameters without one; call
    /// [`FaultyWeightReader::inject_variation`] first, possibly with
    /// σ = 0, to create the fields).
    pub fn apply_drift(&mut self, sigma: f64, rng: &mut impl Rng) {
        for state in self.params.values_mut() {
            if let Some(field) = &mut state.variation {
                field.drift(sigma, rng);
            }
        }
    }

    /// Enables the hardware clipping comparator: every read value is
    /// clamped into `[-threshold, threshold]` *after* fault corruption.
    ///
    /// This is the paper's combination-phase defence (Section IV-B): the
    /// 16-bit comparator + 2:1 mux on each tile bounds exploded weights
    /// before they enter the MVM.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative.
    pub fn set_clip(&mut self, threshold: Option<f32>) {
        if let Some(t) = threshold {
            assert!(t >= 0.0, "clip threshold must be non-negative");
        }
        self.clip = threshold;
    }

    /// The currently configured clip threshold, if any.
    pub fn clip(&self) -> Option<f32> {
        self.clip
    }

    /// Injects faults into every fabric (additive, deterministic order).
    pub fn inject(&mut self, spec: &FaultSpec, rng: &mut impl Rng) {
        for state in self.params.values_mut() {
            state.fabric.inject(spec, rng);
            state.rebuild_overlay();
        }
    }

    /// Borrows the fabric of parameter `(layer, param)`.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is unknown.
    pub fn fabric(&self, layer: usize, param: usize) -> &WeightFabric {
        &self.state(layer, param).fabric
    }

    /// Total fault count across all fabrics.
    pub fn fault_count(&self) -> usize {
        self.params
            .values()
            .map(|s| s.fabric.array().fault_count())
            .sum()
    }

    /// Recomputes every parameter's row placement to minimise corruption
    /// of the *current* weights — the neuron-reordering move, re-run
    /// after every batch because the weights keep changing.
    ///
    /// The paper notes NR's weakness: its reorder unit spans all eight
    /// cells of each weight (it can only permute whole rows), so overlap
    /// with fault patterns is coarse. That is exactly what this
    /// implements — row-level assignment, no polarity awareness.
    pub fn optimize_placements(&mut self, model: &Gnn, matcher: Matcher) {
        for (&(layer, param), state) in &mut self.params {
            let weights = model.param(layer, param);
            let fabric = &state.fabric;
            let cost = CostMatrix::from_fn(weights.rows(), fabric.physical_rows(), |r, p| {
                fabric.row_placement_cost(weights, r, p)
            });
            state.placement = Some(matcher.solve(&cost).to_permutation());
            state.rebuild_overlay();
        }
    }

    fn state(&self, layer: usize, param: usize) -> &ParamState {
        self.params
            .get(&(layer, param))
            .unwrap_or_else(|| panic!("no fabric for parameter ({layer},{param})"))
    }
}

impl WeightReader for FaultyWeightReader {
    fn read(&self, layer: usize, param: usize, value: &Matrix) -> Matrix {
        let state = self.state(layer, param);
        let mut out = state.fabric.read_through(value, &state.overlay);
        if let Some(field) = &state.variation {
            out = field.apply(&out);
        }
        if let Some(t) = self.clip {
            out.clip_inplace(t);
        }
        out
    }
}

/// Corrupts a batch graph's adjacency as stored under `mapping`: the
/// adjacency the aggregation phase actually computes with, as a binary
/// pattern (Fig. 1(b)).
///
/// Each placed block is read back through its crossbar with its row
/// permutation. An SA0 cell under a stored 1 deletes that entry, an SA1
/// cell under a stored 0 inserts one; cells in a block's zero padding
/// past the adjacency's edge are ignored. The result may be asymmetric
/// and may carry diagonal entries. It costs `O(nnz + faults)` on top of
/// one placement lookup per (row, block column).
///
/// # Panics
///
/// Panics if `mapping` does not match the graph's geometry or refers to
/// missing crossbars.
pub fn corrupt_graph_mapped(
    graph: &CsrGraph,
    array: &CrossbarArray,
    mapping: &Mapping,
) -> CsrMatrix {
    corrupt_rows(graph.num_nodes(), |u| graph.neighbors(u), array, mapping)
}

/// The corruption core: `row(r)` lists the stored 1s of row `r` of a
/// `size × size` binary adjacency, ascending.
pub(crate) fn corrupt_rows<'a>(
    size: usize,
    row: impl Fn(usize) -> &'a [usize],
    array: &CrossbarArray,
    mapping: &Mapping,
) -> CsrMatrix {
    let n = array.n();
    assert_eq!(mapping.n(), n, "mapping/array crossbar size mismatch");
    assert_eq!(
        mapping.grid(),
        size.div_ceil(n),
        "mapping grid does not match adjacency"
    );
    // One read-back per placed block.
    fare_obs::counters::RERAM_CROSSBARS_CORRUPTED.add(mapping.placements().len() as u64);
    // The output holds at most the clean entries plus one per SA1 cell.
    let clean: usize = (0..size).map(|r| row(r).len()).sum();
    let sa1: usize = mapping
        .placements()
        .iter()
        .map(|p| array.crossbar(p.crossbar).sa1_count())
        .sum();
    let mut offsets = Vec::with_capacity(size + 1);
    let mut indices = Vec::with_capacity(clean + sa1);
    offsets.push(0);
    // Per block column of the current block row: the crossbar its block
    // is stored on and the block's row permutation.
    let mut placed: Vec<Option<(&Crossbar, &[usize])>> = Vec::with_capacity(mapping.grid());
    for r in 0..size {
        let (br, logical) = (r / n, r % n);
        if logical == 0 {
            placed.clear();
            placed.extend((0..mapping.grid()).map(|bc| {
                mapping
                    .placement_for(br, bc)
                    .map(|p| (array.crossbar(p.crossbar), p.row_perm.as_slice()))
            }));
        }
        let clean = row(r);
        let mut next = 0;
        // Fault cells come in ascending column order: block columns
        // ascend, and each crossbar row yields its faults by column.
        for (bc, slot) in placed.iter().enumerate() {
            let Some((xbar, perm)) = slot else {
                continue;
            };
            for (c, pol) in xbar.row_faults(perm[logical]) {
                let col = bc * n + c;
                if col >= size {
                    break;
                }
                while next < clean.len() && clean[next] < col {
                    indices.push(clean[next]);
                    next += 1;
                }
                // The stuck cell overrides whatever was stored there.
                if clean.get(next) == Some(&col) {
                    next += 1;
                }
                if pol == StuckPolarity::StuckAtOne {
                    indices.push(col);
                }
            }
        }
        indices.extend_from_slice(&clean[next..]);
        offsets.push(indices.len());
    }
    CsrMatrix::from_pattern(size, size, offsets, indices)
}

#[cfg(test)]
mod tests {
    use fare_gnn::GnnDims;
    use fare_graph::datasets::ModelKind;
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::SeedableRng;

    use super::*;

    fn model() -> Gnn {
        let mut rng = StdRng::seed_from_u64(1);
        Gnn::new(
            ModelKind::Sage,
            GnnDims {
                input: 8,
                hidden: 8,
                output: 4,
            },
            &mut rng,
        )
    }

    #[test]
    fn reader_covers_every_param() {
        let m = model();
        let reader = FaultyWeightReader::for_model(&m, 16);
        for ps in m.param_shapes() {
            let fabric = reader.fabric(ps.layer, ps.param);
            assert_eq!(fabric.shape(), (ps.rows, ps.cols));
        }
    }

    #[test]
    fn fault_free_reader_quantises_only() {
        let m = model();
        let reader = FaultyWeightReader::for_model(&m, 16);
        let w = m.param(0, 0);
        let read = reader.read(0, 0, w);
        let res = reader.fabric(0, 0).format().resolution();
        for (a, b) in w.iter().zip(read.iter()) {
            assert!((a - b).abs() <= res);
        }
    }

    #[test]
    fn injection_corrupts_some_weights() {
        let m = model();
        let mut reader = FaultyWeightReader::for_model(&m, 16);
        let mut rng = StdRng::seed_from_u64(2);
        reader.inject(&FaultSpec::density(0.05).sa1_only(), &mut rng);
        assert!(reader.fault_count() > 0);
        let mut any_changed = false;
        for ps in m.param_shapes() {
            let w = m.param(ps.layer, ps.param);
            let read = reader.read(ps.layer, ps.param, w);
            let res = reader.fabric(ps.layer, ps.param).format().resolution();
            if w.iter()
                .zip(read.iter())
                .any(|(a, b)| (a - b).abs() > 2.0 * res)
            {
                any_changed = true;
            }
        }
        assert!(any_changed, "5% SA1 faults corrupted nothing");
    }

    #[test]
    fn optimized_placement_no_worse_than_identity() {
        let m = model();
        let mut reader = FaultyWeightReader::for_model(&m, 16);
        let mut rng = StdRng::seed_from_u64(3);
        reader.inject(&FaultSpec::density(0.05), &mut rng);
        let identity_cost: f64 = m
            .param_shapes()
            .iter()
            .map(|ps| {
                reader
                    .fabric(ps.layer, ps.param)
                    .placement_cost(m.param(ps.layer, ps.param), None)
            })
            .sum();
        reader.optimize_placements(&m, Matcher::Hungarian);
        let optimized_cost: f64 = m
            .param_shapes()
            .iter()
            .map(|ps| {
                let placement = reader.state(ps.layer, ps.param).placement.as_deref();
                reader
                    .fabric(ps.layer, ps.param)
                    .placement_cost(m.param(ps.layer, ps.param), placement)
            })
            .sum();
        assert!(
            optimized_cost <= identity_cost + 1e-9,
            "NR placement {optimized_cost} worse than identity {identity_cost}"
        );
    }

    #[test]
    fn read_clip_bounds_exploded_weights() {
        let m = model();
        let mut reader = FaultyWeightReader::for_model(&m, 16);
        // Every cell stuck at 1, the MSB slices included: explosion.
        let mut rng = StdRng::seed_from_u64(4);
        reader.inject(&FaultSpec::with_sa1_fraction(1.0, 1.0), &mut rng);
        let unclipped = reader.read(0, 0, m.param(0, 0));
        assert!(unclipped[(0, 0)].abs() > 10.0, "expected explosion");
        reader.set_clip(Some(1.0));
        assert_eq!(reader.clip(), Some(1.0));
        let clipped = reader.read(0, 0, m.param(0, 0));
        assert!(clipped.iter().all(|v| v.abs() <= 1.0));
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn placement_changes_are_seen_by_next_read() {
        let m = model();
        let mut reader = FaultyWeightReader::for_model(&m, 16);
        let mut rng = StdRng::seed_from_u64(7);
        reader.inject(&FaultSpec::density(0.05), &mut rng);
        let identity: Vec<Matrix> = m
            .param_shapes()
            .iter()
            .map(|ps| reader.read(ps.layer, ps.param, m.param(ps.layer, ps.param)))
            .collect();
        reader.optimize_placements(&m, Matcher::Hungarian);
        let mut moved = false;
        for (ps, ident) in m.param_shapes().iter().zip(&identity) {
            let w = m.param(ps.layer, ps.param);
            let placement = reader.state(ps.layer, ps.param).placement.as_deref();
            let read = reader.read(ps.layer, ps.param, w);
            let fabric = reader.fabric(ps.layer, ps.param);
            assert_eq!(bits(&read), bits(&fabric.corrupt_permuted(w, placement)));
            moved |= bits(&read) != bits(ident);
        }
        assert!(moved, "NR placement left every read unchanged");
    }

    #[test]
    #[should_panic(expected = "no fabric")]
    fn unknown_param_panics() {
        let m = model();
        let reader = FaultyWeightReader::for_model(&m, 16);
        reader.fabric(9, 9);
    }
}

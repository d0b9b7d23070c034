//! Faulty-hardware plumbing: the weight reader backed by crossbar
//! fabrics, and adjacency corruption under a given mapping (sparse; the
//! dense adapters are in `crate::dense`).

use std::collections::BTreeMap;

use fare_gnn::{Gnn, WeightReader};
use fare_graph::{CsrGraph, CsrMatrix};
use fare_reram::variation::{VariationField, VariationSpec};
use fare_reram::weights::{FaultOverlay, WeightFabric};
use fare_reram::{CrossbarArray, FaultSpec, StuckPolarity};
use fare_tensor::{FixedFormat, Matrix};
use fare_rt::rand::Rng;

use fare_matching::{CostMatrix, Matcher};

use crate::mapping::Mapping;

/// A [`WeightReader`] that routes every parameter through its own
/// [`WeightFabric`] — 16-bit quantisation plus stuck-cell corruption.
///
/// Optionally holds a per-parameter **row placement** (logical →
/// physical), which is how the neuron-reordering baseline steers weight
/// rows around damaging faults.
///
/// Each parameter's stuck cells under its placement are folded once into
/// a [`FaultOverlay`], rebuilt whenever the faults or placements change
/// through this reader, so a read is one quantise plus a sparse patch.
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
    fabrics: BTreeMap<(usize, usize), WeightFabric>,
    placements: BTreeMap<(usize, usize), Vec<usize>>,
    /// Each fabric's overlay under its current placement. A parameter
    /// without one (its fabric was borrowed mutably since) is read
    /// through a fresh overlay.
    overlays: BTreeMap<(usize, usize), FaultOverlay>,
    variations: BTreeMap<(usize, usize), VariationField>,
    clip: Option<f32>,
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
        let fabrics = model
            .param_shapes()
            .into_iter()
            .map(|ps| {
                (
                    (ps.layer, ps.param),
                    WeightFabric::for_shape(ps.rows, ps.cols, n, fmt),
                )
            })
            .collect();
        let mut reader = Self {
            fabrics,
            placements: BTreeMap::new(),
            overlays: BTreeMap::new(),
            variations: BTreeMap::new(),
            clip: None,
        };
        reader.rebuild_overlays();
        reader
    }

    /// Draws a static programming-variation field for every parameter
    /// (extension beyond the paper's SAF model; see
    /// [`fare_reram::variation`]).
    pub fn inject_variation(&mut self, spec: &VariationSpec, rng: &mut impl Rng) {
        for (&key, fabric) in &self.fabrics {
            let (rows, cols) = fabric.shape();
            self.variations
                .insert(key, VariationField::generate(rows, cols, spec, rng));
        }
    }

    /// Compounds per-epoch retention drift onto every parameter's
    /// variation field (no-op for parameters without one; call
    /// [`FaultyWeightReader::inject_variation`] first, possibly with
    /// σ = 0, to create the fields).
    pub fn apply_drift(&mut self, sigma: f64, rng: &mut impl Rng) {
        for field in self.variations.values_mut() {
            field.drift(sigma, rng);
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
        for fabric in self.fabrics.values_mut() {
            fabric.inject(spec, rng);
        }
        self.rebuild_overlays();
    }

    /// Borrows the fabric of parameter `(layer, param)`.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is unknown.
    pub fn fabric(&self, layer: usize, param: usize) -> &WeightFabric {
        self.fabrics
            .get(&(layer, param))
            .unwrap_or_else(|| panic!("no fabric for parameter ({layer},{param})"))
    }

    /// Mutably borrows the fabric of parameter `(layer, param)`. Its
    /// cached overlay is dropped, so later reads see whatever the caller
    /// does to the fabric.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is unknown.
    pub fn fabric_mut(&mut self, layer: usize, param: usize) -> &mut WeightFabric {
        self.overlays.remove(&(layer, param));
        self.fabrics
            .get_mut(&(layer, param))
            .unwrap_or_else(|| panic!("no fabric for parameter ({layer},{param})"))
    }

    /// Total fault count across all fabrics.
    pub fn fault_count(&self) -> usize {
        self.fabrics.values().map(|f| f.array().fault_count()).sum()
    }

    /// Drops all row placements (back to identity).
    pub fn clear_placements(&mut self) {
        self.placements.clear();
        self.rebuild_overlays();
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
        for (&(layer, param), fabric) in &self.fabrics {
            let weights = model.param(layer, param);
            let rows = weights.rows();
            let physical = fabric.physical_rows();
            let cost = CostMatrix::from_fn(rows, physical, |r, p| {
                fabric.row_placement_cost(weights, r, p)
            });
            let sol = matcher.solve(&cost);
            self.placements.insert((layer, param), sol.to_permutation());
        }
        self.rebuild_overlays();
    }

    /// Folds every fabric's faults under its placement into its overlay.
    fn rebuild_overlays(&mut self) {
        self.overlays = self
            .fabrics
            .iter()
            .map(|(&key, fabric)| {
                let placement = self.placements.get(&key).map(Vec::as_slice);
                (key, fabric.fault_overlay(placement))
            })
            .collect();
    }
}

impl WeightReader for FaultyWeightReader {
    fn read(&self, layer: usize, param: usize, value: &Matrix) -> Matrix {
        let fabric = self.fabric(layer, param);
        let mut out = match self.overlays.get(&(layer, param)) {
            Some(overlay) => fabric.read_through(value, overlay),
            None => {
                let placement = self.placements.get(&(layer, param)).map(Vec::as_slice);
                fabric.corrupt_permuted(value, placement)
            }
        };
        if let Some(field) = self.variations.get(&(layer, param)) {
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
    let mut offsets = Vec::with_capacity(size + 1);
    let mut indices = Vec::new();
    offsets.push(0);
    for r in 0..size {
        let (br, logical) = (r / n, r % n);
        let clean = row(r);
        let mut next = 0;
        // Fault cells come in ascending column order: block columns
        // ascend, and each crossbar row lists its faults by column.
        for bc in 0..mapping.grid() {
            let Some(p) = mapping.placement_for(br, bc) else {
                continue;
            };
            let physical = p.row_perm[logical];
            for &(c, pol) in array.crossbar(p.crossbar).row_faults(physical) {
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
    use fare_reram::StuckPolarity;
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
            if w.iter().zip(read.iter()).any(|(a, b)| (a - b).abs() > 2.0 * res) {
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
                let placement = reader.placements.get(&(ps.layer, ps.param)).unwrap();
                reader
                    .fabric(ps.layer, ps.param)
                    .placement_cost(m.param(ps.layer, ps.param), Some(placement))
            })
            .sum();
        assert!(
            optimized_cost <= identity_cost + 1e-9,
            "NR placement {optimized_cost} worse than identity {identity_cost}"
        );
        reader.clear_placements();
        assert!(reader.placements.is_empty());
    }

    #[test]
    fn read_clip_bounds_exploded_weights() {
        let m = model();
        let mut reader = FaultyWeightReader::for_model(&m, 16);
        // Force an MSB SA1 on parameter (0,0), weight (0,0): explosion.
        reader
            .fabric_mut(0, 0)
            .array_mut()
            .crossbar_mut(0)
            .inject_fault(0, 0, StuckPolarity::StuckAtOne);
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
    fn fault_placed_through_fabric_mut_is_seen_by_next_read() {
        let m = model();
        let mut reader = FaultyWeightReader::for_model(&m, 16);
        let w = m.param(0, 0);
        let before = reader.read(0, 0, w);
        reader
            .fabric_mut(0, 0)
            .array_mut()
            .crossbar_mut(0)
            .inject_fault(0, 0, StuckPolarity::StuckAtOne);
        let after = reader.read(0, 0, w);
        assert_ne!(bits(&after), bits(&before));
        assert_eq!(bits(&after), bits(&reader.fabric(0, 0).corrupt(w)));
    }

    #[test]
    fn fabric_replaced_by_deserialised_copy_is_seen_by_next_read() {
        let m = model();
        let mut reader = FaultyWeightReader::for_model(&m, 16);
        let mut rng = StdRng::seed_from_u64(6);
        reader.inject(&FaultSpec::density(0.05), &mut rng);
        let w = m.param(0, 0);
        let before = reader.read(0, 0, w);
        // A different fault pattern whose crossbars restart at version 0
        // once deserialised: a cache keyed on fault versions would miss it.
        let mut other = reader.fabric(0, 0).clone();
        other.array_mut().clear_faults();
        other.array_mut().crossbar_mut(0).inject_fault(1, 0, StuckPolarity::StuckAtOne);
        let text = fare_rt::json::to_string(&other).unwrap();
        *reader.fabric_mut(0, 0) = fare_rt::json::from_str(&text).unwrap();
        let after = reader.read(0, 0, w);
        assert_ne!(bits(&after), bits(&before));
        assert_eq!(bits(&after), bits(&other.corrupt(w)));
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
            let placement = reader.placements[&(ps.layer, ps.param)].clone();
            let read = reader.read(ps.layer, ps.param, w);
            let fabric = reader.fabric(ps.layer, ps.param);
            assert_eq!(bits(&read), bits(&fabric.corrupt_permuted(w, Some(&placement))));
            moved |= bits(&read) != bits(ident);
        }
        assert!(moved, "NR placement left every read unchanged");
        reader.clear_placements();
        for (ps, ident) in m.param_shapes().iter().zip(&identity) {
            let read = reader.read(ps.layer, ps.param, m.param(ps.layer, ps.param));
            assert_eq!(bits(&read), bits(ident));
        }
    }

    #[test]
    #[should_panic(expected = "no fabric")]
    fn unknown_param_panics() {
        let m = model();
        let reader = FaultyWeightReader::for_model(&m, 16);
        reader.fabric(9, 9);
    }
}

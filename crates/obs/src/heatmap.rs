//! Spatial (per-crossbar) telemetry rollups.
//!
//! A [`HeatmapGrid`] is a named grid of per-crossbar accumulators —
//! SA0/SA1 fault-cell counts, mapping mismatch cost, modeled MVM
//! traffic and modeled energy — produced once per instrumented run
//! (the trainer rolls its batch states up at the end of
//! `Trainer::run`) and recorded into a process-global sink that
//! [`RunManifest::capture`](crate::RunManifest::capture) drains into
//! the manifest's `heatmaps` section.
//!
//! Cell values are stored as parallel arrays indexed by crossbar, with
//! a `rows × cols` display shape (`cols = ceil(sqrt(cells))`) chosen
//! purely for rendering — `fare-report heatmap` turns these into ASCII
//! or SVG grids. All values are accumulated on logical paths, so grids
//! are bit-identical across `FARE_RT_THREADS` like the rest of the
//! manifest.

use std::sync::Mutex;

/// Per-crossbar accumulators for one named grid.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatmapGrid {
    /// Grid name (e.g. `crossbars`).
    pub name: String,
    /// Display rows (`ceil(cells / cols)`).
    pub rows: u64,
    /// Display columns (`ceil(sqrt(cells))`).
    pub cols: u64,
    /// SA0 (stuck-at-zero) fault cells per crossbar.
    pub sa0: Vec<u64>,
    /// SA1 (stuck-at-one) fault cells per crossbar.
    pub sa1: Vec<u64>,
    /// Final mapping mismatch cost attributed to each crossbar.
    pub mismatch: Vec<u64>,
    /// Modeled MVM traffic (weight-block activations) per crossbar.
    pub mvms: Vec<u64>,
    /// Modeled energy share per crossbar, nanojoules (apportioned from
    /// the chip-level energy model by MVM traffic).
    pub energy_nj: Vec<f64>,
}
fare_rt::json_struct!(HeatmapGrid {
    name,
    rows,
    cols,
    sa0,
    sa1,
    mismatch,
    mvms,
    energy_nj
});

/// Display shape for `cells` crossbars: near-square, wide-first.
pub fn grid_shape(cells: usize) -> (u64, u64) {
    if cells == 0 {
        return (0, 0);
    }
    let cols = (cells as f64).sqrt().ceil() as u64;
    let rows = (cells as u64).div_ceil(cols);
    (rows, cols)
}

impl HeatmapGrid {
    /// An all-zero grid over `cells` crossbars.
    pub fn zeros(name: &str, cells: usize) -> HeatmapGrid {
        let (rows, cols) = grid_shape(cells);
        HeatmapGrid {
            name: name.to_string(),
            rows,
            cols,
            sa0: vec![0; cells],
            sa1: vec![0; cells],
            mismatch: vec![0; cells],
            mvms: vec![0; cells],
            energy_nj: vec![0.0; cells],
        }
    }

    /// Number of crossbar cells.
    pub fn cells(&self) -> usize {
        self.sa0.len()
    }

    /// The named metric as `f64` values, or `None` for an unknown name.
    /// Valid names: `sa0`, `sa1`, `faults` (sa0+sa1), `mismatch`,
    /// `mvms`, `energy`.
    pub fn metric(&self, which: &str) -> Option<Vec<f64>> {
        let vals = match which {
            "sa0" => self.sa0.iter().map(|&v| v as f64).collect(),
            "sa1" => self.sa1.iter().map(|&v| v as f64).collect(),
            "faults" => self
                .sa0
                .iter()
                .zip(&self.sa1)
                .map(|(&a, &b)| (a + b) as f64)
                .collect(),
            "mismatch" => self.mismatch.iter().map(|&v| v as f64).collect(),
            "mvms" => self.mvms.iter().map(|&v| v as f64).collect(),
            "energy" => self.energy_nj.clone(),
            _ => return None,
        };
        Some(vals)
    }

    /// Checks what renderers and totals rely on: every per-crossbar
    /// array has one entry per cell, the `rows × cols` display shape
    /// holds every cell, and no count total (SA0 plus SA1 included)
    /// overflows `u64`.
    pub fn check(&self) -> Result<(), String> {
        let cells = self.cells();
        let lens = [
            self.sa1.len(),
            self.mismatch.len(),
            self.mvms.len(),
            self.energy_nj.len(),
        ];
        if lens.iter().any(|&len| len != cells) {
            return Err(format!("grid {:?}: arrays differ in length", self.name));
        }
        if self.rows.saturating_mul(self.cols) < cells as u64 {
            return Err(format!(
                "grid {:?}: a {}x{} display cannot hold {cells} cells",
                self.name, self.rows, self.cols
            ));
        }
        let total = |v: &[u64]| v.iter().try_fold(0u64, |sum, &x| sum.checked_add(x));
        let faults = total(&self.sa0)
            .zip(total(&self.sa1))
            .and_then(|(a, b)| a.checked_add(b));
        if faults.is_none() || total(&self.mismatch).is_none() || total(&self.mvms).is_none() {
            return Err(format!("grid {:?}: a count total overflows u64", self.name));
        }
        Ok(())
    }

    /// Metric names [`metric`](Self::metric) understands.
    pub fn metric_names() -> &'static [&'static str] {
        &["sa0", "sa1", "faults", "mismatch", "mvms", "energy"]
    }
}

static SINK: Mutex<Vec<HeatmapGrid>> = Mutex::new(Vec::new());

/// Record one grid. No-op when telemetry is off.
pub fn record(grid: HeatmapGrid) {
    if !crate::enabled() {
        return;
    }
    SINK.lock().unwrap().push(grid);
}

/// Grids recorded since the last [`reset`](crate::reset) (sink left
/// untouched).
pub fn recorded() -> Vec<HeatmapGrid> {
    SINK.lock().unwrap().clone()
}

/// Clear the sink (called by [`crate::reset`]).
pub(crate) fn reset() {
    SINK.lock().unwrap().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shape_is_near_square() {
        assert_eq!(grid_shape(0), (0, 0));
        assert_eq!(grid_shape(1), (1, 1));
        assert_eq!(grid_shape(12), (3, 4));
        assert_eq!(grid_shape(16), (4, 4));
        assert_eq!(grid_shape(17), (4, 5));
    }

    #[test]
    fn metrics_resolve_and_round_trip() {
        let mut g = HeatmapGrid::zeros("crossbars", 3);
        g.sa0 = vec![1, 0, 2];
        g.sa1 = vec![0, 4, 1];
        g.energy_nj = vec![0.5, 1.25, 0.0];
        assert_eq!(g.metric("faults"), Some(vec![1.0, 4.0, 3.0]));
        assert_eq!(g.metric("energy"), Some(vec![0.5, 1.25, 0.0]));
        assert_eq!(g.metric("volts"), None);
        for name in HeatmapGrid::metric_names() {
            assert!(g.metric(name).is_some());
        }
        let text = fare_rt::json::to_string(&g).unwrap();
        let back: HeatmapGrid = fare_rt::json::from_str(&text).unwrap();
        assert_eq!(back, g);
    }
}

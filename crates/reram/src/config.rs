//! Architecture constants (paper Table III).

/// ReRAM-PIM architecture specification.
///
/// Defaults come from Table III of the paper; [`ChipConfig::date2024`]
/// returns them verbatim. Experiments in this reproduction typically use
/// a smaller `crossbar_size` so CI-scale graphs still decompose into many
/// blocks — the algorithmic behaviour is size-independent.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipConfig {
    /// Rows (= columns) of each square crossbar.
    pub crossbar_size: usize,
    /// Crossbars per tile.
    pub crossbars_per_tile: usize,
    /// Crossbar clock frequency in Hz.
    pub frequency_hz: f64,
    /// Bits stored per cell.
    pub bits_per_cell: u32,
    /// Number of output comparators per tile (16-bit, used by clipping).
    pub comparators: usize,
    /// Comparator clock frequency in Hz.
    pub comparator_frequency_hz: f64,
    /// 2:1 output multiplexers per tile (clipping datapath).
    pub muxes: usize,
    /// Power drawn by one tile, watts.
    pub tile_power_w: f64,
    /// Area of one tile, mm².
    pub tile_area_mm2: f64,
    /// Fractional area overhead of the BIST circuit (~0.13 %).
    pub bist_area_overhead: f64,
}

impl ChipConfig {
    /// The exact Table III configuration from the paper.
    ///
    /// # Example
    ///
    /// ```
    /// use fare_reram::ChipConfig;
    /// let cfg = ChipConfig::date2024();
    /// assert_eq!(cfg.crossbar_size, 128);
    /// assert_eq!(cfg.crossbars_per_tile, 96);
    /// ```
    pub fn date2024() -> Self {
        Self {
            crossbar_size: 128,
            crossbars_per_tile: 96,
            frequency_hz: 10.0e6,
            bits_per_cell: 2,
            comparators: 8,
            comparator_frequency_hz: 2.0e9,
            muxes: 8,
            tile_power_w: 0.34,
            tile_area_mm2: 0.157,
            bist_area_overhead: 0.0013,
        }
    }

    /// A reduced configuration for fast experiments: same ratios, smaller
    /// crossbars.
    pub fn reduced(crossbar_size: usize) -> Self {
        Self {
            crossbar_size,
            ..Self::date2024()
        }
    }

    /// 16-bit weights stored per crossbar row (each weight spans
    /// `16 / bits_per_cell` cells).
    ///
    /// # Panics
    ///
    /// Panics if the crossbar width is not a multiple of the cells-per-
    /// weight count.
    pub fn weights_per_row(&self) -> usize {
        let cells_per_weight = (16 / self.bits_per_cell) as usize;
        assert_eq!(
            self.crossbar_size % cells_per_weight,
            0,
            "crossbar width {} not divisible by cells/weight {}",
            self.crossbar_size,
            cells_per_weight
        );
        self.crossbar_size / cells_per_weight
    }

    /// Total power of `tiles` tiles, watts.
    pub fn chip_power_w(&self, tiles: usize) -> f64 {
        self.tile_power_w * tiles as f64
    }

    /// Total area of `tiles` tiles including BIST overhead, mm².
    pub fn chip_area_mm2(&self, tiles: usize) -> f64 {
        self.tile_area_mm2 * tiles as f64 * (1.0 + self.bist_area_overhead)
    }

    /// Number of tiles needed to hold `crossbars` crossbars.
    pub fn tiles_for(&self, crossbars: usize) -> usize {
        crossbars.div_ceil(self.crossbars_per_tile)
    }
}

impl Default for ChipConfig {
    fn default() -> Self {
        Self::date2024()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_values() {
        let cfg = ChipConfig::date2024();
        assert_eq!(cfg.crossbar_size, 128);
        assert_eq!(cfg.crossbars_per_tile, 96);
        assert_eq!(cfg.frequency_hz, 10.0e6);
        assert_eq!(cfg.bits_per_cell, 2);
        assert_eq!(cfg.comparators, 8);
        assert_eq!(cfg.tile_power_w, 0.34);
        assert_eq!(cfg.tile_area_mm2, 0.157);
    }

    #[test]
    fn weights_per_row_128() {
        // 128 columns / 8 cells per 16-bit weight = 16 weights per row.
        assert_eq!(ChipConfig::date2024().weights_per_row(), 16);
    }

    #[test]
    fn reduced_keeps_other_fields() {
        let cfg = ChipConfig::reduced(32);
        assert_eq!(cfg.crossbar_size, 32);
        assert_eq!(cfg.crossbars_per_tile, 96);
        assert_eq!(cfg.weights_per_row(), 4);
    }

    #[test]
    fn chip_aggregates() {
        let cfg = ChipConfig::date2024();
        assert_eq!(cfg.tiles_for(96), 1);
        assert_eq!(cfg.tiles_for(97), 2);
        assert!((cfg.chip_power_w(2) - 0.68).abs() < 1e-12);
        let area = cfg.chip_area_mm2(1);
        assert!(area > 0.157 && area < 0.158);
    }
}

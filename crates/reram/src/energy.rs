//! Energy and area accounting (Table III constants).
//!
//! The paper reports 0.34 W and 0.157 mm² per tile (NeuroSim v2.1
//! numbers) plus a 0.13 % BIST area overhead. This module turns those
//! constants plus the pipeline geometry into chip-level energy/area
//! estimates, so experiments can report the cost of over-provisioning
//! crossbars for FARe's mapping freedom.

use crate::timing::PipelineSpec;
use crate::ChipConfig;

/// Energy/area report for one accelerator provisioning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Number of tiles provisioned.
    pub tiles: usize,
    /// Total chip area, mm² (including BIST overhead).
    pub area_mm2: f64,
    /// Chip power, watts.
    pub power_w: f64,
    /// Training execution time, seconds.
    pub exec_time_s: f64,
    /// Training energy, joules.
    pub energy_j: f64,
}

/// Computes the energy/area report for a training run needing
/// `crossbars` crossbars with the pipelined schedule `pipeline`.
///
/// # Panics
///
/// Panics if `crossbars == 0`.
///
/// # Example
///
/// ```
/// use fare_reram::energy::estimate;
/// use fare_reram::timing::PipelineSpec;
/// use fare_reram::ChipConfig;
///
/// let cfg = ChipConfig::date2024();
/// let report = estimate(&cfg, 96, &PipelineSpec::new(50, 5, 1e-3, 100));
/// assert_eq!(report.tiles, 1);
/// assert!((report.power_w - 0.34).abs() < 1e-12);
/// ```
pub fn estimate(config: &ChipConfig, crossbars: usize, pipeline: &PipelineSpec) -> EnergyReport {
    assert!(crossbars > 0, "need at least one crossbar");
    fare_obs::counters::RERAM_ENERGY_ESTIMATES.incr();
    let tiles = config.tiles_for(crossbars);
    let power_w = config.chip_power_w(tiles);
    let exec_time_s = pipeline.epochs as f64
        * (pipeline.num_batches + pipeline.num_stages - 1) as f64
        * pipeline.stage_delay_s;
    EnergyReport {
        tiles,
        area_mm2: config.chip_area_mm2(tiles),
        power_w,
        exec_time_s,
        energy_j: power_w * exec_time_s,
    }
}

/// Relative area cost of FARe's crossbar over-provisioning: the paper's
/// mapping needs `slack ×` the minimum crossbar count to give Algorithm 1
/// placement freedom. Returns `(baseline, provisioned, area_ratio)`.
///
/// # Panics
///
/// Panics if `slack < 1.0` or `min_crossbars == 0`.
pub fn overprovisioning_cost(
    config: &ChipConfig,
    min_crossbars: usize,
    slack: f64,
    pipeline: &PipelineSpec,
) -> (EnergyReport, EnergyReport, f64) {
    assert!(slack >= 1.0, "slack must be >= 1.0");
    let baseline = estimate(config, min_crossbars, pipeline);
    let provisioned = estimate(
        config,
        ((min_crossbars as f64 * slack).ceil() as usize).max(min_crossbars),
        pipeline,
    );
    let ratio = provisioned.area_mm2 / baseline.area_mm2;
    (baseline, provisioned, ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline() -> PipelineSpec {
        PipelineSpec::new(50, 5, 1e-3, 100)
    }

    #[test]
    fn single_tile_report() {
        let r = estimate(&ChipConfig::date2024(), 96, &pipeline());
        assert_eq!(r.tiles, 1);
        assert!((r.exec_time_s - 5.4).abs() < 1e-9);
        assert!((r.energy_j - 0.34 * 5.4).abs() < 1e-9);
        assert!(r.area_mm2 > 0.157 && r.area_mm2 < 0.158);
    }

    #[test]
    fn tiles_round_up() {
        let r = estimate(&ChipConfig::date2024(), 97, &pipeline());
        assert_eq!(r.tiles, 2);
        assert!((r.power_w - 0.68).abs() < 1e-12);
    }

    #[test]
    fn overprovisioning_ratio_bounded_by_tile_granularity() {
        let cfg = ChipConfig::date2024();
        let (base, prov, ratio) = overprovisioning_cost(&cfg, 96, 1.5, &pipeline());
        // 96 -> 144 crossbars = 1 -> 2 tiles.
        assert_eq!(base.tiles, 1);
        assert_eq!(prov.tiles, 2);
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn slack_one_is_free() {
        let cfg = ChipConfig::date2024();
        let (_, _, ratio) = overprovisioning_cost(&cfg, 96, 1.0, &pipeline());
        assert_eq!(ratio, 1.0);
    }

    #[test]
    fn energy_scales_with_epochs() {
        let cfg = ChipConfig::date2024();
        let a = estimate(&cfg, 96, &PipelineSpec::new(50, 5, 1e-3, 1)).energy_j;
        let b = estimate(&cfg, 96, &PipelineSpec::new(50, 5, 1e-3, 10)).energy_j;
        assert!((b / a - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one crossbar")]
    fn zero_crossbars_rejected() {
        estimate(&ChipConfig::date2024(), 0, &pipeline());
    }
}

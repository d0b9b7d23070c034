//! Regenerates Table III: the ReRAM-PIM architecture specification.

use fare_bench::render_table;
use fare_reram::ChipConfig;

fn main() {
    fare_bench::check_args(&[], &[]);
    let cfg = ChipConfig::date2024();
    let rows = vec![
        vec![
            "crossbars / tile".into(),
            format!("{}", cfg.crossbars_per_tile),
        ],
        vec![
            "crossbar size".into(),
            format!("{0}x{0}", cfg.crossbar_size),
        ],
        vec!["clock".into(), format!("{} MHz", cfg.frequency_hz / 1e6)],
        vec![
            "cell resolution".into(),
            format!("{}-bit/cell", cfg.bits_per_cell),
        ],
        vec![
            "comparators".into(),
            format!(
                "{} (16-bit, {} GHz)",
                cfg.comparators,
                cfg.comparator_frequency_hz / 1e9
            ),
        ],
        vec!["muxes".into(), format!("{} (2:1)", cfg.muxes)],
        vec!["tile power".into(), format!("{} W", cfg.tile_power_w)],
        vec!["tile area".into(), format!("{} mm²", cfg.tile_area_mm2)],
        vec![
            "BIST area overhead".into(),
            format!("{:.2} %", 100.0 * cfg.bist_area_overhead),
        ],
        vec![
            "weights per crossbar row".into(),
            format!("{}", cfg.weights_per_row()),
        ],
    ];
    println!("TABLE III. RERAM-PIM ARCHITECTURE SPECIFICATIONS\n");
    print!("{}", render_table(&["parameter", "value"], &rows));
}

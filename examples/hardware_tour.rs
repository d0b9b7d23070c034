//! A tour of the simulated ReRAM hardware: inject clustered faults into
//! a crossbar pool, then price the accelerator in area/power/energy and
//! the per-epoch BIST scan in time.
//!
//! Run with: `cargo run --release --example hardware_tour`

use fare::reram::energy::{estimate, overprovisioning_cost};
use fare::reram::timing::{PipelineSpec, TimingModel};
use fare::reram::{ChipConfig, CrossbarArray, FaultSpec};
use fare_rt::rand::SeedableRng;

fn main() {
    fare_bench::check_args(&[], &[]);
    let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(2024);
    let cfg = ChipConfig::date2024();
    println!(
        "chip: {}x{} crossbars, {} per tile, {} MHz, {}-bit cells",
        cfg.crossbar_size,
        cfg.crossbar_size,
        cfg.crossbars_per_tile,
        cfg.frequency_hz / 1e6,
        cfg.bits_per_cell
    );

    // 1. A crossbar pool with 3% clustered stuck-at faults (9:1).
    let mut array = CrossbarArray::new(12, 32);
    array.inject(&FaultSpec::with_ratio(0.03, 9.0, 1.0), &mut rng);
    println!(
        "\ninjected faults: {} total ({} SA0 / {} SA1), density {:.2}%",
        array.fault_count(),
        array.sa0_count(),
        array.sa1_count(),
        100.0 * array.fault_density()
    );
    let counts: Vec<usize> = array.iter().map(|x| x.fault_count()).collect();
    println!("per-crossbar fault counts (Poisson clustering): {counts:?}");

    // 2. Area/power/energy of a training run.
    let pipeline = PipelineSpec::new(150, 5, 1e-3, 100);
    let report = estimate(&cfg, 96, &pipeline);
    println!(
        "\ntraining on {} tile(s): {:.3} mm², {:.2} W, {:.2} s -> {:.2} J",
        report.tiles, report.area_mm2, report.power_w, report.exec_time_s, report.energy_j
    );
    let (_, provisioned, ratio) = overprovisioning_cost(&cfg, 96, 1.5, &pipeline);
    println!(
        "FARe's 1.5x crossbar slack: {} tile(s), {:.2}x area (tile-granular)",
        provisioned.tiles, ratio
    );
    println!(
        "per-epoch BIST scan: {:.2}% time overhead",
        100.0 * TimingModel::new(pipeline).bist_fraction
    );
}

//! ReRAM crossbar / tile simulator with stuck-at-fault injection.
//!
//! This crate is the hardware substrate of the FARe reproduction. It
//! models exactly the parts of a ReRAM-based PIM accelerator the paper's
//! experiments exercise:
//!
//! - [`ChipConfig`] — the Table III architecture constants (128×128
//!   crossbars, 96 crossbars/tile, 2-bit cells, 10 MHz, 0.34 W and
//!   0.157 mm² per tile).
//! - [`Crossbar`] / [`CrossbarArray`] — cell arrays with per-cell
//!   stuck-at-0 / stuck-at-1 state.
//! - [`FaultSpec`] / fault injection — Poisson-clustered fault counts
//!   across crossbars, uniform placement within a crossbar, configurable
//!   SA0:SA1 ratio (Section V-A's fault model), plus per-epoch
//!   post-deployment injection.
//! - BIST fault detection is modelled as exact: the mapping reads each
//!   crossbar's packed fault planes and [`Crossbar::fault_version`]
//!   marks the crossbars a per-epoch scan would report as changed; the
//!   scan's 0.13 % time charge lives in [`timing::TimingModel`].
//! - [`weights::WeightFabric`] — the 16-bit / eight-2-bit-cell weight
//!   path with shift-and-add reassembly, reproducing MSB "weight
//!   explosion".
//! - [`timing`] — the pipelined execution-time model behind Fig. 7
//!   (depth `N + S − 1`, NR stalls, the extra clipping stage, FARe's ~1 %
//!   preprocessing and 0.13 % BIST overheads).
//!
//! # Example
//!
//! ```
//! use fare_reram::{CrossbarArray, FaultSpec};
//! use fare_rt::rand::SeedableRng;
//!
//! let mut rng = fare_rt::rand::rngs::StdRng::seed_from_u64(1);
//! let mut array = CrossbarArray::new(8, 32);
//! array.inject(&FaultSpec::density(0.05), &mut rng);
//! let faults: usize = (0..8).map(|i| array.crossbar(i).fault_count()).sum();
//! assert!(faults > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
pub mod bits;
pub mod config;
mod crossbar;
pub mod energy;
mod fault;
pub mod pipeline;
pub mod timing;
pub mod variation;
pub mod weights;

pub use array::CrossbarArray;
pub use bits::PackedRows;
pub use config::ChipConfig;
pub use crossbar::Crossbar;
pub use fare_tensor::fixed::StuckPolarity;
pub use fault::{poisson_sample, FaultSpec};

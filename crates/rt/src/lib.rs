//! `fare-rt` — the FARe workspace's zero-dependency runtime layer.
//!
//! The build environment for this repository is **hermetic**: no network,
//! no crates.io registry. Every external crate the workspace used to pull
//! is replaced by a small, deterministic, in-repo shim:
//!
//! | module          | replaces     | surface                                    |
//! |-----------------|--------------|--------------------------------------------|
//! | [`rand`]        | `rand` 0.8   | `StdRng`, `Rng`, `SeedableRng`, `RngCore`, `seq::SliceRandom` |
//! | [`par`]         | `rayon`      | scoped fan-out for sweep runs: `scoped_map` order-preserving map |
//! | [`json`]        | `serde` + `serde_json` | [`json::Json`] value, parser, serializer, `ToJson` writers, `FromJson` readers for manifests and traces |
//! | [`prop`]        | `proptest`   | seeded, shrink-free `proptest!` macro + `Strategy` combinators |
//!
//! Everything is seeded and deterministic: two runs with the same seed
//! (and any thread count) produce bit-identical results, which is what
//! makes the FARe fault-injection experiments reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod par;
pub mod prop;
pub mod rand;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The canonical RNG constructor: one base seed drives the whole
/// experiment.
///
/// Every *library* (non-test) RNG in the workspace is built through this
/// function or [`domain_rng`], so a single `--seed` flag reproducibly
/// drives fault injection, partitioning and weight init.
///
/// ```
/// let mut a = fare_rt::rng(42);
/// let mut b = fare_rt::rng(42);
/// use fare_rt::rand::Rng;
/// assert_eq!(a.gen::<f64>(), b.gen::<f64>());
/// ```
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A domain-separated RNG: the same base seed, split into an independent
/// stream per subsystem.
///
/// Replaces the ad-hoc `seed ^ 0xC0FF_EE00`-style constants that used to
/// be scattered across the workspace. Two domains never collide unless
/// their names are equal, so fault injection, partitioning and init each
/// get their own reproducible stream from one seed.
pub fn domain_rng(seed: u64, domain: &str) -> StdRng {
    // FNV-1a over the domain name, then one splitmix64 round to decorrelate
    // neighbouring seeds before combining.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in domain.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(rand::splitmix64(&mut { seed }).wrapping_add(h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand::Rng;

    #[test]
    fn rng_is_deterministic() {
        let a: Vec<u64> = {
            let mut r = rng(7);
            (0..8).map(|_| r.gen()).collect()
        };
        let b: Vec<u64> = {
            let mut r = rng(7);
            (0..8).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn domain_rng_separates_streams() {
        let mut a = domain_rng(42, "fault-injection");
        let mut b = domain_rng(42, "partitioning");
        let xs: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
        let mut a2 = domain_rng(42, "fault-injection");
        let xs2: Vec<u64> = (0..4).map(|_| a2.gen()).collect();
        assert_eq!(xs, xs2);
    }
}

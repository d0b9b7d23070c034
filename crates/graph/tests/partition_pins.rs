//! Bit-for-bit pins of the host-side preprocessing every run starts with.
//!
//! Each case draws, exactly as a training run does, a stream from
//! `fare_rt::domain_rng(seed, domain)`, partitions the preset dataset
//! with [`partition`], groups the clusters with [`make_batches`] and
//! then draws one more `u64`. The node assignment, every batch's node
//! list and CSR arrays, and that next draw are folded into one FNV-1a
//! digest. The expected digests were recorded once and must not move:
//! a partitioner or batcher rewrite has to reproduce both its output and
//! the number of draws it consumes. Nothing here runs on the pool, so
//! the digests hold under any `FARE_RT_THREADS`.

use fare_graph::batch::make_batches;
use fare_graph::datasets::{Dataset, DatasetKind};
use fare_graph::partition::partition;
use fare_rt::rand::RngCore;

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: &[usize]) {
        self.word(ws.len() as u64);
        for &w in ws {
            self.word(w as u64);
        }
    }
}

/// The two RNG domains whose runs partition a dataset.
const DOMAINS: [&str; 2] = ["trainer", "link-prediction"];
const SEEDS: [u64; 3] = [1, 7, 42];

fn digest(dataset: &Dataset, seed: u64, domain: &str) -> u64 {
    let mut rng = fare_rt::domain_rng(seed, domain);
    let parts = partition(&dataset.graph, dataset.spec.partitions, &mut rng);
    let batches = make_batches(
        &dataset.graph,
        &parts,
        dataset.spec.clusters_per_batch,
        &mut rng,
    );
    let mut h = Fnv::new();
    h.words(parts.assignment());
    h.word(batches.len() as u64);
    for b in &batches {
        h.words(&b.nodes);
        let g = &b.graph;
        h.word(g.num_nodes() as u64);
        for u in 0..g.num_nodes() {
            h.words(g.neighbors(u));
        }
    }
    h.word(rng.next_u64());
    h.0
}

/// `(dataset, seed, domain, digest)`, recorded once.
#[rustfmt::skip]
const PINS: [(DatasetKind, u64, &str, u64); 24] = [
    (DatasetKind::Ppi, 1, "trainer", 0xbf68_1ced_c987_6cb7),
    (DatasetKind::Ppi, 1, "link-prediction", 0xc97a_aa17_a80b_0283),
    (DatasetKind::Ppi, 7, "trainer", 0x5be9_d15a_a9aa_8b74),
    (DatasetKind::Ppi, 7, "link-prediction", 0x5e39_9dbe_469d_626e),
    (DatasetKind::Ppi, 42, "trainer", 0xda21_7af9_593a_5e95),
    (DatasetKind::Ppi, 42, "link-prediction", 0x568c_4e43_808b_f4ce),
    (DatasetKind::Reddit, 1, "trainer", 0x04e5_4863_1704_4976),
    (DatasetKind::Reddit, 1, "link-prediction", 0xb00f_1782_94c7_8496),
    (DatasetKind::Reddit, 7, "trainer", 0xf4ad_a019_e777_3e94),
    (DatasetKind::Reddit, 7, "link-prediction", 0x27d5_e051_fb1b_70ba),
    (DatasetKind::Reddit, 42, "trainer", 0x0280_30ed_5234_9e67),
    (DatasetKind::Reddit, 42, "link-prediction", 0x6b31_af23_679e_a4b7),
    (DatasetKind::Amazon2M, 1, "trainer", 0x4556_17a6_09ee_3041),
    (DatasetKind::Amazon2M, 1, "link-prediction", 0xd31d_6dbe_77a6_1aa5),
    (DatasetKind::Amazon2M, 7, "trainer", 0x2f8d_dcae_fae1_c9d2),
    (DatasetKind::Amazon2M, 7, "link-prediction", 0x6579_c529_817b_debf),
    (DatasetKind::Amazon2M, 42, "trainer", 0x1fa0_9c57_909e_78d9),
    (DatasetKind::Amazon2M, 42, "link-prediction", 0xe89f_9a77_30f9_7903),
    (DatasetKind::Ogbl, 1, "trainer", 0xd186_1070_a8e7_d362),
    (DatasetKind::Ogbl, 1, "link-prediction", 0xc333_9384_f41d_252b),
    (DatasetKind::Ogbl, 7, "trainer", 0xf60a_441f_6efe_31bc),
    (DatasetKind::Ogbl, 7, "link-prediction", 0x39c9_4967_52bd_15b9),
    (DatasetKind::Ogbl, 42, "trainer", 0x853d_586f_c526_7cad),
    (DatasetKind::Ogbl, 42, "link-prediction", 0x2965_a302_c84b_f510),
];

#[test]
fn partition_and_batches_match_pins() {
    let mut failures = Vec::new();
    for kind in DatasetKind::all() {
        for seed in SEEDS {
            // Generate the dataset from the seed a run would use, so each
            // seed pins a different graph as well as a different stream.
            let dataset = Dataset::generate(kind, seed);
            for domain in DOMAINS {
                let got = digest(&dataset, seed, domain);
                let pin = PINS
                    .iter()
                    .find(|p| p.0 == kind && p.1 == seed && p.2 == domain)
                    .expect("every case is pinned");
                if got != pin.3 {
                    failures.push(format!(
                        "(DatasetKind::{kind:?}, {seed}, {domain:?}, {got:#018x})"
                    ));
                }
            }
        }
    }
    assert!(failures.is_empty(), "moved pins:\n{}", failures.join("\n"));
}

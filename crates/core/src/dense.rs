//! Dense adapters of the adjacency fault path.
//!
//! Training never builds a dense batch adjacency: it corrupts the CSR
//! pattern ([`crate::corrupt_graph_mapped`]). These functions keep the
//! dense `Matrix` form for callers that still hold one (tests, the
//! benchmark's replica of `Trainer::run`) and run the same core.

use fare_graph::CsrMatrix;
use fare_reram::CrossbarArray;
use fare_tensor::Matrix;

use crate::mapping::Mapping;

/// Corrupts a binary adjacency matrix as stored under `mapping`.
///
/// A dense adapter onto the core of [`crate::corrupt_graph_mapped`]:
/// entries `> 0.5` are the stored 1s, and the corrupted adjacency comes
/// back as a 0/1 matrix.
///
/// # Panics
///
/// Panics if `mapping` does not match `adj`'s geometry or refers to
/// missing crossbars.
pub fn corrupt_adjacency_mapped(adj: &Matrix, array: &CrossbarArray, mapping: &Mapping) -> Matrix {
    let ones = CsrMatrix::binary_pattern(adj);
    crate::faulty::corrupt_rows(adj.rows(), |r| ones.row_indices(r), array, mapping).to_dense()
}

/// Corrupts a binary adjacency stored with the naive sequential layout
/// (block `k` → crossbar `k`, identity rows): the fault-unaware baseline.
///
/// # Panics
///
/// Panics if there are fewer crossbars than blocks.
pub fn corrupt_adjacency_unaware(adj: &Matrix, array: &CrossbarArray) -> Matrix {
    let mapping = crate::mapping::sequential_mapping(adj, array);
    corrupt_adjacency_mapped(adj, array, &mapping)
}

#[cfg(test)]
mod tests {
    use fare_reram::{FaultSpec, StuckPolarity};
    use fare_rt::rand::rngs::StdRng;
    use fare_rt::rand::SeedableRng;

    use super::*;
    use crate::mapping::{map_adjacency, MappingConfig};

    #[test]
    fn mapped_corruption_beats_unaware() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut adj = Matrix::zeros(16, 16);
        for i in 0..16 {
            for j in (i + 1)..16 {
                if fare_rt::rand::Rng::gen_bool(&mut rng, 0.2) {
                    adj[(i, j)] = 1.0;
                    adj[(j, i)] = 1.0;
                }
            }
        }
        let mut array = CrossbarArray::new(8, 8);
        array.inject(&FaultSpec::density(0.06), &mut rng);
        let mapping = map_adjacency(&adj, &array, &MappingConfig::default());
        let mapped = corrupt_adjacency_mapped(&adj, &array, &mapping);
        let unaware = corrupt_adjacency_unaware(&adj, &array);
        let err = |m: &Matrix| {
            adj.iter()
                .zip(m.iter())
                .filter(|(a, b)| (**a > 0.5) != (**b > 0.5))
                .count()
        };
        assert!(err(&mapped) <= err(&unaware));
        assert_eq!(err(&mapped), mapping.total_cost());
    }

    #[test]
    fn corruption_preserves_shape_and_binarity() {
        let mut rng = StdRng::seed_from_u64(5);
        let adj = Matrix::from_fn(
            10,
            10,
            |i, j| if (i + j) % 3 == 0 && i != j { 1.0 } else { 0.0 },
        );
        let mut array = CrossbarArray::new(9, 4);
        array.inject(&FaultSpec::density(0.1), &mut rng);
        let out = corrupt_adjacency_unaware(&adj, &array);
        assert_eq!(out.shape(), adj.shape());
        assert!(out.iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn targeted_sa1_fabricates_edge_in_unaware_layout() {
        let adj = Matrix::zeros(4, 4);
        let mut array = CrossbarArray::new(1, 4);
        array
            .crossbar_mut(0)
            .inject_fault(2, 3, StuckPolarity::StuckAtOne);
        let out = corrupt_adjacency_unaware(&adj, &array);
        assert_eq!(out[(2, 3)], 1.0);
    }
}

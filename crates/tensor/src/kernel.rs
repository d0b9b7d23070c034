//! The row micro-kernels behind every dense and sparse product.
//!
//! GNN training in FARe runs on Cluster-GCN mini-batches of a few dozen
//! nodes with 16–24 features, so every product is a handful of short
//! rows. [`accumulate_row`] computes one output row as a linear
//! combination of input rows; its crate-internal two-row form,
//! `accumulate_row_pair`, computes two output rows that combine the
//! same input rows with different coefficients, loading each input row
//! once for both (`Matrix::{matmul, t_matmul}` run on it). For every
//! width from 1 to 32 both keep their rows in stack arrays sized at
//! compile time, so the accumulators live in registers instead of being
//! loaded and stored once per term.
//!
//! # Accumulation order
//!
//! Every output element starts at `+0.0` and adds the products `a * b`
//! one at a time, in the order the terms arrive, as separate multiply
//! and add operations (no fused multiply-add, no reassociation). That is
//! exactly what a plain `out[j] += a * b` loop over a zeroed row does, so
//! swapping either kernel in for such a loop changes no bit of any
//! result, signed zeros included. The paired kernel only interleaves two
//! such chains; each of its rows equals what [`accumulate_row`] writes
//! for that row's coefficients.

/// Overwrites `out` with `Σ a · row` over `terms`, in order.
///
/// Each term is a coefficient `a` and a row of `out.len()` values. An
/// empty `terms` leaves `out` all `+0.0`.
///
/// # Panics
///
/// Panics if a term's row length differs from `out.len()`.
///
/// # Example
///
/// ```
/// use fare_tensor::kernel::accumulate_row;
///
/// let mut out = [9.0f32; 2];
/// accumulate_row(&mut out, [(2.0, &[1.0, 2.0][..]), (-1.0, &[0.5, 4.0][..])]);
/// assert_eq!(out, [1.5, 0.0]);
/// ```
pub fn accumulate_row<'a>(out: &mut [f32], terms: impl IntoIterator<Item = (f32, &'a [f32])>) {
    accumulate_rows([out], terms.into_iter().map(|(a, row)| ([a], row)));
}

/// Overwrites `out0` with `Σ a0 · row` and `out1` with `Σ a1 · row` over
/// `terms`, in order.
///
/// Each term is a coefficient pair `(a0, a1)` and one row of
/// `out0.len()` values that both outputs share. Each output row comes
/// out bit for bit as [`accumulate_row`] writes it from its own
/// coefficients; the pair loads each term row once and keeps two
/// independent accumulator rows in flight.
///
/// # Panics
///
/// Panics if the two output rows differ in length or a term's row
/// length differs from theirs.
pub(crate) fn accumulate_row_pair<'a>(
    out0: &mut [f32],
    out1: &mut [f32],
    terms: impl IntoIterator<Item = ((f32, f32), &'a [f32])>,
) {
    assert_eq!(out0.len(), out1.len(), "paired output rows differ in width");
    let terms = terms.into_iter().map(|((a0, a1), row)| ([a0, a1], row));
    accumulate_rows([out0, out1], terms);
}

/// Overwrites each of the `R` equal-width `out` rows with its own
/// `Σ a[r] · row` over the shared term rows: the register form for
/// widths 1 to 32, the plain loop otherwise.
fn accumulate_rows<'a, const R: usize>(
    out: [&mut [f32]; R],
    terms: impl Iterator<Item = ([f32; R], &'a [f32])>,
) {
    macro_rules! fixed_widths {
        ($($w:literal)*) => {
            match out[0].len() {
                $($w => fixed::<$w, R>(out, terms),)*
                _ => wide(out, terms),
            }
        };
    }
    fixed_widths!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32);
}

/// The register-accumulator form for output rows of exactly `W`.
fn fixed<'a, const W: usize, const R: usize>(
    out: [&mut [f32]; R],
    terms: impl Iterator<Item = ([f32; R], &'a [f32])>,
) {
    let mut acc = [[0.0f32; W]; R];
    for (coeffs, row) in terms {
        let row: &[f32; W] = row
            .try_into()
            .expect("term row width differs from the output row");
        for (acc_row, a) in acc.iter_mut().zip(coeffs) {
            for (o, &b) in acc_row.iter_mut().zip(row) {
                *o += a * b;
            }
        }
    }
    for (out_row, acc_row) in out.into_iter().zip(&acc) {
        out_row.copy_from_slice(acc_row);
    }
}

/// The plain loop over the output slices, for rows wider than 32 (and
/// the empty row).
fn wide<'a, const R: usize>(
    mut out: [&mut [f32]; R],
    terms: impl Iterator<Item = ([f32; R], &'a [f32])>,
) {
    for out_row in out.iter_mut() {
        out_row.fill(0.0);
    }
    for (coeffs, row) in terms {
        for (out_row, a) in out.iter_mut().zip(coeffs) {
            assert_eq!(
                row.len(),
                out_row.len(),
                "term row width differs from the output row"
            );
            for (o, &b) in out_row.iter_mut().zip(row) {
                *o += a * b;
            }
        }
    }
}

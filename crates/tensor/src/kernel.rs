//! The one row micro-kernel behind every dense and sparse product.
//!
//! GNN training in FARe runs on Cluster-GCN mini-batches of a few dozen
//! nodes with 16–24 features, so every product is a handful of short
//! rows. [`accumulate_row`] computes one output row as a linear
//! combination of input rows. For every width from 1 to 32 it keeps the
//! row in a stack array sized at compile time, so the accumulator lives
//! in registers instead of being loaded and stored once per term.
//!
//! # Accumulation order
//!
//! Every output element starts at `+0.0` and adds the products `a * b`
//! one at a time, in the order the terms arrive, as separate multiply
//! and add operations (no fused multiply-add, no reassociation). That is
//! exactly what a plain `out[j] += a * b` loop over a zeroed row does, so
//! swapping this kernel in for such a loop changes no bit of any result,
//! signed zeros included.

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
    macro_rules! fixed_widths {
        ($($w:literal)*) => {
            match out.len() {
                $($w => fixed::<$w>(out, terms),)*
                _ => wide(out, terms),
            }
        };
    }
    fixed_widths!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32);
}

/// The register-accumulator form for an output row of exactly `W`.
fn fixed<'a, const W: usize>(out: &mut [f32], terms: impl IntoIterator<Item = (f32, &'a [f32])>) {
    let mut acc = [0.0f32; W];
    for (a, row) in terms {
        let row: &[f32; W] = row
            .try_into()
            .expect("term row width differs from the output row");
        for (o, &b) in acc.iter_mut().zip(row) {
            *o += a * b;
        }
    }
    out.copy_from_slice(&acc);
}

/// The plain loop over the output slice, for rows wider than 32 (and
/// the empty row).
fn wide<'a>(out: &mut [f32], terms: impl IntoIterator<Item = (f32, &'a [f32])>) {
    out.fill(0.0);
    for (a, row) in terms {
        assert_eq!(
            row.len(),
            out.len(),
            "term row width differs from the output row"
        );
        for (o, &b) in out.iter_mut().zip(row) {
            *o += a * b;
        }
    }
}

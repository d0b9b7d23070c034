//! 16-bit fixed-point weight representation and 2-bit cell slicing.
//!
//! ReRAM-based PIM accelerators store each GNN weight as a 16-bit
//! fixed-point number distributed across eight 2-bit cells (Section III-A
//! of the paper). Partial products are reassembled with shift-and-add, so
//! a stuck-at fault on a cell near the MSB corrupts the weight
//! exponentially more than one near the LSB — the "weight explosion"
//! effect FARe's clipping counteracts.
//!
//! This module implements that representation exactly:
//!
//! - [`FixedFormat`] — a signed Q-format (default Q6.9 plus sign) chosen so
//!   typical GNN weights (|w| ≲ 1) use most of the dynamic range.
//! - [`Fixed16`] — one encoded weight.
//! - [`CellWord`] — the weight as eight 2-bit cells, MSB-first, with
//!   stuck-at corruption applied per cell.

/// Number of ReRAM cells a single 16-bit weight is distributed across.
pub const CELLS_PER_WORD: usize = 8;

/// Bits stored per ReRAM cell (Table III: 2-bit/cell resolution).
pub const BITS_PER_CELL: u32 = 2;

/// Signed fixed-point format: 1 sign bit + `15 - frac_bits` integer bits +
/// `frac_bits` fractional bits, two's complement.
///
/// # Example
///
/// ```
/// use fare_tensor::FixedFormat;
/// let fmt = FixedFormat::default();
/// let x = fmt.encode(0.5);
/// assert!((fmt.decode(x) - 0.5).abs() < fmt.resolution());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixedFormat {
    frac_bits: u32,
}

impl FixedFormat {
    /// Creates a format with the given number of fractional bits.
    ///
    /// # Panics
    ///
    /// Panics if `frac_bits >= 16`.
    pub fn new(frac_bits: u32) -> Self {
        assert!(frac_bits < 16, "frac_bits must be < 16, got {frac_bits}");
        Self { frac_bits }
    }

    /// Number of fractional bits.
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Smallest representable positive increment.
    #[inline]
    pub fn resolution(&self) -> f32 {
        1.0 / (1i32 << self.frac_bits) as f32
    }

    /// Largest representable magnitude.
    pub fn max_value(&self) -> f32 {
        i16::MAX as f32 * self.resolution()
    }

    /// Encodes an `f32` with saturation (NaN encodes to zero).
    #[inline]
    pub fn encode(&self, value: f32) -> Fixed16 {
        if value.is_nan() {
            return Fixed16(0);
        }
        let scaled = (value * (1i32 << self.frac_bits) as f32).round();
        // Clamp to ±i16::MAX: the sign-magnitude cell layout cannot
        // represent i16::MIN.
        Fixed16(scaled.clamp(-(i16::MAX as f32), i16::MAX as f32) as i16)
    }

    /// Decodes a [`Fixed16`] back to `f32`.
    #[inline]
    pub fn decode(&self, value: Fixed16) -> f32 {
        value.0 as f32 * self.resolution()
    }

    /// Convenience round-trip: quantises `value` to this format's grid.
    #[inline]
    pub fn quantise(&self, value: f32) -> f32 {
        self.decode(self.encode(value))
    }
}

impl Default for FixedFormat {
    /// Q6.9 + sign: range ±64 with ~2e-3 resolution — wide enough that
    /// healthy training never saturates, narrow enough that an MSB-stuck
    /// weight explodes by orders of magnitude.
    fn default() -> Self {
        Self { frac_bits: 9 }
    }
}

/// One 16-bit fixed-point weight (two's complement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fixed16(pub i16);

impl Fixed16 {
    /// Raw two's-complement bits.
    pub fn to_bits(self) -> u16 {
        self.0 as u16
    }
}

/// Converts a two's-complement value to the **sign-magnitude** bit layout
/// the cells store: bit 15 = sign, bits 14..0 = magnitude.
///
/// ReRAM conductances are non-negative, so accelerators store the weight
/// *magnitude* across the cells and handle the sign separately (sign bit
/// or differential crossbar pair). `i16::MIN` saturates to magnitude
/// `0x7FFF`.
fn to_sign_magnitude(v: i16) -> u16 {
    if v < 0 {
        0x8000 | (v as i32).unsigned_abs().min(0x7FFF) as u16
    } else {
        v as u16
    }
}

/// Inverse of [`to_sign_magnitude`]. `0x8000` ("−0") decodes to 0.
fn from_sign_magnitude(bits: u16) -> i16 {
    let mag = (bits & 0x7FFF) as i16;
    if bits & 0x8000 != 0 {
        -mag
    } else {
        mag
    }
}

/// A 16-bit weight sliced into eight 2-bit cells, MSB-first, in
/// **sign-magnitude** layout.
///
/// `cells[0]` holds the sign bit plus the top magnitude bit; `cells[7]`
/// holds magnitude bits 1..0. Stuck-at faults are applied per cell:
/// stuck-at-0 forces the cell to `0b00` (high-resistance, bits read 0),
/// stuck-at-1 to `0b11` (low-resistance, bits read 1).
///
/// The sign-magnitude layout reflects how ReRAM stores weights (cell
/// conductances are non-negative; the sign lives in its own bit /
/// differential pair) and produces the fault asymmetry the paper
/// observes: an SA1 near the MSB *inflates the magnitude* exponentially
/// ("weight explosion"), whereas an SA0 merely shrinks the magnitude
/// toward zero.
///
/// # Example
///
/// ```
/// use fare_tensor::{CellWord, Fixed16};
/// let w = CellWord::from_fixed(Fixed16(300));
/// assert_eq!(w.to_fixed(), Fixed16(300));
/// let neg = CellWord::from_fixed(Fixed16(-1));
/// assert_eq!(neg.cell(0), 0b10); // sign bit set, top magnitude bit clear
/// assert_eq!(neg.to_fixed(), Fixed16(-1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellWord {
    cells: [u8; CELLS_PER_WORD],
}

impl CellWord {
    /// Slices a fixed-point value into cells (sign-magnitude layout).
    pub fn from_fixed(value: Fixed16) -> Self {
        let bits = to_sign_magnitude(value.0);
        let mut cells = [0u8; CELLS_PER_WORD];
        for (i, cell) in cells.iter_mut().enumerate() {
            let shift = (CELLS_PER_WORD - 1 - i) as u32 * BITS_PER_CELL;
            *cell = ((bits >> shift) & 0b11) as u8;
        }
        Self { cells }
    }

    /// Reassembles the cells into a fixed-point value (shift-and-add).
    pub fn to_fixed(&self) -> Fixed16 {
        let mut bits: u16 = 0;
        for &cell in &self.cells {
            bits = (bits << BITS_PER_CELL) | (cell as u16);
        }
        Fixed16(from_sign_magnitude(bits))
    }

    /// Reads cell `i` (0 = MSB cell).
    ///
    /// # Panics
    ///
    /// Panics if `i >= CELLS_PER_WORD`.
    pub fn cell(&self, i: usize) -> u8 {
        self.cells[i]
    }

    /// Forces cell `i` to the stuck-at-0 state (`0b00`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= CELLS_PER_WORD`.
    pub fn stick_at_zero(&mut self, i: usize) {
        self.cells[i] = 0b00;
    }

    /// Forces cell `i` to the stuck-at-1 state (`0b11`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= CELLS_PER_WORD`.
    pub fn stick_at_one(&mut self, i: usize) {
        self.cells[i] = 0b11;
    }

    /// Iterates over the cells, MSB cell first.
    pub fn iter(&self) -> std::slice::Iter<'_, u8> {
        self.cells.iter()
    }
}

impl From<Fixed16> for CellWord {
    fn from(value: Fixed16) -> Self {
        Self::from_fixed(value)
    }
}

impl From<CellWord> for Fixed16 {
    fn from(word: CellWord) -> Self {
        word.to_fixed()
    }
}

/// A weight's stuck cells as two masks on its sign-magnitude cell word:
/// the word reads back as `(bits & and) | or`.
///
/// Stuck-at-0 clears a cell's two bits and stuck-at-1 sets them, so any
/// set of stuck cells on one word folds into one AND and one OR mask
/// that reads back exactly what [`CellWord::stick_at_zero`] /
/// [`CellWord::stick_at_one`] applied in the same order would.
///
/// # Example
///
/// ```
/// use fare_tensor::fixed::{CellMasks, StuckPolarity};
/// use fare_tensor::{CellWord, Fixed16};
///
/// let masks = CellMasks::NONE
///     .stick(0, StuckPolarity::StuckAtOne)
///     .stick(7, StuckPolarity::StuckAtZero);
/// let mut word = CellWord::from_fixed(Fixed16(301));
/// word.stick_at_one(0);
/// word.stick_at_zero(7);
/// assert_eq!(masks.apply(Fixed16(301)), word.to_fixed());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellMasks {
    /// Bits a stuck-at-0 cell forces to 0 are clear here.
    pub and: u16,
    /// Bits a stuck-at-1 cell forces to 1 are set here.
    pub or: u16,
}

impl CellMasks {
    /// No stuck cell: the word reads back unchanged.
    pub const NONE: Self = Self {
        and: u16::MAX,
        or: 0,
    };

    /// These masks with cell `cell` (0 = MSB cell) additionally stuck at
    /// `polarity`; a later stick of the same cell overrides an earlier one.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= CELLS_PER_WORD`.
    pub fn stick(self, cell: usize, polarity: StuckPolarity) -> Self {
        assert!(cell < CELLS_PER_WORD, "cell {cell} out of range");
        let bits = 0b11u16 << ((CELLS_PER_WORD - 1 - cell) as u32 * BITS_PER_CELL);
        match polarity {
            StuckPolarity::StuckAtZero => Self {
                and: self.and & !bits,
                or: self.or & !bits,
            },
            StuckPolarity::StuckAtOne => Self {
                and: self.and,
                or: self.or | bits,
            },
        }
    }

    /// Reads `value` back through the stuck cells.
    pub fn apply(self, value: Fixed16) -> Fixed16 {
        Fixed16(from_sign_magnitude(
            (to_sign_magnitude(value.0) & self.and) | self.or,
        ))
    }
}

/// Corrupts `value` (given in format `fmt`) by sticking cell `cell_index`
/// at 0 or 1, returning the decoded faulty `f32`.
///
/// This is the single-weight fault model used throughout the crossbar
/// simulator.
///
/// # Example
///
/// An SA1 fault on the MSB cell of a small positive weight produces a
/// huge-magnitude weight ("weight explosion"):
///
/// ```
/// use fare_tensor::fixed::{apply_cell_fault, FixedFormat, StuckPolarity};
/// let fmt = FixedFormat::default();
/// let faulty = apply_cell_fault(0.01, fmt, 0, StuckPolarity::StuckAtOne);
/// assert!(faulty.abs() > 10.0);
/// ```
pub fn apply_cell_fault(
    value: f32,
    fmt: FixedFormat,
    cell_index: usize,
    polarity: StuckPolarity,
) -> f32 {
    fmt.decode(
        CellMasks::NONE
            .stick(cell_index, polarity)
            .apply(fmt.encode(value)),
    )
}

/// Polarity of a stuck-at fault.
///
/// SA0 pins the cell to the high-resistance state (reads as all-zero
/// bits); SA1 pins it to the low-resistance state (reads as all-one bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StuckPolarity {
    /// Stuck-at-0: cell permanently reads `0b00`.
    StuckAtZero,
    /// Stuck-at-1: cell permanently reads `0b11`.
    StuckAtOne,
}

fare_rt::json_enum!(StuckPolarity {
    StuckAtZero,
    StuckAtOne
});

impl std::fmt::Display for StuckPolarity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StuckPolarity::StuckAtZero => write!(f, "SA0"),
            StuckPolarity::StuckAtOne => write!(f, "SA1"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip_within_resolution() {
        let fmt = FixedFormat::default();
        for &v in &[0.0, 0.5, -0.5, 1.25, -3.75, 0.001, -0.001] {
            let rt = fmt.quantise(v);
            assert!(
                (rt - v).abs() <= fmt.resolution() / 2.0 + 1e-9,
                "{v} -> {rt}"
            );
        }
    }

    #[test]
    fn encode_saturates() {
        let fmt = FixedFormat::default();
        assert!((fmt.decode(fmt.encode(1e9)) - fmt.max_value()).abs() < 1e-3);
        assert!(fmt.decode(fmt.encode(-1e9)) < -fmt.max_value() + 0.1);
    }

    #[test]
    fn nan_encodes_to_zero() {
        let fmt = FixedFormat::default();
        assert_eq!(fmt.encode(f32::NAN), Fixed16(0));
    }

    #[test]
    fn cell_word_round_trip_all_values() {
        for v in [0i16, 1, -1, 300, -300, i16::MAX, -i16::MAX, 12345, -12345] {
            let w = CellWord::from_fixed(Fixed16(v));
            assert_eq!(w.to_fixed(), Fixed16(v), "value {v}");
        }
    }

    #[test]
    fn i16_min_saturates_to_neg_max() {
        // Sign-magnitude cannot represent i16::MIN; it saturates.
        let w = CellWord::from_fixed(Fixed16(i16::MIN));
        assert_eq!(w.to_fixed(), Fixed16(-i16::MAX));
    }

    #[test]
    fn msb_cell_is_sign_region() {
        // -1: sign bit set, magnitude 1 → MSB cell is 0b10, LSB cell 0b01.
        let w = CellWord::from_fixed(Fixed16(-1));
        assert_eq!(w.cell(0), 0b10);
        assert_eq!(w.cell(CELLS_PER_WORD - 1), 0b01);
    }

    #[test]
    fn sa1_near_msb_explodes_positive_weight() {
        let fmt = FixedFormat::default();
        let clean = 0.02f32;
        let msb_fault = apply_cell_fault(clean, fmt, 0, StuckPolarity::StuckAtOne);
        let lsb_fault = apply_cell_fault(clean, fmt, CELLS_PER_WORD - 1, StuckPolarity::StuckAtOne);
        assert!(
            msb_fault.abs() > 100.0 * lsb_fault.abs().max(clean),
            "msb {msb_fault} lsb {lsb_fault}"
        );
    }

    #[test]
    fn sa0_zeroes_out_small_weight() {
        let fmt = FixedFormat::default();
        // A weight small enough to live entirely in the LSB cell.
        let tiny = fmt.resolution();
        let faulty = apply_cell_fault(tiny, fmt, CELLS_PER_WORD - 1, StuckPolarity::StuckAtZero);
        assert_eq!(faulty, 0.0);
    }

    #[test]
    fn sa0_msb_on_negative_weight_is_benign() {
        let fmt = FixedFormat::default();
        // Sign-magnitude: SA0 on the MSB cell clears the sign and the top
        // magnitude bit — for a small weight that only flips the sign, no
        // explosion. This asymmetry (SA1 explodes, SA0 does not) is the
        // paper's Fig. 3 observation.
        let faulty = apply_cell_fault(-0.01, fmt, 0, StuckPolarity::StuckAtZero);
        assert!(faulty.abs() < 0.1, "got {faulty}");
    }

    #[test]
    fn sa0_never_increases_magnitude() {
        let fmt = FixedFormat::default();
        for &v in &[0.01f32, -0.4, 3.7, -25.0, 60.0] {
            for cell in 0..CELLS_PER_WORD {
                let faulty = apply_cell_fault(v, fmt, cell, StuckPolarity::StuckAtZero);
                assert!(
                    faulty.abs() <= v.abs() + fmt.resolution(),
                    "SA0 grew |{v}| to |{faulty}| at cell {cell}"
                );
            }
        }
    }

    #[test]
    fn sa1_explosion_exceeds_any_sa0_damage() {
        // The Fig. 3 asymmetry at the single-weight level: the worst SA1
        // corruption dwarfs the worst SA0 corruption for small weights.
        let fmt = FixedFormat::default();
        let v = 0.05f32;
        let worst = |pol: StuckPolarity| -> f32 {
            (0..CELLS_PER_WORD)
                .map(|c| (apply_cell_fault(v, fmt, c, pol) - v).abs())
                .fold(0.0, f32::max)
        };
        assert!(worst(StuckPolarity::StuckAtOne) > 10.0 * worst(StuckPolarity::StuckAtZero));
    }

    #[test]
    fn fault_on_already_matching_cell_is_noop() {
        let fmt = FixedFormat::default();
        // 0.0 encodes to all-zero cells: SA0 anywhere changes nothing.
        for i in 0..CELLS_PER_WORD {
            assert_eq!(
                apply_cell_fault(0.0, fmt, i, StuckPolarity::StuckAtZero),
                0.0
            );
        }
    }

    #[test]
    fn cell_masks_match_cell_word_sticks() {
        let pols = [StuckPolarity::StuckAtZero, StuckPolarity::StuckAtOne];
        let stick = |word: &mut CellWord, cell: usize, pol: StuckPolarity| match pol {
            StuckPolarity::StuckAtZero => word.stick_at_zero(cell),
            StuckPolarity::StuckAtOne => word.stick_at_one(cell),
        };
        for v in [
            0i16,
            1,
            -1,
            300,
            -300,
            i16::MAX,
            -i16::MAX,
            i16::MIN,
            12345,
            -12345,
        ] {
            // Every ordered pair of sticks, including the same cell twice
            // (the later polarity wins).
            for a in 0..CELLS_PER_WORD {
                for b in 0..CELLS_PER_WORD {
                    for pa in pols {
                        for pb in pols {
                            let masks = CellMasks::NONE.stick(a, pa).stick(b, pb);
                            let mut word = CellWord::from_fixed(Fixed16(v));
                            stick(&mut word, a, pa);
                            stick(&mut word, b, pb);
                            assert_eq!(
                                masks.apply(Fixed16(v)),
                                word.to_fixed(),
                                "{v} {a}{pa} {b}{pb}"
                            );
                        }
                    }
                }
            }
            assert_eq!(
                CellMasks::NONE.apply(Fixed16(v)),
                CellWord::from_fixed(Fixed16(v)).to_fixed()
            );
        }
    }

    #[test]
    #[should_panic(expected = "cell 8 out of range")]
    fn cell_masks_reject_out_of_range_cell() {
        CellMasks::NONE.stick(CELLS_PER_WORD, StuckPolarity::StuckAtOne);
    }

    #[test]
    fn polarity_display() {
        assert_eq!(StuckPolarity::StuckAtZero.to_string(), "SA0");
        assert_eq!(StuckPolarity::StuckAtOne.to_string(), "SA1");
    }

    #[test]
    #[should_panic(expected = "frac_bits must be < 16")]
    fn format_rejects_too_many_frac_bits() {
        FixedFormat::new(16);
    }
}

//! Order statistics over per-unit wall times.

/// A tail percentile must leave at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;
/// The highest percentile a tail reports. Beyond it the few samples left
/// are the host's hiccups: at p97 of 400 units the same code's tail moved
/// by a sixth of its median from run to run.
pub const MAX_PERCENTILE: u32 = 90;
/// Samples per window of [`windowed_tail`], at least: enough for a p90
/// with [`MIN_BEYOND`] samples beyond it.
pub const WINDOW: usize = 100;

/// The median: the middle sample, or the mean of the two middle ones.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The arithmetic mean.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// A tail percentile and how it was chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The whole percentile `p`, at least 50. It is 50, and `value` the
    /// [`median`], when no higher one has [`MIN_BEYOND`] samples beyond it.
    pub percentile: u32,
    /// The nearest-rank `p`-th percentile: the sample at rank `⌈p·n/100⌉`.
    pub value: f64,
    /// How many samples rank above it.
    pub beyond: usize,
}

/// The highest whole percentile above the median, up to
/// [`MAX_PERCENTILE`], that has at least [`MIN_BEYOND`] samples beyond
/// it, or the median if there is none: the maximum of a handful of
/// samples measures the host's worst moment, not the program.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    (51..=MAX_PERCENTILE)
        .rev()
        .map(|p| {
            let rank = (p as usize * n).div_ceil(100);
            Tail {
                percentile: p,
                value: s[rank - 1],
                beyond: n - rank,
            }
        })
        .find(|t| t.beyond >= MIN_BEYOND)
        .unwrap_or(Tail {
            percentile: 50,
            value: median(&s),
            beyond: n / 2,
        })
}

/// The tail of samples in the order they were taken: the median, over
/// consecutive windows of at least [`WINDOW`] samples, of each window's
/// [`tail`]. Returns the number of windows, and the tail of one window
/// with the median value. Fewer than `2 · WINDOW` samples are one
/// window; a remainder of fewer samples than there are windows is left
/// out.
///
/// A stall of the host slows every unit for a few seconds. Over a whole
/// run those units fill the tail, while they fill that of the one or two
/// windows they fall in, so the median window does not see them.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn windowed_tail(samples: &[f64]) -> (usize, Tail) {
    let window_len = samples.len() / (samples.len() / WINDOW).max(1);
    let tails: Vec<Tail> = samples.chunks_exact(window_len).map(tail).collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    (
        tails.len(),
        Tail {
            value: median(&values),
            ..tails[0]
        },
    )
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

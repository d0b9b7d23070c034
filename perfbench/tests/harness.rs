//! The benchmark's own rules: which tail percentile it reports, how
//! nested spans turn into self times, and when a unit counts as failed.

use std::any::Any;
use std::cell::Cell;

use fare_core::{EpochStats, TrainOutcome};
use fare_perfbench::stats::{mean, median, tail, windowed_tail, MAX_PERCENTILE, MIN_BEYOND};
use fare_perfbench::trace::{Clock, LayerTotals, Tracer};
use fare_perfbench::verdict::{judge, Tally, UnitOutcome, Verdict};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    for n in [
        1, 5, 10, 11, 19, 20, 21, 33, 40, 99, 100, 101, 250, 1000, 4321,
    ] {
        // Distinct values, unsorted.
        let samples: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
        let t = tail(&samples);
        let beyond = samples.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, t.beyond, "n = {n}");
        let next_rank = ((t.percentile as usize + 1) * n).div_ceil(100);
        assert!(
            t.percentile == MAX_PERCENTILE || n - next_rank < MIN_BEYOND,
            "n = {n}: p{} is not the highest",
            t.percentile
        );
        if t.percentile == 50 {
            // Too few samples for a tail: the median stands in.
            assert_eq!(t.value, median(&samples), "n = {n}");
        } else {
            assert!(
                beyond >= MIN_BEYOND,
                "n = {n}: p{} has {beyond} beyond",
                t.percentile
            );
        }
    }
}

#[test]
fn tail_percentiles_at_known_counts() {
    let tail_of = |n: usize| tail(&(1..=n).map(|i| i as f64).collect::<Vec<_>>());
    // Never the maximum of a handful: the median until 21 samples.
    assert_eq!(tail_of(1).value, 1.0);
    assert_eq!((tail_of(10).percentile, tail_of(10).value), (50, 5.5));
    assert_eq!((tail_of(20).percentile, tail_of(20).value), (50, 10.5));
    assert_eq!(tail_of(21).percentile, 52);
    assert_eq!(tail_of(100).percentile, 90);
    assert_eq!(tail_of(100).value, 90.0);
    assert_eq!(tail_of(99).percentile, 89);
    // Capped at p90 however many samples there are.
    assert_eq!(tail_of(200).percentile, 90);
    assert_eq!(tail_of(100_000).percentile, 90);
}

#[test]
fn a_stall_moves_only_the_tail_of_its_window() {
    // 600 units of 10 ms, 80 of them in a row slowed to 50 ms.
    let mut samples = vec![10.0; 600];
    samples[200..280].fill(50.0);
    assert_eq!(tail(&samples).value, 50.0);
    let (windows, t) = windowed_tail(&samples);
    assert_eq!(
        (windows, t.percentile, t.beyond, t.value),
        (6, 90, 10, 10.0)
    );
}

#[test]
fn windows_hold_at_least_a_window_of_samples() {
    for n in [1, 50, 199] {
        let samples: Vec<f64> = (0..n).map(|i| (i * 7 % 13) as f64).collect();
        assert_eq!(windowed_tail(&samples), (1, tail(&samples)), "n = {n}");
    }
    // 650 samples: six windows of 108, the last 2 samples left out.
    let samples: Vec<f64> = (0..650).map(|i| i as f64).collect();
    let (windows, t) = windowed_tail(&samples);
    assert_eq!((windows, t.percentile), (6, 90));
    // Window k holds 108k..108k+108; its p90 is rank 98, value 108k+97.
    assert_eq!(t.value, (108.0 * 2.0 + 97.0 + 108.0 * 3.0 + 97.0) / 2.0);
}

/// A clock that moves only when told to.
#[derive(Default)]
struct ManualClock(Cell<u64>);

impl ManualClock {
    fn advance(&self, ns: u64) {
        self.0.set(self.0.get() + ns);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.0.get()
    }
}

#[test]
fn nested_spans_are_never_counted_twice() {
    let clock = ManualClock::default();
    let tracer = Tracer::with_clock(&clock);
    let start = tracer.now_ns();
    tracer.span("outer", || {
        clock.advance(3);
        tracer.span("inner", || {
            clock.advance(5);
            tracer.span("leaf", || clock.advance(7));
        });
        tracer.span("inner", || clock.advance(11));
        clock.advance(2);
    });
    clock.advance(4);
    let wall = tracer.now_ns() - start;

    assert_eq!(
        tracer.layer("outer"),
        LayerTotals {
            self_ns: 5,
            calls: 1
        }
    );
    assert_eq!(
        tracer.layer("inner"),
        LayerTotals {
            self_ns: 16,
            calls: 2
        }
    );
    assert_eq!(
        tracer.layer("leaf"),
        LayerTotals {
            self_ns: 7,
            calls: 1
        }
    );
    assert_eq!(tracer.layer("absent"), LayerTotals::default());
    // Self times add up to the outermost span's duration, no more.
    assert_eq!(tracer.self_ns_total(), 28);
    assert_eq!(wall, 32);
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Advances the clock and opens nested spans at random.
fn random_spans(tracer: &Tracer<&ManualClock>, clock: &ManualClock, rng: &mut u64, depth: u32) {
    for _ in 0..=xorshift(rng) % 3 {
        clock.advance(xorshift(rng) % 5);
        if depth < 4 && xorshift(rng).is_multiple_of(2) {
            let name = ["a", "b", "c"][(xorshift(rng) % 3) as usize];
            tracer.span(name, || random_spans(tracer, clock, rng, depth + 1));
        }
    }
}

#[test]
fn coverage_never_exceeds_one() {
    let mut rng = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..200 {
        let clock = ManualClock::default();
        let tracer = Tracer::with_clock(&clock);
        let start = tracer.now_ns();
        random_spans(&tracer, &clock, &mut rng, 0);
        let wall = tracer.now_ns() - start;
        assert!(
            tracer.self_ns_total() <= wall,
            "{} self ns over {wall} wall ns",
            tracer.self_ns_total()
        );
    }
}

/// A stand-in outcome: one loss.
struct Loss(f64);

impl UnitOutcome for Loss {
    fn finite(&self) -> bool {
        self.0.is_finite()
    }

    fn first_difference(&self, other: &Self) -> Option<String> {
        (self.0.to_bits() != other.0.to_bits()).then(|| format!("{} vs {}", self.0, other.0))
    }
}

fn panicked() -> std::thread::Result<Loss> {
    Err(Box::new("unit panicked") as Box<dyn Any + Send>)
}

#[test]
fn each_failed_unit_counts_once() {
    let reference = Loss(0.5);
    let results = [
        Ok(Loss(0.5)),
        panicked(),
        // Non-finite and divergent at once: still one failure.
        Ok(Loss(f64::NAN)),
        Ok(Loss(0.5 + f64::EPSILON)),
        Ok(Loss(0.5)),
    ];
    let verdicts: Vec<Verdict> = results.iter().map(|r| judge(r, &reference)).collect();
    assert_eq!(
        verdicts,
        [
            Verdict::Passed,
            Verdict::Panicked,
            Verdict::NonFiniteLoss,
            Verdict::Diverged,
            Verdict::Passed
        ]
    );
    let mut tally = Tally::default();
    for verdict in verdicts {
        tally.record(verdict);
    }
    assert_eq!((tally.attempted, tally.failed), (5, 3));
    assert_eq!(tally.failed_frac(), 0.6);
    assert_eq!(Tally::default().failed_frac(), 0.0);
}

#[test]
fn divergence_is_bitwise() {
    // 0.0 and -0.0 compare equal as floats but are different outcomes.
    assert_eq!(judge(&Ok(Loss(-0.0)), &Loss(0.0)), Verdict::Diverged);
}

fn outcome(losses: &[f64]) -> TrainOutcome {
    let history = losses
        .iter()
        .enumerate()
        .map(|(epoch, &loss)| EpochStats {
            epoch,
            loss,
            train_accuracy: 0.5,
            test_accuracy: 0.4,
        })
        .collect();
    TrainOutcome {
        history,
        final_train_accuracy: 0.5,
        final_test_accuracy: 0.4,
        best_test_accuracy: 0.4,
        normalized_time: 1.02,
        final_mapping_cost: 7,
        num_batches: 3,
    }
}

#[test]
fn train_outcome_names_the_first_epoch_that_differs() {
    let reference = outcome(&[1.0, 0.8, 0.7]);
    assert_eq!(reference.first_difference(&outcome(&[1.0, 0.8, 0.7])), None);
    let diff = outcome(&[1.0, 0.8000001, 0.1])
        .first_difference(&reference)
        .expect("epochs 1 and 2 differ");
    assert!(diff.starts_with("epoch 1: loss"), "{diff}");
    let mut costlier = outcome(&[1.0, 0.8, 0.7]);
    costlier.final_mapping_cost = 8;
    let diff = costlier.first_difference(&reference).expect("costs differ");
    assert!(diff.starts_with("final_mapping_cost"), "{diff}");
    assert!(!outcome(&[1.0, f64::INFINITY]).finite());
}

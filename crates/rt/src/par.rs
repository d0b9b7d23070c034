//! Scoped fan-out parallel primitives — the subset of `rayon` the
//! workspace uses.
//!
//! Each call starts its helper threads with [`std::thread::scope`] and
//! joins them before it returns; no thread outlives a call. The fan-out
//! carries the runs of a sweep only, where one item is a whole training
//! run. Everything inside a run — the GNN, tensor and graph kernels and
//! the mapping — is serial, because a Cluster-GCN mini-batch of a few
//! dozen nodes gives each step less work than a hand-off to another
//! thread costs.
//!
//! - [`scoped_map`] — order-preserving parallel map over owned items.
//! - [`run_batch`] — runs `f(0..chunks)` across the threads; the
//!   primitive under `scoped_map`.
//!
//! The caller and its helpers claim indices one at a time from a shared
//! counter, so uneven items balance across threads.
//!
//! The thread count is a process-wide knob: [`set_threads`] wins, then
//! the `FARE_RT_THREADS` environment variable, then
//! `std::thread::available_parallelism()`. The last two are read once,
//! on the first query, and kept for the life of the process.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces the number of worker threads (`0` restores auto-detection).
///
/// Takes effect for every subsequent parallel call in the process; used
/// by the determinism tests to compare 1- vs N-thread runs. Results are
/// bit-identical either way — this knob trades wall-clock only.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The number of worker threads parallel calls will use.
pub fn current_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    // `available_parallelism` reads cgroup files on every call, and
    // every parallel call asks; resolve the default once.
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("FARE_RT_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Executes `f(0..chunks)` on up to [`current_threads`] threads, the
/// caller included, and returns once every invocation has finished. The
/// first panic payload (the caller's, then each helper's in spawn order)
/// is re-thrown here.
///
/// Determinism: *which* thread runs a chunk depends on the schedule,
/// but each chunk index is claimed exactly once and chunk bodies write
/// disjoint state, so results do not depend on the schedule.
pub fn run_batch(chunks: usize, f: &(dyn Fn(usize) + Sync)) {
    let helpers = current_threads().min(chunks).saturating_sub(1);
    if helpers == 0 {
        (0..chunks).for_each(f);
        return;
    }
    // The counter only hands out indices; the chunks' writes reach the
    // caller through the joins, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let claim = || loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= chunks {
            return;
        }
        f(index);
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..helpers).map(|_| s.spawn(claim)).collect();
        let mut panic = catch_unwind(AssertUnwindSafe(claim)).err();
        for handle in handles {
            if let Err(payload) = handle.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    });
}

/// Maps `f` over `items` on up to [`current_threads`] threads,
/// preserving input order.
///
/// Determinism contract: which thread maps an item depends on the
/// schedule, but each item is mapped on its own into its own slot and
/// the slots are read back in input order, so the output is the same at
/// any thread count.
pub fn scoped_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let outputs: Vec<Mutex<Option<U>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    // A slot's lock is held only to move a value in or out, never while
    // `f` runs, so no lock is ever poisoned.
    const UNPOISONED: &str = "no slot lock is held across `f`";
    run_batch(inputs.len(), &|i| {
        let item = inputs[i].lock().expect(UNPOISONED).take();
        let output = f(item.expect("each index is claimed once"));
        *outputs[i].lock().expect(UNPOISONED) = Some(output);
    });
    outputs
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect(UNPOISONED)
                .expect("every item is mapped")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        for &threads in &[1usize, 2, 3, 8] {
            set_threads(threads);
            let out = scoped_map((0..100).collect(), |x: usize| x * 2);
            assert_eq!(
                out,
                (0..100).map(|x| x * 2).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
        set_threads(0);
    }

    #[test]
    fn nested_parallel_maps() {
        let out = scoped_map((0..8).collect(), |i: usize| {
            scoped_map((0..10).collect(), |j: usize| i * j)
                .into_iter()
                .sum::<usize>()
        });
        assert_eq!(out[3], 3 * 45);
    }

    #[test]
    fn identical_across_thread_counts() {
        let input: Vec<u64> = (0..37).collect();
        set_threads(1);
        let one = scoped_map(input.clone(), |x| x.wrapping_mul(x));
        set_threads(4);
        let four = scoped_map(input, |x| x.wrapping_mul(x));
        set_threads(0);
        assert_eq!(one, four);
    }

    #[test]
    fn empty_input() {
        for &threads in &[1usize, 4] {
            set_threads(threads);
            assert!(scoped_map(Vec::<u8>::new(), |x| x).is_empty());
        }
        set_threads(0);
    }

    #[test]
    fn batch_panics_propagate() {
        set_threads(4);
        let result = std::panic::catch_unwind(|| {
            run_batch(8, &|i| {
                if i == 5 {
                    panic!("boom in chunk 5");
                }
            })
        });
        set_threads(0);
        let payload = result.expect_err("the chunk's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom in chunk 5"));
    }

    #[test]
    fn uneven_chunks_run_exactly_once() {
        for &threads in &[1usize, 2, 3, 8] {
            set_threads(threads);
            let runs: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(0)).collect();
            run_batch(runs.len(), &|i| {
                // Every fifth chunk is much slower than the rest.
                let spins = if i % 5 == 0 { 20_000 } else { 10 };
                let mut acc = i as u64;
                for k in 0..spins {
                    acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(k));
                }
                runs[i].fetch_add(1, Ordering::Relaxed);
            });
            let counts: Vec<usize> = runs.iter().map(|r| r.load(Ordering::Relaxed)).collect();
            assert_eq!(counts, vec![1; 40], "threads={threads}");
        }
        set_threads(0);
    }

    #[test]
    fn many_small_batches_in_a_row() {
        set_threads(3);
        for round in 0..200 {
            let data: Vec<Mutex<usize>> = (0..9).map(|_| Mutex::new(0)).collect();
            run_batch(data.len(), &|i| *data[i].lock().unwrap() = i + round);
            assert_eq!(*data[8].lock().unwrap(), 8 + round);
        }
        set_threads(0);
    }
}

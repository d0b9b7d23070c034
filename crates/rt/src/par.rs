//! Persistent-pool parallel primitives — the subset of `rayon` the
//! workspace uses.
//!
//! Work runs on a process-wide worker pool that is spawned **once** (and
//! grown lazily up to the configured thread count), not per call. The
//! pool carries the runs of a sweep only. Everything inside a run — the
//! GNN, tensor and graph kernels and the mapping — is serial, because a
//! Cluster-GCN mini-batch of a few dozen nodes gives each step less work
//! than one hand-off to the pool costs.
//!
//! - [`scoped_map`] — order-preserving parallel map over owned items
//!   (chunked, reassembled positionally).
//! - [`run_batch`] — runs `f(0..chunks)` across the pool; the primitive
//!   under `scoped_map`.
//!
//! The thread count is a process-wide knob: [`set_threads`] wins, then
//! the `FARE_RT_THREADS` environment variable, then
//! `std::thread::available_parallelism()`. The last two are read once,
//! on the first query, and kept for the life of the process.
//!
//! Nested parallelism is deadlock-free by construction: a thread that
//! submits a batch *helps* — it pops and runs queued tasks (its own or
//! another batch's) while it waits — so progress never depends on a free
//! pool worker being available.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Duration;

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
    // every parallel split asks; resolve the default once.
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("FARE_RT_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// The persistent worker pool.
///
/// Tasks are type-erased pointers into a batch descriptor that lives on
/// the submitting thread's stack; [`run_batch`] does not return until
/// every task of its batch has finished, which is what makes the borrow
/// sound (see the safety notes on `pool` below).
#[allow(unsafe_code)]
mod pool {
    use super::*;
    use std::any::Any;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::thread::Thread;

    /// Shared state of one in-flight batch. Lives on the submitter's
    /// stack for the duration of [`run_batch`].
    struct Shared<'a> {
        f: &'a (dyn Fn(usize) + Sync),
        /// Tasks not yet finished. The submitter spins/parks until this
        /// hits zero, so `Shared` strictly outlives every task.
        remaining: AtomicUsize,
        /// First panic payload from any task, re-thrown by the submitter.
        panic: Mutex<Option<Box<dyn Any + Send>>>,
        /// The submitting thread, unparked when the batch completes.
        waiter: Thread,
    }

    /// One unit of queued work: batch pointer + chunk index.
    ///
    /// The pointer is lifetime-erased; validity is guaranteed by the
    /// batch protocol (the submitter blocks in `run_batch` until
    /// `remaining == 0`, and `remaining` is only decremented *after* a
    /// task's last use of the batch state).
    struct Task {
        shared: *const Shared<'static>,
        index: usize,
    }

    // SAFETY: `Task` is a plain (pointer, index) pair; the pointee is
    // `Sync` (`&dyn Fn + Sync`, atomics, `Mutex`, `Thread`) and the
    // batch protocol keeps it alive until the task has run.
    unsafe impl Send for Task {}

    struct Pool {
        queue: Mutex<VecDeque<Task>>,
        available: Condvar,
        workers: Mutex<usize>,
    }

    fn pool() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            workers: Mutex::new(0),
        })
    }

    /// Runs one task to completion and signals its batch.
    fn run_task(task: Task) {
        // SAFETY: the submitter of this task is blocked inside
        // `run_batch` until we decrement `remaining` below, so the
        // pointee is alive for the whole body of this function.
        let shared = unsafe { &*task.shared };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (shared.f)(task.index))) {
            let mut slot = shared.panic.lock().unwrap();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        // Clone the waiter handle *before* the decrement: once
        // `remaining` hits zero the submitter may return and drop
        // `Shared`, so nothing of it may be touched afterwards.
        // (`Thread` is internally reference-counted; unparking a thread
        // that has already moved on is a documented no-op.)
        let waiter = shared.waiter.clone();
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            waiter.unpark();
        }
    }

    /// Grows the pool so that at least `n` persistent workers exist.
    fn ensure_workers(n: usize) {
        let p = pool();
        let mut count = p.workers.lock().unwrap();
        while *count < n {
            *count += 1;
            let id = *count;
            std::thread::Builder::new()
                .name(format!("fare-rt-worker-{id}"))
                .spawn(move || worker_loop())
                .expect("spawn fare-rt worker");
        }
    }

    fn worker_loop() {
        let p = pool();
        loop {
            let task = {
                let mut q = p.queue.lock().unwrap();
                loop {
                    if let Some(t) = q.pop_front() {
                        break t;
                    }
                    q = p.available.wait(q).unwrap();
                }
            };
            run_task(task);
        }
    }

    /// Executes `f(0..chunks)` across the pool, returning once every
    /// invocation has finished. Panics from tasks are re-thrown here.
    ///
    /// Determinism: *which* thread runs a chunk is scheduling-dependent,
    /// but each chunk index is claimed exactly once and chunk bodies
    /// write disjoint state, so results do not depend on the schedule.
    pub fn run_batch(chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        match chunks {
            0 => return,
            1 => return f(0),
            _ => {}
        }
        ensure_workers(current_threads().saturating_sub(1).max(1));

        let shared = Shared {
            f,
            remaining: AtomicUsize::new(chunks),
            panic: Mutex::new(None),
            waiter: std::thread::current(),
        };
        // SAFETY (lifetime erasure): `shared` outlives every `Task`
        // because this function does not return until `remaining == 0`,
        // and tasks never touch `shared` after their decrement.
        let erased: *const Shared<'static> =
            (&shared as *const Shared<'_>).cast::<Shared<'static>>();

        {
            let p = pool();
            let mut q = p.queue.lock().unwrap();
            for index in 0..chunks {
                q.push_back(Task {
                    shared: erased,
                    index,
                });
            }
            drop(q);
            p.available.notify_all();
        }

        // Help: run queued tasks (ours or another batch's) instead of
        // idling; park briefly when the queue is empty but our batch is
        // still in flight on other threads.
        let p = pool();
        while shared.remaining.load(Ordering::Acquire) != 0 {
            let task = p.queue.lock().unwrap().pop_front();
            match task {
                Some(t) => run_task(t),
                None => std::thread::park_timeout(Duration::from_micros(200)),
            }
        }

        let payload = shared.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

pub use pool::run_batch;

/// Maps `f` over `items` on the worker pool, preserving input order.
///
/// Determinism contract: chunk boundaries move with the thread count,
/// but each item is mapped on its own and results are reassembled
/// positionally, so the output is the input order at any thread count.
pub fn scoped_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let threads = current_threads().clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk_len = n.div_ceil(threads);
    struct Slot<T, U> {
        input: Vec<T>,
        output: Vec<U>,
    }
    let mut slots: Vec<Mutex<Slot<T, U>>> = Vec::with_capacity(threads);
    let mut it = items.into_iter();
    loop {
        let chunk: Vec<T> = it.by_ref().take(chunk_len).collect();
        if chunk.is_empty() {
            break;
        }
        slots.push(Mutex::new(Slot {
            input: chunk,
            output: Vec::new(),
        }));
    }
    run_batch(slots.len(), &|i| {
        let mut slot = slots[i].lock().unwrap();
        let input = std::mem::take(&mut slot.input);
        slot.output = input.into_iter().map(&f).collect();
    });
    slots
        .into_iter()
        .flat_map(|s| s.into_inner().unwrap().output)
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
        assert!(result.is_err());
    }

    #[test]
    fn pool_survives_many_small_batches() {
        set_threads(3);
        for round in 0..200 {
            let data: Vec<Mutex<usize>> = (0..9).map(|_| Mutex::new(0)).collect();
            run_batch(data.len(), &|i| *data[i].lock().unwrap() = i + round);
            assert_eq!(*data[8].lock().unwrap(), 8 + round);
        }
        set_threads(0);
    }
}

//! Self-time accounting for the spans the benchmark records around its
//! calls into each layer.
//!
//! A span's self time is its duration minus the durations of the spans
//! nested directly in it. Summed over all layers, self times count every
//! instant at most once, so they never exceed the wall time around them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// A monotonic clock in nanoseconds.
pub trait Clock {
    /// Nanoseconds since a fixed origin.
    fn now_ns(&self) -> u64;
}

impl<C: Clock + ?Sized> Clock for &C {
    fn now_ns(&self) -> u64 {
        (**self).now_ns()
    }
}

/// Wall time since the clock was made.
#[derive(Debug, Clone, Copy)]
pub struct WallClock(Instant);

impl Default for WallClock {
    fn default() -> Self {
        Self(Instant::now())
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Self time and call count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Nanoseconds inside the layer's spans, less their nested spans.
    pub self_ns: u64,
    /// Spans recorded.
    pub calls: u64,
}

/// Records nested spans made on one thread.
#[derive(Default)]
pub struct Tracer<C: Clock = WallClock> {
    clock: C,
    /// Open spans, innermost last: start time, and the time their
    /// finished children covered.
    open: RefCell<Vec<(u64, u64)>>,
    layers: RefCell<BTreeMap<&'static str, LayerTotals>>,
}

impl Tracer<WallClock> {
    /// A tracer on the wall clock.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<C: Clock> Tracer<C> {
    /// A tracer on `clock`.
    pub fn with_clock(clock: C) -> Self {
        Self {
            clock,
            open: RefCell::default(),
            layers: RefCell::default(),
        }
    }

    /// The clock's current reading.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Runs `f` as one span of layer `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.clock.now_ns();
        self.open.borrow_mut().push((start, 0));
        let out = f();
        let end = self.clock.now_ns();
        let mut open = self.open.borrow_mut();
        let (start, children) = open.pop().expect("every span closes once");
        let total = end - start;
        if let Some(parent) = open.last_mut() {
            parent.1 += total;
        }
        drop(open);
        let mut layers = self.layers.borrow_mut();
        let layer = layers.entry(name).or_default();
        layer.self_ns += total - children;
        layer.calls += 1;
        out
    }

    /// Totals of layer `name` so far.
    pub fn layer(&self, name: &str) -> LayerTotals {
        self.layers.borrow().get(name).copied().unwrap_or_default()
    }

    /// Self time summed over every layer.
    pub fn self_ns_total(&self) -> u64 {
        self.layers.borrow().values().map(|l| l.self_ns).sum()
    }
}

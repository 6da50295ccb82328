//! Per-layer accounting for traced runs: a shared accumulator of layer
//! times and counts, plus timing wrappers around the library's own
//! extension points (`ChunkSource`, `ColumnAccess`). Spans are taken in
//! the benchmark's files, around calls into each layer; the library is
//! not instrumented.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use reds_data::{ColumnAccess, PointVisitor};
use reds_stream::ChunkSource;

use crate::common::ms;
use crate::report::{median, Report};

/// Layer times (ms) and counts of one pass, shared across threads.
#[derive(Default)]
pub struct Layers(Mutex<BTreeMap<&'static str, f64>>);

impl Layers {
    pub fn add(&self, name: &'static str, value: f64) {
        *self
            .0
            .lock()
            .expect("layer accumulator poisoned")
            .entry(name)
            .or_default() += value;
    }

    /// Runs `f`, adding its wall time to `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, ms(t));
        out
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .lock()
            .expect("layer accumulator poisoned")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Takes this pass's totals, leaving the accumulator empty.
    pub fn take(&self) -> BTreeMap<&'static str, f64> {
        std::mem::take(&mut *self.0.lock().expect("layer accumulator poisoned"))
    }
}

/// Per-pass layer totals of a traced run, reduced to medians.
#[derive(Default)]
pub struct Passes {
    layers: Vec<BTreeMap<&'static str, f64>>,
    wall_ms: Vec<f64>,
}

impl Passes {
    pub fn push(&mut self, layers: BTreeMap<&'static str, f64>, wall_ms: f64) {
        self.layers.push(layers);
        self.wall_ms.push(wall_ms);
    }

    pub fn len(&self) -> usize {
        self.wall_ms.len()
    }

    /// Median over passes of one layer metric (0 where absent).
    pub fn median(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .layers
            .iter()
            .map(|p| p.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&v)
    }

    /// Sets every recorded layer metric to its median, then the coverage
    /// of `partition` (layers that do not overlap and should add up to
    /// the pass) against the median pass wall time, and the tracing
    /// overhead against `untraced_ms`, the untraced pass of the same run.
    pub fn report(&self, partition: &[&str], untraced_ms: f64, report: &mut Report) {
        let names: std::collections::BTreeSet<&str> =
            self.layers.iter().flat_map(|p| p.keys().copied()).collect();
        for name in names {
            report.set(name, self.median(name));
        }
        let layers: f64 = partition.iter().map(|n| self.median(n)).sum();
        let wall = median(&self.wall_ms);
        let coverage = layers / wall.max(1e-9);
        report.set("trace.layers_ms", layers);
        report.set("trace.end_to_end_ms", wall);
        report.set("trace.coverage", coverage);
        report.set("trace.overhead_ms", wall - untraced_ms);
        report.note(format!(
            "coverage: layers {} = {layers:.1} ms of {wall:.1} ms per pass ({:.1}%); \
             gap {:.1} ms; {} traced passes; tracing overhead {:.1} ms per pass \
             (untraced {untraced_ms:.1} ms)",
            partition.join(" + "),
            100.0 * coverage,
            wall - layers,
            self.len(),
            wall - untraced_ms
        ));
        if (coverage - 1.0).abs() > 0.10 {
            report.note(format!(
                "coverage gap over 10%: {:.1} ms per pass is outside the named layers",
                wall - layers
            ));
        }
    }
}

/// A `ChunkSource` that times chunk generation (`stream.sample_ms`) and
/// counts chunks (`stream.chunks`).
pub struct TimedSource<'a, S> {
    pub inner: S,
    layers: &'a Layers,
}

impl<'a, S> TimedSource<'a, S> {
    pub fn new(inner: S, layers: &'a Layers) -> Self {
        Self { inner, layers }
    }
}

impl<S: ChunkSource> ChunkSource for TimedSource<'_, S> {
    fn m(&self) -> usize {
        self.inner.m()
    }

    fn remaining(&self) -> usize {
        self.inner.remaining()
    }

    fn next_chunk(&mut self, max_rows: usize, out: &mut Vec<f64>) -> usize {
        let got = self
            .layers
            .time("stream.sample_ms", || self.inner.next_chunk(max_rows, out));
        if got > 0 {
            self.layers.add("stream.chunks", 1.0);
        }
        got
    }
}

/// A `ColumnAccess` that times every call into the paged store,
/// callbacks included (`ooc.access_ms`), and counts them
/// (`ooc.access_calls`). The totals are kept locally, since per-row
/// calls are frequent, and added to the accumulator when the wrapper
/// drops.
pub struct TimedAccess<'a> {
    inner: &'a mut dyn ColumnAccess,
    layers: &'a Layers,
    ms: f64,
    calls: f64,
}

impl<'a> TimedAccess<'a> {
    pub fn new(inner: &'a mut dyn ColumnAccess, layers: &'a Layers) -> Self {
        Self {
            inner,
            layers,
            ms: 0.0,
            calls: 0.0,
        }
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut dyn ColumnAccess) -> T) -> T {
        let t = Instant::now();
        let out = f(&mut *self.inner);
        self.ms += ms(t);
        self.calls += 1.0;
        out
    }
}

impl Drop for TimedAccess<'_> {
    fn drop(&mut self) {
        self.layers.add("ooc.access_ms", self.ms);
        self.layers.add("ooc.access_calls", self.calls);
    }
}

impl ColumnAccess for TimedAccess<'_> {
    fn m(&self) -> usize {
        self.inner.m()
    }

    fn n_rows(&self) -> usize {
        self.inner.n_rows()
    }

    fn n_active(&self) -> usize {
        self.inner.n_active()
    }

    fn is_active(&mut self, row: u32) -> bool {
        self.timed(|s| s.is_active(row))
    }

    fn label(&mut self, row: u32) -> f64 {
        self.timed(|s| s.label(row))
    }

    fn active_label_sum(&mut self) -> f64 {
        self.timed(|s| s.active_label_sum())
    }

    fn scan_active_front(&mut self, dim: usize, f: &mut dyn FnMut(f64, u32) -> bool) {
        self.timed(|s| s.scan_active_front(dim, f))
    }

    fn scan_active_back(&mut self, dim: usize, f: &mut dyn FnMut(f64, u32) -> bool) {
        self.timed(|s| s.scan_active_back(dim, f))
    }

    fn scan_column_points(&mut self, dim: usize, f: &mut PointVisitor<'_>) {
        self.timed(|s| s.scan_column_points(dim, f))
    }

    fn scan_rows(&mut self, f: &mut dyn FnMut(u32, &[f64], f64)) {
        self.timed(|s| s.scan_rows(f))
    }

    fn deactivate_below(&mut self, dim: usize, bound: f64) -> usize {
        self.timed(|s| s.deactivate_below(dim, bound))
    }

    fn deactivate_above(&mut self, dim: usize, bound: f64) -> usize {
        self.timed(|s| s.deactivate_above(dim, bound))
    }
}

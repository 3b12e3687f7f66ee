//! The `Tracer` sink trait, the `Trace` handle the pipeline threads
//! through its phases, and the in-memory `SpanCollector` whose
//! open-span stack every span sink shares.

use crate::counter::Counters;
use std::time::{Duration, Instant};

/// Sink for pipeline trace events: hierarchical spans, counter
/// batches, and per-function cost buckets.
///
/// Every method has a no-op default, so an implementation only
/// overrides what it cares about. Implementations must tolerate
/// `span_end` names they never saw started (a phase that aborts on a
/// budget still closes its spans in reverse order, but defensive sinks
/// should not panic on protocol slips).
pub trait Tracer {
    /// A named region begins. Spans nest strictly: the matching
    /// [`span_end`](Tracer::span_end) arrives before the parent's.
    fn span_start(&mut self, _name: &str) {}

    /// The innermost open region named `name` ends.
    fn span_end(&mut self, _name: &str) {}

    /// Flushes a whole batch of locally-accumulated counters at once.
    ///
    /// The phases accumulate counters in plain integers and flush once
    /// per phase, so even an enabled tracer never adds dispatch to the
    /// fixpoint loop.
    fn add_counters(&mut self, _counters: &Counters) {}

    /// Whether this sink wants per-function cost attribution: the base
    /// analysis then times every worklist step and flushes per-bucket
    /// tallies through [`record_cost`](Tracer::record_cost) once.
    fn attributes_cost(&self) -> bool {
        false
    }

    /// One flushed attribution bucket (see [`FuncCost`](crate::FuncCost)).
    fn record_cost(&mut self, _func: &str, _ctx: u8, _phase: &str, _steps: u64, _time_us: u64) {}
}

/// A `Tracer` that ignores everything (the trait defaults, reified).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {}

/// The handle the pipeline passes around — the one seam every
/// observer (spans, counters, cost attribution) hangs off.
///
/// An enum, not a `&mut dyn Tracer`, so that the disabled path is a
/// branch on the discriminant rather than a virtual call: with
/// [`Trace::Off`] every hook compiles to one predictable test. The
/// pipeline additionally keeps its hot-loop counters and cost tallies
/// in plain integer fields and flushes them per phase, so the handle is
/// only touched at phase granularity anyway.
#[derive(Default)]
pub enum Trace<'a> {
    /// Tracing disabled; every hook is a no-op branch.
    #[default]
    Off,
    /// Tracing enabled; events forward to the sink.
    On(&'a mut dyn Tracer),
}

impl<'a> Trace<'a> {
    /// Wraps a sink in an enabled handle.
    pub fn on(tracer: &'a mut dyn Tracer) -> Trace<'a> {
        Trace::On(tracer)
    }

    /// Whether events will be observed (lets callers skip work that
    /// only exists to be traced, e.g. tallying PDG edges by kind).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        matches!(self, Trace::On(_))
    }

    /// Opens a named span.
    #[inline]
    pub fn span_start(&mut self, name: &str) {
        if let Trace::On(t) = self {
            t.span_start(name);
        }
    }

    /// Closes the innermost open span named `name`.
    #[inline]
    pub fn span_end(&mut self, name: &str) {
        if let Trace::On(t) = self {
            t.span_end(name);
        }
    }

    /// Flushes a batch of locally-accumulated counters.
    #[inline]
    pub fn add_counters(&mut self, counters: &Counters) {
        if let Trace::On(t) = self {
            t.add_counters(counters);
        }
    }

    /// Whether the sink wants cost attribution.
    #[inline]
    pub fn attributes_cost(&self) -> bool {
        matches!(self, Trace::On(t) if t.attributes_cost())
    }

    /// Flushes one attribution bucket (see [`Tracer::record_cost`]).
    #[inline]
    pub fn record_cost(&mut self, func: &str, ctx: u8, phase: &str, steps: u64, time_us: u64) {
        if let Trace::On(t) = self {
            t.record_cost(func, ctx, phase, steps, time_us);
        }
    }
}

/// One completed (or still open) span recorded by [`SpanCollector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name as passed to `span_start`.
    pub name: String,
    /// Nesting depth (0 = top level).
    pub depth: usize,
    /// Start offset from the collector's epoch, in microseconds.
    pub start_us: u64,
    /// Duration in microseconds (0 until the span ends): end offset
    /// minus `start_us`, so children nest exactly inside parents.
    pub dur_us: u64,
    /// Duration at full clock resolution (zero until the span ends).
    pub elapsed: Duration,
}

/// Records hierarchical spans (with wall-clock timings) and pipeline
/// [`Counters`] in memory. Its open-span stack is the only one; other
/// span sinks read spans off a collector.
///
/// Counters are deterministic (see the crate docs); span timings are
/// not, which is why the golden tests compare counter totals only.
#[derive(Debug)]
pub struct SpanCollector {
    epoch: Instant,
    /// Open spans, outermost first: index into `spans`, start instant.
    open: Vec<(usize, Instant)>,
    spans: Vec<SpanRecord>,
    counters: Counters,
}

impl Default for SpanCollector {
    fn default() -> SpanCollector {
        SpanCollector::new()
    }
}

impl SpanCollector {
    /// An empty collector; the epoch (t=0) is now.
    pub fn new() -> SpanCollector {
        SpanCollector::with_epoch(Instant::now())
    }

    /// An empty collector whose offsets count from `epoch`, so its spans
    /// land on another clock's timeline (the event log's, for one).
    pub fn with_epoch(epoch: Instant) -> SpanCollector {
        SpanCollector {
            epoch,
            open: Vec::new(),
            spans: Vec::new(),
            counters: Counters::new(),
        }
    }

    /// Completed and open spans, in start order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Accumulated counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Closes the innermost open span named `name` and returns it;
    /// `None` when no such span is open.
    pub fn close(&mut self, name: &str) -> Option<&SpanRecord> {
        let now = Instant::now();
        let pos = self
            .open
            .iter()
            .rposition(|&(i, _)| self.spans[i].name == name)?;
        let (idx, start) = self.open.remove(pos);
        debug_assert_eq!(pos, self.open.len(), "spans must close innermost-first");
        let span = &mut self.spans[idx];
        span.dur_us = micros(now - self.epoch).saturating_sub(span.start_us);
        span.elapsed = now - start;
        Some(span)
    }
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

impl Tracer for SpanCollector {
    fn span_start(&mut self, name: &str) {
        let now = Instant::now();
        self.open.push((self.spans.len(), now));
        self.spans.push(SpanRecord {
            name: name.to_owned(),
            depth: self.open.len() - 1,
            start_us: micros(now - self.epoch),
            dur_us: 0,
            elapsed: Duration::ZERO,
        });
    }

    fn span_end(&mut self, name: &str) {
        self.close(name); // an unmatched end is dropped, not a panic
    }

    fn add_counters(&mut self, counters: &Counters) {
        self.counters.merge(counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Counter;

    fn batch(counter: Counter, delta: u64) -> Counters {
        let mut c = Counters::new();
        c.add(counter, delta);
        c
    }

    #[test]
    fn off_handle_ignores_everything() {
        let mut t = Trace::Off;
        assert!(!t.is_enabled());
        assert!(!t.attributes_cost());
        t.span_start("x");
        t.add_counters(&batch(Counter::WorklistSteps, 1));
        t.record_cost("f", 0, "fixpoint", 10, 5);
        t.span_end("x");
    }

    #[test]
    fn collector_records_nested_spans_and_counters() {
        let mut c = SpanCollector::new();
        {
            let mut t = Trace::on(&mut c);
            assert!(t.is_enabled());
            t.span_start("pipeline");
            t.span_start("phase1");
            t.add_counters(&batch(Counter::WorklistSteps, 41));
            t.add_counters(&batch(Counter::WorklistSteps, 1));
            t.span_end("phase1");
            t.add_counters(&batch(Counter::StateJoins, 7));
            t.span_end("pipeline");
        }
        let spans = c.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "pipeline");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].name, "phase1");
        assert_eq!(spans[1].depth, 1);
        // The child is contained in the parent.
        assert!(spans[1].start_us >= spans[0].start_us);
        assert!(spans[1].start_us + spans[1].dur_us <= spans[0].start_us + spans[0].dur_us);
        assert!(spans[1].elapsed <= spans[0].elapsed);
        assert_eq!(c.counters().get(Counter::WorklistSteps), 42);
        assert_eq!(c.counters().get(Counter::StateJoins), 7);
    }

    #[test]
    fn same_name_spans_close_innermost_first() {
        let mut c = SpanCollector::new();
        c.span_start("propagate");
        c.span_start("propagate");
        c.span_end("propagate");
        c.span_end("propagate");
        assert_eq!(c.spans().len(), 2);
        assert_eq!(c.spans()[0].depth, 0);
        assert_eq!(c.spans()[1].depth, 1);
    }
}

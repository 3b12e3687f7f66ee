//! Observability for the signature-inference pipeline.
//!
//! The paper's evaluation (Table 2) reports three coarse per-phase wall
//! times, and for a batch tool that is enough. Run the same pipeline as
//! a long-lived vetting daemon and the questions change: why was this
//! addon slow, why did it time out, which statements carried the flow
//! that produced this verdict. This crate is the measurement substrate
//! for those questions, kept deliberately free of dependencies so the
//! analysis crates can thread it through their hot paths:
//!
//! * [`Tracer`] — the event sink trait (hierarchical spans, counter
//!   batches, and cost-attribution buckets), with no-op defaults.
//!   The shipped impl, [`SpanCollector`], records spans and
//!   [`Counters`] in memory; its open-span stack is the only one, and
//!   [`SpanCollector::to_chrome_json`] renders it as
//!   `chrome://tracing` / Perfetto `trace_event` JSON.
//! * [`Trace`] — the handle the pipeline actually passes around, and
//!   the only one: spans, counters and cost attribution all go through
//!   it. It is an enum, so the disabled path is a branch on a
//!   discriminant, not a virtual call: `Trace::Off` costs one
//!   predictable-not-taken test.
//! * [`Counter`] / [`Counters`] — the fixed set of pipeline counters
//!   (worklist steps, state joins, heap CoW clones, PDG edges by kind,
//!   flow-lattice raises). Counters are accumulated locally by each
//!   phase and flushed once per phase, so even an enabled tracer adds
//!   no per-step dispatch to the fixpoint loop.
//! * [`MetricsRegistry`] — named monotonic counters and fixed
//!   log₂-bucket [`Histogram`]s for the daemon: shared via atomics, so
//!   worker threads feed one registry without locking on the hot path.
//! * [`AttributionSink`] / [`JobProfile`] — per-job cost attribution:
//!   which `(function, context class, phase)` buckets ate the worklist
//!   budget, flushed through the [`Trace`] handle to a sink that opts in
//!   with [`Tracer::attributes_cost`]; the data behind timeout
//!   postmortems and `vet profile`.
//!
//! Determinism contract: every counter is deterministic for a fixed
//! source and configuration, including across sequential/parallel
//! corpus sweeps. Counters classified [`Counter::order_independent`]
//! are additionally identical across worklist orders (FIFO vs RPO).
//! That subset is smaller than "everything measured after phase 1":
//! strong updates under the recency abstraction are non-monotone, so
//! different worklist orders can settle on slightly different — equally
//! sound — abstract states, and anything derived from the state's
//! may-alias facts (data-dependence edge tallies, flow propagation
//! work) inherits that sensitivity. See [`Counter::order_independent`]
//! for the precise classification.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod attr;
mod chrome;
mod counter;
mod metrics;
mod span;

pub use attr::{ctx_class_name, AttributionSink, FuncCost, JobProfile, CTX_CLASSES};
pub use counter::{Counter, Counters};
pub use metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot, HISTOGRAM_BUCKETS};
pub use metrics::Histogram;
pub use span::{NoopTracer, SpanCollector, SpanRecord, Trace, Tracer};

use std::time::Duration;

/// Wall-clock time spent in each of the paper's three analysis phases.
///
/// One type used end-to-end — the library [`Report`], the service
/// `VetOutcome`, and the wire protocol all carry this instead of three
/// loose `Duration` fields (the wire encoding itself lives next to the
/// protocol, in `sigserve`).
///
/// [`Report`]: https://docs.rs/addon-sig
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Phase 1: the abstract-interpretation base analysis.
    pub p1: Duration,
    /// Phase 2: building the annotated program dependence graph.
    pub p2: Duration,
    /// Phase 3: flow-type propagation and signature inference.
    pub p3: Duration,
}

impl PhaseTimings {
    /// Bundles the three phase durations.
    pub fn new(p1: Duration, p2: Duration, p3: Duration) -> PhaseTimings {
        PhaseTimings { p1, p2, p3 }
    }

    /// Total analysis time across the three phases.
    pub fn total(&self) -> Duration {
        self.p1 + self.p2 + self.p3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_timings_total_sums_the_phases() {
        let t = PhaseTimings::new(
            Duration::from_micros(10),
            Duration::from_micros(20),
            Duration::from_micros(30),
        );
        assert_eq!(t.total(), Duration::from_micros(60));
        assert_eq!(PhaseTimings::default().total(), Duration::ZERO);
    }
}

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
//! * [`Layer`] — the closed set of pipeline layers (`jsparser.parse`
//!   … `jssig.infer`), each mapped to its paper phase. It is the one
//!   vocabulary: spans are layers, [`LayerTimes`] records each layer's
//!   wall time (Table 2's phases are sums of it), and the daemon's
//!   histograms and the bench keys are named by [`Layer::name`].
//! * [`Tracer`] — the event sink trait (layer spans, counter batches,
//!   and cost-attribution buckets), with no-op defaults. The shipped
//!   impl, [`SpanCollector`], records spans and [`Counters`] in memory;
//!   its open-span stack is the only one, and
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
//!   which `(function, context class)` buckets ate the fixpoint's
//!   worklist budget, flushed through the [`Trace`] handle to a sink
//!   that opts in with [`Tracer::attributes_cost`]; the data behind
//!   timeout postmortems and `vet profile`.
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
mod layer;
mod metrics;
mod span;

pub use attr::{ctx_class_name, AttributionSink, FuncCost, JobProfile, CTX_CLASSES};
pub use counter::{Counter, Counters};
pub use layer::{Layer, LayerTimes};
pub use metrics::Histogram;
pub use metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot, HISTOGRAM_BUCKETS};
pub use span::{NoopTracer, SpanCollector, SpanRecord, Trace, Tracer};

//! Cross-run observability for the vetting service.
//!
//! `sigtrace` answers in-run questions (why was *this* analysis slow);
//! this crate answers cross-run ones: what did the daemon do at 03:12,
//! how did p95 latency trend over the last restart, did an analyzer
//! change flip any corpus verdict. Std-only (plus the in-tree `minijson`
//! and `sigtrace`), so every layer of the service can afford to depend
//! on it:
//!
//! * [`EventLog`] — a leveled, ring-buffered JSONL logger. Every record
//!   is one compact JSON object per line with a monotone `seq`, so a
//!   job's full lifecycle (enqueue → dequeue → cache hit/miss → phase
//!   spans → verdict) is reconstructable from the log alone — proven by
//!   [`replay`], which folds each record once into per-job timelines
//!   and validates each against the one lifecycle stage order.
//! * [`LogTracer`] — a [`sigtrace::Tracer`] adapter that emits the
//!   pipeline's phase spans as debug-level log events carrying the
//!   owning job's request ID, threading IDs *into* the analysis. Its
//!   spans are a [`sigtrace::SpanCollector`]'s, timed on the log's own
//!   clock, so each record's `start_us` lines up with `ts_us`.
//! * [`prometheus_text`] — Prometheus text exposition of a
//!   [`sigtrace::MetricsSnapshot`] (plus [`validate_prometheus_text`],
//!   the parser the CI smoke test uses).
//! * [`MetricsHistory`] — an interval snapshotter persisting the
//!   registry into a bounded on-disk ring of schema-versioned JSON
//!   files, so metrics survive daemon restarts and
//!   `vet metrics-report` can render rate/percentile trends.
//! * [`alerts`] — declarative health gates over the history ring:
//!   counter-rate / gauge / cache-hit-ratio / histogram-percentile rules
//!   evaluated into a pass/fail verdict (`vet metrics-report --gate`).
//! * [`merge`] — causal merge of per-node fleet logs (coordinator +
//!   workers) into one globally sequenced log that [`replay`] accepts,
//!   via a topological sort over node chains and job-lifecycle edges.
//! * [`timeline`] — one job's cross-node lifecycle (enqueue → queue
//!   wait → claim → phases → respond, or its cache hit, coalesce or
//!   rejection), the same timeline [`replay`] validates, rendered as a
//!   Chrome trace with its `job_profile` hotspot postmortem attached
//!   (`vet trace-job`).
//! * [`SamplePolicy`] — overload-safe log sampling: past a per-window
//!   threshold, matching events degrade to 1-in-N with counted
//!   `suppressed` records, and [`replay`] reconciles lifecycles against
//!   the declared suppression budget.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alerts;
mod expo;
mod history;
mod log;
pub mod merge;
pub mod replay;
pub mod timeline;

pub use expo::{prometheus_text, validate_prometheus_text};
pub use history::{HistoryRecord, MetricsHistory, HISTORY_SCHEMA};
pub use log::{EventLog, Level, LogTracer, SamplePolicy};
pub use merge::merge_fleet_logs;
pub use timeline::{chrome_trace, job_chrome_trace};

//! Cost attribution: per-`(function, context-class, phase)` step and
//! time tallies, and the [`JobProfile`] they roll up into.
//!
//! The base analysis can already say *how much* a job cost (the
//! [`Counter`](crate::Counter) totals); attribution says *where*: which
//! functions, at which context depths, ate the worklist budget. That is
//! the evidence a "why did this addon time out" postmortem needs.
//!
//! Attribution rides the one observability seam, [`Trace`](crate::Trace):
//!
//! * A sink opts in through
//!   [`Tracer::attributes_cost`](crate::Tracer::attributes_cost); with
//!   [`Trace::Off`](crate::Trace::Off), or a sink that does not opt in,
//!   the fixpoint loop pays one predictable branch per step and no
//!   clock reads.
//! * The fixpoint loop does **not** call the sink per step. It keeps
//!   dense local tallies (indexed by function id × context class) and
//!   flushes them once through
//!   [`Tracer::record_cost`](crate::Tracer::record_cost) when the run
//!   ends — the same once-per-phase flush discipline the counters use.
//! * [`AttributionSink`] collects the flushed buckets (the pipeline's
//!   recorder keeps one); [`AttributionSink::into_profile`] sorts them
//!   into a deterministic [`JobProfile`].
//!
//! Determinism contract: bucket *step* counts are deterministic for a
//! fixed source, configuration, and worklist order (they are slices of
//! [`Counter::WorklistSteps`](crate::Counter::WorklistSteps), which is
//! order-*dependent* — RPO exists to shrink it). Profile consumers that
//! need byte-identical output across `--order` flags therefore pin a
//! canonical schedule; `vet profile` pins RPO. Bucket *times* are wall
//! clock and never deterministic, so [`JobProfile::render_table`]
//! excludes them.

use std::fmt::Write as _;

/// Number of context classes a bucket can fall into: call-string depth
/// 0, 1, or 2-and-deeper. Clamping keeps the tally dense and bounded
/// regardless of the configured context depth.
pub const CTX_CLASSES: usize = 3;

/// Stable display name of a context class (`"0"`, `"1"`, `"2+"`).
pub fn ctx_class_name(class: u8) -> &'static str {
    match class {
        0 => "0",
        1 => "1",
        _ => "2+",
    }
}

/// One attribution bucket: the cost a single `(function, context
/// class, phase)` combination accrued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncCost {
    /// Function display name (the lowered IR's diagnostic name; the
    /// top level reports as `<top-level>`).
    pub func: String,
    /// Clamped call-string depth: 0, 1, or 2 (meaning "2 or deeper").
    pub ctx_class: u8,
    /// Which phase accrued it (`"fixpoint"` for worklist steps).
    pub phase: String,
    /// Worklist steps executed in this bucket. Deterministic for a
    /// fixed source, configuration, and worklist order.
    pub steps: u64,
    /// Wall-clock microseconds spent in this bucket. Never
    /// deterministic; excluded from golden-tested renderings.
    pub time_us: u64,
}

/// Collects flushed attribution buckets. The analysis writes here once
/// per run (not per step); see the module docs.
#[derive(Debug, Default)]
pub struct AttributionSink {
    costs: Vec<FuncCost>,
}

impl AttributionSink {
    /// An empty sink.
    pub fn new() -> AttributionSink {
        AttributionSink::default()
    }

    /// Records one flushed bucket.
    pub fn record(&mut self, func: &str, ctx_class: u8, phase: &str, steps: u64, time_us: u64) {
        self.costs.push(FuncCost {
            func: func.to_owned(),
            ctx_class: ctx_class.min((CTX_CLASSES - 1) as u8),
            phase: phase.to_owned(),
            steps,
            time_us,
        });
    }

    /// The buckets recorded so far, in flush order.
    pub fn costs(&self) -> &[FuncCost] {
        &self.costs
    }

    /// Rolls the buckets up into a deterministic [`JobProfile`]:
    /// hotspots sorted by steps (descending), ties broken by
    /// `(func, ctx_class, phase)` ascending so the order never depends
    /// on flush order or wall-clock times.
    pub fn into_profile(self, total_steps: u64) -> JobProfile {
        let mut hotspots = self.costs;
        hotspots.sort_by(|a, b| {
            b.steps
                .cmp(&a.steps)
                .then_with(|| a.func.cmp(&b.func))
                .then_with(|| a.ctx_class.cmp(&b.ctx_class))
                .then_with(|| a.phase.cmp(&b.phase))
        });
        JobProfile {
            total_steps,
            phases: Vec::new(),
            hotspots,
        }
    }
}

/// Where one job's cost went: total steps, per-phase wall times, and
/// the per-`(function, context class, phase)` hotspot buckets, sorted
/// most-expensive first (deterministic tie-break; see
/// [`AttributionSink::into_profile`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobProfile {
    /// Worklist steps the whole run executed (including steps in
    /// functions too cold to surface as hotspots).
    pub total_steps: u64,
    /// Per-phase wall times as `(phase, µs)` pairs, in pipeline order.
    /// A budget-aborted run only carries the phases that actually ran.
    pub phases: Vec<(String, u64)>,
    /// Attribution buckets, sorted by steps descending.
    pub hotspots: Vec<FuncCost>,
}

impl JobProfile {
    /// The `k` most expensive buckets (fewer when the program is small).
    pub fn top(&self, k: usize) -> &[FuncCost] {
        &self.hotspots[..self.hotspots.len().min(k)]
    }

    /// Renders the deterministic hotspot table: rank, steps, share of
    /// total steps, context class, and function, for the top `top_n`
    /// buckets. Wall-clock columns are deliberately absent — this
    /// string is golden-tested bit-identical across runs and thread
    /// counts (and across worklist orders once the caller pins one).
    pub fn render_table(&self, top_n: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "total worklist steps: {}", self.total_steps);
        let shown = self.top(top_n);
        if shown.is_empty() {
            out.push_str("no attribution buckets recorded\n");
            return out;
        }
        let width = shown.iter().map(|c| c.steps.to_string().len()).max().unwrap_or(1).max(5);
        let _ = writeln!(out, "rank  {:>width$}  share   ctx  function", "steps");
        for (i, c) in shown.iter().enumerate() {
            let share = if self.total_steps == 0 {
                0.0
            } else {
                c.steps as f64 * 100.0 / self.total_steps as f64
            };
            let _ = writeln!(
                out,
                "{:>4}  {:>width$}  {:>5.1}%  {:>3}  {}",
                i + 1,
                c.steps,
                share,
                ctx_class_name(c.ctx_class),
                c.func,
            );
        }
        if self.hotspots.len() > shown.len() {
            let _ = writeln!(
                out,
                "(top {} of {} buckets)",
                shown.len(),
                self.hotspots.len()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_collects_and_profile_sorts_deterministically() {
        let mut sink = AttributionSink::new();
        sink.record("zeta", 0, "fixpoint", 50, 900);
        sink.record("alpha", 1, "fixpoint", 50, 100);
        sink.record("beta", 0, "fixpoint", 200, 1);
        sink.record("alpha", 0, "fixpoint", 50, 10);
        assert_eq!(sink.costs().len(), 4);
        let profile = sink.into_profile(400);
        // Sorted by steps desc; 50-step ties broken by (func, ctx).
        let order: Vec<(&str, u8)> = profile
            .hotspots
            .iter()
            .map(|c| (c.func.as_str(), c.ctx_class))
            .collect();
        assert_eq!(
            order,
            [("beta", 0), ("alpha", 0), ("alpha", 1), ("zeta", 0)]
        );
        assert_eq!(profile.top(2).len(), 2);
        assert_eq!(profile.top(99).len(), 4);
    }

    #[test]
    fn table_is_time_free_and_counts_hidden_buckets() {
        let mut sink = AttributionSink::new();
        sink.record("hot", 2, "fixpoint", 300, 123_456);
        sink.record("warm", 0, "fixpoint", 100, 7);
        sink.record("cold", 0, "fixpoint", 1, 7);
        let table = sink.into_profile(401).render_table(2);
        assert!(table.contains("total worklist steps: 401"));
        assert!(table.contains("hot"));
        assert!(table.contains("2+"), "deep contexts render as 2+");
        assert!(table.contains("74.8%"), "shares render to one decimal: {table}");
        assert!(!table.contains("cold"), "beyond top_n");
        assert!(table.contains("(top 2 of 3 buckets)"));
        assert!(!table.contains("123"), "wall-clock numbers never render: {table}");
    }

    #[test]
    fn empty_profile_renders_a_placeholder() {
        let table = AttributionSink::new().into_profile(0).render_table(10);
        assert!(table.contains("no attribution buckets"));
    }

    #[test]
    fn ctx_classes_clamp() {
        let mut sink = AttributionSink::new();
        sink.record("f", 9, "fixpoint", 1, 0);
        assert_eq!(sink.costs()[0].ctx_class, 2);
        assert_eq!(ctx_class_name(0), "0");
        assert_eq!(ctx_class_name(1), "1");
        assert_eq!(ctx_class_name(7), "2+");
    }
}

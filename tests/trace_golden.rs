//! Golden tests for the sigtrace observability layer: the pipeline
//! counters are *measurements with a determinism contract*, not
//! best-effort telemetry.
//!
//! Two tiers of guarantee, matching `Counter::order_independent`:
//!
//! 1. For a fixed configuration, the full counter set is bit-identical
//!    across runs (and across threads — the symbol interner is the only
//!    shared state and must not leak into counts).
//! 2. Across worklist orders (FIFO vs RPO), the phase-1 route counters
//!    legitimately differ — RPO exists to shrink them — and the
//!    state-derived counters (data-edge tallies, flow propagation) may
//!    shift by a hair, because strong updates under the recency
//!    abstraction are non-monotone and the orders can settle on
//!    slightly different sound states. The structural and
//!    signature-level counters are invariant.

use addon_sig::{Pipeline, Report};
use jsanalysis::{AnalysisConfig, WorklistOrder};
use sigtrace::{Counter, Counters, Layer, SpanCollector};

/// Runs one addon with a `SpanCollector` attached, returning the
/// collector's counter totals alongside the report.
fn traced_run(source: &str, order: WorklistOrder) -> (Counters, Report) {
    let mut spans = SpanCollector::new();
    let report = Pipeline::new()
        .config(AnalysisConfig::default().with_worklist(order))
        .tracer(&mut spans)
        .run(source)
        .expect("pipeline");
    (*spans.counters(), report)
}

/// Tier 1: for a fixed config, every counter is bit-identical across
/// runs, and the collector's totals agree with `Report::counters`.
#[test]
fn counters_are_bit_identical_across_runs() {
    for addon in corpus::addons() {
        let (first, report) = traced_run(addon.source, WorklistOrder::Rpo);
        let (second, _) = traced_run(addon.source, WorklistOrder::Rpo);
        assert_eq!(
            first, second,
            "{}: counters differ between identical runs",
            addon.name
        );
        assert_eq!(
            first, report.counters,
            "{}: collector totals diverge from Report::counters",
            addon.name
        );
    }
}

/// Tier 1, parallel edition: tracing the corpus on scoped threads gives
/// the same totals as a sequential sweep.
#[test]
fn parallel_traced_counters_match_sequential() {
    let addons = corpus::addons();
    let sequential: Vec<Counters> = addons
        .iter()
        .map(|a| traced_run(a.source, WorklistOrder::Rpo).0)
        .collect();
    let parallel: Vec<Counters> = std::thread::scope(|s| {
        let handles: Vec<_> = addons
            .iter()
            .map(|a| s.spawn(move || traced_run(a.source, WorklistOrder::Rpo).0))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced thread panicked"))
            .collect()
    });
    for ((addon, seq), par) in addons.iter().zip(&sequential).zip(&parallel) {
        assert_eq!(seq, par, "{}: parallel trace diverged", addon.name);
    }
}

/// Tier 2: the order-independent subset is identical between FIFO and
/// RPO, while the route counters actually do differ somewhere (else the
/// classification would be vacuous).
#[test]
fn order_independent_subset_matches_across_worklist_orders() {
    let mut some_route_counter_differed = false;
    for addon in corpus::addons() {
        let (rpo, _) = traced_run(addon.source, WorklistOrder::Rpo);
        let (fifo, _) = traced_run(addon.source, WorklistOrder::Fifo);
        assert_eq!(
            rpo.order_independent(),
            fifo.order_independent(),
            "{}: fixpoint-output counters differ between worklist orders",
            addon.name
        );
        if rpo.get(Counter::WorklistSteps) != fifo.get(Counter::WorklistSteps) {
            some_route_counter_differed = true;
        }
    }
    assert!(
        some_route_counter_differed,
        "route counters identical on every addon: the order-dependent \
         classification is not observing anything"
    );
}

/// The counters cross-check against the phase results they summarize.
#[test]
fn counters_agree_with_phase_results() {
    let addon = corpus::addon_by_name("LivePagerank").expect("corpus addon");
    let (counters, report) = traced_run(addon.source, WorklistOrder::Rpo);
    assert_eq!(
        counters.get(Counter::WorklistSteps),
        report.analysis.steps as u64
    );
    assert_eq!(
        counters.get(Counter::StateJoins),
        report.analysis.joins as u64
    );
    assert_eq!(
        counters.get(Counter::HeapCowClones),
        report.analysis.heap_cow_clones
    );
    // Every edge lands in exactly one base-kind tally; the amplified
    // counter marks a subset of the control edges on top of that.
    let pdg_edges: u64 = [
        Counter::PdgDataStrongEdges,
        Counter::PdgDataWeakEdges,
        Counter::PdgCtrlLocalEdges,
        Counter::PdgCtrlNonLocExpEdges,
        Counter::PdgCtrlNonLocImpEdges,
    ]
    .into_iter()
    .map(|c| counters.get(c))
    .sum();
    assert_eq!(pdg_edges, report.pdg.edge_count() as u64);
    assert!(
        counters.get(Counter::PdgCtrlAmplifiedEdges)
            <= counters.get(Counter::PdgCtrlLocalEdges)
                + counters.get(Counter::PdgCtrlNonLocExpEdges)
                + counters.get(Counter::PdgCtrlNonLocImpEdges)
    );
    assert_eq!(
        counters.get(Counter::SignatureFlows),
        report.signature.flows.len() as u64
    );
    assert!(counters.get(Counter::FlowPropSteps) > 0);
}

/// The span stream keeps stack discipline and covers all five stages
/// even through sub-spans (fixpoint, ddg, propagate).
#[test]
fn span_stream_nests_and_covers_the_stages() {
    // LivePagerank has url->send flows, so phase 3 actually propagates.
    let addon = corpus::addon_by_name("LivePagerank").expect("corpus addon");
    let mut spans = SpanCollector::new();
    Pipeline::new()
        .tracer(&mut spans)
        .run(addon.source)
        .expect("pipeline");
    // One span per layer, in pipeline order, none nested in another.
    let shape: Vec<(Layer, usize)> = spans.spans().iter().map(|s| (s.layer, s.depth)).collect();
    assert_eq!(shape, Layer::ALL.map(|l| (l, 0)));
}

//! # addon-sig
//!
//! A from-scratch Rust reproduction of *Security Signature Inference for
//! JavaScript-based Browser Addons* (Kashyap & Hardekopf, CGO 2014): a
//! static analysis that infers **security signatures** for
//! JavaScript-based browser addons.
//!
//! A signature describes (1) information flows between interesting
//! sources (current URL, key presses, cookies, ...) and interesting sinks
//! (network sends annotated with the inferred network domain, script
//! injection, ...), classified by one of eight *flow types*; and (2)
//! interesting API usage. Signatures give an addon vetter a behavioral
//! summary to compare against the addon's stated purpose instead of a
//! brittle pass/fail policy check.
//!
//! The pipeline (matching the paper's three phases):
//!
//! 1. **Base analysis** ([`jsanalysis`]): parse ([`jsparser`]) and lower
//!    ([`jsir`]) the addon, then run a flow- and context-sensitive
//!    abstract interpreter computing pointer, prefix-string
//!    ([`jsdomains::Pre`], Section 5) and control-flow information, plus
//!    per-statement read/write sets.
//! 2. **Annotated PDG** ([`jspdg`], Section 3): data-dependence edges
//!    (`datastrong`/`dataweak`) and staged control-dependence edges
//!    (`local`/`nonlocexp`/`nonlocimp`, each optionally amplified).
//! 3. **Signature inference** ([`jssig`], Section 4): per-source
//!    flow-type propagation over the PDG using the Figure 4 lattice.
//!
//! # Quick start
//!
//! ```
//! use addon_sig::analyze_addon;
//!
//! let report = analyze_addon(
//!     "var url = content.location.href;\n\
//!      var req = XHRWrapper(\"http://rank.example.com/\");\n\
//!      req.send(url);",
//! )?;
//! // The URL flows to the network with the strongest (explicit) type:
//! assert!(report.signature.to_string().contains("url --type1--> send"));
//! # Ok::<(), addon_sig::Error>(())
//! ```
//!
//! # The `Pipeline` builder
//!
//! Non-default runs go through [`Pipeline`], which owns the knobs that
//! used to be loose function parameters. Every run is measured in one
//! place: the pipeline's eight [`sigtrace::Layer`]s report spans,
//! counters and (under [`Pipeline::profile`]) cost buckets through one
//! [`sigtrace::Trace`] handle to the pipeline's recorder, which fills
//! [`Report::timings`] from the layer spans and forwards spans and
//! counters to an optional caller's [`sigtrace::Tracer`]:
//!
//! ```
//! use addon_sig::Pipeline;
//! use jsanalysis::AnalysisConfig;
//! use sigtrace::{Layer, SpanCollector};
//!
//! let mut spans = SpanCollector::new();
//! let report = Pipeline::new()
//!     .config(AnalysisConfig::default().with_context_depth(2))
//!     .tracer(&mut spans)
//!     .run("var x = 1;")?;
//! assert!(report.counters.get(sigtrace::Counter::WorklistSteps) > 0);
//! assert!(spans.spans().iter().any(|s| s.layer == Layer::Fixpoint));
//! assert!(report.timings.get(Layer::Fixpoint).is_some());
//! # Ok::<(), addon_sig::Error>(())
//! ```

#![warn(missing_docs)]

pub mod drift;

pub use corpus;
pub use jsanalysis;
pub use jsdomains;
pub use jsir;
pub use jsparser;
pub use jspdg;
pub use jssig;
pub use sigobs;
pub use sigserve;
pub use sigtrace;

use jsanalysis::{AnalysisConfig, AnalysisResult, BudgetKind};
use jsir::Lowered;
use jspdg::Pdg;
use jssig::{FlowLattice, Signature};
use sigtrace::{
    AttributionSink, Counters, JobProfile, Layer, LayerTimes, MetricsRegistry, Trace, Tracer,
};
use std::fmt;
use std::time::{Duration, Instant};

/// Errors surfaced by the pipeline.
///
/// `#[non_exhaustive]`: match with a trailing `_` arm; later versions
/// may add variants (e.g. resource classes beyond steps and time).
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// The addon failed to parse.
    Parse(jsparser::ParseError),
    /// An analysis budget tripped before the fixpoint finished, so
    /// results would be partial. `kind` says *which* limit: the
    /// interpreter's own safety valve (`max_steps`), a caller-imposed
    /// step budget, or a wall-clock deadline.
    Budget {
        /// Which limit tripped.
        kind: BudgetKind,
        /// Worklist steps executed when it tripped.
        steps: usize,
        /// Wall time spent in the fixpoint loop (zero for the safety
        /// valve, which does not run a clock).
        elapsed: Duration,
        /// The hotspot postmortem: where the exhausted budget went,
        /// when the pipeline ran with [`Pipeline::profile`] enabled.
        /// Boxed so the error stays small on the happy path.
        profile: Option<Box<JobProfile>>,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "parse error: {e}"),
            Error::Budget {
                kind,
                steps,
                elapsed,
                ..
            } => write!(
                f,
                "analysis {kind} exhausted after {steps} steps ({}µs)",
                elapsed.as_micros()
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Parse(e) => Some(e),
            Error::Budget { .. } => None,
        }
    }
}

impl From<jsparser::ParseError> for Error {
    fn from(e: jsparser::ParseError) -> Error {
        Error::Parse(e)
    }
}

/// Everything the pipeline produced, including intermediate artifacts,
/// the per-layer timings (summed into the paper's Table 2 phases), and
/// the pipeline counters (deterministic work measures; see [`sigtrace`]).
pub struct Report {
    /// The lowered program and CFG.
    pub lowered: Lowered,
    /// Base-analysis results (read/write sets, call graph, sinks, ...).
    pub analysis: AnalysisResult,
    /// The annotated program dependence graph (empty when
    /// [`Report::triaged`]).
    pub pdg: Pdg,
    /// The inferred security signature.
    pub signature: Signature,
    /// Per-layer wall times: the durations of the run's layer spans.
    /// [`LayerTimes::phase`] sums them into the paper's phases (1 =
    /// base analysis, 2 = PDG construction, 3 = signature inference).
    pub timings: LayerTimes,
    /// Pipeline work counters, collected whether or not a tracer was
    /// attached. Deterministic for a fixed source and configuration.
    pub counters: Counters,
    /// Whether triage skipped phase 2: [`AnalysisConfig::triage`] was on
    /// and phase 1 proved no flow entry can exist
    /// ([`jssig::Endpoints::flows_impossible`]). The signature is the same either
    /// way; only the PDG and its layer times are missing.
    pub triaged: bool,
    /// Per-job cost attribution (which functions and context depths ate
    /// the budget), when [`Pipeline::profile`] was enabled; `None`
    /// otherwise.
    pub profile: Option<JobProfile>,
}

/// The pipeline, assembled one knob at a time:
///
/// `Pipeline::new().config(cfg).lattice(l).tracer(&mut t).run(src)`
///
/// Each setter consumes and returns the builder. [`Pipeline::run`]
/// executes the layers in [`Layer::ALL`] order, emitting one flat span
/// per layer to the attached tracer and collecting the pipeline
/// counters and layer times either way. Under triage inference's
/// endpoint selection runs before phase 2, as a second
/// [`Layer::Infer`] span there.
#[must_use = "a Pipeline does nothing until .run(source)"]
pub struct Pipeline<'t> {
    config: AnalysisConfig,
    lattice: FlowLattice,
    trace: Trace<'t>,
    profile: bool,
}

impl Pipeline<'static> {
    /// A pipeline with the default configuration, the paper's flow-type
    /// lattice, and no tracer.
    pub fn new() -> Pipeline<'static> {
        Pipeline {
            config: AnalysisConfig::default(),
            lattice: FlowLattice::paper(),
            trace: Trace::Off,
            profile: false,
        }
    }
}

impl Default for Pipeline<'static> {
    fn default() -> Pipeline<'static> {
        Pipeline::new()
    }
}

impl<'t> Pipeline<'t> {
    /// Replaces the analysis configuration.
    pub fn config(mut self, config: AnalysisConfig) -> Pipeline<'t> {
        self.config = config;
        self
    }

    /// Replaces the flow-type lattice.
    pub fn lattice(mut self, lattice: FlowLattice) -> Pipeline<'t> {
        self.lattice = lattice;
        self
    }

    /// Attaches a tracer: every layer reports spans and counters to it.
    /// The returned builder borrows the tracer until [`Pipeline::run`].
    pub fn tracer<'u>(self, tracer: &'u mut dyn Tracer) -> Pipeline<'u> {
        Pipeline {
            config: self.config,
            lattice: self.lattice,
            trace: Trace::On(tracer),
            profile: self.profile,
        }
    }

    /// Enables per-job cost attribution: the base analysis tallies
    /// every worklist step against its owning `(function, context
    /// class)` bucket and the resulting [`JobProfile`] lands on
    /// [`Report::profile`] — or rides the [`Error::Budget`] it produced,
    /// so timeouts come with their own postmortem. Costs two clock
    /// reads per worklist step when on (gated < 5% end to end in CI),
    /// exactly one predictable branch when off.
    pub fn profile(mut self, enabled: bool) -> Pipeline<'t> {
        self.profile = enabled;
        self
    }

    /// Runs the full pipeline.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] on malformed input; [`Error::Budget`] when the
    /// safety valve, a step budget, or a deadline cut the base analysis
    /// short.
    pub fn run(self, source: &str) -> Result<Report, Error> {
        let Pipeline {
            config,
            lattice,
            trace,
            profile,
        } = self;
        let mut rec = Recorder {
            open: None,
            times: LayerTimes::default(),
            counters: Counters::new(),
            costs: profile.then(AttributionSink::new),
            user: trace,
        };

        let mut trace = Trace::On(&mut rec);
        let ast = trace.span(Layer::Parse, |_| jsparser::parse(source))?;
        let lowered = trace.span(Layer::Lower, |_| jsir::lower(&ast));
        let analysis = trace.span(Layer::Fixpoint, |t| {
            jsanalysis::analyze_traced(&lowered, &config, t)
        });

        // A budget abort carries only the layers that actually ran.
        if let Some(b) = &analysis.budget_exhausted {
            return Err(Error::Budget {
                kind: b.kind,
                steps: b.steps,
                elapsed: b.elapsed,
                profile: rec.profile(analysis.steps).map(Box::new),
            });
        }
        if analysis.hit_step_limit {
            return Err(Error::Budget {
                kind: BudgetKind::SafetyValve,
                steps: analysis.steps,
                elapsed: Duration::ZERO,
                profile: rec.profile(analysis.steps).map(Box::new),
            });
        }

        // Triage fast path: when phase 1 alone proves no flow entry can
        // exist (no reachable interesting-source read, or no reachable
        // sink), skip PDG construction — phase 3 against an empty PDG
        // produces the byte-identical flows-free signature (sinks and API
        // entries are phase-1-derived). This is what makes the daemon
        // cheap on benign-heavy traffic: phase 2 is 30–50% of a typical
        // addon's cost. Gated on `config.triage` (not done
        // unconditionally) because the skip changes verdict provenance —
        // no witnesses or PDG paths are possible — and caches hinge on
        // the knob being part of the canonical config. Triage decides from
        // the signature's endpoints, and inference reuses that one
        // selection. The selection is inference's work, so it is timed in
        // inference's layer either way: under triage that layer runs as
        // two spans, this one before phase 2 and the rest after it.
        let mut trace = Trace::On(&mut rec);
        let selected = config
            .triage
            .then(|| trace.span(Layer::Infer, |_| jssig::Endpoints::select(&analysis)));
        let triaged = selected
            .as_ref()
            .is_some_and(jssig::Endpoints::flows_impossible);
        let pdg = if triaged {
            Pdg::default()
        } else {
            Pdg::build_traced(&lowered, &analysis, &mut trace)
        };
        let signature = trace.span(Layer::Infer, |t| {
            let endpoints = selected.unwrap_or_else(|| jssig::Endpoints::select(&analysis));
            jssig::infer_signature_traced(&lowered, &analysis, &endpoints, &pdg, &lattice, t)
        });

        Ok(Report {
            timings: rec.times,
            counters: rec.counters,
            profile: rec.profile(analysis.steps),
            lowered,
            analysis,
            pdg,
            signature,
            triaged,
        })
    }
}

/// The one place a run is measured. Every layer reports through it: it
/// times the run's layer spans into [`LayerTimes`], keeps the counters
/// and — under [`Pipeline::profile`] — the attribution buckets for the
/// [`Report`], and forwards spans and counters to the caller's tracer.
/// It is only touched at layer granularity, so it costs a handful of
/// calls per addon, not per step.
struct Recorder<'a> {
    /// When the open layer span started (the layers never nest).
    open: Option<Instant>,
    times: LayerTimes,
    counters: Counters,
    costs: Option<AttributionSink>,
    user: Trace<'a>,
}

impl Recorder<'_> {
    /// Rolls the attribution buckets into the deterministic profile,
    /// with the layer times so far; `None` unless profiling.
    fn profile(&mut self, total_steps: usize) -> Option<JobProfile> {
        let mut profile = self.costs.take()?.into_profile(total_steps as u64);
        profile.layers = self.times;
        Some(profile)
    }
}

impl Tracer for Recorder<'_> {
    // The caller's hooks run outside the recorder's own clock reads, so
    // the layer times leave out the cost of the tracer the caller asked for.
    fn span_start(&mut self, layer: Layer) {
        if let Trace::On(user) = &mut self.user {
            user.span_start(layer);
        }
        self.open = Some(Instant::now());
    }

    fn span_end(&mut self, layer: Layer) {
        if let Some(start) = self.open.take() {
            self.times.add(layer, start.elapsed());
        }
        if let Trace::On(user) = &mut self.user {
            user.span_end(layer);
        }
    }

    fn add_counters(&mut self, counters: &Counters) {
        self.counters.merge(counters);
        self.user.add_counters(counters);
    }

    fn attributes_cost(&self) -> bool {
        self.costs.is_some()
    }

    fn record_cost(&mut self, func: &str, ctx_class: u8, steps: u64, time_us: u64) {
        if let Some(costs) = &mut self.costs {
            costs.record(func, ctx_class, steps, time_us);
        }
    }
}

/// Runs the full pipeline with default configuration
/// (`Pipeline::new().run(source)`).
///
/// # Errors
///
/// Returns [`Error::Parse`] on malformed input, [`Error::Budget`] if the
/// abstract interpreter could not finish within its limits.
pub fn analyze_addon(source: &str) -> Result<Report, Error> {
    Pipeline::new().run(source)
}

/// Runs the pipeline with cost attribution on and returns the
/// [`JobProfile`] — the `vet profile` entry point. The worklist order
/// is pinned to RPO regardless of what `config` asked for: per-bucket
/// step tallies are order-dependent by design (like the worklist
/// counters), and pinning makes the hotspot table deterministic across
/// FIFO/RPO configurations and thread counts, so it can be golden-tested
/// bit-identically.
///
/// Budget exhaustion is not an error here — a profile of where the
/// exhausted budget went is exactly what the caller asked for — so only
/// parse failures (and a budget trip so early the attribution sink is
/// empty alongside a missing profile) surface as `Err`.
pub fn profile_addon(source: &str, config: &AnalysisConfig) -> Result<JobProfile, Error> {
    let pinned = config.clone().with_worklist(jsanalysis::WorklistOrder::Rpo);
    match Pipeline::new().config(pinned).profile(true).run(source) {
        Ok(report) => Ok(report
            .profile
            .expect("Pipeline::profile(true) always attaches a profile")),
        Err(Error::Budget {
            profile: Some(profile),
            ..
        }) => Ok(*profile),
        Err(e) => Err(e),
    }
}

/// The full pipeline packaged for the [`sigserve`] daemon: one source,
/// one configuration, a [`sigserve::VetOutcome`], with the run's
/// pipeline counters and layer latencies folded into the daemon's
/// metrics registry. Caller-imposed budget exhaustion (step budget or
/// deadline) maps to the degraded `Timeout` outcome (the daemon answers
/// `verdict:"timeout"` and keeps its worker); the interpreter's own
/// safety valve and parse failures map to `Error`. The signature JSON is
/// exactly what `vet --json` prints, so service responses reproduce the
/// CLI's bytes.
///
/// `trace` reaches every pipeline layer: when the daemon's event log
/// runs at debug level it passes a tracer here, and every layer span
/// lands in the log tagged with the owning job's request ID. This is
/// the engine `vet serve` installs via [`sigserve::ServerBuilder::analyze`].
///
/// Each job interns into a symbol table of its own
/// ([`jsdomains::job_scope`]), freed when the job ends, so a daemon's
/// memory does not grow with the number of addons it vets.
pub fn service_engine(
    source: &str,
    config: &AnalysisConfig,
    metrics: &MetricsRegistry,
    trace: Trace<'_>,
) -> sigserve::VetOutcome {
    // SAFETY: no symbol leaves the job. The outcome holds owned data
    // only: the signature's JSON text, the layer timings, and a
    // `JobProfile` of `String`s (`sigtrace` has no `Sym`). The metrics
    // registry and the tracer take counters, times and function names.
    unsafe { jsdomains::job_scope(|| vet_job(source, config, metrics, trace)) }
}

/// [`service_engine`]'s job, inside its symbol scope.
fn vet_job(
    source: &str,
    config: &AnalysisConfig,
    metrics: &MetricsRegistry,
    trace: Trace<'_>,
) -> sigserve::VetOutcome {
    // Service runs always attribute cost (gated < 5% overhead in CI):
    // the daemon's contract is that every timeout verdict carries its
    // hotspot postmortem, and that can't be reconstructed after the fact.
    let pipeline = Pipeline::new().config(config.clone()).profile(true);
    let result = match trace {
        Trace::On(tracer) => pipeline.tracer(tracer).run(source),
        Trace::Off => pipeline.run(source),
    };
    match result {
        Ok(report) => {
            metrics.merge_counters(&report.counters);
            metrics.record_layers(&report.timings);
            if report.triaged {
                metrics.add("pipeline_triaged", 1);
            }
            sigserve::VetOutcome::report(report.signature.to_json(), report.timings)
                .with_profile(report.profile)
        }
        Err(Error::Budget {
            kind: BudgetKind::Steps | BudgetKind::Deadline,
            steps,
            elapsed,
            profile,
        }) => sigserve::VetOutcome::timeout(steps, elapsed).with_profile(profile.map(|p| *p)),
        Err(e) => sigserve::VetOutcome::error(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigtrace::{Counter, SpanCollector};

    #[test]
    fn pipeline_runs() {
        let r = analyze_addon("var x = 1;").unwrap();
        assert!(r.signature.is_empty());
        assert!(r.analysis.steps > 0);
        assert_eq!(
            r.counters.get(Counter::WorklistSteps),
            r.analysis.steps as u64,
            "report counters mirror the analysis even without a tracer"
        );
    }

    #[test]
    fn parse_errors_surface() {
        match analyze_addon("var = ;") {
            Err(Error::Parse(_)) => {}
            other => panic!("expected parse error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn error_display() {
        let e = Error::Budget {
            kind: BudgetKind::SafetyValve,
            steps: 9,
            elapsed: Duration::ZERO,
            profile: None,
        };
        assert!(e.to_string().contains("safety valve"));
        let e = Error::Budget {
            kind: BudgetKind::Steps,
            steps: 42,
            elapsed: Duration::from_micros(7),
            profile: None,
        };
        assert!(e.to_string().contains("step budget"));
        assert!(e.to_string().contains("42 steps"));
    }

    #[test]
    fn budget_exhaustion_surfaces_as_error() {
        let config = AnalysisConfig::default().with_step_budget(1);
        match Pipeline::new().config(config).run("var x = 1; var y = x;") {
            Err(Error::Budget {
                kind: BudgetKind::Steps,
                steps,
                ..
            }) => assert!(steps > 1),
            other => panic!("expected Budget, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn budget_abort_profiles_only_the_layers_that_ran() {
        let config = AnalysisConfig::default().with_step_budget(1);
        match Pipeline::new()
            .config(config)
            .profile(true)
            .run("var x = 1; var y = x;")
        {
            Err(Error::Budget {
                profile: Some(profile),
                ..
            }) => {
                let ran: Vec<Layer> = profile.layers.iter().map(|(l, _)| l).collect();
                assert_eq!(ran, [Layer::Parse, Layer::Lower, Layer::Fixpoint]);
            }
            other => panic!("expected a profiled Budget, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn tracer_sees_phase_spans_and_counters() {
        let mut spans = SpanCollector::new();
        let report = Pipeline::new()
            .tracer(&mut spans)
            .run("var u = content.location.href; var r = XHRWrapper(\"http://x.com\"); r.send(u);")
            .unwrap();
        let shape: Vec<(Layer, usize)> = spans.spans().iter().map(|s| (s.layer, s.depth)).collect();
        assert_eq!(
            shape,
            Layer::ALL.map(|l| (l, 0)),
            "one flat span per layer, in order"
        );
        // Tracer counters and Report counters are the same totals.
        assert_eq!(spans.counters(), &report.counters);
        assert!(report.counters.get(Counter::SignatureFlows) > 0);
    }

    #[test]
    fn triage_selects_endpoints_inside_the_infer_layer() {
        // Triage decides from inference's endpoint selection, which
        // then runs before phase 2: as a second inference span, not
        // between layers.
        let config = AnalysisConfig::default().with_triage(true);
        let flowing =
            "var u = content.location.href; var r = XHRWrapper(\"http://x.com\"); r.send(u);";
        let pdg = [Layer::Supergraph, Layer::Ddg, Layer::Cdg, Layer::Assemble];
        for (source, triaged) in [("var x = 1;", true), (flowing, false)] {
            let mut spans = SpanCollector::new();
            let report = Pipeline::new()
                .config(config.clone())
                .tracer(&mut spans)
                .run(source)
                .unwrap();
            assert_eq!(report.triaged, triaged);
            let mut expected = vec![Layer::Parse, Layer::Lower, Layer::Fixpoint, Layer::Infer];
            if !triaged {
                expected.extend(pdg);
            }
            expected.push(Layer::Infer);
            let shape: Vec<(Layer, usize)> =
                spans.spans().iter().map(|s| (s.layer, s.depth)).collect();
            assert_eq!(
                shape,
                expected.into_iter().map(|l| (l, 0)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn profiling_and_tracing_together_match_each_alone() {
        // What the daemon does at debug level: cost attribution plus a
        // caller's tracer on one run, for a triaged and an untriaged job.
        let config = AnalysisConfig::default().with_triage(true);
        let pipeline = || Pipeline::new().config(config.clone());
        let flowing =
            "var u = content.location.href; var r = XHRWrapper(\"http://x.com\"); r.send(u);";
        for (source, triaged) in [("var x = 1;", true), (flowing, false)] {
            let (mut both_spans, mut traced_spans) = (SpanCollector::new(), SpanCollector::new());
            let both = pipeline()
                .profile(true)
                .tracer(&mut both_spans)
                .run(source)
                .unwrap();
            let profiled = pipeline().profile(true).run(source).unwrap();
            let traced = pipeline().tracer(&mut traced_spans).run(source).unwrap();
            assert_eq!(both.triaged, triaged);

            // The profile matches profiling alone, and its layer times
            // are the Report's timings (no PDG layer when triaged).
            let (bp, pp) = (both.profile.unwrap(), profiled.profile.unwrap());
            assert_eq!(bp.render_table(10), pp.render_table(10));
            let ran = |t: &LayerTimes| t.iter().map(|(l, _)| l).collect::<Vec<_>>();
            assert_eq!(ran(&bp.layers), ran(&pp.layers));
            assert_eq!(bp.layers, both.timings);
            let pdg_layers = ran(&both.timings)
                .iter()
                .filter(|l| l.phase() == Some(2))
                .count();
            assert_eq!(pdg_layers, if triaged { 0 } else { 4 });
            assert_eq!(both.timings.phase(2) == Duration::ZERO, triaged);

            // The spans and counters match tracing alone.
            let shape = |c: &SpanCollector| {
                c.spans()
                    .iter()
                    .map(|s| (s.layer, s.depth))
                    .collect::<Vec<_>>()
            };
            assert_eq!(shape(&both_spans), shape(&traced_spans));
            assert_eq!(both_spans.counters(), traced_spans.counters());
            assert_eq!(both.counters, traced.counters);
            assert!(traced.profile.is_none());
        }
    }

    #[test]
    fn service_engine_maps_outcomes_and_feeds_metrics() {
        let default = AnalysisConfig::default();
        let metrics = MetricsRegistry::new();
        match service_engine("var x = 1;", &default, &metrics, Trace::Off) {
            sigserve::VetOutcome::Report { signature_json, .. } => {
                assert!(signature_json.starts_with('{'));
            }
            other => panic!("expected Report, got {other:?}"),
        }
        let snap = metrics.snapshot();
        assert!(
            snap.counters
                .iter()
                .any(|(name, v)| name == "pipeline_worklist_steps" && *v > 0),
            "pipeline counters folded into the registry: {snap:?}"
        );
        assert!(snap
            .histograms
            .iter()
            .any(|h| h.name == "pipeline_jsanalysis_fixpoint_us"));

        match service_engine("var = ;", &default, &metrics, Trace::Off) {
            sigserve::VetOutcome::Error { message, .. } => {
                assert!(message.contains("parse error"));
            }
            other => panic!("expected Error, got {other:?}"),
        }
        let tight = AnalysisConfig::default().with_step_budget(1);
        match service_engine("var x = 1; var y = x;", &tight, &metrics, Trace::Off) {
            sigserve::VetOutcome::Timeout { steps, .. } => assert!(steps > 1),
            other => panic!("expected Timeout, got {other:?}"),
        }
        // Untriaged runs never count as triaged.
        assert_eq!(triaged_count(&metrics), None);

        // Under triage a flow-free addon skips phase 2 and is counted; an
        // addon with a reachable source and sink runs phase 2 and is not.
        let triage = AnalysisConfig::default().with_triage(true);
        let benign = MetricsRegistry::new();
        service_engine("var x = 1;", &triage, &benign, Trace::Off);
        assert_eq!(triaged_count(&benign), Some(1));
        let flowing = MetricsRegistry::new();
        service_engine(
            "var u = content.location.href; var r = XHRWrapper(\"http://x.com\"); r.send(u);",
            &triage,
            &flowing,
            Trace::Off,
        );
        assert_eq!(triaged_count(&flowing), None);
    }

    fn triaged_count(metrics: &MetricsRegistry) -> Option<u64> {
        metrics
            .snapshot()
            .counters
            .into_iter()
            .find_map(|(name, v)| (name == "pipeline_triaged").then_some(v))
    }
}

//! Analysis and security configuration.

use std::collections::BTreeSet;
use std::fmt;

/// Kinds of interesting information sources, per Section 4 of the paper
/// ("the set of interesting sources, sinks, and APIs is given to the
/// analysis ... easily configurable if desired").
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SourceKind {
    /// The current browser URL (`content.location.href` and friends).
    Url,
    /// User key presses (event `keyCode` / `charCode`).
    Key,
    /// Geolocation coordinates.
    Geoloc,
    /// Browser cookies.
    Cookie,
    /// Browsing history.
    History,
    /// The system clipboard.
    Clipboard,
    /// Stored passwords / login manager data.
    Password,
    /// Bookmarks.
    Bookmark,
    /// Form input / selected text.
    Selection,
    /// A custom, user-configured source.
    Custom(String),
}

impl fmt::Display for SourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceKind::Url => write!(f, "url"),
            SourceKind::Key => write!(f, "key"),
            SourceKind::Geoloc => write!(f, "geoloc"),
            SourceKind::Cookie => write!(f, "cookie"),
            SourceKind::History => write!(f, "history"),
            SourceKind::Clipboard => write!(f, "clipboard"),
            SourceKind::Password => write!(f, "password"),
            SourceKind::Bookmark => write!(f, "bookmark"),
            SourceKind::Selection => write!(f, "selection"),
            SourceKind::Custom(s) => write!(f, "{s}"),
        }
    }
}

/// Kinds of interesting sinks.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SinkKind {
    /// A network send (`XMLHttpRequest`); carries the inferred network
    /// domain as a prefix-domain element in the signature.
    Send,
    /// Dynamic script injection (`Services.scriptloader.loadSubScript`).
    ScriptLoader,
    /// `eval` and other dynamic-code APIs (restricted for addons).
    Eval,
    /// Writing browser preferences.
    PrefWrite,
    /// Writing to the filesystem.
    FileWrite,
    /// A custom sink.
    Custom(String),
}

impl fmt::Display for SinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SinkKind::Send => write!(f, "send"),
            SinkKind::ScriptLoader => write!(f, "scriptloader"),
            SinkKind::Eval => write!(f, "eval"),
            SinkKind::PrefWrite => write!(f, "prefwrite"),
            SinkKind::FileWrite => write!(f, "filewrite"),
            SinkKind::Custom(s) => write!(f, "{s}"),
        }
    }
}

/// Which abstract string domain the base analysis uses. The paper's
/// contribution is [`StringDomain::Prefix`]; [`StringDomain::ConstantOnly`]
/// reproduces the "string constant analysis" baseline Section 5 argues is
/// insufficient, and exists for ablation experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StringDomain {
    /// The Section 5 prefix string domain (exact strings + prefixes).
    Prefix,
    /// Flat constants: any non-exact string degrades to unknown.
    ConstantOnly,
}

/// The order in which the interpreter's worklist revisits pending
/// `(statement, context)` nodes. Any order reaches the same fixpoint (the
/// transfer functions are monotone); the order only changes how many
/// steps it takes to get there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorklistOrder {
    /// Reverse postorder over the CFG: predecessors are processed before
    /// successors whenever possible, so each node sees a more complete
    /// input state per visit. The default.
    Rpo,
    /// First-in first-out (the naive baseline); kept for the golden
    /// order-independence test and for A/B measurements.
    Fifo,
}

/// Configuration of the base analysis.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Call-string depth for context sensitivity (JSAI-style); default 1.
    pub context_depth: usize,
    /// The abstract string domain (ablation knob; default the paper's
    /// prefix domain).
    pub string_domain: StringDomain,
    /// Safety valve: maximum worklist steps before the analysis gives up
    /// and reports partial results (never hit on the benchmark corpus).
    pub max_steps: usize,
    /// Analysis budget in worklist steps. Unlike [`AnalysisConfig::max_steps`]
    /// (a last-resort safety valve), this is a *caller-imposed* resource
    /// budget: exceeding it records [`crate::AnalysisResult::budget_exhausted`]
    /// so the service layer can turn a runaway analysis into a degraded
    /// `timeout` verdict instead of hanging a worker. `None` = unlimited.
    pub step_budget: Option<usize>,
    /// Wall-clock budget for the fixpoint loop, checked every
    /// [`DEADLINE_CHECK_INTERVAL`] steps. `None` = unlimited.
    pub deadline: Option<std::time::Duration>,
    /// Worklist scheduling order (perf knob; results are identical).
    pub worklist: WorklistOrder,
    /// Triage mode: the pipeline may stop after the base analysis when
    /// phase 1 alone proves no flow entry can exist (no reachable
    /// interesting-source read, or no reachable sink), emitting the
    /// flows-free signature directly. The emitted signature is
    /// byte-identical to what phases 2–3 would produce in that case, but
    /// the *verdict provenance* differs (no PDG, no witnesses possible),
    /// so this knob participates in [`AnalysisConfig::canonical_string`]
    /// — a triage result must never be served to a non-triage request.
    pub triage: bool,
    /// The security configuration (sources / APIs considered interesting).
    pub security: SecurityConfig,
}

/// How many worklist steps pass between wall-clock deadline probes.
/// `Instant::now()` is too expensive to call on every step; probing every
/// 256 steps bounds the overshoot to well under a millisecond of analysis
/// work while keeping the common (no-deadline) path branch-only.
pub const DEADLINE_CHECK_INTERVAL: usize = 256;

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            context_depth: 1,
            string_domain: StringDomain::Prefix,
            max_steps: 2_000_000,
            step_budget: None,
            deadline: None,
            worklist: WorklistOrder::Rpo,
            triage: false,
            security: SecurityConfig::default(),
        }
    }
}

/// Which resource limit stopped the fixpoint loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// [`AnalysisConfig::max_steps`], the analysis's own last-resort
    /// safety valve against divergence.
    SafetyValve,
    /// [`AnalysisConfig::step_budget`], a caller-imposed step budget.
    Steps,
    /// [`AnalysisConfig::deadline`], a caller-imposed wall-clock budget.
    Deadline,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetKind::SafetyValve => write!(f, "safety valve (max_steps)"),
            BudgetKind::Steps => write!(f, "step budget"),
            BudgetKind::Deadline => write!(f, "deadline"),
        }
    }
}

/// Why (and when) the fixpoint loop was aborted by its resource budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExhausted {
    /// Which limit tripped.
    pub kind: BudgetKind,
    /// Worklist steps executed when the budget tripped.
    pub steps: usize,
    /// Wall time elapsed inside the fixpoint loop at that point.
    pub elapsed: std::time::Duration,
}

impl AnalysisConfig {
    /// Replaces the call-string depth for context sensitivity.
    #[must_use]
    pub fn with_context_depth(mut self, depth: usize) -> Self {
        self.context_depth = depth;
        self
    }

    /// Replaces the abstract string domain.
    #[must_use]
    pub fn with_string_domain(mut self, domain: StringDomain) -> Self {
        self.string_domain = domain;
        self
    }

    /// Replaces the divergence safety valve ([`AnalysisConfig::max_steps`]).
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Imposes a caller step budget ([`AnalysisConfig::step_budget`]).
    #[must_use]
    pub fn with_step_budget(mut self, budget: usize) -> Self {
        self.step_budget = Some(budget);
        self
    }

    /// Imposes a wall-clock deadline ([`AnalysisConfig::deadline`]).
    #[must_use]
    pub fn with_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Replaces the worklist scheduling order.
    #[must_use]
    pub fn with_worklist(mut self, order: WorklistOrder) -> Self {
        self.worklist = order;
        self
    }

    /// Enables or disables triage mode ([`AnalysisConfig::triage`]).
    #[must_use]
    pub fn with_triage(mut self, triage: bool) -> Self {
        self.triage = triage;
        self
    }

    /// Replaces the whole security configuration.
    #[must_use]
    pub fn with_security(mut self, security: SecurityConfig) -> Self {
        self.security = security;
        self
    }

    /// Replaces the set of source kinds the vetter reports flows from.
    #[must_use]
    pub fn with_sources(mut self, sources: impl IntoIterator<Item = SourceKind>) -> Self {
        self.security.sources = sources.into_iter().collect();
        self
    }
    /// A canonical, deterministic rendering of every knob that can change
    /// what the analysis produces. The service layer hashes this together
    /// with the source bytes to form content-addressed cache keys, so two
    /// submissions agree on a cache slot exactly when they would produce
    /// the same report. `BTreeSet` fields iterate in sorted order, making
    /// the rendering independent of how the config was assembled.
    pub fn canonical_string(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        write!(
            out,
            "k={};strings={:?};max_steps={};step_budget={:?};deadline_us={:?};worklist={:?};triage={}",
            self.context_depth,
            self.string_domain,
            self.max_steps,
            self.step_budget,
            self.deadline.map(|d| d.as_micros()),
            self.worklist,
            self.triage,
        )
        .expect("writing to a String cannot fail");
        out.push_str(";sources=");
        for s in &self.security.sources {
            write!(out, "{s},").expect("writing to a String cannot fail");
        }
        out.push_str(";apis=");
        for a in &self.security.interesting_apis {
            write!(out, "{a},").expect("writing to a String cannot fail");
        }
        out
    }
}

/// Which sources and APIs the vetter cares about. Mirrors "the sources,
/// sinks, and APIs considered interesting by the Mozilla vetting team".
#[derive(Debug, Clone)]
pub struct SecurityConfig {
    /// Source kinds to report flows from.
    pub sources: BTreeSet<SourceKind>,
    /// Names of natives whose *usage* is interesting (script injection,
    /// deprecated APIs); reported as API-usage signature entries.
    pub interesting_apis: BTreeSet<String>,
}

impl Default for SecurityConfig {
    fn default() -> Self {
        let sources = [
            SourceKind::Url,
            SourceKind::Key,
            SourceKind::Geoloc,
            SourceKind::Cookie,
            SourceKind::History,
            SourceKind::Clipboard,
            SourceKind::Password,
            SourceKind::Bookmark,
        ]
        .into_iter()
        .collect();
        let interesting_apis = [
            "eval",
            "Function",
            "Services.scriptloader.loadSubScript",
            "setTimeout$string", // string-argument setTimeout = dynamic code
            "window.openDialog", // deprecated
            "escape",            // deprecated
            "unescape",          // deprecated
        ]
        .into_iter()
        .map(str::to_owned)
        .collect();
        SecurityConfig {
            sources,
            interesting_apis,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_paper_like() {
        let c = AnalysisConfig::default();
        assert_eq!(c.context_depth, 1);
        assert!(c.security.sources.contains(&SourceKind::Url));
        assert!(c.security.sources.contains(&SourceKind::Key));
        assert!(
            !c.security.sources.contains(&SourceKind::Selection),
            "selected text is not in the paper's interesting set"
        );
        assert!(c
            .security
            .interesting_apis
            .contains("Services.scriptloader.loadSubScript"));
    }

    #[test]
    fn canonical_string_is_stable_and_discriminating() {
        let a = AnalysisConfig::default();
        let b = AnalysisConfig::default();
        assert_eq!(a.canonical_string(), b.canonical_string());
        let deeper = AnalysisConfig::default().with_context_depth(2);
        assert_ne!(a.canonical_string(), deeper.canonical_string());
        let budgeted = AnalysisConfig::default().with_step_budget(100);
        assert_ne!(a.canonical_string(), budgeted.canonical_string());
        let fewer_sources = AnalysisConfig::default().with_sources([SourceKind::Url]);
        assert_ne!(a.canonical_string(), fewer_sources.canonical_string());
        // A triage result must never be served to a non-triage request.
        let triaged = AnalysisConfig::default().with_triage(true);
        assert_ne!(a.canonical_string(), triaged.canonical_string());
    }

    #[test]
    fn builder_setters_replace_each_knob() {
        let c = AnalysisConfig::default()
            .with_context_depth(3)
            .with_string_domain(StringDomain::ConstantOnly)
            .with_max_steps(10)
            .with_step_budget(5)
            .with_deadline(std::time::Duration::from_secs(1))
            .with_worklist(WorklistOrder::Fifo)
            .with_sources([SourceKind::Key]);
        assert_eq!(c.context_depth, 3);
        assert_eq!(c.string_domain, StringDomain::ConstantOnly);
        assert_eq!(c.max_steps, 10);
        assert_eq!(c.step_budget, Some(5));
        assert_eq!(c.deadline, Some(std::time::Duration::from_secs(1)));
        assert_eq!(c.worklist, WorklistOrder::Fifo);
        assert_eq!(c.security.sources, std::iter::once(SourceKind::Key).collect());
    }

    #[test]
    fn display_names() {
        assert_eq!(SourceKind::Url.to_string(), "url");
        assert_eq!(SinkKind::Send.to_string(), "send");
        assert_eq!(
            SourceKind::Custom("battery".into()).to_string(),
            "battery"
        );
    }
}

//! Comparing inferred signatures against manually-written ones
//! (Section 6.2-6.3 of the paper).
//!
//! The paper writes a manual signature per addon from its developer
//! summary, then classifies each addon as **pass** (inferred matches
//! manual), **fail** (inferred has extra flows that are false positives /
//! imprecision -- in the paper's two failures, an imprecisely-inferred
//! network domain), or **leak** (inferred has extra flows that are real).
//! Deciding whether an extra flow is real required manual inspection in
//! the paper; here ground truth is supplied by the caller (the corpus
//! records it for every benchmark addon).

use crate::flowtype::FlowType;
use crate::signature::{FlowEntry, Signature};
use jsanalysis::{SinkKind, SourceKind};
use jsdomains::Pre;
use std::fmt;

/// One entry of a manually-written signature.
#[derive(Debug, Clone, PartialEq)]
pub struct ManualEntry {
    /// Expected source.
    pub source: SourceKind,
    /// Expected sink kind.
    pub sink_kind: SinkKind,
    /// Expected network domain (a substring the inferred domain's known
    /// text must contain), or `None` for domain-less sinks.
    pub domain: Option<String>,
    /// Expected flow type.
    pub flow: FlowType,
}

impl fmt::Display for ManualEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} --{}--> {}", self.source, self.flow, self.sink_kind)?;
        if let Some(d) = &self.domain {
            write!(f, "({d})")?;
        }
        Ok(())
    }
}

/// A manually-written signature (from the addon's developer summary).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ManualSignature {
    /// Expected flow entries.
    pub entries: Vec<ManualEntry>,
    /// Sinks the addon is expected to communicate with even without an
    /// interesting source (category C addons): (sink kind, domain).
    pub plain_sinks: Vec<(SinkKind, String)>,
}

impl ManualSignature {
    /// A signature with no expected flows.
    pub fn empty() -> ManualSignature {
        ManualSignature::default()
    }
}

/// How an inferred entry relates to the manual signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchQuality {
    /// Source, sink, flow type and domain all match.
    Precise,
    /// Source, sink and flow type match but the inferred domain is too
    /// coarse to pin down the expected one (the paper's two `fail`s).
    ImpreciseDomain,
}

/// The per-addon verdict of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Inferred signature has no more flows than the manual one.
    Pass,
    /// Extra/imprecise flows that are false positives or imprecision.
    Fail,
    /// Extra flows that are real (unexpected, undocumented behavior).
    Leak,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Pass => write!(f, "pass"),
            Verdict::Fail => write!(f, "fail"),
            Verdict::Leak => write!(f, "leak"),
        }
    }
}

/// Detailed result of a comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The overall verdict.
    pub verdict: Verdict,
    /// (manual entry index, inferred entry, quality) for matched entries.
    pub matched: Vec<(usize, FlowEntry, MatchQuality)>,
    /// Inferred entries with no manual counterpart, with the ground-truth
    /// classification supplied by the caller (`true` = real flow).
    pub extra: Vec<(FlowEntry, bool)>,
    /// Inferred sink-only entries not covered by the manual signature,
    /// with ground truth (`true` = the addon really communicates there).
    pub extra_sinks: Vec<(crate::signature::SigSink, bool)>,
    /// Manual entries the analysis failed to find (would indicate
    /// unsoundness; empty on the whole corpus).
    pub missing: Vec<ManualEntry>,
}

/// True if the inferred prefix-domain element pins down the expected
/// domain: its known text must mention the expected host.
fn domain_precise(inferred: &Pre, expected: &str) -> bool {
    inferred.known_text().is_some_and(|t| t.contains(expected))
}

/// True if the inferred domain is at least *compatible* with the expected
/// one (could still denote it).
fn domain_compatible(inferred: &Pre, expected: &str) -> bool {
    match inferred {
        Pre::Bot => false,
        Pre::Exact(s) => s.contains(expected),
        Pre::Prefix(p) => {
            // A prefix is compatible if the expected domain extends it or
            // it already contains the expected host.
            p.contains(expected)
                || expected.contains(p.as_str())
                || p.is_empty()
                || expected.starts_with(p.as_str())
                // Conservative: short prefixes (scheme only) are compatible
                // with anything.
                || p.len() <= "https://".len()
        }
    }
}

/// Compares an inferred signature against the manual one. `is_real_flow`
/// supplies ground truth for inferred flow entries absent from the manual
/// signature, and `is_real_sink` for extra sink-only entries (the paper's
/// "manual inspection").
///
/// One inferred entry may cover several manual entries: a single
/// unknown-domain entry covers all three player domains of the paper's
/// VKVideoDownloader example (imprecisely, producing `fail`).
pub fn compare(
    inferred: &Signature,
    manual: &ManualSignature,
    is_real_flow: impl Fn(&FlowEntry) -> bool,
    is_real_sink: impl Fn(&crate::signature::SigSink) -> bool,
) -> Comparison {
    let mut matched: Vec<(usize, FlowEntry, MatchQuality)> = Vec::new();
    let mut extra: Vec<(FlowEntry, bool)> = Vec::new();
    let mut used_manual: Vec<bool> = vec![false; manual.entries.len()];

    for entry in &inferred.flows {
        let mut any_match = false;
        for (i, m) in manual.entries.iter().enumerate() {
            if m.source != entry.source || m.sink_kind != entry.sink.kind {
                continue;
            }
            if m.flow != entry.flow {
                continue;
            }
            let quality = match &m.domain {
                None => MatchQuality::Precise,
                Some(d) if domain_precise(&entry.sink.domain, d) => MatchQuality::Precise,
                Some(d) if domain_compatible(&entry.sink.domain, d) => {
                    MatchQuality::ImpreciseDomain
                }
                Some(_) => continue,
            };
            used_manual[i] = true;
            matched.push((i, entry.clone(), quality));
            any_match = true;
        }
        if !any_match {
            let real = is_real_flow(entry);
            extra.push((entry.clone(), real));
        }
    }

    let missing: Vec<ManualEntry> = manual
        .entries
        .iter()
        .zip(&used_manual)
        .filter(|(_, used)| !**used)
        .map(|(m, _)| m.clone())
        .collect();

    // Sink-only entries: an inferred sink is expected if compatible with a
    // manual plain sink or with the domain of any manual flow entry.
    let mut extra_sinks: Vec<(crate::signature::SigSink, bool)> = Vec::new();
    for sink in &inferred.sinks {
        let expected = manual
            .plain_sinks
            .iter()
            .any(|(k, d)| *k == sink.kind && domain_compatible(&sink.domain, d))
            || manual.entries.iter().any(|m| {
                m.sink_kind == sink.kind
                    && m.domain
                        .as_deref()
                        .is_none_or(|d| domain_compatible(&sink.domain, d))
            });
        if !expected {
            extra_sinks.push((sink.clone(), is_real_sink(sink)));
        }
    }

    let any_real_extra =
        extra.iter().any(|(_, real)| *real) || extra_sinks.iter().any(|(_, real)| *real);
    let any_false_extra =
        extra.iter().any(|(_, real)| !*real) || extra_sinks.iter().any(|(_, real)| !*real);
    let any_imprecise = matched
        .iter()
        .any(|(_, _, q)| *q == MatchQuality::ImpreciseDomain);

    let verdict = if any_real_extra {
        Verdict::Leak
    } else if any_false_extra || any_imprecise || !missing.is_empty() {
        Verdict::Fail
    } else {
        Verdict::Pass
    };

    Comparison {
        verdict,
        matched,
        extra,
        extra_sinks,
        missing,
    }
}

/// A flow identity at the granularity signatures export to JSON: the
/// `Display` forms of source, flow type, and sink kind, plus the domain
/// text (`None` for domain-less or bottom domains). Witness lines and
/// provenance paths are deliberately excluded — they shift with any
/// reformatting of the addon and are presentation, not meaning.
///
/// This is the unit of the corpus drift observatory: snapshots persist
/// signatures as JSON, so drift classification works on the string level
/// and never needs to re-parse enum values.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DriftFlow {
    /// `SourceKind` display form (`"url"`, `"keypress"`, ...).
    pub source: String,
    /// `FlowType` display form (`"type1"` ... `"type8"`).
    pub flow: String,
    /// `SinkKind` display form (`"send"`, `"inject"`, ...).
    pub sink_kind: String,
    /// Domain text as exported (`None` when the signature exported
    /// `null`).
    pub domain: Option<String>,
}

impl fmt::Display for DriftFlow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} --{}--> {}", self.source, self.flow, self.sink_kind)?;
        if let Some(d) = &self.domain {
            write!(f, "({d})")?;
        }
        Ok(())
    }
}

impl DriftFlow {
    /// The (source, sink kind, domain) endpoint identity — what must
    /// coincide for two flows to be "the same flow with a different
    /// type".
    fn endpoint(&self) -> (&str, &str, Option<&str>) {
        (&self.source, &self.sink_kind, self.domain.as_deref())
    }
}

/// A flow whose endpoints survived an analyzer change but whose flow
/// type did not — the paper's Figure 4 lattice makes these transitions
/// meaningful (e.g. a `type1` explicit flow weakening to a `type3`
/// implicit one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetypedFlow {
    /// Source display form.
    pub source: String,
    /// Sink-kind display form.
    pub sink_kind: String,
    /// Domain text, if any.
    pub domain: Option<String>,
    /// Flow type in the old snapshot.
    pub old_flow: String,
    /// Flow type in the new snapshot.
    pub new_flow: String,
}

impl fmt::Display for RetypedFlow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} --{}=>{}--> {}",
            self.source, self.old_flow, self.new_flow, self.sink_kind
        )?;
        if let Some(d) = &self.domain {
            write!(f, "({d})")?;
        }
        Ok(())
    }
}

/// Classified flow-level drift between two signature snapshots of the
/// same addon.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowDrift {
    /// Flows present only in the new snapshot.
    pub added: Vec<DriftFlow>,
    /// Flows present only in the old snapshot.
    pub removed: Vec<DriftFlow>,
    /// Flows whose endpoints persist but whose flow type changed.
    pub retyped: Vec<RetypedFlow>,
}

impl FlowDrift {
    /// True when the two snapshots carry identical flow sets.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.retyped.is_empty()
    }
}

/// Classifies the drift between two flow sets. Exact matches cancel
/// first; among the leftovers, flows sharing a (source, sink kind,
/// domain) endpoint pair up as *retyped* (a flow-type transition), and
/// whatever remains is genuinely added or removed. All output vectors
/// are sorted, so equal inputs in any order produce identical reports.
pub fn classify_flow_drift(old: &[DriftFlow], new: &[DriftFlow]) -> FlowDrift {
    let mut removed: Vec<DriftFlow> = old.to_vec();
    let mut added: Vec<DriftFlow> = Vec::new();

    // Pass 1: cancel exact matches.
    for flow in new {
        match removed.iter().position(|o| o == flow) {
            Some(i) => {
                removed.remove(i);
            }
            None => added.push(flow.clone()),
        }
    }

    // Pass 2: pair leftovers by endpoint into flow-type transitions.
    let mut retyped: Vec<RetypedFlow> = Vec::new();
    let mut still_added: Vec<DriftFlow> = Vec::new();
    for flow in added {
        match removed.iter().position(|o| o.endpoint() == flow.endpoint()) {
            Some(i) => {
                let old_flow = removed.remove(i);
                retyped.push(RetypedFlow {
                    source: flow.source,
                    sink_kind: flow.sink_kind,
                    domain: flow.domain,
                    old_flow: old_flow.flow,
                    new_flow: flow.flow,
                });
            }
            None => still_added.push(flow),
        }
    }

    let mut added = still_added;
    added.sort();
    removed.sort();
    retyped.sort_by(|a, b| {
        (&a.source, &a.sink_kind, &a.domain, &a.old_flow, &a.new_flow).cmp(&(
            &b.source,
            &b.sink_kind,
            &b.domain,
            &b.old_flow,
            &b.new_flow,
        ))
    });
    FlowDrift {
        added,
        removed,
        retyped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::SigSink;

    fn t(n: u8) -> FlowType {
        FlowType(n - 1)
    }

    fn inferred_entry(domain: Pre, flow: FlowType) -> FlowEntry {
        FlowEntry {
            source: SourceKind::Url,
            sink: SigSink {
                kind: SinkKind::Send,
                domain,
            },
            flow,
        }
    }

    fn manual_url_send(domain: &str, flow: FlowType) -> ManualSignature {
        ManualSignature {
            entries: vec![ManualEntry {
                source: SourceKind::Url,
                sink_kind: SinkKind::Send,
                domain: Some(domain.to_owned()),
                flow,
            }],
            plain_sinks: Vec::new(),
        }
    }

    #[test]
    fn exact_match_passes() {
        let mut sig = Signature::new();
        sig.add_flow(
            inferred_entry(Pre::exact("http://rank.google.com/q"), t(1)),
            None,
        );
        let c = compare(
            &sig,
            &manual_url_send("rank.google.com", t(1)),
            |_| false,
            |_| false,
        );
        assert_eq!(c.verdict, Verdict::Pass);
        assert_eq!(c.matched.len(), 1);
        assert!(c.extra.is_empty() && c.missing.is_empty());
    }

    #[test]
    fn unknown_domain_fails() {
        // The LessSpamPlease / VKVideoDownloader outcome.
        let mut sig = Signature::new();
        sig.add_flow(inferred_entry(Pre::any(), t(1)), None);
        let c = compare(
            &sig,
            &manual_url_send("lesspam.example", t(1)),
            |_| false,
            |_| false,
        );
        assert_eq!(c.verdict, Verdict::Fail);
        assert_eq!(c.matched[0].2, MatchQuality::ImpreciseDomain);
    }

    #[test]
    fn real_extra_flow_leaks() {
        // The YoutubeDownloader outcome: an undocumented real flow.
        let mut sig = Signature::new();
        sig.add_flow(
            inferred_entry(Pre::exact("http://youtube.com/get_video"), t(1)),
            None,
        );
        let manual = ManualSignature::empty();
        let c = compare(&sig, &manual, |_| true, |_| false);
        assert_eq!(c.verdict, Verdict::Leak);
        assert_eq!(c.extra.len(), 1);
        assert!(c.extra[0].1);
    }

    #[test]
    fn spurious_extra_flow_fails() {
        let mut sig = Signature::new();
        sig.add_flow(inferred_entry(Pre::exact("http://a.example/x"), t(8)), None);
        let c = compare(&sig, &ManualSignature::empty(), |_| false, |_| false);
        assert_eq!(c.verdict, Verdict::Fail);
    }

    #[test]
    fn leak_outranks_fail() {
        let mut sig = Signature::new();
        sig.add_flow(inferred_entry(Pre::exact("http://real.leak/x"), t(1)), None);
        sig.add_flow(
            inferred_entry(Pre::exact("http://noise.example/y"), t(8)),
            None,
        );
        let c = compare(
            &sig,
            &ManualSignature::empty(),
            |e| e.sink.domain.known_text().unwrap().contains("real.leak"),
            |_| false,
        );
        assert_eq!(c.verdict, Verdict::Leak);
    }

    #[test]
    fn missing_entry_reported() {
        let sig = Signature::new();
        let c = compare(
            &sig,
            &manual_url_send("x.example", t(1)),
            |_| false,
            |_| false,
        );
        assert_eq!(c.missing.len(), 1);
        assert_eq!(c.verdict, Verdict::Fail);
    }

    #[test]
    fn flow_type_mismatch_is_extra() {
        let mut sig = Signature::new();
        sig.add_flow(
            inferred_entry(Pre::exact("http://host.example/q"), t(4)),
            None,
        );
        let c = compare(
            &sig,
            &manual_url_send("host.example", t(1)),
            |_| false,
            |_| false,
        );
        assert_eq!(c.verdict, Verdict::Fail);
        assert_eq!(c.extra.len(), 1);
        assert_eq!(c.missing.len(), 1);
    }

    #[test]
    fn domain_compatibility_rules() {
        assert!(domain_precise(
            &Pre::exact("http://a.chess.com/turn"),
            "chess.com"
        ));
        assert!(!domain_precise(&Pre::any(), "chess.com"));
        assert!(domain_compatible(&Pre::any(), "chess.com"));
        assert!(domain_compatible(
            &Pre::prefix("http://chess.com/"),
            "chess.com"
        ));
        assert!(!domain_compatible(
            &Pre::exact("http://other.example/"),
            "chess.com"
        ));
        assert!(!domain_compatible(&Pre::Bot, "chess.com"));
    }

    fn df(source: &str, flow: &str, sink: &str, domain: Option<&str>) -> DriftFlow {
        DriftFlow {
            source: source.to_owned(),
            flow: flow.to_owned(),
            sink_kind: sink.to_owned(),
            domain: domain.map(str::to_owned),
        }
    }

    #[test]
    fn identical_flow_sets_report_no_drift() {
        let flows = vec![
            df("url", "type1", "send", Some("http://a.example/")),
            df("keypress", "type4", "inject", None),
        ];
        let drift = classify_flow_drift(&flows, &flows);
        assert!(drift.is_empty());
    }

    #[test]
    fn same_endpoints_different_type_is_retyped_not_add_remove() {
        let old = vec![df("url", "type1", "send", Some("http://a.example/"))];
        let new = vec![df("url", "type3", "send", Some("http://a.example/"))];
        let drift = classify_flow_drift(&old, &new);
        assert!(drift.added.is_empty() && drift.removed.is_empty());
        assert_eq!(drift.retyped.len(), 1);
        let r = &drift.retyped[0];
        assert_eq!(
            (r.old_flow.as_str(), r.new_flow.as_str()),
            ("type1", "type3")
        );
        assert_eq!(
            r.to_string(),
            "url --type1=>type3--> send(http://a.example/)"
        );
    }

    #[test]
    fn added_and_removed_flows_classify_separately() {
        let old = vec![
            df("url", "type1", "send", Some("http://kept.example/")),
            df("url", "type1", "send", Some("http://gone.example/")),
        ];
        let new = vec![
            df("url", "type1", "send", Some("http://kept.example/")),
            df("cookie", "type2", "send", Some("http://new.example/")),
        ];
        let drift = classify_flow_drift(&old, &new);
        assert_eq!(
            drift.removed,
            [df("url", "type1", "send", Some("http://gone.example/"))]
        );
        assert_eq!(
            drift.added,
            [df("cookie", "type2", "send", Some("http://new.example/"))]
        );
        assert!(drift.retyped.is_empty());
    }

    #[test]
    fn drift_report_is_order_independent() {
        let old = vec![
            df("url", "type1", "send", Some("a")),
            df("cookie", "type2", "send", Some("b")),
            df("keypress", "type4", "inject", None),
        ];
        let mut old_rev = old.clone();
        old_rev.reverse();
        let new = vec![
            df("url", "type3", "send", Some("a")), // retyped
            df("keypress", "type4", "inject", None),
        ];
        let mut new_rev = new.clone();
        new_rev.reverse();
        assert_eq!(
            classify_flow_drift(&old, &new),
            classify_flow_drift(&old_rev, &new_rev)
        );
    }

    #[test]
    fn exact_match_cancels_before_retype_pairing() {
        // One endpoint carries two flow types in both snapshots; the
        // shared (endpoint, type) pair must cancel exactly, leaving only
        // the genuine transition.
        let old = vec![
            df("url", "type1", "send", Some("a")),
            df("url", "type3", "send", Some("a")),
        ];
        let new = vec![
            df("url", "type3", "send", Some("a")),
            df("url", "type5", "send", Some("a")),
        ];
        let drift = classify_flow_drift(&old, &new);
        assert!(drift.added.is_empty() && drift.removed.is_empty());
        assert_eq!(drift.retyped.len(), 1);
        assert_eq!(
            (
                drift.retyped[0].old_flow.as_str(),
                drift.retyped[0].new_flow.as_str()
            ),
            ("type1", "type5")
        );
    }
}

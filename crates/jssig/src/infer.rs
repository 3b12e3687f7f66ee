//! Signature inference (Section 4.2): ties together source statements,
//! the annotated PDG, flow-type propagation, and sink records.

use crate::flowtype::FlowLattice;
use crate::propagate::propagate;
use crate::signature::{FlowEntry, ProvenanceStep, SigSink, Signature};
use jsanalysis::{AnalysisResult, SourceKind};
use jsir::{Lowered, StmtId};
use jspdg::Pdg;
use sigtrace::{Counter, Counters, Trace};
use std::collections::{BTreeMap, BTreeSet};

/// Whether phase 1 alone proves the signature can contain no flow
/// entries: [`Endpoints::flows_impossible`] of this analysis's endpoints.
pub fn flows_impossible(analysis: &AnalysisResult) -> bool {
    Endpoints::select(analysis).flows_impossible()
}

/// The two ends every flow entry needs, selected from a phase-1 result:
/// the reachable statements reading each interesting source kind, and
/// the reachable interesting sinks. A job selects them once; the triage
/// decision and inference both read that selection.
#[derive(Debug)]
pub struct Endpoints {
    sources: BTreeMap<SourceKind, BTreeSet<StmtId>>,
    sinks: Vec<(StmtId, SigSink)>,
}

impl Endpoints {
    /// Selects the endpoints of an analyzed addon.
    pub fn select(analysis: &AnalysisResult) -> Endpoints {
        let mut sources: BTreeMap<SourceKind, BTreeSet<StmtId>> = BTreeMap::new();
        for (stmt, kinds) in analysis.source_stmts() {
            if !analysis.reachable.contains(&stmt) {
                continue;
            }
            for k in kinds {
                if analysis.interesting_sources.contains(&k) {
                    sources.entry(k).or_default().insert(stmt);
                }
            }
        }
        let sinks = analysis
            .sinks
            .iter()
            .filter(|s| analysis.reachable.contains(&s.stmt))
            .map(|s| {
                let sink = SigSink {
                    kind: s.kind.clone(),
                    domain: s.domain,
                };
                (s.stmt, sink)
            })
            .collect();
        Endpoints { sources, sinks }
    }

    /// Whether the signature can contain no flow entries. A
    /// [`FlowEntry`] requires both a *reachable* statement reading an
    /// interesting source (to seed propagation) and a *reachable*
    /// interesting sink (to read a flow type off) — both facts the base
    /// analysis already computed. When either set is empty, phases 2–3
    /// can only produce the flows-free signature, so a triage-tier
    /// pipeline may skip PDG construction entirely and run inference
    /// against an empty PDG: the result is byte-identical to the full run
    /// by construction (sinks and API entries are phase-1-derived; see
    /// [`infer_signature`]).
    pub fn flows_impossible(&self) -> bool {
        self.sources.is_empty() || self.sinks.is_empty()
    }
}

/// Infers the security signature of an analyzed addon.
///
/// For each interesting source kind: collect the statements reading that
/// source, propagate flow types over the PDG, and read off the strongest
/// flow types at every interesting sink. API usage (including uses with
/// no interesting source flowing in) is reported as `sink`-only entries.
pub fn infer_signature(
    lowered: &Lowered,
    analysis: &AnalysisResult,
    pdg: &Pdg,
    lattice: &FlowLattice,
) -> Signature {
    let endpoints = Endpoints::select(analysis);
    infer_signature_traced(lowered, analysis, &endpoints, pdg, lattice, &mut Trace::Off)
}

/// Signature inference from endpoints already selected from `analysis`,
/// with an observability hook: `trace` receives the phase-3 counters
/// (propagation steps, flow-type raises, reported flows). The caller
/// times the whole call as the infer layer. With [`Trace::Off`] and
/// `Endpoints::select(analysis)` this is [`infer_signature`].
pub fn infer_signature_traced(
    lowered: &Lowered,
    analysis: &AnalysisResult,
    endpoints: &Endpoints,
    pdg: &Pdg,
    lattice: &FlowLattice,
    trace: &mut Trace<'_>,
) -> Signature {
    let mut sig = Signature::new();
    let mut counters = Counters::new();
    let Endpoints {
        sources: by_kind,
        sinks,
    } = endpoints;

    for (kind, sources) in by_kind {
        let flow_types = propagate(lattice, pdg, sources);
        counters.add(Counter::FlowPropSteps, flow_types.steps);
        counters.add(Counter::FlowTypeRaises, flow_types.raises);
        for (sink_stmt, sig_sink) in sinks {
            for t in flow_types.at(lattice, *sink_stmt) {
                let entry = FlowEntry {
                    source: kind.clone(),
                    sink: sig_sink.clone(),
                    flow: t,
                };
                // Witness: pick the first source statement's span.
                let witness = sources.iter().next().map(|src| {
                    (
                        lowered.program.stmt(*src).span,
                        lowered.program.stmt(*sink_stmt).span,
                    )
                });
                // Provenance: the PDG path that first established this
                // flow type at the sink. First writer wins: the path is
                // already the one for the strongest (reported) type, and
                // kinds iterate deterministically.
                if !sig.provenance.contains_key(&entry) {
                    if let Some(path) = flow_types.provenance(*sink_stmt, t) {
                        let steps = path
                            .into_iter()
                            .map(|(stmt, edge)| ProvenanceStep {
                                stmt,
                                line: lowered.program.stmt(stmt).span.line,
                                edge,
                            })
                            .collect();
                        sig.provenance.insert(entry.clone(), steps);
                    }
                }
                sig.add_flow(entry, witness);
            }
        }
    }

    // Sink-only entries: every reachable interesting sink.
    for (_, sig_sink) in sinks {
        sig.sinks.insert(sig_sink.clone());
    }

    // API usage entries.
    for (stmt, api) in &analysis.api_uses {
        if analysis.reachable.contains(stmt) {
            sig.apis.insert(api.clone());
        }
    }

    if trace.is_enabled() {
        counters.add(Counter::SignatureFlows, sig.flows.len() as u64);
        trace.add_counters(&counters);
    }
    sig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowtype::FlowType;
    use jsanalysis::{analyze, AnalysisConfig, SinkKind};

    fn infer(src: &str) -> Signature {
        let ast = jsparser::parse(src).unwrap();
        let lowered = jsir::lower(&ast);
        let analysis = analyze(&lowered, &AnalysisConfig::default());
        let pdg = Pdg::build(&lowered, &analysis);
        infer_signature(&lowered, &analysis, &pdg, &FlowLattice::paper())
    }

    fn t(n: u8) -> FlowType {
        FlowType(n - 1)
    }

    #[test]
    fn explicit_url_leak_is_type1() {
        // The paper's first Section 2 example, LivePageRank-style.
        let sig = infer(
            r#"
var url = content.location.href;
var req = new XMLHttpRequest();
req.open("GET", "http://rank.example.com/q?u=" + url);
req.send(null);
"#,
        );
        let entries: Vec<&FlowEntry> = sig.flows_to(&SinkKind::Send).collect();
        assert!(
            entries
                .iter()
                .any(|e| e.source == SourceKind::Url && e.flow == t(1)),
            "expected url --type1--> send, got:\n{sig}"
        );
        // Domain inferred as the fixed prefix.
        assert!(entries.iter().any(|e| e
            .sink
            .domain
            .known_text()
            .is_some_and(|d| d.starts_with("http://rank.example.com/q?"))));
    }

    #[test]
    fn implicit_flow_is_control_typed() {
        // The paper's second Section 2 example: branch on the URL, send a
        // constant. Information flows via control dependence only.
        let sig = infer(
            r#"
window.addEventListener("load", function check(e) {
  var seen = false;
  if (content.location.href == "sensitive.com")
    seen = true;
  var request = XHRWrapper("http://public.example.com");
  request.send(seen);
}, false);
"#,
        );
        let entries: Vec<&FlowEntry> = sig
            .flows_to(&SinkKind::Send)
            .filter(|e| e.source == SourceKind::Url)
            .collect();
        assert!(!entries.is_empty(), "implicit flow missed:\n{sig}");
        // Everything runs inside the event loop, so the flow is amplified
        // local control: type3.
        assert!(
            entries.iter().any(|e| e.flow == t(3)),
            "expected amplified local (type3), got:\n{sig}"
        );
        // No spurious strong-data flow.
        assert!(entries.iter().all(|e| e.flow != t(1)));
    }

    #[test]
    fn no_source_no_flow_entries() {
        let sig = infer(
            r#"
var req = new XMLHttpRequest();
req.open("GET", "http://static.example.com/ping");
req.send("hello");
"#,
        );
        assert!(
            sig.flows.is_empty(),
            "constant send should produce no flow entries:\n{sig}"
        );
    }

    #[test]
    fn api_usage_reported_even_without_flows() {
        let sig = infer("eval(\"1\");");
        assert!(sig.apis.contains("eval"));
    }

    #[test]
    fn unreachable_code_not_reported() {
        let sig = infer(
            r#"
function dead() {
  var u = content.location.href;
  var r = XHRWrapper("http://never.example.com");
  r.send(u);
}
"#,
        );
        // `dead` is never called nor registered: nothing to report.
        assert!(sig.flows.is_empty(), "unreachable flow reported:\n{sig}");
    }

    #[test]
    fn provenance_paths_start_at_the_source_and_end_at_the_sink() {
        let sig = infer(
            r#"
var url = content.location.href;
var req = new XMLHttpRequest();
req.open("GET", "http://rank.example.com/q?u=" + url);
req.send(null);
"#,
        );
        let entry = sig
            .flows_to(&SinkKind::Send)
            .find(|e| e.source == SourceKind::Url && e.flow == t(1))
            .cloned()
            .expect("url --type1--> send inferred");
        let path = sig.provenance.get(&entry).expect("flow has provenance");
        assert!(
            path.len() >= 2,
            "a flow path spans at least source and sink"
        );
        let first = path.first().unwrap();
        let last = path.last().unwrap();
        assert_eq!(first.line, 2, "path starts at the source read");
        assert!(first.edge.is_some(), "inner steps carry edge annotations");
        assert!(last.edge.is_none(), "the sink ends the path");
        assert!(
            path.iter().take(path.len() - 1).all(|s| s.edge.is_some()),
            "every non-final step records its outgoing edge"
        );
    }

    #[test]
    fn witnesses_point_at_source_lines() {
        let sig = infer(
            r#"
var u = content.location.href;
var req = XHRWrapper("http://x.example.com");
req.send(u);
"#,
        );
        let entry = sig
            .flows_to(&SinkKind::Send)
            .find(|e| e.source == SourceKind::Url)
            .cloned()
            .expect("flow inferred");
        let ws = &sig.witnesses[&entry];
        assert!(!ws.is_empty());
        let (src_span, sink_span) = ws[0];
        assert_eq!(src_span.line, 2);
        assert_eq!(sink_span.line, 4);
    }
}

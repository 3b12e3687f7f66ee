//! The traced run's layering, recorded from outside the program: spans
//! around each public layer function the pipeline and the daemon's
//! request path are made of, kept in memory and written out as a Chrome
//! trace when the run ends.
//!
//! Every workload's traced run replays its own inputs through both: the
//! sources through the pipeline's layer functions ([`trace_pipeline`])
//! and their `vet` request lines through the daemon's request path
//! ([`trace_requests`]), so every layer is measured on every workload.

use crate::inputs::Input;
use crate::metrics::Outcome;
use crate::oracle::Oracle;
use crate::stats::{percentile, sorted};
use crate::sys::peak_growth_mb;
use jsanalysis::AnalysisConfig;
use jspdg::{Annotation, CtrlDep, DataDep, Pdg, SuperGraph};
use jssig::{FlowLattice, Signature};
use minijson::Json;
use sigserve::{cache_key, parse_request, Request, SigCache, Source};
use std::collections::BTreeMap;
use std::time::Instant;

/// The root span of one vetting; its self time is what no layer covers.
pub const VET: &str = "pipeline.vet";
/// The pipeline's layers in call order, named `<crate>.<stage>`, with
/// the metrics of their mean self time per vetting and share of it.
const LAYERS: [(&str, &str, &str); 8] = [
    (
        "jsparser.parse",
        "jsparser.parse.ms",
        "jsparser.parse.share",
    ),
    ("jsir.lower", "jsir.lower.ms", "jsir.lower.share"),
    (
        "jsanalysis.fixpoint",
        "jsanalysis.fixpoint.ms",
        "jsanalysis.fixpoint.share",
    ),
    (
        "jspdg.supergraph",
        "jspdg.supergraph.ms",
        "jspdg.supergraph.share",
    ),
    ("jspdg.ddg", "jspdg.ddg.ms", "jspdg.ddg.share"),
    ("jspdg.cdg", "jspdg.cdg.ms", "jspdg.cdg.share"),
    (
        "jspdg.assemble",
        "jspdg.assemble.ms",
        "jspdg.assemble.share",
    ),
    ("jssig.infer", "jssig.infer.ms", "jssig.infer.share"),
];

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Which workload input the span worked on.
    pub input: usize,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, input: usize) -> usize {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            input,
        });
        self.open.push(idx);
        idx
    }

    pub fn end(&mut self, idx: usize) {
        let popped = self.open.pop();
        assert_eq!(popped, Some(idx), "spans close in stack order");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// A span with no children around `f`.
    pub fn leaf<T>(&mut self, name: &'static str, input: usize, f: impl FnOnce() -> T) -> T {
        let idx = self.begin(name, input);
        let out = f();
        self.end(idx);
        out
    }

    /// Durations of the spans named `name`, µs, in recording order.
    pub fn durations_us<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
    }

    pub fn chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut args = Json::obj();
                args.set("input", Json::from(s.input as f64));
                args.set(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::from(p as f64)),
                );
                let mut e = Json::obj();
                e.set("name", Json::from(s.name));
                e.set("ph", Json::from("X"));
                e.set("ts", Json::from(s.start_ns as f64 / 1e3));
                e.set("dur", Json::from((s.end_ns - s.start_ns) as f64 / 1e3));
                e.set("pid", Json::from(1u32));
                e.set("tid", Json::from(1u32));
                e.set("args", args);
                e
            })
            .collect();
        let mut doc = Json::obj();
        doc.set("traceEvents", Json::Arr(events));
        doc.set("displayTimeUnit", Json::from("ms"));
        doc
    }
}

/// Each span's self time: its duration minus the part of it that its
/// children's intervals cover (overlapping children count once).
fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut kids = children.remove(&i).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-layer counts of one traced vetting.
struct VetCounts {
    bytes: usize,
    ast_nodes: usize,
    steps: usize,
    joins: usize,
    reachable: usize,
    ddg_edges: usize,
    cdg_edges: usize,
    flows: usize,
}

/// Vets `source` by calling the pipeline's public layer functions in
/// the order `addon_sig::analyze_addon` does, one span each under a
/// `pipeline.vet` root, with the PDG assembled through `Pdg::add` in the
/// facade's edge order. The signature must be byte-equal to the
/// facade's, which is what shows the layering is faithful.
fn vet_traced(
    tr: &mut Tracer,
    input: usize,
    source: &str,
) -> Result<(Signature, VetCounts), String> {
    let config = AnalysisConfig::default();
    let lattice = FlowLattice::paper();
    let [parse, lower, fixpoint, supergraph, ddg_layer, cdg_layer, assemble, infer] =
        LAYERS.map(|(span, _, _)| span);
    let root = tr.begin(VET, input);
    let parsed = tr.leaf(parse, input, || jsparser::parse(source));
    let ast = match parsed {
        Ok(ast) => ast,
        Err(e) => {
            tr.end(root);
            return Err(format!("parse error: {e}"));
        }
    };
    let lowered = tr.leaf(lower, input, || jsir::lower(&ast));
    let analysis = tr.leaf(fixpoint, input, || jsanalysis::analyze(&lowered, &config));
    if analysis.hit_step_limit || analysis.budget_exhausted.is_some() {
        tr.end(root);
        return Err(format!(
            "analysis budget exhausted after {} steps",
            analysis.steps
        ));
    }
    let sg = tr.leaf(supergraph, input, || SuperGraph::build(&lowered, &analysis));
    let ddg = tr.leaf(ddg_layer, input, || jspdg::build_ddg(&sg, &analysis));
    let cdg = tr.leaf(cdg_layer, input, || {
        jspdg::build_cdg(&lowered, &analysis, &sg)
    });
    let (ddg_edges, cdg_edges) = (ddg.len(), cdg.len());
    let pdg = tr.leaf(assemble, input, || {
        drop(sg);
        let mut pdg = Pdg::default();
        for DataDep { from, to, strong } in ddg {
            let ann = if strong {
                Annotation::DataStrong
            } else {
                Annotation::DataWeak
            };
            pdg.add(from, to, ann);
        }
        for dep in cdg {
            let CtrlDep { from, to, .. } = dep;
            pdg.add(from, to, dep.annotation());
        }
        pdg
    });
    let sig = tr.leaf(infer, input, || {
        jssig::infer_signature(&lowered, &analysis, &pdg, &lattice)
    });
    tr.end(root);
    let counts = VetCounts {
        bytes: source.len(),
        ast_nodes: jsparser::count_nodes(&ast),
        steps: analysis.steps,
        joins: analysis.joins,
        reachable: analysis.reachable.len(),
        ddg_edges,
        cdg_edges,
        flows: sig.flows.len(),
    };
    Ok((sig, counts))
}

/// Vets the inputs of each pass twice in a row, once through the facade
/// `addon_sig::analyze_addon` and once through the layer functions under
/// spans, until a pass ends after `deadline`. Both signatures are
/// checked: the facade's against the input's reference, the traced one
/// byte for byte against the facade's, which shows the layering is
/// faithful. Records the pipeline's per-layer metrics, the tracing
/// overhead (traced over facade vet p50, from vettings of the same
/// inputs at the same moments) and the memory peaks of the first pass's
/// inputs, and returns the daemon's cache core of each input vetted.
pub fn trace_pipeline(
    out: &mut Outcome,
    tr: &mut Tracer,
    inputs: &[Input],
    passes: impl Iterator<Item = Vec<usize>>,
    deadline: Instant,
) -> BTreeMap<usize, Json> {
    let oracle = Oracle::new();
    let mut facade_ms = Vec::new();
    let mut counts = Vec::new();
    let mut cores = BTreeMap::new();
    let mut first_pass = None;
    for pass in passes {
        first_pass.get_or_insert_with(|| pass.clone());
        for i in pass {
            let input = &inputs[i];
            let t0 = Instant::now();
            let report = addon_sig::analyze_addon(&input.source);
            facade_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let vetted = report.map_err(|e| e.to_string()).and_then(|report| {
                oracle.check(&report.signature, &input.expect)?;
                let bytes = report.signature.to_json();
                let (sig, c) = vet_traced(tr, i, &input.source)?;
                if sig.to_json() != bytes {
                    return Err("traced signature differs from the facade's".to_owned());
                }
                counts.push(c);
                cores.entry(i).or_insert_with(|| {
                    sigserve::VetOutcome::report(bytes, report.timings).core_json()
                });
                Ok(())
            });
            out.check(vetted.map_err(|e| format!("{}: {e}", input.name)));
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    record_layers(out, &tr.spans, &counts);
    let traced_ms = sorted(tr.durations_us(VET).map(|us| us / 1e3).collect());
    if !traced_ms.is_empty() && !facade_ms.is_empty() {
        let traced_p50 = percentile(&traced_ms, 0.5);
        let facade_p50 = percentile(&sorted(facade_ms), 0.5);
        out.set(
            "pipeline.trace_overhead_pct",
            (traced_p50 / facade_p50 - 1.0) * 100.0,
        );
        out.note("facade_vet_ms_p50", Json::from(facade_p50));
        out.note("traced_vet_ms_p50", Json::from(traced_p50));
    }
    let first_pass = first_pass.unwrap_or_default();
    record_peak_growth(out, first_pass.iter().map(|&i| inputs[i].source.as_str()));
    cores
}

/// The root span of one replayed request.
pub const REQUEST: &str = "sigserve.request";
/// The daemon's request-path layers, with the metric of each one's
/// median time.
const REQUEST_LAYERS: [(&str, &str); 5] = [
    ("sigserve.decode", "sigserve.decode.us_p50"),
    ("sigserve.cache_key", "sigserve.cache_key.us_p50"),
    ("sigserve.cache_get", "sigserve.cache_get.us_p50"),
    ("sigserve.cache_insert", "sigserve.cache_insert.us_p50"),
    ("sigserve.encode", "sigserve.encode.us_p50"),
];

/// Replays `requests` (indices into `lines`, at least one) in-process
/// through the daemon's public request path, one span each: decode,
/// cache key, lookup, on a miss the insert of the input's core, and the
/// response encoding. Records each layer's median time, the decode and
/// key throughputs and the mean request and response sizes.
pub fn trace_requests(
    out: &mut Outcome,
    tr: &mut Tracer,
    lines: &[Vec<u8>],
    cores: &BTreeMap<usize, Json>,
    requests: impl Iterator<Item = usize>,
) -> Result<(), String> {
    let [decode, key_layer, get, insert, encode] = REQUEST_LAYERS.map(|(span, _)| span);
    let canon = AnalysisConfig::default().canonical_string();
    let mut cache = SigCache::new(sigserve::ServeConfig::default().cache_cap);
    let (mut line_bytes, mut source_bytes, mut resp_bytes, mut n) = (0, 0, 0, 0);
    for item in requests {
        let text = std::str::from_utf8(&lines[item]).map_err(|e| e.to_string())?;
        let root = tr.begin(REQUEST, item);
        let request = tr.leaf(decode, item, || parse_request(text));
        let Ok(Request::Vet(sigserve::VetItem {
            name,
            source: Source::Inline(source),
        })) = request
        else {
            tr.end(root);
            return Err(format!("request {item} did not decode as an inline vet"));
        };
        let key = tr.leaf(key_layer, item, || cache_key(&source, &canon));
        let found = tr.leaf(get, item, || cache.get(key));
        let hit = found.is_some();
        let core = match found {
            Some((core, _)) => core,
            None => {
                let Some(core) = cores.get(&item) else {
                    tr.end(root);
                    return Err(format!("request {item} has no vetted core"));
                };
                tr.leaf(insert, item, || cache.insert(key, core.clone(), "j-0"));
                core.clone()
            }
        };
        let resp = tr.leaf(encode, item, || {
            sigserve::protocol::vet_response(&core, name.as_deref(), Some("j-0"), hit, 0)
                .to_string_compact()
        });
        tr.end(root);
        line_bytes += lines[item].len();
        source_bytes += source.len();
        resp_bytes += resp.len() + 1;
        n += 1;
    }
    if n == 0 {
        return Err("no request to replay".to_owned());
    }
    for (span, metric) in REQUEST_LAYERS {
        let us = sorted(tr.durations_us(span).collect());
        if !us.is_empty() {
            out.set(metric, percentile(&us, 0.5));
        }
    }
    let total_s = |span: &str| tr.durations_us(span).sum::<f64>() / 1e6;
    out.set(
        "sigserve.decode.mb_per_s",
        line_bytes as f64 / 1e6 / total_s(decode),
    );
    out.set(
        "sigserve.cache_key.mb_per_s",
        source_bytes as f64 / 1e6 / total_s(key_layer),
    );
    out.set(
        "sigserve.request_kb.mean",
        line_bytes as f64 / n as f64 / 1e3,
    );
    out.set(
        "sigserve.response_kb.mean",
        resp_bytes as f64 / n as f64 / 1e3,
    );
    Ok(())
}

/// The largest heap growth over `sources` while the fixpoint and the
/// DDG run, measured in untimed vettings of their own so that counting
/// allocations slows no timed span.
fn record_peak_growth<'a>(out: &mut Outcome, sources: impl Iterator<Item = &'a str>) {
    let config = AnalysisConfig::default();
    let (mut fixpoint_mb, mut ddg_mb) = (0.0f64, 0.0f64);
    for source in sources {
        let Ok(ast) = jsparser::parse(source) else {
            continue;
        };
        let lowered = jsir::lower(&ast);
        let (analysis, mb) = peak_growth_mb(|| jsanalysis::analyze(&lowered, &config));
        fixpoint_mb = fixpoint_mb.max(mb);
        let sg = SuperGraph::build(&lowered, &analysis);
        let (_, mb) = peak_growth_mb(|| jspdg::build_ddg(&sg, &analysis));
        ddg_mb = ddg_mb.max(mb);
    }
    out.set("jsanalysis.fixpoint.peak_growth_mb", fixpoint_mb);
    out.set("jspdg.ddg.peak_growth_mb", ddg_mb);
}

/// Folds the spans and counts of traced vettings into the pipeline's
/// per-layer metrics: mean self time per vetting, share of the summed
/// `pipeline.vet` time, and mean work counts.
fn record_layers(out: &mut Outcome, spans: &[Span], counts: &[VetCounts]) {
    let mut self_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut vet_ns, mut vets) = (0u64, 0usize);
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *self_ns.entry(s.name).or_default() += ns;
        if s.name == VET {
            vet_ns += s.end_ns - s.start_ns;
            vets += 1;
        }
    }
    if vets == 0 || counts.is_empty() {
        return;
    }
    let ns = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64;
    for (span, ms, share) in LAYERS {
        out.set(ms, ns(span) / vets as f64 / 1e6);
        out.set(share, ns(span) / vet_ns as f64);
    }
    out.set("pipeline.unattributed_share", ns(VET) / vet_ns as f64);
    let sum = |f: fn(&VetCounts) -> usize| counts.iter().map(f).sum::<usize>() as f64;
    let mean = |f: fn(&VetCounts) -> usize| sum(f) / counts.len() as f64;
    out.set("jsparser.ast_nodes", mean(|c| c.ast_nodes));
    out.set(
        "jsparser.parse.mb_per_s",
        sum(|c| c.bytes) / 1e6 / (ns(LAYERS[0].0) / 1e9),
    );
    out.set("jsanalysis.steps", mean(|c| c.steps));
    out.set("jsanalysis.joins", mean(|c| c.joins));
    out.set("jsanalysis.reachable_stmts", mean(|c| c.reachable));
    out.set(
        "jsanalysis.steps_per_reachable",
        sum(|c| c.steps) / sum(|c| c.reachable),
    );
    out.set("jspdg.ddg.edges", mean(|c| c.ddg_edges));
    out.set("jspdg.cdg.edges", mean(|c| c.cdg_edges));
    out.set("jssig.flows", mean(|c| c.flows));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            input: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(30, 60, Some(0)),
            span(35, 40, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(40, 70, Some(0)),
            span(90, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_nests_and_times_spans() {
        let mut tr = Tracer::new();
        let root = tr.begin(VET, 3);
        tr.leaf(LAYERS[0].0, 3, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.end(root);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert!(tr.spans[1].end_ns - tr.spans[1].start_ns >= 2_000_000);
        let selfs = self_times_ns(&tr.spans);
        assert!(selfs[0] < selfs[1], "the root's self time is its gaps");
        assert_eq!(
            tr.chrome_json()["traceEvents"][1]["args"]["parent"].as_f64(),
            Some(0.0)
        );
    }
}

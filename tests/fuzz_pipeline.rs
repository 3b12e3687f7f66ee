//! Property tests over the whole pipeline: a small random-program
//! generator produces syntactically valid addon code, and the pipeline
//! must analyze every generated program without panicking, within the
//! step budget, and with internally consistent results.
//!
//! Gated behind the `fuzz` feature (run with
//! `cargo test --features fuzz`): the suite is deterministic (seeded
//! minicheck streams) but heavier than the rest of tier-1.

#![cfg(feature = "fuzz")]

#[path = "support/analysis_text.rs"]
mod analysis_text;
#[path = "support/dense_ddg.rs"]
mod dense_ddg;
#[path = "support/full_cdg.rs"]
mod full_cdg;

use minicheck::Gen;

/// A tiny generator of valid JavaScript programs in the analyzed subset.
/// Grows statements from templates over a fixed identifier pool so that
/// programs are closed and interesting (conditionals, loops, closures,
/// property traffic, event handlers, XHR use).
fn arb_expr(g: &mut Gen) -> String {
    g.pick(&[
        "1",
        "\"lit\"",
        "a",
        "b + 1",
        "o.p",
        "o[k]",
        "content.location.href",
        "helper(a)",
        "Math.random()",
        "a + \"suffix\"",
        "typeof a",
        "{ p: a, q: 2 }",
        "[a, b, 3]",
    ])
    .to_string()
}

fn arb_stmt(g: &mut Gen) -> String {
    let e = arb_expr(g);
    match g.below(12) {
        0 => format!("var x{} = {e};", e.len() % 7),
        1 => format!("a = {e};"),
        2 => format!("o.p = {e};"),
        3 => format!("o[k] = {e};"),
        4 => format!("use({e});"),
        5 => format!("if ({e}) {{ a = 1; }} else {{ b = 2; }}"),
        6 => format!("while (Math.random() < 0.5) {{ a = {e}; }}"),
        7 => format!("for (var i = 0; i < 3; i++) {{ if (i == 1) continue; b = {e}; }}"),
        8 => format!("try {{ o.p = {e}; }} catch (err) {{ b = err; }}"),
        9 => format!("switch ({e}) {{ case 1: a = 1; break; default: b = 2; }}"),
        10 => "for (var key in o) { use(o[key]); }".to_owned(),
        _ => format!("setTimeout(function () {{ a = {e}; }}, 100);"),
    }
}

fn arb_program(g: &mut Gen) -> String {
    let mut src = String::from(
        "var a = 0; var b = 0; var k = \"p\"; var o = { p: 1, q: 2 };\n\
         function use(v) { return v; }\n",
    );
    if g.bool() {
        src.push_str("function helper(v) { if (v) { return v; } return \"none\"; }\n");
    } else {
        src.push_str("var helper = function (v) { return use(v); };\n");
    }
    let with_xhr = g.bool();
    if with_xhr {
        src.push_str(
            "var req = new XMLHttpRequest();\n\
             req.open(\"GET\", \"http://fuzz.example.com/api?x=\" + a);\n\
             req.send(null);\n",
        );
    }
    for _ in 0..1 + g.below(9) {
        src.push_str(&arb_stmt(g));
        src.push('\n');
    }
    src
}

#[test]
fn pipeline_total_on_generated_programs() {
    minicheck::check("pipeline_total_on_generated_programs", 48, |g| {
        let src = arb_program(g);
        let report = addon_sig::analyze_addon(&src)
            .unwrap_or_else(|e| panic!("pipeline failed: {e}\nprogram:\n{src}"));
        // Generated programs nest far below the parser's limit: inside
        // 400 more levels of functions, they still parse.
        let levels = 400;
        let deep = format!(
            "{}{src}{}",
            "function w() {".repeat(levels),
            "}".repeat(levels)
        );
        assert!(jsparser::MAX_NESTING >= levels + 100);
        assert!(
            jsparser::parse(&deep).is_ok(),
            "program nests near the limit:\n{src}"
        );

        // Internal consistency: every PDG edge endpoint is a valid
        // statement, annotations render, the signature prints.
        let nstmts = report.lowered.program.stmt_count() as u32;
        for e in report.pdg.edges() {
            assert!(e.from.0 < nstmts);
            assert!(e.to.0 < nstmts);
            let _ = e.ann.to_string();
        }
        let _ = report.signature.to_string();
        let _ = report.signature.to_json();

        // Read/write sets only mention reachable statements... (they may
        // also mention call-result attribution nodes; all must be valid.)
        for stmt in report.analysis.rw.keys() {
            assert!(stmt.0 < nstmts);
        }

        // The XHR block, when present, must yield a send sink with the
        // fuzz domain prefix.
        if src.contains("fuzz.example.com") {
            let found = report.analysis.sinks.iter().any(|s| {
                s.domain
                    .known_text()
                    .is_some_and(|t| t.starts_with("http://fuzz.example.com"))
            });
            assert!(found, "expected fuzz sink in:\n{src}");
        }

        // Triage never changes a signature, and skips phase 2 exactly
        // where phase 1 proves no flow can exist.
        let triaged = addon_sig::Pipeline::new()
            .config(jsanalysis::AnalysisConfig::default().with_triage(true))
            .run(&src)
            .unwrap_or_else(|e| panic!("triage pipeline failed: {e}\nprogram:\n{src}"));
        assert_eq!(
            triaged.signature.to_json(),
            report.signature.to_json(),
            "triage changed the signature of:\n{src}"
        );
        assert_eq!(triaged.triaged, jssig::flows_impossible(&triaged.analysis));
    });
}

/// Generated programs whose base-analysis results the committed golden
/// pins as two digests.
const GOLDEN_PROGRAMS: u64 = 300;

/// The one scalar of a result that counts the heap's work rather than
/// records a decision of the analysis. A change to how the heap stores
/// states may move it alone, so it has a digest of its own.
const COW_CLONES: &str = "heap_cow_clones";

/// The base analysis of generated programs, under both worklist orders,
/// renders to the digests committed in `tests/golden/analysis.json`
/// (whose other inputs `tests/analysis_golden.rs` checks): one over every
/// field and counter but `heap_cow_clones`, and one over that counter.
/// On a mismatch the `fuzz` section this build would commit is written
/// next to the test binary's temporary files.
#[test]
fn analysis_of_generated_programs_matches_the_committed_golden() {
    use jsanalysis::{AnalysisConfig, WorklistOrder};
    use minijson::Json;
    let (mut decisions, mut cow_clones) = (Vec::new(), Vec::new());
    for case in 0..GOLDEN_PROGRAMS {
        let src = arb_program(&mut Gen::new(case));
        let ast = jsparser::parse(&src).unwrap_or_else(|e| panic!("{e}\nprogram:\n{src}"));
        let lowered = jsir::lower(&ast);
        for order in [WorklistOrder::Rpo, WorklistOrder::Fifo] {
            let config = AnalysisConfig::default().with_worklist(order);
            let result = jsanalysis::analyze(&lowered, &config);
            decisions.push(analysis_text::render(&result, &[COW_CLONES]));
            cow_clones.push(result.heap_cow_clones.to_string());
        }
    }
    let mut seen = Json::obj();
    seen.set("programs", Json::from(GOLDEN_PROGRAMS as f64));
    seen.set(
        "decisions_fnv1a",
        Json::from(analysis_text::digest(&decisions)),
    );
    seen.set(
        "heap_cow_clones_fnv1a",
        Json::from(analysis_text::digest(&cow_clones)),
    );

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/analysis.json");
    let golden = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .unwrap_or_else(Json::obj);
    let pinned = &golden["fuzz"];
    if pinned == &seen {
        return;
    }
    let differing: Vec<&str> = ["programs", "decisions_fnv1a", "heap_cow_clones_fnv1a"]
        .into_iter()
        .filter(|k| pinned[*k] != seen[*k])
        .collect();
    let mut doc = Json::obj();
    doc.set("fuzz", seen);
    let out = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("analysis.fuzz.seen.json");
    std::fs::write(&out, doc.to_string_pretty() + "\n")
        .unwrap_or_else(|e| panic!("{}: {e}", out.display()));
    panic!(
        "generated programs' analysis differs from {} in {}; the `fuzz` section this build would commit is in {}; it replaces that section alone",
        path.display(),
        differing.join(", "),
        out.display()
    );
}

/// The sparse DDG is exactly the dense oracle's on generated programs,
/// whose loops, handlers, `try` and computed properties exercise kills,
/// taints and overlapping reads that the corpus may not.
#[test]
fn sparse_ddg_matches_the_dense_oracle_on_generated_programs() {
    minicheck::check("sparse_ddg_matches_the_dense_oracle", 300, |g| {
        let src = arb_program(g);
        let report = addon_sig::analyze_addon(&src)
            .unwrap_or_else(|e| panic!("pipeline failed: {e}\nprogram:\n{src}"));
        let sg = jspdg::SuperGraph::build(&report.lowered, &report.analysis);
        assert_eq!(
            jspdg::build_ddg(&sg, &report.analysis),
            dense_ddg::build_ddg(&sg, &report.analysis),
            "sparse and dense DDGs differ on:\n{src}"
        );
    });
}

/// The per-function CDG is exactly the ordered-map oracle's on generated
/// programs, whose loops, `try`, implicit throws, returns and handlers
/// exercise every stage and the trapped-region rule.
#[test]
fn cdg_matches_the_full_oracle_on_generated_programs() {
    minicheck::check("cdg_matches_the_full_oracle", 300, |g| {
        let src = arb_program(g);
        let report = addon_sig::analyze_addon(&src)
            .unwrap_or_else(|e| panic!("pipeline failed: {e}\nprogram:\n{src}"));
        let sg = jspdg::SuperGraph::build(&report.lowered, &report.analysis);
        assert_eq!(
            jspdg::build_cdg(&report.lowered, &report.analysis, &sg),
            full_cdg::build_cdg(&report.lowered, &report.analysis, &sg),
            "build_cdg and the full oracle differ on:\n{src}"
        );
    });
}

/// Arbitrary (often non-UTF8-boundary-hostile, control-char-laden) text
/// for the lexer/parser totality checks.
fn arb_soup(g: &mut Gen) -> String {
    let len = g.below(60);
    (0..len)
        .map(|_| {
            // Mix printable ASCII, whitespace, and arbitrary unicode.
            match g.below(4) {
                0 => char::from_u32(0x20 + g.below(0x5f) as u32).unwrap(),
                1 => *g.pick(&['\n', '\t', '\r', ' ']),
                2 => char::from_u32(g.below(0xd7ff) as u32).unwrap_or('\u{fffd}'),
                _ => *g.pick(&['"', '\\', '{', '}', '(', ')', ';', '/', '*']),
            }
        })
        .collect()
}

#[test]
fn lexer_never_panics() {
    minicheck::check("lexer_never_panics", 256, |g| {
        let _ = jsparser::lex(&arb_soup(g));
    });
}

#[test]
fn parser_never_panics() {
    minicheck::check("parser_never_panics", 256, |g| {
        let _ = jsparser::parse(&arb_soup(g));
    });
}

#[test]
fn parser_total_on_token_soup() {
    const TOKENS: &[&str] = &[
        "var", "x", "=", "1", ";", "{", "}", "(", ")", "if", "else", "function", "+", "return",
        "while", "for", "try", "catch", "\"s\"", ",", ".", "o", "[", "]", "throw", "new", "!",
        "==",
    ];
    minicheck::check("parser_total_on_token_soup", 256, |g| {
        let n = g.below(40);
        let src = (0..n)
            .map(|_| *g.pick(TOKENS))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = jsparser::parse(&src);
    });
}

//! A committed golden for what the base analysis hands to phases 2 and 3:
//! every `AnalysisResult` field on the signature golden's 22 inputs, each
//! under both worklist orders.
//!
//! Per input and order it pins the run's counters (`steps`, `joins`,
//! `heap_cow_clones`) and flags, and for each field — the read/write sets
//! with their strengths, `may_throw`, `call_targets`, `sinks`,
//! `api_uses`, `source_locs`, `cyclic_stmts`, `reachable` and
//! `site_aliases` — its entry count and the FNV-1a digest of its
//! canonical text (`tests/support/analysis_text.rs`). The fuzz suite pins
//! one more digest in the same file, over generated programs.
//!
//! A change to the interpreter's heap or symbol handling must leave this
//! file passing unchanged; a heap-representation change may move
//! `heap_cow_clones` alone. On a mismatch the test names the input, order
//! and field, writes this build's full rendering of each differing input
//! under the target's temporary directory, and writes the `inputs`
//! section this build would commit next to it (the fuzz suite writes the
//! `fuzz` section to a file of its own).

#[path = "support/analysis_text.rs"]
mod analysis_text;
#[path = "support/golden_inputs.rs"]
mod golden_inputs;

use jsanalysis::{AnalysisConfig, AnalysisResult, WorklistOrder};
use minijson::Json;
use std::path::{Path, PathBuf};

/// The committed golden, relative to the package root.
const GOLDEN: &str = "tests/golden/analysis.json";

const ORDERS: [(&str, WorklistOrder); 2] =
    [("rpo", WorklistOrder::Rpo), ("fifo", WorklistOrder::Fifo)];

fn analyze(name: &str, source: &str, order: WorklistOrder) -> AnalysisResult {
    let ast = jsparser::parse(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let lowered = jsir::lower(&ast);
    jsanalysis::analyze(&lowered, &AnalysisConfig::default().with_worklist(order))
}

/// One input's entry under one order.
fn entry(r: &AnalysisResult) -> Json {
    let mut out = Json::obj();
    for (name, value) in analysis_text::scalars(r) {
        out.set(name, value);
    }
    for (name, entries) in analysis_text::fields(r) {
        let mut field = Json::obj();
        field.set("entries", Json::from(entries.len() as f64));
        field.set("fnv1a", Json::from(analysis_text::digest(&entries)));
        out.set(name, field);
    }
    out
}

#[test]
fn analysis_results_match_the_committed_golden() {
    let inputs = golden_inputs::inputs();
    assert_eq!(inputs.len(), 22);
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let golden_text = std::fs::read_to_string(&golden_path).unwrap_or_default();
    let golden = Json::parse(&golden_text).unwrap_or(Json::Null);
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));

    let mut by_input = Json::obj();
    let mut differences = Vec::new();
    for (name, source) in &inputs {
        let mut per_order = Json::obj();
        for (order_name, order) in ORDERS {
            let r = analyze(name, source, order);
            let e = entry(&r);
            let pinned = &golden["inputs"][name.as_str()][order_name];
            if &e != pinned {
                let Json::Obj(keys) = &e else {
                    unreachable!("entry is an object")
                };
                let fields: Vec<&str> = keys
                    .iter()
                    .filter(|(k, v)| &pinned[k.as_str()] != v)
                    .map(|(k, _)| k.as_str())
                    .collect();
                let dump = tmp.join(format!("analysis.{name}.{order_name}.txt"));
                std::fs::write(&dump, analysis_text::render(&r))
                    .unwrap_or_else(|e| panic!("{}: {e}", dump.display()));
                differences.push(format!(
                    "{name} [{order_name}]: {} (rendering in {})",
                    fields.join(", "),
                    dump.display()
                ));
            }
            per_order.set(order_name, e);
        }
        by_input.set(name, per_order);
    }
    if differences.is_empty() && golden.get("inputs") == Some(&by_input) {
        return;
    }
    let mut seen = Json::obj();
    seen.set("inputs", by_input);
    let out = tmp.join("analysis.inputs.seen.json");
    std::fs::write(&out, seen.to_string_pretty() + "\n")
        .unwrap_or_else(|e| panic!("{}: {e}", out.display()));
    panic!(
        "this build's analysis results differ from {GOLDEN}:\n  {}\nthe `inputs` section this build would commit is in {}; it replaces that section alone",
        differences.join("\n  "),
        out.display()
    );
}

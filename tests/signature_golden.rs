//! A committed golden for what the pipeline reports: every input's
//! `Signature::to_json()` text (flows, witness lines, provenance paths)
//! and its six PDG edge-kind counters, over the corpus, the attack
//! gallery, the Figure 1 program, the benign queue shape and three
//! members of the many-function family.
//!
//! The other goldens compare runs of one build against each other; this
//! one, like `tests/analysis_golden.rs`, compares a build against output
//! committed to the repository. A
//! change that means to move these outputs replaces
//! `tests/golden/signatures.json` with the file the failing run writes
//! and says why in CHANGES.md.

#[path = "support/golden_inputs.rs"]
mod golden_inputs;

use addon_sig::sigtrace::Counter;
use minijson::Json;
use std::path::{Path, PathBuf};

/// The committed golden, relative to the package root.
const GOLDEN: &str = "tests/golden/signatures.json";

/// The PDG edge-kind counters the golden pins.
const EDGE_COUNTERS: [Counter; 6] = [
    Counter::PdgDataStrongEdges,
    Counter::PdgDataWeakEdges,
    Counter::PdgCtrlLocalEdges,
    Counter::PdgCtrlNonLocExpEdges,
    Counter::PdgCtrlNonLocImpEdges,
    Counter::PdgCtrlAmplifiedEdges,
];

/// One input's entry: its edge-kind counters and its signature.
fn entry(name: &str, source: &str) -> Json {
    let report = addon_sig::analyze_addon(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut edges = Json::obj();
    for c in EDGE_COUNTERS {
        edges.set(c.name(), Json::from(report.counters.get(c) as f64));
    }
    let text = report.signature.to_json();
    let signature = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e:?}"));
    // The golden holds the parsed document, so it pins the text only if
    // rendering the parse gives the text back.
    assert_eq!(
        signature.to_string_pretty(),
        text,
        "{name}: to_json does not round-trip"
    );
    let mut out = Json::obj();
    out.set("pdg_edges", edges);
    out.set("signature", signature);
    out
}

fn render(inputs: &[(String, String)]) -> String {
    let mut doc = Json::obj();
    for (name, source) in inputs {
        doc.set(name, entry(name, source));
    }
    doc.to_string_pretty() + "\n"
}

#[test]
fn signatures_and_edge_counts_match_the_committed_golden() {
    let inputs = golden_inputs::inputs();
    assert_eq!(inputs.len(), 22);
    let seen = render(&inputs);
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if seen == golden {
        return;
    }
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("signatures.seen.json");
    std::fs::write(&out, &seen).unwrap_or_else(|e| panic!("{}: {e}", out.display()));
    let at = match seen.lines().zip(golden.lines()).position(|(a, b)| a != b) {
        Some(i) => format!("first at line {}", i + 1),
        None => "one is a prefix of the other".to_owned(),
    };
    panic!(
        "this build's signatures differ from {GOLDEN} ({at}); its output is in {}",
        out.display()
    );
}

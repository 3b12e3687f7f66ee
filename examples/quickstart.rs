//! Quickstart: infer the security signature of a small addon.
//!
//! Run with: `cargo run --example quickstart`

use addon_sig::analyze_addon;

fn main() -> Result<(), addon_sig::Error> {
    // A tiny addon that reports the user's current URL to a ranking
    // service -- the paper's motivating example (LivePageRank-style).
    let source = r#"
var RANK_SERVICE = "http://toolbarqueries.example.com/rank?q=";

function fetchRank() {
  var url = content.location.href;
  var req = new XMLHttpRequest();
  req.open("GET", RANK_SERVICE + encodeURIComponent(url), true);
  req.onload = function () {
    if (req.status == 200) {
      updateBadge(req.responseText);
    }
  };
  req.send(null);
}

function updateBadge(rank) {
  var badge = document.getElementById("rank-badge");
  if (badge) {
    badge.value = rank;
  }
}

gBrowser.addEventListener("load", fetchRank, true);
"#;

    let report = analyze_addon(source)?;

    println!("Inferred security signature:");
    println!("{}", report.signature);
    println!(
        "(analysis: {} worklist steps; PDG: {} edges; phases P1={:?} P2={:?} P3={:?})",
        report.analysis.steps,
        report.pdg.edge_count(),
        report.timings.phase(1),
        report.timings.phase(2),
        report.timings.phase(3),
    );

    // The vetter reads the signature and compares it with the addon's
    // stated purpose: "displays the rank of the current page" -- so an
    // explicit url -> network flow to the ranking service is expected.
    for entry in &report.signature.flows {
        println!("flow: {entry}");
        if let Some(witnesses) = report.signature.witnesses.get(entry) {
            for (src, sink) in witnesses {
                println!("  witnessed from {src} to {sink}");
            }
        }
    }
    Ok(())
}

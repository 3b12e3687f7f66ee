//! Scaling micro-experiment: analysis time per phase as synthetic addon
//! size grows. Supports the EXPERIMENTS.md discussion of the timing-shape
//! difference between this reproduction and the paper: which phase
//! dominates depends on the implementation's cost model, and here the
//! numbers show where ours spends its time.
//!
//! Run with: `cargo run --release -p bench --bin scaling`

use std::fmt::Write as _;

/// Generates a synthetic addon with `n` event handlers, each reading the
/// URL, doing some local string work, and phoning home.
fn synthetic_addon(n: usize) -> String {
    let mut src = String::new();
    for i in 0..n {
        let _ = write!(
            src,
            r#"
function handler{i}(event) {{
  var url = content.location.href;
  var tag = "h{i}";
  var q = "http://svc{i}.example.com/collect?tag=" + tag;
  if (url != "about:blank") {{
    var parts = url.split("/");
    var count = 0;
    var j = 0;
    while (j < parts.length) {{
      count = count + 1;
      j = j + 1;
    }}
    var req = new XMLHttpRequest();
    req.open("GET", q + "&n=" + count, true);
    req.onload = function () {{
      if (req.status == 200) {{
        done{i} = req.responseText;
      }}
    }};
    req.send(null);
  }}
}}
gBrowser.addEventListener("load", handler{i}, true);
"#
        );
    }
    src
}

fn main() {
    println!(
        "{:>9} {:>7} {:>9} {:>9} {:>9} {:>8}",
        "handlers", "stmts", "P1(ms)", "P2(ms)", "P3(ms)", "P2/P1"
    );
    for n in [1usize, 2, 4, 8, 16] {
        let report = addon_sig::analyze_addon(&synthetic_addon(n)).expect("synthetic vets");
        assert!(
            !report.signature.flows.is_empty(),
            "synthetic addon must produce flows"
        );
        let [p1, p2, p3] = [1, 2, 3].map(|phase| report.timings.phase(phase));

        println!(
            "{:>9} {:>7} {:>9.1} {:>9.1} {:>9.1} {:>8.2}",
            n,
            report.lowered.program.stmt_count(),
            p1.as_secs_f64() * 1000.0,
            p2.as_secs_f64() * 1000.0,
            p3.as_secs_f64() * 1000.0,
            p2.as_secs_f64() / p1.as_secs_f64(),
        );
    }
    println!(
        "\nBoth P1 and P2 grow superlinearly with statement count, but in\n\
         this implementation P1 (the abstract interpreter, which clones\n\
         whole abstract heaps per program point) dominates at every size,\n\
         whereas the paper's Scala prototype spent most of its time in P2.\n\
         P3 stays negligible in both, as the paper reports."
    );
}

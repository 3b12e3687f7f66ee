//! Regenerates Table 2 of the paper: per-addon signature-inference
//! verdicts (pass / fail / leak) and the analysis time split into the
//! paper's three phases (P1 base analysis, P2 PDG construction, P3
//! signature inference). Timing methodology per Section 6.2: 11 runs,
//! discard the first, report the median. Pass `--quick` for 3 runs.
//!
//! Addons are measured on parallel threads by default (rows are printed
//! in corpus order once all threads join). On machines with fewer cores
//! than addons the timeslicing inflates per-phase wall times; pass
//! `--sequential` when the timings themselves are the point.

use bench::{measure_addon, per_addon, secs, Table2Row};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let sequential = args.iter().any(|a| a == "--sequential");
    let runs = if quick { 3 } else { 10 };
    let addons = corpus::addons();
    let rows: Vec<Table2Row> = per_addon(&addons, sequential, |a| measure_addon(a, runs));
    println!(
        "{:<20} {:^8} {:^8} | {:>8} {:>8} {:>8}",
        "Addon Name", "Paper", "Ours", "P1(s)", "P2(s)", "P3(s)"
    );
    println!("{}", "-".repeat(70));
    let mut ok = 0;
    for (addon, row) in addons.iter().zip(&rows) {
        let matches = row.result == addon.paper_verdict.to_string();
        if matches {
            ok += 1;
        }
        println!(
            "{:<20} {:^8} {:^8} | {:>8} {:>8} {:>8}{}",
            row.name,
            addon.paper_verdict.to_string(),
            row.result,
            secs(row.timings.phase(1)),
            secs(row.timings.phase(2)),
            secs(row.timings.phase(3)),
            if matches { "" } else { "   <-- MISMATCH" }
        );
    }
    println!("{}", "-".repeat(70));
    println!("verdict agreement with the paper: {ok}/10");
}

//! A repository vetting queue: what an addons.mozilla.org reviewer's
//! tooling would look like built on signature inference (the paper's
//! motivating use case). Runs the whole benchmark corpus, compares each
//! inferred signature against the manual signature derived from the
//! addon's listed purpose, and prints an actionable review report.
//!
//! Run with: `cargo run --release --example vetting_queue`

use addon_sig::analyze_addon;
use jssig::{compare, MatchQuality, Verdict};

fn main() {
    let mut accepted = 0;
    let mut flagged = 0;
    for addon in corpus::addons() {
        println!("==============================================================");
        println!("addon: {} -- \"{}\"", addon.name, addon.listed_purpose);
        let report = match analyze_addon(addon.source) {
            Ok(r) => r,
            Err(e) => {
                println!("  REJECT: does not analyze ({e})");
                flagged += 1;
                continue;
            }
        };
        println!(
            "  inferred signature:\n{}",
            indent(&report.signature.to_string())
        );

        let cmp = compare(
            &report.signature,
            &addon.manual,
            addon.real_extra_flow,
            addon.real_extra_sink,
        );
        match cmp.verdict {
            Verdict::Pass => {
                accepted += 1;
                println!("  VERDICT: pass -- behavior matches the listed purpose");
            }
            Verdict::Fail => {
                flagged += 1;
                println!("  VERDICT: fail -- needs human review (analysis imprecision)");
                for (i, e, q) in &cmp.matched {
                    if *q == MatchQuality::ImpreciseDomain {
                        println!(
                            "    expected {} but the domain could only be inferred as {}",
                            addon.manual.entries[*i], e.sink.domain
                        );
                    }
                }
            }
            Verdict::Leak => {
                flagged += 1;
                println!("  VERDICT: leak -- undocumented flows, ask the developer");
                for (e, real) in &cmp.extra {
                    println!(
                        "    undocumented flow: {e}{}",
                        if *real { " (confirmed real)" } else { "" }
                    );
                }
                for (s, real) in &cmp.extra_sinks {
                    println!(
                        "    undocumented communication: {s}{}",
                        if *real { " (confirmed real)" } else { "" }
                    );
                }
            }
        }
        if !report.signature.apis.is_empty() {
            println!("  restricted APIs used: {:?}", report.signature.apis);
        }
    }
    println!("==============================================================");
    println!("queue done: {accepted} accepted automatically, {flagged} flagged for review");

    // The attack gallery: every known-malicious sample must be flagged.
    println!("\n--- attack gallery ---");
    for attack in corpus::attacks::attacks() {
        let report = analyze_addon(attack.source).expect("attacks analyze");
        let exposed = !report.signature.flows.is_empty()
            || report.signature.apis.iter().any(|a| {
                a == "eval"
                    || a == "Function"
                    || a == "setTimeout$string"
                    || a == "Services.scriptloader.loadSubScript"
            });
        println!(
            "  {:<20} {} -- {}",
            attack.name,
            if exposed { "EXPOSED" } else { "missed!" },
            attack.description
        );
    }
}

fn indent(s: &str) -> String {
    s.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

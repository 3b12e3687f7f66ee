//! Ablation study for the two design choices DESIGN.md calls out:
//!
//! 1. **String domain**: the paper's prefix string domain (Section 5)
//!    versus the flat constant-string baseline it argues is insufficient.
//!    Measured as the usefulness of the inferred network domain at each
//!    addon's sinks (exact / prefix / unknown).
//! 2. **Context sensitivity**: call-string depth k = 0 / 1 / 2.
//!    Measured as Table 2 verdict agreement.
//!
//! Run with: `cargo run --release -p bench --bin ablation`

use jsanalysis::{AnalysisConfig, SinkKind, StringDomain};
use jsdomains::Pre;
use jssig::FlowLattice;

#[derive(Default)]
struct DomainCounts {
    exact: usize,
    prefix: usize,
    unknown: usize,
}

fn classify(domains: &mut DomainCounts, d: &Pre) {
    match d {
        Pre::Exact(_) => domains.exact += 1,
        Pre::Prefix(p) if p.len() > "https://".len() => domains.prefix += 1,
        _ => domains.unknown += 1,
    }
}

fn run_config(config: &AnalysisConfig) -> (DomainCounts, usize) {
    let mut counts = DomainCounts::default();
    let mut agreement = 0;
    for addon in corpus::addons() {
        let report = addon_sig::Pipeline::new()
            .config(config.clone())
            .lattice(FlowLattice::paper())
            .run(addon.source)
            .expect("pipeline");
        // One domain classification per addon: its best send sink.
        let mut best: Option<Pre> = None;
        for s in &report.signature.sinks {
            if s.kind != SinkKind::Send {
                continue;
            }
            let better = match (&best, &s.domain) {
                (None, _) => true,
                (Some(Pre::Exact(_)), _) => false,
                (Some(_), Pre::Exact(_)) => true,
                (Some(Pre::Prefix(old)), Pre::Prefix(new)) => new.len() > old.len(),
                _ => false,
            };
            if better {
                best = Some(s.domain);
            }
        }
        if let Some(d) = best {
            classify(&mut counts, &d);
        }
        let cmp = jssig::compare(
            &report.signature,
            &addon.manual,
            addon.real_extra_flow,
            addon.real_extra_sink,
        );
        if cmp.verdict == addon.paper_verdict {
            agreement += 1;
        }
    }
    (counts, agreement)
}

fn main() {
    println!("=== Ablation 1: string domain (k = 1) ===");
    println!(
        "{:<16} {:>6} {:>7} {:>8} {:>18}",
        "domain", "exact", "prefix", "unknown", "Table2 agreement"
    );
    for (name, sd) in [
        ("prefix (paper)", StringDomain::Prefix),
        ("constant-only", StringDomain::ConstantOnly),
    ] {
        let config = AnalysisConfig {
            string_domain: sd,
            ..AnalysisConfig::default()
        };
        let (c, agree) = run_config(&config);
        println!(
            "{:<16} {:>6} {:>7} {:>8} {:>15}/10",
            name, c.exact, c.prefix, c.unknown, agree
        );
    }

    println!("\n=== Ablation 2: context-sensitivity depth (prefix domain) ===");
    println!(
        "{:<16} {:>6} {:>7} {:>8} {:>18}",
        "call-string k", "exact", "prefix", "unknown", "Table2 agreement"
    );
    for k in [0usize, 1, 2] {
        let config = AnalysisConfig {
            context_depth: k,
            ..AnalysisConfig::default()
        };
        let (c, agree) = run_config(&config);
        println!(
            "{:<16} {:>6} {:>7} {:>8} {:>15}/10",
            format!("k = {k}"),
            c.exact,
            c.prefix,
            c.unknown,
            agree
        );
    }
}

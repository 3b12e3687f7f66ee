//! A canonical text rendering of a base-analysis result, shared by the
//! analysis golden (`tests/analysis_golden.rs`) and the fuzz suite.
//!
//! Abstract strings and symbols render by their text, never by their
//! interned ids: ids depend on the order in which test threads intern
//! names. Allocation sites, statements and functions render as numbers,
//! which one run assigns deterministically. A location renders as its
//! `(site, name)` from the run's location table, never as its id, and a
//! statement's accesses render sorted by location, as ordered maps of
//! locations iterated them.

use jsanalysis::AnalysisResult;
use minijson::Json;
use std::fmt::Write;

/// The rendered fields of a result, in a fixed order: each is its name
/// and its canonical text, one line per entry.
pub fn fields(r: &AnalysisResult) -> Vec<(&'static str, Vec<String>)> {
    let rw =
        r.rw.iter()
            .map(|(stmt, sets)| {
                let mut line = format!("{stmt}:");
                for (tag, set) in [("r", &sets.reads), ("w", &sets.writes)] {
                    let mut set: Vec<_> = set.iter().map(|(id, s)| (&r.locs[id], s)).collect();
                    set.sort();
                    for (loc, strength) in set {
                        write!(line, " {tag}{loc}={strength:?}").expect("write to String");
                    }
                }
                line
            })
            .collect();
    vec![
        ("rw", rw),
        ("may_throw", lines(r.may_throw.iter())),
        (
            "call_targets",
            r.call_targets
                .iter()
                .map(|(stmt, fs)| {
                    let fs: Vec<String> = fs.iter().map(ToString::to_string).collect();
                    format!("{stmt}: {}", fs.join(" "))
                })
                .collect(),
        ),
        (
            "sinks",
            r.sinks
                .iter()
                .map(|s| format!("{} {} {}", s.stmt, s.kind, s.domain))
                .collect(),
        ),
        (
            "api_uses",
            r.api_uses
                .iter()
                .map(|(stmt, api)| format!("{stmt} {api}"))
                .collect(),
        ),
        (
            "source_locs",
            r.source_locs
                .iter()
                .map(|((site, prop), kind)| format!("({site}, {prop}) {kind}"))
                .collect(),
        ),
        ("cyclic_stmts", lines(r.cyclic_stmts.iter())),
        ("reachable", lines(r.reachable.iter())),
        (
            "site_aliases",
            r.site_aliases
                .iter()
                .map(|(mru, aged)| format!("{mru} -> {aged}"))
                .collect(),
        ),
    ]
}

fn lines<T: std::fmt::Display>(set: impl Iterator<Item = T>) -> Vec<String> {
    set.map(|x| x.to_string()).collect()
}

/// The run's counters and flags, in a fixed order. A tripped budget
/// renders as its kind and step count: its elapsed time is wall clock.
pub fn scalars(r: &AnalysisResult) -> Vec<(&'static str, Json)> {
    vec![
        ("steps", Json::from(r.steps as f64)),
        ("joins", Json::from(r.joins as f64)),
        ("heap_cow_clones", Json::from(r.heap_cow_clones as f64)),
        ("hit_step_limit", Json::Bool(r.hit_step_limit)),
        (
            "budget_exhausted",
            match &r.budget_exhausted {
                Some(b) => Json::from(format!("{} after {} steps", b.kind, b.steps)),
                None => Json::Null,
            },
        ),
    ]
}

/// The whole result as one text, less the scalars named in `skip`: the
/// scalars, then each field under a header line.
pub fn render(r: &AnalysisResult, skip: &[&str]) -> String {
    let mut out = String::new();
    for (name, value) in scalars(r) {
        if skip.contains(&name) {
            continue;
        }
        writeln!(out, "{name} {}", value.to_string_compact()).expect("write to String");
    }
    for (name, entries) in fields(r) {
        writeln!(out, "== {name} ({})", entries.len()).expect("write to String");
        for line in entries {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// The digest of a field's text, as the golden stores it.
pub fn digest(entries: &[String]) -> String {
    let mut h = sigserve::cache::FNV_OFFSET;
    for line in entries {
        h = sigserve::cache::fnv1a(h, line.as_bytes());
        h = sigserve::cache::fnv1a(h, b"\n");
    }
    format!("{h:016x}")
}

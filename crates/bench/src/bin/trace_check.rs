//! CI validator for `vet --trace` output: parses a `trace_event` JSON
//! file and asserts the invariants a Perfetto/chrome://tracing load
//! depends on — a non-empty `traceEvents` array, well-formed complete
//! (`"ph":"X"`) events, and strict stack nesting (any two spans either
//! nest or are disjoint; a partial overlap means the span hooks fired
//! out of order).
//!
//! Run with: `trace_check FILE [FILE...]` — exits non-zero with a
//! diagnostic on the first violated invariant.

use minijson::Json;

fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let events = doc["traceEvents"]
        .as_array()
        .ok_or_else(|| format!("{path}: no traceEvents array"))?;
    if events.is_empty() {
        return Err(format!("{path}: traceEvents is empty"));
    }

    let mut spans: Vec<(String, f64, f64)> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev["ph"]
            .as_str()
            .ok_or_else(|| format!("{path}: event {i} has no ph"))?;
        if ev["name"].as_str().is_none() {
            return Err(format!("{path}: event {i} ({ph}) has no name"));
        }
        if ph == "X" {
            let name = ev["name"].as_str().unwrap().to_owned();
            let ts = ev["ts"]
                .as_f64()
                .ok_or_else(|| format!("{path}: X event {name:?} has no ts"))?;
            let dur = ev["dur"]
                .as_f64()
                .ok_or_else(|| format!("{path}: X event {name:?} has no dur"))?;
            if dur < 0.0 {
                return Err(format!("{path}: X event {name:?} has negative dur"));
            }
            spans.push((name, ts, ts + dur));
        }
    }
    if spans.is_empty() {
        return Err(format!("{path}: no complete (ph=X) span events"));
    }

    for (i, (n1, s1, e1)) in spans.iter().enumerate() {
        for (n2, s2, e2) in &spans[i + 1..] {
            let nested = (s1 <= s2 && e2 <= e1) || (s2 <= s1 && e1 <= e2);
            let disjoint = e1 <= s2 || e2 <= s1;
            if !(nested || disjoint) {
                return Err(format!(
                    "{path}: spans {n1:?} [{s1}, {e1}) and {n2:?} [{s2}, {e2}) \
                     partially overlap — span hooks fired out of order"
                ));
            }
        }
    }

    println!(
        "{path}: ok ({} events, {} spans, outermost {:?})",
        events.len(),
        spans.len(),
        spans
            .iter()
            .max_by(|a, b| (a.2 - a.1).total_cmp(&(b.2 - b.1)))
            .map(|(n, _, _)| n.as_str())
            .unwrap_or("?"),
    );
    Ok(())
}

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: trace_check FILE [FILE...]");
        std::process::exit(2);
    }
    for path in &paths {
        if let Err(msg) = check(path) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    }
}

//! Prometheus text exposition of a [`sigtrace::MetricsSnapshot`].
//!
//! The daemon has no HTTP server (std-only), so the text body rides the
//! NDJSON protocol's `metrics` verb as a string field; the format itself
//! follows the Prometheus text exposition conventions so the body can be
//! dropped into any scrape-file ingester unchanged:
//!
//! ```text
//! # TYPE serve_jobs_accepted counter
//! serve_jobs_accepted 42
//! # TYPE pipeline_jsanalysis_fixpoint_us histogram
//! pipeline_jsanalysis_fixpoint_us_bucket{le="255"} 3
//! pipeline_jsanalysis_fixpoint_us_bucket{le="+Inf"} 3
//! pipeline_jsanalysis_fixpoint_us_sum 512
//! pipeline_jsanalysis_fixpoint_us_count 3
//! ```
//!
//! Histogram `le` labels are the **inclusive** upper bound of each log₂
//! bucket (`0` for the zero bucket, `2^i - 1` for bucket `i`), matching
//! [`HistogramSnapshot::percentile`]'s estimates, with counts cumulative
//! as Prometheus requires. Only occupied buckets are emitted (plus the
//! mandatory `+Inf`), keeping the dump proportional to live data.

use sigtrace::{HistogramSnapshot, MetricsSnapshot};
use std::fmt::Write as _;

/// Rewrites a registry name into the Prometheus metric-name alphabet
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`). Registry names are already ASCII
/// snake_case, so this is belt-and-braces for user-supplied names.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn write_histogram(out: &mut String, h: &HistogramSnapshot) {
    let name = sanitize(&h.name);
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (i, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        cumulative += c;
        // Inclusive upper bound: the zero bucket holds only 0, and bucket
        // i holds values up to 2^i - 1. The overflow bucket has no limit;
        // +Inf below covers it.
        if let Some(limit) = HistogramSnapshot::bucket_limit(i) {
            let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", limit - 1);
        }
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{name}_sum {}", h.sum);
    let _ = writeln!(out, "{name}_count {}", h.count);
}

/// Renders a snapshot as a Prometheus text-format body. Counters and
/// histograms come out in the snapshot's name-sorted order, so equal
/// snapshots render byte-identically.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for h in &snap.histograms {
        write_histogram(&mut out, h);
    }
    out
}

fn is_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Checks one `name{labels} value` sample line; returns an error naming
/// the defect.
fn check_sample(line: &str) -> Result<(), String> {
    // Split off the optional {labels} block first, so label values may
    // contain spaces.
    let (name_part, rest) = match line.find('{') {
        Some(open) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| format!("unterminated label block: {line}"))?;
            if close < open {
                return Err(format!("malformed label block: {line}"));
            }
            let labels = &line[open + 1..close];
            for pair in labels.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("label without '=': {line}"))?;
                if !is_metric_name(k.trim()) {
                    return Err(format!("bad label name {k:?}: {line}"));
                }
                let v = v.trim();
                if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                    return Err(format!("unquoted label value {v:?}: {line}"));
                }
            }
            (&line[..open], line[close + 1..].trim())
        }
        None => {
            let (name, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("sample without value: {line}"))?;
            (name, value.trim())
        }
    };
    if !is_metric_name(name_part.trim()) {
        return Err(format!("bad metric name {:?}: {line}", name_part.trim()));
    }
    let value = rest;
    let ok = matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok();
    if !ok {
        return Err(format!("unparseable sample value {value:?}: {line}"));
    }
    Ok(())
}

/// Validates a Prometheus text body line by line: every line must be
/// blank, a `#` comment, or a well-formed `name[{labels}] value` sample.
/// Returns the number of sample lines on success — the CI smoke test
/// asserts it is nonzero.
pub fn validate_prometheus_text(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        check_sample(line)?;
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigtrace::MetricsRegistry;

    fn sample_snapshot() -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.add("serve_jobs_accepted", 42);
        reg.add("serve_cache_hits", 7);
        for v in [0u64, 5, 5, 200, 1_000_000] {
            reg.record("pipeline_p1_us", v);
        }
        reg.snapshot()
    }

    #[test]
    fn counters_render_with_type_comments() {
        let text = prometheus_text(&sample_snapshot());
        assert!(text.contains("# TYPE serve_jobs_accepted counter\nserve_jobs_accepted 42\n"));
        assert!(text.contains("serve_cache_hits 7\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_inclusive_le() {
        let text = prometheus_text(&sample_snapshot());
        assert!(text.contains("# TYPE pipeline_p1_us histogram"));
        // 0 → le="0" (1), two 5s → le="7" (3 cumulative), 200 → le="255"
        // (4), 1e6 → le="1048575" (5).
        assert!(
            text.contains("pipeline_p1_us_bucket{le=\"0\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("pipeline_p1_us_bucket{le=\"7\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("pipeline_p1_us_bucket{le=\"255\"} 4\n"),
            "{text}"
        );
        assert!(
            text.contains("pipeline_p1_us_bucket{le=\"1048575\"} 5\n"),
            "{text}"
        );
        assert!(
            text.contains("pipeline_p1_us_bucket{le=\"+Inf\"} 5\n"),
            "{text}"
        );
        assert!(text.contains("pipeline_p1_us_sum 1000210\n"), "{text}");
        assert!(text.contains("pipeline_p1_us_count 5\n"), "{text}");
    }

    #[test]
    fn rendered_text_validates() {
        let text = prometheus_text(&sample_snapshot());
        let samples = validate_prometheus_text(&text).expect("own output must validate");
        // 2 counters + 5 bucket lines (4 finite + Inf) + sum + count.
        assert_eq!(samples, 2 + 5 + 2);
    }

    #[test]
    fn equal_snapshots_render_byte_identically() {
        assert_eq!(
            prometheus_text(&sample_snapshot()),
            prometheus_text(&sample_snapshot())
        );
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_prometheus_text("no_value_here\n").is_err());
        assert!(validate_prometheus_text("name{unclosed 3\n").is_err());
        assert!(validate_prometheus_text("name{le=unquoted} 3\n").is_err());
        assert!(validate_prometheus_text("9starts_with_digit 3\n").is_err());
        assert!(validate_prometheus_text("name notanumber\n").is_err());
        assert_eq!(validate_prometheus_text("# just a comment\n\n"), Ok(0));
        assert_eq!(validate_prometheus_text("x_bucket{le=\"+Inf\"} 3\n"), Ok(1));
    }

    #[test]
    fn sanitize_replaces_invalid_chars() {
        assert_eq!(sanitize("ok_name:v1"), "ok_name:v1");
        assert_eq!(sanitize("bad-name.v1"), "bad_name_v1");
        assert_eq!(sanitize("9leading"), "_leading");
        assert_eq!(sanitize(""), "_");
    }
}

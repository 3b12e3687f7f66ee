//! Declarative health gates over the metrics history.
//!
//! `vet metrics-report DIR --gate RULES` turns the on-disk
//! [`MetricsHistory`](crate::MetricsHistory) ring into a CI-shaped health
//! gate: a JSON rules file declares thresholds, [`evaluate`] checks them
//! against the recorded window, and a violated rule renders a
//! human-readable verdict and exits nonzero — the same contract
//! `vet corpus-diff` already has for signature drift.
//!
//! Rules file format:
//!
//! ```text
//! {"window_s": 300,            // optional: only the trailing 300s of history
//!  "rules": [
//!   {"name":"shed-rate",  "kind":"counter_rate",
//!    "metric":"serve_jobs_rejected", "max":5},
//!   {"name":"completed",  "kind":"gauge",
//!    "metric":"serve_jobs_completed", "min":1},
//!   {"name":"cache-hits", "kind":"cache_hit_ratio",
//!    "hits":"serve_cache_hits", "misses":"serve_cache_misses", "min":0.9},
//!   {"name":"vet-p99",    "kind":"histogram_percentile",
//!    "metric":"serve_vet_us", "q":0.99, "max":500000}
//! ]}
//! ```
//!
//! Every rule carries `min` and/or `max` (at least one); the rule fires
//! when the observed value is strictly below `min` or strictly above
//! `max`, so a value exactly on the bound passes. A rule whose value
//! cannot be computed — metric absent, empty histogram, fewer than two
//! snapshots for a rate — does **not** fire; it renders as `na` so a
//! misspelled metric is visible without making quiet daemons fail their
//! own gate. Operators who need existence guarantees pair the rule with
//! a `gauge ... min` on a counter the daemon always writes.

use crate::history::HistoryRecord;
use minijson::Json;
use std::fmt;

/// What a rule measures, over the (windowed) history records.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Per-second growth of a counter across the window: the delta
    /// between the oldest and newest snapshot divided by the wall-clock
    /// span. Needs at least two snapshots with a nonzero span.
    CounterRate {
        /// Counter name in the snapshots.
        metric: String,
    },
    /// The counter's absolute value in the newest snapshot (levels like
    /// `serve_cache_entries`, or lifetime totals like
    /// `serve_jobs_completed`).
    Gauge {
        /// Counter name in the snapshots.
        metric: String,
    },
    /// `hits / (hits + misses)` computed from the *window deltas* of two
    /// counters, so the ratio reflects the recorded interval rather than
    /// the daemon's whole lifetime. With a single snapshot the deltas
    /// fall back to the absolute values (delta from an implicit zero).
    CacheHitRatio {
        /// Hit-counter name.
        hits: String,
        /// Miss-counter name.
        misses: String,
    },
    /// The `q`-quantile of a histogram in the newest snapshot, using
    /// [`HistogramSnapshot::percentile`](sigtrace::HistogramSnapshot::percentile)
    /// (an inclusive upper-bound estimate).
    HistogramPercentile {
        /// Histogram name in the snapshots.
        metric: String,
        /// Quantile in `0.0 ..= 1.0`.
        q: f64,
    },
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::CounterRate { metric } => write!(f, "counter_rate({metric})"),
            Predicate::Gauge { metric } => write!(f, "gauge({metric})"),
            Predicate::CacheHitRatio { hits, misses } => {
                write!(f, "cache_hit_ratio({hits}/{misses})")
            }
            Predicate::HistogramPercentile { metric, q } => {
                write!(f, "histogram_percentile({metric}, q={q})")
            }
        }
    }
}

/// One declarative threshold: a named predicate plus its bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Operator-facing rule name (unique names make verdicts readable).
    pub name: String,
    /// What to measure.
    pub predicate: Predicate,
    /// Fires when the value is strictly below this.
    pub min: Option<f64>,
    /// Fires when the value is strictly above this.
    pub max: Option<f64>,
}

/// A parsed rules file: the rule list plus the optional trailing window.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRules {
    /// The rules, in file order.
    pub rules: Vec<AlertRule>,
    /// `Some(s)`: evaluate only records within `s` seconds of the newest
    /// one. `None`: the whole loaded history.
    pub window_s: Option<f64>,
}

fn get_str(v: &Json, rule: &str, key: &str) -> Result<String, String> {
    v[key]
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("rule {rule}: missing or non-string \"{key}\""))
}

fn get_bound(v: &Json, rule: &str, key: &str) -> Result<Option<f64>, String> {
    match &v[key] {
        Json::Null => Ok(None),
        other => match other.as_f64().filter(|b| b.is_finite()) {
            Some(b) => Ok(Some(b)),
            None => Err(format!("rule {rule}: \"{key}\" must be a finite number")),
        },
    }
}

/// Parses a rules file body. Errors name the offending rule so a bad
/// gate file fails loudly rather than passing vacuously.
pub fn parse_rules(text: &str) -> Result<AlertRules, String> {
    let doc = Json::parse(text).map_err(|e| format!("rules file: {e}"))?;
    let window_s = match &doc["window_s"] {
        Json::Null => None,
        other => Some(
            other
                .as_f64()
                .filter(|w| w.is_finite() && *w > 0.0)
                .ok_or("rules file: \"window_s\" must be a positive number")?,
        ),
    };
    let entries = doc["rules"]
        .as_array()
        .ok_or("rules file: missing \"rules\" array")?;
    let mut rules = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let name = entry["name"]
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| format!("rule #{}: missing \"name\"", i + 1))?;
        let kind = get_str(entry, &name, "kind")?;
        let predicate = match kind.as_str() {
            "counter_rate" => Predicate::CounterRate {
                metric: get_str(entry, &name, "metric")?,
            },
            "gauge" => Predicate::Gauge {
                metric: get_str(entry, &name, "metric")?,
            },
            "cache_hit_ratio" => Predicate::CacheHitRatio {
                hits: get_str(entry, &name, "hits")?,
                misses: get_str(entry, &name, "misses")?,
            },
            "histogram_percentile" => {
                let q = entry["q"]
                    .as_f64()
                    .filter(|q| q.is_finite() && (0.0..=1.0).contains(q))
                    .ok_or_else(|| format!("rule {name}: \"q\" must be in 0.0..=1.0"))?;
                Predicate::HistogramPercentile {
                    metric: get_str(entry, &name, "metric")?,
                    q,
                }
            }
            other => {
                return Err(format!(
                    "rule {name}: unknown kind \"{other}\" (expected counter_rate, gauge, \
                     cache_hit_ratio, or histogram_percentile)"
                ))
            }
        };
        let min = get_bound(entry, &name, "min")?;
        let max = get_bound(entry, &name, "max")?;
        if min.is_none() && max.is_none() {
            return Err(format!("rule {name}: needs \"min\" and/or \"max\""));
        }
        rules.push(AlertRule {
            name,
            predicate,
            min,
            max,
        });
    }
    Ok(AlertRules { rules, window_s })
}

/// One evaluated rule: the observed value (if computable) and whether
/// the rule fired.
#[derive(Debug, Clone)]
pub struct RuleOutcome {
    /// The rule that was evaluated.
    pub rule: AlertRule,
    /// The observed value; `None` when the history has no data for it.
    pub value: Option<f64>,
    /// True when the value breached a bound. Always false for `None`
    /// values (see the module docs on missing data).
    pub violated: bool,
}

impl RuleOutcome {
    fn bounds(&self) -> String {
        match (self.rule.min, self.rule.max) {
            (Some(lo), Some(hi)) => format!("min {lo}, max {hi}"),
            (Some(lo), None) => format!("min {lo}"),
            (None, Some(hi)) => format!("max {hi}"),
            (None, None) => String::new(),
        }
    }
}

/// The full gate verdict: every rule's outcome plus the window it was
/// judged against.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Per-rule outcomes, in rules-file order.
    pub outcomes: Vec<RuleOutcome>,
    /// Number of history records the window contained.
    pub snapshots: usize,
    /// Wall-clock span of the window, in seconds.
    pub span_s: f64,
}

impl GateReport {
    /// Number of rules that fired.
    pub fn violations(&self) -> usize {
        self.outcomes.iter().filter(|o| o.violated).count()
    }

    /// True when no rule fired (the gate's exit-zero condition).
    pub fn passed(&self) -> bool {
        self.violations() == 0
    }
}

impl fmt::Display for GateReport {
    /// The human-readable verdict `vet metrics-report --gate` prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "health gate: {} rules over {} snapshots ({:.1}s window)",
            self.outcomes.len(),
            self.snapshots,
            self.span_s
        )?;
        for o in &self.outcomes {
            let status = if o.violated {
                "FAIL"
            } else if o.value.is_none() {
                "na  "
            } else {
                "ok  "
            };
            let value = match o.value {
                Some(v) => format!("= {v:.4}"),
                None => "— no data".to_owned(),
            };
            writeln!(
                f,
                "  {status}  {:<24} {} {value}  [{}]",
                o.rule.name,
                o.rule.predicate,
                o.bounds()
            )?;
        }
        match self.violations() {
            0 => writeln!(f, "health gate: PASSED"),
            n => writeln!(
                f,
                "health gate: FAILED ({n} of {} rules violated)",
                self.outcomes.len()
            ),
        }
    }
}

fn eval_one(rule: &AlertRule, window: &[HistoryRecord]) -> Option<f64> {
    let (first, last) = (window.first()?, window.last()?);
    match &rule.predicate {
        Predicate::CounterRate { metric } => {
            let span_s = last.unix_ms.saturating_sub(first.unix_ms) as f64 / 1000.0;
            if window.len() < 2 || span_s <= 0.0 {
                return None; // a rate needs an actual interval
            }
            let end = last.counter(metric)?;
            let start = first.counter(metric).unwrap_or(0);
            Some(end.saturating_sub(start) as f64 / span_s)
        }
        Predicate::Gauge { metric } => last.counter(metric).map(|v| v as f64),
        Predicate::CacheHitRatio { hits, misses } => {
            // Window deltas; with one snapshot first == last and the
            // deltas degenerate to zero, so fall back to absolutes.
            let delta = |name: &str| {
                let end = last.counter(name).unwrap_or(0);
                if window.len() < 2 {
                    end
                } else {
                    end.saturating_sub(first.counter(name).unwrap_or(0))
                }
            };
            let (h, m) = (delta(hits), delta(misses));
            if h + m == 0 {
                return None; // no traffic in the window
            }
            Some(h as f64 / (h + m) as f64)
        }
        Predicate::HistogramPercentile { metric, q } => last
            .histogram(metric)
            .and_then(|h| h.percentile(*q))
            .map(|v| v as f64),
    }
}

/// Evaluates every rule against `records` (which must be seq-sorted, as
/// [`MetricsHistory::load`](crate::MetricsHistory::load) returns them),
/// after applying the rules' trailing window.
pub fn evaluate(rules: &AlertRules, records: &[HistoryRecord]) -> GateReport {
    let window: &[HistoryRecord] = match (rules.window_s, records.last()) {
        (Some(w), Some(newest)) => {
            let cutoff = newest.unix_ms.saturating_sub((w * 1000.0) as u64);
            let start = records.partition_point(|r| r.unix_ms < cutoff);
            &records[start..]
        }
        _ => records,
    };
    let span_s = match (window.first(), window.last()) {
        (Some(first), Some(last)) => last.unix_ms.saturating_sub(first.unix_ms) as f64 / 1000.0,
        _ => 0.0,
    };
    let outcomes = rules
        .rules
        .iter()
        .map(|rule| {
            let value = eval_one(rule, window);
            let violated = value.is_some_and(|v| {
                rule.min.is_some_and(|lo| v < lo) || rule.max.is_some_and(|hi| v > hi)
            });
            RuleOutcome {
                rule: rule.clone(),
                value,
                violated,
            }
        })
        .collect();
    GateReport {
        outcomes,
        snapshots: window.len(),
        span_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigtrace::MetricsRegistry;

    /// A history record with the given counters and histogram samples.
    fn rec(
        seq: u64,
        unix_ms: u64,
        counters: &[(&str, u64)],
        hist: &[(&str, &[u64])],
    ) -> HistoryRecord {
        let reg = MetricsRegistry::new();
        for (name, v) in counters {
            reg.add(name, *v);
        }
        for (name, samples) in hist {
            for s in *samples {
                reg.record(name, *s);
            }
        }
        HistoryRecord {
            seq,
            unix_ms,
            snapshot: reg.snapshot(),
        }
    }

    fn rule(kind: Predicate, min: Option<f64>, max: Option<f64>) -> AlertRules {
        AlertRules {
            rules: vec![AlertRule {
                name: "t".to_owned(),
                predicate: kind,
                min,
                max,
            }],
            window_s: None,
        }
    }

    fn verdict(rules: &AlertRules, records: &[HistoryRecord]) -> (Option<f64>, bool) {
        let report = evaluate(rules, records);
        let o = &report.outcomes[0];
        (o.value, o.violated)
    }

    #[test]
    fn counter_rate_fires_no_fires_and_boundary() {
        // 0 -> 100 over 10s: exactly 10/s.
        let records = [
            rec(0, 10_000, &[("rejected", 0)], &[]),
            rec(1, 20_000, &[("rejected", 100)], &[]),
        ];
        let pred = || Predicate::CounterRate {
            metric: "rejected".to_owned(),
        };
        let (v, fired) = verdict(&rule(pred(), None, Some(9.9)), &records);
        assert_eq!(v, Some(10.0));
        assert!(fired, "10/s > max 9.9 must fire");
        let (_, fired) = verdict(&rule(pred(), None, Some(10.0)), &records);
        assert!(!fired, "a value exactly on the bound passes");
        let (_, fired) = verdict(&rule(pred(), None, Some(50.0)), &records);
        assert!(!fired);
        let (_, fired) = verdict(&rule(pred(), Some(10.1), None), &records);
        assert!(fired, "10/s < min 10.1 must fire");
        // A single snapshot has no interval: no data, no firing.
        let (v, fired) = verdict(&rule(pred(), Some(1.0), None), &records[..1]);
        assert_eq!(v, None);
        assert!(!fired);
    }

    #[test]
    fn gauge_reads_the_newest_snapshot() {
        let records = [
            rec(0, 1_000, &[("completed", 2)], &[]),
            rec(1, 2_000, &[("completed", 7)], &[]),
        ];
        let pred = || Predicate::Gauge {
            metric: "completed".to_owned(),
        };
        let (v, fired) = verdict(&rule(pred(), Some(8.0), None), &records);
        assert_eq!(v, Some(7.0));
        assert!(fired, "7 < min 8 must fire");
        let (_, fired) = verdict(&rule(pred(), Some(7.0), Some(7.0)), &records);
        assert!(!fired, "boundary on both sides passes");
        let (_, fired) = verdict(&rule(pred(), None, Some(6.0)), &records);
        assert!(fired, "7 > max 6 must fire");
        // Absent counter: na, not a violation.
        let missing = Predicate::Gauge {
            metric: "nope".to_owned(),
        };
        let (v, fired) = verdict(&rule(missing, Some(1.0), None), &records);
        assert_eq!(v, None);
        assert!(!fired);
    }

    #[test]
    fn cache_hit_ratio_uses_window_deltas() {
        // Lifetime ratio is 50/100; the window delta is 45/50 = 0.9.
        let records = [
            rec(0, 1_000, &[("hits", 5), ("misses", 45)], &[]),
            rec(1, 2_000, &[("hits", 50), ("misses", 50)], &[]),
        ];
        let pred = || Predicate::CacheHitRatio {
            hits: "hits".to_owned(),
            misses: "misses".to_owned(),
        };
        let (v, fired) = verdict(&rule(pred(), Some(0.9), None), &records);
        assert_eq!(v, Some(0.9));
        assert!(!fired, "exactly min passes");
        let (_, fired) = verdict(&rule(pred(), Some(0.91), None), &records);
        assert!(fired);
        // No traffic at all: na.
        let quiet = [rec(0, 1_000, &[("hits", 0), ("misses", 0)], &[])];
        let (v, fired) = verdict(&rule(pred(), Some(0.5), None), &quiet);
        assert_eq!(v, None);
        assert!(!fired);
    }

    #[test]
    fn histogram_percentile_checks_the_newest_snapshot() {
        let records = [rec(0, 1_000, &[], &[("lat_us", &[1000u64; 100] as &[u64])])];
        let pred = || Predicate::HistogramPercentile {
            metric: "lat_us".to_owned(),
            q: 0.99,
        };
        // 100 x 1000 occupies only bucket [512,1024): the refined
        // estimate is sum-bounded but still the bucket cap here (values
        // up to 1023 are consistent with the sum).
        let (v, fired) = verdict(&rule(pred(), None, Some(1023.0)), &records);
        assert_eq!(v, Some(1023.0));
        assert!(!fired, "exactly max passes");
        let (_, fired) = verdict(&rule(pred(), None, Some(1022.0)), &records);
        assert!(fired);
        // Missing histogram: na.
        let missing = Predicate::HistogramPercentile {
            metric: "nope".to_owned(),
            q: 0.5,
        };
        let (v, fired) = verdict(&rule(missing, None, Some(1.0)), &records);
        assert_eq!(v, None);
        assert!(!fired);
    }

    #[test]
    fn trailing_window_drops_old_records() {
        let mut rules = rule(
            Predicate::CounterRate {
                metric: "c".to_owned(),
            },
            None,
            Some(1000.0),
        );
        rules.window_s = Some(10.0);
        // 100s of history; only the last 10s (two records) qualify.
        let records = [
            rec(0, 0, &[("c", 0)], &[]),
            rec(1, 95_000, &[("c", 500)], &[]),
            rec(2, 100_000, &[("c", 600)], &[]),
        ];
        let report = evaluate(&rules, &records);
        assert_eq!(report.snapshots, 2, "the 100s-old record is outside the window");
        assert_eq!(report.outcomes[0].value, Some(20.0), "100 over 5s");
    }

    #[test]
    fn parse_accepts_the_documented_format() {
        let text = r#"{"window_s": 300, "rules": [
            {"name":"shed","kind":"counter_rate","metric":"serve_jobs_rejected","max":5},
            {"name":"done","kind":"gauge","metric":"serve_jobs_completed","min":1},
            {"name":"hits","kind":"cache_hit_ratio","hits":"h","misses":"m","min":0.9},
            {"name":"p99","kind":"histogram_percentile","metric":"serve_vet_us","q":0.99,"max":500000}
        ]}"#;
        let rules = parse_rules(text).expect("parses");
        assert_eq!(rules.window_s, Some(300.0));
        assert_eq!(rules.rules.len(), 4);
        assert_eq!(
            rules.rules[3].predicate,
            Predicate::HistogramPercentile {
                metric: "serve_vet_us".to_owned(),
                q: 0.99
            }
        );
    }

    #[test]
    fn parse_rejects_malformed_rules() {
        let no_bounds = r#"{"rules":[{"name":"x","kind":"gauge","metric":"m"}]}"#;
        assert!(parse_rules(no_bounds).unwrap_err().contains("min"));
        let bad_kind = r#"{"rules":[{"name":"x","kind":"quantile","metric":"m","max":1}]}"#;
        assert!(parse_rules(bad_kind).unwrap_err().contains("unknown kind"));
        let bad_q =
            r#"{"rules":[{"name":"x","kind":"histogram_percentile","metric":"m","q":1.5,"max":1}]}"#;
        assert!(parse_rules(bad_q).unwrap_err().contains('q'));
        let no_name = r#"{"rules":[{"kind":"gauge","metric":"m","max":1}]}"#;
        assert!(parse_rules(no_name).unwrap_err().contains("name"));
        let nan_bound = r#"{"rules":[{"name":"x","kind":"gauge","metric":"m","max":"wat"}]}"#;
        assert!(parse_rules(nan_bound).unwrap_err().contains("finite"));
    }

    #[test]
    fn report_renders_verdicts_and_counts_violations() {
        let rules = AlertRules {
            rules: vec![
                AlertRule {
                    name: "ok-rule".to_owned(),
                    predicate: Predicate::Gauge {
                        metric: "c".to_owned(),
                    },
                    min: Some(1.0),
                    max: None,
                },
                AlertRule {
                    name: "bad-rule".to_owned(),
                    predicate: Predicate::Gauge {
                        metric: "c".to_owned(),
                    },
                    min: None,
                    max: Some(1.0),
                },
            ],
            window_s: None,
        };
        let report = evaluate(&rules, &[rec(0, 1_000, &[("c", 3)], &[])]);
        assert_eq!(report.violations(), 1);
        assert!(!report.passed());
        let text = report.to_string();
        assert!(text.contains("FAIL  bad-rule"), "{text}");
        assert!(text.contains("ok    ok-rule"), "{text}");
        assert!(text.contains("FAILED (1 of 2"), "{text}");
    }
}

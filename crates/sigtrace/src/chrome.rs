//! `chrome://tracing` / Perfetto `trace_event` JSON output.
//!
//! A rendering of what a [`SpanCollector`] recorded: its spans as
//! complete events (`"ph":"X"`) named by [`Layer::name`](crate::Layer::name),
//! plus one counter event (`"ph":"C"`) per non-zero pipeline counter.
//! The JSON is hand-built against `std` only — this crate must stay
//! dependency-free — and is covered by a test that round-trips it
//! through the workspace's `minijson` parser.

use crate::span::SpanCollector;
use std::fmt::Write as _;

impl SpanCollector {
    /// Serializes everything recorded so far as a `trace_event` JSON
    /// document (the `{"traceEvents": [...]}` object form) loadable by
    /// `chrome://tracing` and Perfetto (`ui.perfetto.dev`).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.spans().len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\
             \"args\":{\"name\":\"addon-sig pipeline\"}}",
        );
        for span in self.spans() {
            let _ = write!(
                out,
                ",{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"pipeline\",\"name\":\"{}\",\
                 \"ts\":{},\"dur\":{}}}",
                span.layer.name(),
                span.start_us,
                span.dur_us,
            );
        }
        // Counters as a single sample at the end of the run: the totals
        // are what is deterministic, not any intermediate trajectory.
        let end_us = self
            .spans()
            .iter()
            .map(|s| s.start_us + s.dur_us)
            .max()
            .unwrap_or(0);
        for (c, v) in self.counters().iter() {
            if v == 0 {
                continue;
            }
            let _ = write!(
                out,
                ",{{\"ph\":\"C\",\"pid\":1,\"tid\":1,\"name\":\"{}\",\"ts\":{},\
                 \"args\":{{\"value\":{}}}}}",
                c.name(),
                end_us,
                v,
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, Counters, Layer, Trace};
    use minijson::Json;

    /// Records the pipeline's span shape: every layer once, flat.
    fn sample() -> SpanCollector {
        let mut w = SpanCollector::new();
        let mut t = Trace::On(&mut w);
        for layer in Layer::ALL {
            t.span(layer, |t| {
                if layer == Layer::Fixpoint {
                    let mut counters = Counters::new();
                    counters.add(Counter::WorklistSteps, 1024);
                    counters.add(Counter::StateJoins, 96);
                    t.add_counters(&counters);
                }
            });
        }
        w
    }

    #[test]
    fn output_parses_with_minijson_and_has_the_trace_event_shape() {
        let doc = Json::parse(&sample().to_chrome_json()).expect("valid JSON");
        assert_eq!(doc["displayTimeUnit"].as_str(), Some("ms"));
        let events = doc["traceEvents"].as_array().expect("traceEvents array");
        assert!(!events.is_empty());
        for ev in events {
            let ph = ev["ph"].as_str().expect("ph");
            assert!(matches!(ph, "X" | "C" | "M"), "unexpected phase {ph}");
            assert!(ev["name"].as_str().is_some());
            if ph == "X" {
                assert!(ev["ts"].as_f64().is_some());
                assert!(ev["dur"].as_f64().is_some());
            }
        }
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e["ph"] == Json::Str("X".into()))
            .filter_map(|e| e["name"].as_str())
            .collect();
        assert_eq!(names, Layer::ALL.map(Layer::name));
        assert!(events
            .iter()
            .any(|e| e["name"].as_str() == Some("worklist_steps")));
    }

    #[test]
    fn complete_events_nest_strictly() {
        let doc = Json::parse(&sample().to_chrome_json()).expect("valid JSON");
        let events = doc["traceEvents"].as_array().unwrap();
        let spans: Vec<(f64, f64)> = events
            .iter()
            .filter(|e| e["ph"] == Json::Str("X".into()))
            .map(|e| {
                let ts = e["ts"].as_f64().unwrap();
                (ts, ts + e["dur"].as_f64().unwrap())
            })
            .collect();
        // Any two spans either nest or are disjoint — never partially
        // overlap (single-threaded pipeline, stack discipline).
        for (i, &(s1, e1)) in spans.iter().enumerate() {
            for &(s2, e2) in &spans[i + 1..] {
                let nested = (s1 <= s2 && e2 <= e1) || (s2 <= s1 && e1 <= e2);
                let disjoint = e1 <= s2 || e2 <= s1;
                assert!(nested || disjoint, "spans partially overlap");
            }
        }
    }
}

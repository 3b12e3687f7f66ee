//! Renders one job's cross-node lifecycle as a Chrome trace.
//!
//! `vet trace-job <job-id>` answers "where did this job's wall time
//! go" for a *fleet* job whose lifecycle spans processes: enqueue on
//! the coordinator, queue wait, claim + phases on a worker, response
//! back on the coordinator. Input is a JSONL log body — either a
//! single daemon's log or the output of
//! [`merge_fleet_logs`](crate::merge_fleet_logs), whose records carry
//! `node` provenance — folded into the job's
//! [`JobTimeline`], the record replay validates. Output is Chrome's JSON
//! trace format (load it at `chrome://tracing` or in Perfetto): one
//! process per node, complete (`ph:"X"`) slices for each lifecycle
//! interval, with the job's `job_profile` hotspot postmortem attached
//! to the analyze slice as args.
//!
//! Timestamps come from each node's own `ts_us` clock, so cross-node
//! intervals (queue wait measured enqueue-on-coordinator →
//! dequeue-on-worker) can go negative under clock skew; such durations
//! clamp to zero rather than failing — the skew is the finding.

use minijson::Json;

use crate::replay::{job_timelines, parse_log, JobTimeline};

fn process_name(pid: usize, name: &str) -> Json {
    let mut m = Json::obj();
    m.set("ph", Json::from("M"));
    m.set("name", Json::from("process_name"));
    m.set("pid", Json::from(pid as f64));
    let mut args = Json::obj();
    args.set("name", Json::from(name));
    m.set("args", args);
    m
}

/// An args object holding `key` when `value` is known.
fn arg(key: &str, value: Option<&str>) -> Json {
    let mut args = Json::obj();
    if let Some(v) = value {
        args.set(key, Json::from(v));
    }
    args
}

/// Renders a [`JobTimeline`] as a Chrome trace document:
/// `{"displayTimeUnit":"ms","traceEvents":[...]}`. Each node becomes a
/// process (pid in order of lifecycle appearance); lifecycle slices go
/// on tid 0, pipeline phase slices on tid 1 at their logged
/// `[start_us, start_us + dur_us]`, so nested spans nest exactly. Spans
/// from older logs, which carry no `start_us`, are laid back-to-back so
/// they end at `job_computed`. The `job_profile` hotspots ride on the
/// analyze slice's args, so the postmortem is visible in the viewer. A
/// coalesced job is one slice from `job_coalesced` to `job_done` naming
/// its producer, and a rejected job a zero-length slice naming why.
pub fn chrome_trace(t: &JobTimeline) -> Json {
    let mut nodes: Vec<String> = Vec::new();
    let mut events: Vec<Json> = Vec::new();
    // A `ph:"X"` complete event on `node`'s process. Durations clamp at
    // zero — cross-node intervals are measured on different clocks.
    let mut slice = |name: &str, node: &str, tid: u64, ts: u64, end: u64, args: Json| {
        let pid = nodes.iter().position(|n| n == node).unwrap_or_else(|| {
            nodes.push(node.to_owned());
            nodes.len() - 1
        });
        let mut e = Json::obj();
        e.set("ph", Json::from("X"));
        e.set("name", Json::from(name));
        e.set("pid", Json::from(pid as f64));
        e.set("tid", Json::from(tid as f64));
        e.set("ts", Json::from(ts as f64));
        e.set("dur", Json::from(end.saturating_sub(ts) as f64));
        if !matches!(args, Json::Null) {
            e.set("args", args);
        }
        events.push(e);
    };

    if let (Some(enq), Some(deq)) = (&t.enqueued, &t.dequeued) {
        // The wait belongs to the enqueuing node's lane: that is where
        // the job sat.
        let args = arg("claimed_by", Some(&deq.node));
        slice("queue wait", &enq.node, 0, enq.ts_us, deq.ts_us, args);
    }
    if let (Some(deq), Some(comp)) = (&t.dequeued, &t.computed) {
        let mut args = arg("verdict", t.verdict.as_deref());
        if let Some(steps) = t.profile_steps {
            args.set("total_steps", Json::from(steps as f64));
        }
        if let Some(hotspots) = &t.logged_hotspots {
            args.set("hotspots", hotspots.clone());
        }
        slice("analyze", &deq.node, 0, deq.ts_us, comp.ts_us, args);
        // Phase slices at their logged starts; spans without one are
        // laid back-to-back, ending at the computed timestamp.
        let total: u64 = t.spans.iter().filter(|s| s.1.is_none()).map(|s| s.2).sum();
        let mut at = comp.ts_us.saturating_sub(total).max(deq.ts_us);
        for (name, start, dur) in &t.spans {
            let ts = start.unwrap_or(at);
            slice(name, &deq.node, 1, ts, ts + dur, Json::Null);
            if start.is_none() {
                at += dur;
            }
        }
    }
    if let (Some(hit), Some(done)) = (&t.cache_hit, &t.done) {
        slice("cache hit", &hit.node, 0, hit.ts_us, done.ts_us, Json::Null);
    }
    if let (Some(co), Some(done)) = (&t.coalesced, &t.done) {
        let args = arg("producer", t.producer.as_deref());
        slice("coalesced", &co.node, 0, co.ts_us, done.ts_us, args);
    }
    if let (Some(comp), Some(done)) = (&t.computed, &t.done) {
        slice("respond", &done.node, 0, comp.ts_us, done.ts_us, Json::Null);
    }
    if let Some(rej) = &t.rejected {
        let args = arg("reason", t.reason.as_deref());
        slice("rejected", &rej.node, 0, rej.ts_us, rej.ts_us, args);
    }

    let mut trace: Vec<Json> = nodes
        .iter()
        .enumerate()
        .map(|(pid, name)| process_name(pid, name))
        .collect();
    trace.extend(events);
    let mut doc = Json::obj();
    doc.set("displayTimeUnit", Json::from("ms"));
    doc.set("traceEvents", Json::Arr(trace));
    doc
}

/// Folds a JSONL log body and renders job `job_id`'s lifecycle with
/// [`chrome_trace`], as compact JSON text. Records without `node`
/// provenance (a single daemon's own log) land on the synthetic node
/// `"local"`. Returns an error when the log is malformed (see
/// [`replay_log`](crate::replay::replay_log)) or no lifecycle record
/// names the job.
pub fn job_chrome_trace(log: &str, job_id: &str) -> Result<String, String> {
    let timeline = job_timelines(&parse_log(log)?)
        .remove(job_id)
        .ok_or_else(|| format!("no record mentions job {job_id}"))?;
    Ok(chrome_trace(&timeline).to_string_compact())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge_fleet_logs;
    use crate::replay::{replay_log, Logged, Outcome};

    /// One job's timeline folded from a log body.
    fn timeline(log: &str, job: &str) -> JobTimeline {
        job_timelines(&parse_log(log).unwrap()).remove(job).unwrap()
    }

    fn line(seq: u64, ts: u64, event: &str, fields: &[(&str, Json)]) -> String {
        let mut r = Json::obj();
        r.set("seq", Json::from(seq as f64));
        r.set("ts_us", Json::from(ts as f64));
        r.set("level", Json::from("info"));
        r.set("event", Json::from(event));
        for (k, v) in fields {
            r.set(k, v.clone());
        }
        r.to_string_compact()
    }

    fn j(job: &str) -> (&'static str, Json) {
        ("job", Json::from(job))
    }

    #[test]
    fn fleet_job_reconstructs_across_nodes() {
        let coord = [
            line(0, 1_000, "job_enqueued", &[j("j-0")]),
            line(1, 9_000, "job_done", &[j("j-0"), ("micros", Json::from(8000.0))]),
        ]
        .join("\n");
        let worker = [
            line(0, 3_000, "job_dequeued", &[j("j-0")]),
            line(1, 6_800, "span", &[j("j-0"), ("span", Json::from("phase1")), ("dur_us", Json::from(3000.0))]),
            line(2, 6_900, "span", &[j("j-0"), ("span", Json::from("phase2")), ("dur_us", Json::from(700.0))]),
            line(3, 7_000, "job_computed", &[j("j-0"), ("verdict", Json::from("pass"))]),
        ]
        .join("\n");
        let merged = merge_fleet_logs(&[("coord", &coord), ("w0", &worker)]).unwrap();
        let t = timeline(&merged, "j-0");
        let at = |l: &Option<Logged>| l.as_ref().map(|l| (l.node.clone(), l.ts_us));
        assert_eq!(at(&t.enqueued), Some(("coord".to_owned(), 1_000)));
        assert_eq!(at(&t.dequeued), Some(("w0".to_owned(), 3_000)));
        assert_eq!(t.verdict.as_deref(), Some("pass"));

        let trace = chrome_trace(&t);
        let events = match &trace["traceEvents"] {
            Json::Arr(e) => e,
            other => panic!("traceEvents not an array: {other:?}"),
        };
        // Two process_name metadata records: coord and w0.
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("M"))
            .filter_map(|e| e["args"]["name"].as_str())
            .collect();
        assert_eq!(names, ["coord", "w0"]);
        let find = |name: &str| {
            events
                .iter()
                .find(|e| e["name"].as_str() == Some(name))
                .unwrap_or_else(|| panic!("no slice named {name}"))
        };
        let wait = find("queue wait");
        assert_eq!(wait["ts"].as_f64(), Some(1_000.0));
        assert_eq!(wait["dur"].as_f64(), Some(2_000.0));
        let analyze = find("analyze");
        assert_eq!(analyze["dur"].as_f64(), Some(4_000.0));
        assert_eq!(analyze["args"]["verdict"].as_str(), Some("pass"));
        // Phases end exactly at job_computed.
        let p2 = find("phase2");
        assert_eq!(
            p2["ts"].as_f64().unwrap() + p2["dur"].as_f64().unwrap(),
            7_000.0
        );
        let respond = find("respond");
        assert_eq!(respond["dur"].as_f64(), Some(2_000.0));
        // Deterministic output.
        assert_eq!(
            job_chrome_trace(&merged, "j-0").unwrap(),
            job_chrome_trace(&merged, "j-0").unwrap()
        );
    }

    #[test]
    fn logged_span_starts_nest_children_inside_parents() {
        // As a debug-level daemon logs them: children close (and are
        // logged) before their parent, each with its start on the
        // node's clock.
        let span = |seq, ts, name: &str, depth: f64, start: f64, dur: f64| {
            line(
                seq,
                ts,
                "span",
                &[
                    j("j-0"),
                    ("span", Json::from(name)),
                    ("depth", Json::from(depth)),
                    ("start_us", Json::from(start)),
                    ("dur_us", Json::from(dur)),
                ],
            )
        };
        let log = [
            line(0, 1_000, "job_enqueued", &[j("j-0")]),
            line(1, 2_000, "job_dequeued", &[j("j-0")]),
            span(2, 2_700, "fixpoint", 1.0, 2_200.0, 500.0),
            span(3, 2_800, "phase1", 0.0, 2_100.0, 700.0),
            line(
                4,
                3_000,
                "job_computed",
                &[j("j-0"), ("verdict", Json::from("ok"))],
            ),
            line(5, 3_100, "job_done", &[j("j-0")]),
        ]
        .join("\n");
        let trace = chrome_trace(&timeline(&log, "j-0"));
        let Json::Arr(events) = &trace["traceEvents"] else {
            panic!()
        };
        let bounds = |e: &Json| {
            let ts = e["ts"].as_f64().unwrap();
            (ts, ts + e["dur"].as_f64().unwrap())
        };
        let find = |name: &str| {
            let event = events.iter().find(|e| e["name"].as_str() == Some(name));
            bounds(event.unwrap())
        };
        let ((p_start, p_end), (c_start, c_end)) = (find("phase1"), find("fixpoint"));
        assert_eq!((p_start, p_end), (2_100.0, 2_800.0));
        assert!(
            p_start <= c_start && c_end <= p_end,
            "child nests in parent"
        );
        let lane_end = events
            .iter()
            .filter(|e| e["tid"].as_f64() == Some(1.0))
            .map(|e| bounds(e).1)
            .fold(0.0, f64::max);
        assert!(
            lane_end <= find("analyze").1,
            "phase lane ends by job_computed"
        );
    }

    #[test]
    fn clock_skew_clamps_instead_of_failing() {
        // The worker's clock sits *behind* the coordinator's: dequeue
        // timestamp precedes enqueue. The wait slice clamps to zero.
        let coord = [
            line(0, 5_000, "job_enqueued", &[j("j-0")]),
            line(1, 9_000, "job_done", &[j("j-0")]),
        ]
        .join("\n");
        let worker = [
            line(0, 100, "job_dequeued", &[j("j-0")]),
            line(1, 200, "job_computed", &[j("j-0"), ("verdict", Json::from("pass"))]),
        ]
        .join("\n");
        let merged = merge_fleet_logs(&[("coord", &coord), ("w0", &worker)]).unwrap();
        let trace = chrome_trace(&timeline(&merged, "j-0"));
        let Json::Arr(events) = &trace["traceEvents"] else {
            panic!()
        };
        let wait = events
            .iter()
            .find(|e| e["name"].as_str() == Some("queue wait"))
            .unwrap();
        assert_eq!(wait["dur"].as_f64(), Some(0.0), "negative wait clamps");
    }

    #[test]
    fn postmortem_hotspots_ride_the_analyze_slice() {
        let mut hot = Json::obj();
        hot.set("func", Json::from("loop"));
        hot.set("ctx", Json::from("0"));
        hot.set("phase", Json::from("fixpoint"));
        hot.set("steps", Json::from(90.0));
        hot.set("time_us", Json::from(500.0));
        let log = [
            line(0, 1_000, "job_enqueued", &[j("j-0")]),
            line(1, 2_000, "job_dequeued", &[j("j-0")]),
            line(2, 5_000, "job_computed", &[j("j-0"), ("verdict", Json::from("timeout"))]),
            line(3, 5_010, "job_profile", &[j("j-0"), ("verdict", Json::from("timeout")), ("total_steps", Json::from(100.0)), ("hotspots", Json::Arr(vec![hot]))]),
            line(4, 6_000, "job_done", &[j("j-0")]),
        ]
        .join("\n");
        let trace = chrome_trace(&timeline(&log, "j-0"));
        let Json::Arr(events) = &trace["traceEvents"] else {
            panic!()
        };
        // Single-node log: everything on the synthetic "local" process.
        let analyze = events
            .iter()
            .find(|e| e["name"].as_str() == Some("analyze"))
            .unwrap();
        assert_eq!(analyze["args"]["total_steps"].as_f64(), Some(100.0));
        assert_eq!(
            analyze["args"]["hotspots"][0]["func"].as_str(),
            Some("loop")
        );
        let m = events.iter().find(|e| e["ph"].as_str() == Some("M")).unwrap();
        assert_eq!(m["args"]["name"].as_str(), Some("local"));
    }

    #[test]
    fn the_trace_draws_the_compute_replay_counts() {
        // A second `job_computed` fails replay; the trace still draws
        // the first, the one replay would have counted.
        let log = [
            line(0, 1_000, "job_enqueued", &[j("j-0")]),
            line(1, 2_000, "job_dequeued", &[j("j-0")]),
            line(2, 3_000, "job_computed", &[j("j-0"), ("verdict", Json::from("ok"))]),
            line(3, 4_000, "job_computed", &[j("j-0"), ("verdict", Json::from("timeout"))]),
            line(4, 5_000, "job_done", &[j("j-0")]),
        ]
        .join("\n");
        assert!(replay_log(&log).unwrap_err().contains("second job_computed at seq 3"));
        let trace = chrome_trace(&timeline(&log, "j-0"));
        let Json::Arr(events) = &trace["traceEvents"] else {
            panic!()
        };
        let analyze = events
            .iter()
            .find(|e| e["name"].as_str() == Some("analyze"))
            .unwrap();
        assert_eq!(analyze["dur"].as_f64(), Some(1_000.0));
        assert_eq!(analyze["args"]["verdict"].as_str(), Some("ok"));
    }

    #[test]
    fn unknown_job_is_an_error() {
        let log = line(0, 1_000, "job_enqueued", &[j("j-0")]);
        let err = job_chrome_trace(&log, "j-9").unwrap_err();
        assert!(err.contains("j-9"), "{err}");
    }

    #[test]
    fn every_outcome_renders_slices_that_nest_or_are_disjoint() {
        let log = [
            line(0, 1_000, "job_enqueued", &[j("j-0")]),
            line(1, 1_100, "job_dequeued", &[j("j-0")]),
            line(2, 1_150, "job_coalesced", &[j("j-1"), ("producer", Json::from("j-0"))]),
            line(3, 1_200, "job_rejected", &[j("j-2"), ("reason", Json::from("overloaded"))]),
            line(
                4,
                1_800,
                "span",
                &[
                    j("j-0"),
                    ("span", Json::from("jsanalysis.fixpoint")),
                    ("start_us", Json::from(1_150.0)),
                    ("dur_us", Json::from(600.0)),
                ],
            ),
            line(5, 2_000, "job_computed", &[j("j-0"), ("verdict", Json::from("ok"))]),
            line(6, 2_100, "job_done", &[j("j-0")]),
            line(7, 2_110, "job_done", &[j("j-1")]),
            line(8, 2_200, "cache_hit", &[j("j-3"), ("producer", Json::from("j-0"))]),
            line(9, 2_210, "job_done", &[j("j-3")]),
        ]
        .join("\n");
        let replay = replay_log(&log).expect("log replays");
        let outcomes = [
            ("j-0", Outcome::Computed),
            ("j-1", Outcome::Coalesced),
            ("j-2", Outcome::Rejected),
            ("j-3", Outcome::CacheHit),
        ];
        for (job, outcome) in outcomes {
            let t = &replay.timelines[job];
            assert_eq!(t.outcome, Some(outcome), "{job}");
            let trace = chrome_trace(t);
            let Json::Arr(events) = &trace["traceEvents"] else {
                panic!()
            };
            let slices: Vec<(f64, f64)> = events
                .iter()
                .filter(|e| e["ph"].as_str() == Some("X"))
                .map(|e| {
                    let ts = e["ts"].as_f64().unwrap();
                    (ts, ts + e["dur"].as_f64().unwrap())
                })
                .collect();
            assert!(!slices.is_empty(), "{job}: no complete event");
            for (i, &(s1, e1)) in slices.iter().enumerate() {
                for &(s2, e2) in &slices[i + 1..] {
                    let nested = (s1 <= s2 && e2 <= e1) || (s2 <= s1 && e1 <= e2);
                    assert!(nested || e1 <= s2 || e2 <= s1, "{job}: slices partially overlap");
                }
            }
        }
        let only = |job: &str| {
            let trace = chrome_trace(&replay.timelines[job]);
            trace["traceEvents"][1].clone()
        };
        let coalesced = only("j-1");
        assert_eq!(coalesced["name"].as_str(), Some("coalesced"));
        assert_eq!((coalesced["ts"].as_f64(), coalesced["dur"].as_f64()), (Some(1_150.0), Some(960.0)));
        assert_eq!(coalesced["args"]["producer"].as_str(), Some("j-0"));
        let rejected = only("j-2");
        assert_eq!(rejected["name"].as_str(), Some("rejected"));
        assert_eq!(rejected["dur"].as_f64(), Some(0.0));
        assert_eq!(rejected["args"]["reason"].as_str(), Some("overloaded"));
    }
}

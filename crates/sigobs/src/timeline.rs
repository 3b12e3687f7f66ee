//! Reconstructs one job's cross-node timeline as a Chrome trace.
//!
//! `vet trace-job <job-id>` answers "where did this job's wall time
//! go" for a *fleet* job whose lifecycle spans processes: enqueue on
//! the coordinator, queue wait, claim + phases on a worker, response
//! back on the coordinator. Input is a JSONL log body — either a
//! single daemon's log or the output of
//! [`merge_fleet_logs`](crate::merge_fleet_logs), whose records carry
//! `node` provenance. Output is Chrome's JSON trace format (load it at
//! `chrome://tracing` or in Perfetto): one process per node, complete
//! (`ph:"X"`) slices for each lifecycle interval, with the job's
//! `job_profile` hotspot postmortem attached to the analyze slice as
//! args.
//!
//! Timestamps come from each node's own `ts_us` clock, so cross-node
//! intervals (queue wait measured enqueue-on-coordinator →
//! dequeue-on-worker) can go negative under clock skew; such durations
//! clamp to zero rather than failing — the skew is the finding.

use minijson::Json;

/// One job's reconstructed intervals, before Chrome encoding — kept
/// public so tests (and future renderers) can assert on semantics
/// rather than parse the trace JSON back.
#[derive(Debug, Clone, Default)]
pub struct JobIntervals {
    /// The job ID the intervals describe.
    pub job: String,
    /// Node that enqueued (coordinator in a fleet; the daemon itself
    /// single-node), with the `ts_us` of `job_enqueued`.
    pub enqueued: Option<(String, u64)>,
    /// Node that dequeued/claimed the job, with its `ts_us`.
    pub dequeued: Option<(String, u64)>,
    /// `ts_us` of `job_computed` plus the verdict.
    pub computed: Option<(String, u64)>,
    /// Verdict string from `job_computed`.
    pub verdict: Option<String>,
    /// `ts_us` of `cache_hit`, when served from cache instead.
    pub cache_hit: Option<(String, u64)>,
    /// Node and `ts_us` of `job_done`.
    pub done: Option<(String, u64)>,
    /// Pipeline phase spans attributed to the job, in log order:
    /// `(name, start_us, dur_us)`. `start_us` is on the logging node's
    /// `ts_us` clock; logs written before span records carried it give
    /// `None`.
    pub spans: Vec<(String, Option<u64>, u64)>,
    /// The `job_profile` postmortem record, verbatim, if one was kept.
    pub profile: Option<Json>,
}

fn node_of(record: &Json) -> String {
    record["node"].as_str().unwrap_or("local").to_owned()
}

fn ts_of(record: &Json) -> Option<u64> {
    record["ts_us"].as_f64().map(|n| n as u64)
}

/// Extracts one job's lifecycle intervals from a JSONL log body.
/// Records without `node` provenance (a single daemon's own log) land
/// on the synthetic node `"local"`. Returns an error when the log has
/// an unparseable line or no record mentions the job.
pub fn job_intervals(log: &str, job_id: &str) -> Result<JobIntervals, String> {
    let mut iv = JobIntervals {
        job: job_id.to_owned(),
        ..JobIntervals::default()
    };
    let mut seen = false;
    for (i, line) in log.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record =
            Json::parse(line).map_err(|e| format!("log line {}: {e}", i + 1))?;
        if record["job"].as_str() != Some(job_id) {
            continue;
        }
        seen = true;
        let (Some(event), Some(ts)) = (record["event"].as_str(), ts_of(&record)) else {
            continue;
        };
        let at = || (node_of(&record), ts);
        match event {
            "job_enqueued" => iv.enqueued = Some(at()),
            // Keep the *last* dequeue: a requeued job's first claimant
            // died, and the rescue claim is the one that computed.
            "job_dequeued" => iv.dequeued = Some(at()),
            "job_computed" => {
                iv.computed = Some(at());
                iv.verdict = record["verdict"].as_str().map(str::to_owned);
            }
            "cache_hit" => iv.cache_hit = Some(at()),
            "job_done" => iv.done = Some(at()),
            "span" => {
                if let (Some(name), Some(dur)) =
                    (record["span"].as_str(), record["dur_us"].as_f64())
                {
                    let start = record["start_us"].as_f64().map(|s| s as u64);
                    iv.spans.push((name.to_owned(), start, dur as u64));
                }
            }
            "job_profile" => iv.profile = Some(record.clone()),
            _ => {}
        }
    }
    if !seen {
        return Err(format!("no record mentions job {job_id}"));
    }
    Ok(iv)
}

/// A `ph:"X"` complete event. Durations clamp at zero — cross-node
/// intervals are measured on different clocks.
fn slice(name: &str, pid: usize, tid: u64, ts: u64, end: u64, args: Json) -> Json {
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
    e
}

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

/// Renders [`JobIntervals`] as a Chrome trace document:
/// `{"displayTimeUnit":"ms","traceEvents":[...]}`. Each node becomes a
/// process (pid in order of lifecycle appearance); lifecycle slices go
/// on tid 0, pipeline phase slices on tid 1 at their logged
/// `[start_us, start_us + dur_us]`, so nested spans nest exactly. Spans
/// from older logs, which carry no `start_us`, are laid back-to-back so
/// they end at `job_computed`. The `job_profile` hotspots ride on the
/// analyze slice's args, so the postmortem is visible in the viewer.
pub fn chrome_trace(iv: &JobIntervals) -> Json {
    let mut nodes: Vec<String> = Vec::new();
    let pid_of = |name: &str, nodes: &mut Vec<String>| -> usize {
        match nodes.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                nodes.push(name.to_owned());
                nodes.len() - 1
            }
        }
    };
    let mut events: Vec<Json> = Vec::new();
    let mut slices: Vec<Json> = Vec::new();

    if let (Some((enq_node, enq_ts)), Some((deq_node, deq_ts))) =
        (&iv.enqueued, &iv.dequeued)
    {
        let pid = pid_of(enq_node, &mut nodes);
        // The wait belongs to the enqueuing node's lane: that is where
        // the job sat.
        let mut args = Json::obj();
        args.set("claimed_by", Json::from(deq_node.as_str()));
        slices.push(slice("queue wait", pid, 0, *enq_ts, *deq_ts, args));
    }
    if let (Some((deq_node, deq_ts)), Some((_, comp_ts))) = (&iv.dequeued, &iv.computed) {
        let pid = pid_of(deq_node, &mut nodes);
        let mut args = Json::obj();
        if let Some(v) = &iv.verdict {
            args.set("verdict", Json::from(v.as_str()));
        }
        if let Some(profile) = &iv.profile {
            for key in ["total_steps", "hotspots"] {
                if let Some(v) = profile.get(key) {
                    args.set(key, v.clone());
                }
            }
        }
        slices.push(slice("analyze", pid, 0, *deq_ts, *comp_ts, args));
        // Phase slices at their logged starts; spans without one are
        // laid back-to-back, ending at the computed timestamp.
        let total: u64 = iv.spans.iter().filter(|s| s.1.is_none()).map(|s| s.2).sum();
        let mut at = comp_ts.saturating_sub(total).max(*deq_ts);
        for (name, start, dur) in &iv.spans {
            let ts = start.unwrap_or(at);
            slices.push(slice(name, pid, 1, ts, ts + dur, Json::Null));
            if start.is_none() {
                at += dur;
            }
        }
    }
    if let (Some((hit_node, hit_ts)), Some((_, done_ts))) = (&iv.cache_hit, &iv.done) {
        let pid = pid_of(hit_node, &mut nodes);
        slices.push(slice("cache hit", pid, 0, *hit_ts, *done_ts, Json::Null));
    }
    if let (Some((_, comp_ts)), Some((done_node, done_ts))) = (&iv.computed, &iv.done) {
        let pid = pid_of(done_node, &mut nodes);
        slices.push(slice("respond", pid, 0, *comp_ts, *done_ts, Json::Null));
    }

    for (pid, name) in nodes.iter().enumerate() {
        events.push(process_name(pid, name));
    }
    events.extend(slices);

    let mut doc = Json::obj();
    doc.set("displayTimeUnit", Json::from("ms"));
    doc.set("traceEvents", Json::Arr(events));
    doc
}

/// [`job_intervals`] + [`chrome_trace`]: one call from log body to
/// Chrome trace JSON text.
pub fn job_chrome_trace(log: &str, job_id: &str) -> Result<String, String> {
    Ok(chrome_trace(&job_intervals(log, job_id)?).to_string_compact())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge_fleet_logs;

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
        let iv = job_intervals(&merged, "j-0").expect("intervals");
        assert_eq!(iv.enqueued, Some(("coord".to_owned(), 1_000)));
        assert_eq!(iv.dequeued, Some(("w0".to_owned(), 3_000)));
        assert_eq!(iv.verdict.as_deref(), Some("pass"));

        let trace = chrome_trace(&iv);
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
        let trace = chrome_trace(&job_intervals(&log, "j-0").unwrap());
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
        let trace = chrome_trace(&job_intervals(&merged, "j-0").unwrap());
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
        let trace = chrome_trace(&job_intervals(&log, "j-0").unwrap());
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
    fn unknown_job_is_an_error() {
        let log = line(0, 1_000, "job_enqueued", &[j("j-0")]);
        let err = job_chrome_trace(&log, "j-9").unwrap_err();
        assert!(err.contains("j-9"), "{err}");
    }
}

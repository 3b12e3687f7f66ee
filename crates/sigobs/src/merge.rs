//! Merges per-node fleet event logs into one valid lifecycle replay.
//!
//! A fleet job's lifecycle spans processes: the coordinator logs
//! `job_enqueued` and `job_done`, while the worker that claimed the job
//! logs `job_dequeued`, `job_computed` / `cache_hit`, and its spans.
//! Each process has its own strictly monotone `seq` and its own clock,
//! so neither per-node sequence numbers nor raw `ts_us` timestamps can
//! order the union: clocks skew across processes, and the replay
//! validator ([`crate::replay`]) demands one strictly monotone `seq`
//! with lifecycle events in causal order.
//!
//! [`merge_fleet_logs`] therefore performs a *causal* merge: a
//! topological sort of the union under two kinds of happens-before
//! edges —
//!
//! 1. **Node chains**: records keep their own process's order (same
//!    writer, monotone seq ⇒ real-time order).
//! 2. **Job lifecycle stages**: for every job ID, each present stage of
//!    the lifecycle order [`crate::replay`] validates against
//!    (`job_enqueued` → `job_dequeued` → `job_computed` | `cache_hit` |
//!    `job_coalesced` → `job_profile` → `job_done` | `job_rejected`)
//!    precedes the next present one, linking records on *different*
//!    nodes (same-node pairs are already ordered by their chain).
//!    Requeued jobs may have several records in a stage (two
//!    `job_dequeued`s from two claimants); each links to the whole next
//!    stage.
//!
//! Ready records are emitted smallest-timestamp-first (ties broken by
//! node index, then per-node seq), so the output is deterministic and
//! close to wall-clock order while never violating causality. Output
//! records get a fresh global `seq` (0..), plus `node` and `node_seq`
//! fields preserving their origin. A record's own `node` field (the
//! worker events name the worker's node) becomes `worker_node`, so every
//! merged line has one `node` key.
//!
//! A worker killed mid-job (the reaper scenario) may leave a log whose
//! final line was cut mid-write; the merge tolerates exactly one
//! unparseable *final* line per node, mirroring what a SIGKILL can do
//! to a line-buffered writer. Anything else unparseable is an error.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

use minijson::Json;

use crate::replay::{get_u64, parse_log, Event};

/// One parsed record with its origin.
struct Rec {
    node: usize,
    node_seq: u64,
    ts_us: u64,
    json: Json,
}

/// `text` without its last line when that line is not JSON: a process
/// killed mid-write leaves at most one partial trailing line.
fn without_torn_tail(text: &str) -> &str {
    let body = text.trim_end();
    let start = body.rfind('\n').map_or(0, |i| i + 1);
    if Json::parse(&body[start..]).is_ok() {
        text
    } else {
        &body[..start]
    }
}

/// Merges per-node JSONL logs into one fleet log that passes the
/// replay validator. `nodes` pairs a node name (recorded on every
/// output line) with that node's log text. Returns the merged JSONL
/// body, or an error naming the node and line that broke the contract
/// (unparseable non-final line, non-monotone per-node seq, or a causal
/// cycle — which only a corrupted log can produce).
pub fn merge_fleet_logs(nodes: &[(&str, &str)]) -> Result<String, String> {
    let mut recs: Vec<Rec> = Vec::new();
    for (node, (name, text)) in nodes.iter().enumerate() {
        let records = parse_log(without_torn_tail(text)).map_err(|e| format!("{name}: {e}"))?;
        recs.extend(records.into_iter().map(|(node_seq, json)| Rec {
            node,
            node_seq,
            ts_us: get_u64(&json, "ts_us").unwrap_or(0),
            json,
        }));
    }

    // Happens-before edges: node chains + cross-node lifecycle stages.
    let n = recs.len();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indegree: Vec<usize> = vec![0; n];
    let edge = |succs: &mut Vec<Vec<usize>>, indegree: &mut Vec<usize>, a: usize, b: usize| {
        succs[a].push(b);
        indegree[b] += 1;
    };
    // 1. Chains: recs is grouped by node and per-node ordered already.
    for w in 0..n.saturating_sub(1) {
        if recs[w].node == recs[w + 1].node {
            edge(&mut succs, &mut indegree, w, w + 1);
        }
    }
    // 2. Stages: collect each job's records per lifecycle stage.
    let mut jobs: HashMap<&str, BTreeMap<usize, Vec<usize>>> = HashMap::new();
    for (i, r) in recs.iter().enumerate() {
        let (Some(job), Some(event)) = (r.json["job"].as_str(), r.json["event"].as_str()) else {
            continue;
        };
        if let Some(event) = Event::named(event) {
            jobs.entry(job)
                .or_default()
                .entry(event.stage())
                .or_default()
                .push(i);
        }
    }
    for stages in jobs.values() {
        let present: Vec<&Vec<usize>> = stages.values().collect();
        for pair in present.windows(2) {
            for &a in pair[0] {
                for &b in pair[1] {
                    if recs[a].node != recs[b].node {
                        edge(&mut succs, &mut indegree, a, b);
                    }
                }
            }
        }
    }

    // Kahn's algorithm with a deterministic min-heap ready set.
    let mut heap: BinaryHeap<Reverse<(u64, usize, u64, usize)>> = BinaryHeap::new();
    for (i, r) in recs.iter().enumerate() {
        if indegree[i] == 0 {
            heap.push(Reverse((r.ts_us, r.node, r.node_seq, i)));
        }
    }
    let mut out = String::new();
    let mut emitted = 0u64;
    while let Some(Reverse((_, _, _, i))) = heap.pop() {
        let r = &recs[i];
        let name = nodes[r.node].0;
        let mut o = Json::obj();
        o.set("seq", Json::from(emitted as f64));
        o.set("node", Json::from(name));
        o.set("node_seq", Json::from(r.node_seq as f64));
        if let Json::Obj(entries) = &r.json {
            for (k, v) in entries {
                match k.as_str() {
                    "seq" => {}
                    "node" => {
                        o.set("worker_node", v.clone());
                    }
                    _ => {
                        o.set(k, v.clone());
                    }
                }
            }
        }
        out.push_str(&o.to_string_compact());
        out.push('\n');
        emitted += 1;
        for &s in &succs[i] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                heap.push(Reverse((recs[s].ts_us, recs[s].node, recs[s].node_seq, s)));
            }
        }
    }
    if emitted as usize != n {
        return Err(format!(
            "causal cycle in fleet logs: emitted {emitted} of {n} records"
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{replay_log, Outcome};

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
    fn two_node_lifecycle_merges_and_replays() {
        // Coordinator logs enqueue + done; the worker (with a *skewed
        // clock*: its timestamps sit far in the past) logs dequeue +
        // compute. A timestamp sort would break causality; the causal
        // merge must not.
        let coord = [
            line(0, 5_000, "job_enqueued", &[j("j-0")]),
            line(1, 9_000, "job_done", &[j("j-0"), ("micros", Json::from(70.0))]),
        ]
        .join("\n");
        let worker = [
            line(0, 100, "job_dequeued", &[j("j-0")]),
            line(1, 200, "job_computed", &[j("j-0"), ("verdict", Json::from("pass"))]),
        ]
        .join("\n");
        let merged = merge_fleet_logs(&[("coord", &coord), ("w0", &worker)]).expect("merge");
        let replay = replay_log(&merged).expect("merged log replays");
        assert_eq!(replay.timelines["j-0"].outcome, Some(Outcome::Computed));
        // Origin provenance is preserved on every line.
        for l in merged.lines() {
            let r = Json::parse(l).unwrap();
            assert!(r["node"].as_str().is_some());
            assert!(r["node_seq"].as_f64().is_some());
        }
    }

    #[test]
    fn requeued_job_with_two_dequeues_replays() {
        // Worker A claimed j-0, logged the dequeue, and died; the
        // reaper requeued; worker B rescued it. Both dequeue records
        // survive; the merged lifecycle must still validate (the
        // validator keeps the last dequeue, which precedes compute).
        let coord = [
            line(0, 1_000, "job_enqueued", &[j("j-0")]),
            line(1, 1_500, "job_claimed", &[j("j-0"), ("worker", Json::from("w-0"))]),
            line(2, 2_000, "worker_reaped", &[("worker", Json::from("w-0"))]),
            line(3, 2_001, "job_requeued", &[j("j-0"), ("worker", Json::from("w-0"))]),
            line(4, 3_000, "job_done", &[j("j-0")]),
        ]
        .join("\n");
        let dead = line(0, 1_600, "job_dequeued", &[j("j-0")]);
        let rescue = [
            line(0, 2_100, "job_dequeued", &[j("j-0")]),
            line(1, 2_500, "job_computed", &[j("j-0"), ("verdict", Json::from("pass"))]),
        ]
        .join("\n");
        let merged =
            merge_fleet_logs(&[("coord", &coord), ("dead", &dead), ("rescue", &rescue)])
                .expect("merge");
        let replay = replay_log(&merged).expect("merged log replays");
        assert_eq!(replay.timelines["j-0"].outcome, Some(Outcome::Computed));
        assert_eq!(replay.presumed_rejected, 0);
    }

    #[test]
    fn tolerates_one_truncated_final_line() {
        let coord = [
            line(0, 1_000, "job_enqueued", &[j("j-0")]),
            line(1, 2_000, "job_done", &[j("j-0")]),
        ]
        .join("\n");
        let killed = [
            line(0, 1_100, "job_dequeued", &[j("j-0")]).as_str(),
            // SIGKILL mid-write: the line ends abruptly.
            r#"{"seq":1,"ts_us":1200,"event":"job_compu"#,
        ]
        .join("\n");
        let killed_plus_computed = [
            killed.clone(),
            line(2, 1_300, "job_computed", &[j("j-0"), ("verdict", Json::from("pass"))]),
        ]
        .join("\n");
        // Truncated *final* line: tolerated (the computed record came
        // from a rescue node here).
        let rescue = line(0, 1_400, "job_computed", &[j("j-0"), ("verdict", Json::from("pass"))]);
        let merged = merge_fleet_logs(&[("coord", &coord), ("w0", &killed), ("w1", &rescue)])
            .expect("truncated final line tolerated");
        assert!(replay_log(&merged).is_ok());
        // The same garbage *mid-log* is a hard error.
        let err = merge_fleet_logs(&[("coord", &coord), ("w0", &killed_plus_computed)])
            .expect_err("mid-log garbage rejected");
        assert!(err.contains("w0"), "{err}");
    }

    #[test]
    fn a_worker_event_keeps_the_workers_node_under_its_own_key() {
        let node = ("node", Json::from("rack-1"));
        let coord = [
            line(0, 1_000, "worker_joined", &[("worker", Json::from("w-0")), node.clone()]),
            line(1, 2_000, "worker_reaped", &[("worker", Json::from("w-0")), node]),
        ]
        .join("\n");
        let merged = merge_fleet_logs(&[("coord", &coord)]).expect("merge");
        for l in merged.lines() {
            assert_eq!(l.matches("\"node\":").count(), 1, "{l}");
            let r = Json::parse(l).unwrap();
            assert_eq!(r["node"], "coord");
            assert_eq!(r["worker_node"], "rack-1");
        }
    }

    #[test]
    fn non_monotone_node_seq_is_rejected() {
        let bad = [
            line(3, 1_000, "job_enqueued", &[j("j-0")]),
            line(3, 2_000, "job_done", &[j("j-0")]),
        ]
        .join("\n");
        let err = merge_fleet_logs(&[("n", &bad)]).expect_err("non-monotone");
        assert!(err.contains("monotone"), "{err}");
    }

    #[test]
    fn corrupted_cross_node_order_reports_a_cycle() {
        // Node A says: j-1 done, then j-2 enqueued. Node B says: j-2
        // done, then j-1 enqueued. Each job's enqueue must precede its
        // done, which contradicts both chains — only corruption (or
        // mislabeled logs) produces this, and it must be an error, not
        // an infinite loop or a bogus merge.
        let a = [
            line(0, 1_000, "job_done", &[j("j-1")]),
            line(1, 2_000, "job_enqueued", &[j("j-2")]),
        ]
        .join("\n");
        let b = [
            line(0, 1_000, "job_done", &[j("j-2")]),
            line(1, 2_000, "job_enqueued", &[j("j-1")]),
        ]
        .join("\n");
        let err = merge_fleet_logs(&[("a", &a), ("b", &b)]).expect_err("cycle");
        assert!(err.contains("cycle"), "{err}");
    }

    #[test]
    fn ties_break_deterministically_and_seq_is_monotone() {
        let a = [
            line(0, 1_000, "serve_started", &[]),
            line(1, 1_000, "job_enqueued", &[j("j-0")]),
            line(2, 1_000, "job_rejected", &[j("j-9"), ("reason", Json::from("overloaded"))]),
        ]
        .join("\n");
        let b = line(0, 1_000, "worker_started", &[]);
        let m1 = merge_fleet_logs(&[("a", &a), ("b", &b)]).unwrap();
        let m2 = merge_fleet_logs(&[("a", &a), ("b", &b)]).unwrap();
        assert_eq!(m1, m2);
        let seqs: Vec<u64> = m1
            .lines()
            .map(|l| Json::parse(l).unwrap()["seq"].as_f64().unwrap() as u64)
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }
}

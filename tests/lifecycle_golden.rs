//! A committed golden for what `sigobs` reads from a job's logged
//! lifecycle. Each directory under `tests/golden/lifecycle/` holds the
//! JSONL logs of one real daemon run, one file per node (the file stem
//! names the node, as `vet trace-job --log` does):
//!
//! * `daemon/` — one debug-level daemon: a computed job with its layer
//!   spans (`start_us` on the log's clock), a cache hit, a parse-error
//!   verdict, a step-budget timeout with its `job_profile`, and three
//!   pipelined identical vets, one computed and two coalesced onto it;
//! * `overload/` — a daemon with a queue of one under a batch flood,
//!   its `job_rejected` stream sampled with `suppressed` records;
//! * `fleet/` — a coordinator and two workers: `doomed` claimed the job
//!   and was killed mid-job (its log ends in the torn record a SIGKILL
//!   mid-write leaves), the reaper requeued the job, and `rescue`
//!   computed it; a resubmission is then a cache hit.
//!
//! For each run the golden pins the text of `merge_fleet_logs`, the
//! result of `replay_log` on the merged log and on each node's own log
//! (each job's outcome and the suppression accounting, or the error),
//! and each job's Chrome trace as `vet trace-job` renders it. A change
//! that means to move these outputs replaces
//! `tests/golden/lifecycle/lifecycle.json` with the file the failing
//! run writes and says why in CHANGES.md.

use addon_sig::sigobs;
use minijson::Json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The fixture directory and the committed golden, relative to the
/// package root.
const FIXTURES: &str = "tests/golden/lifecycle";
const GOLDEN: &str = "tests/golden/lifecycle/lifecycle.json";

/// `replay_log`'s result: each job's outcome (`null` for an orphan
/// presumed shed) and the suppression accounting, or the error text.
fn replay(text: &str) -> Json {
    let mut out = Json::obj();
    match sigobs::replay::replay_log(text) {
        Err(e) => {
            out.set("error", Json::from(e));
        }
        Ok(r) => {
            let mut jobs = Json::obj();
            for (id, t) in &r.timelines {
                jobs.set(
                    id,
                    t.outcome
                        .map_or(Json::Null, |o| Json::from(format!("{o:?}"))),
                );
            }
            let mut suppressed = Json::obj();
            for (event, n) in &r.suppressed {
                suppressed.set(event, Json::from(*n as f64));
            }
            out.set("jobs", jobs);
            out.set("suppressed", suppressed);
            out.set("presumed_rejected", Json::from(r.presumed_rejected as f64));
            out.set(
                "presumed_profile_sampled",
                Json::from(r.presumed_profile_sampled as f64),
            );
        }
    }
    out
}

/// One run's entry: merged text, replays and per-job Chrome traces.
fn entry(dir: &Path) -> Json {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|f| f.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    let nodes: Vec<(String, String)> = files
        .iter()
        .map(|p| {
            let node = p.file_stem().and_then(|s| s.to_str()).expect("node name");
            let text =
                std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            (node.to_owned(), text)
        })
        .collect();
    let pairs: Vec<(&str, &str)> = nodes
        .iter()
        .map(|(n, t)| (n.as_str(), t.as_str()))
        .collect();
    let merged =
        sigobs::merge_fleet_logs(&pairs).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));

    let mut replays = Json::obj();
    replays.set("merged", replay(&merged));
    for (node, text) in &nodes {
        replays.set(node, replay(text));
    }
    let jobs: BTreeSet<String> = merged
        .lines()
        .filter_map(|l| Json::parse(l).ok()?["job"].as_str().map(str::to_owned))
        .collect();
    let mut traces = Json::obj();
    for job in &jobs {
        let trace = match sigobs::job_chrome_trace(&merged, job) {
            Ok(text) => {
                let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{job}: {e:?}"));
                // The golden holds the parsed document, so it pins the
                // text only if rendering the parse gives the text back.
                assert_eq!(
                    doc.to_string_compact(),
                    text,
                    "{job}: trace does not round-trip"
                );
                doc
            }
            Err(e) => {
                let mut err = Json::obj();
                err.set("error", Json::from(e));
                err
            }
        };
        traces.set(job, trace);
    }

    let mut out = Json::obj();
    out.set(
        "merged",
        Json::Arr(merged.lines().map(Json::from).collect()),
    );
    out.set("replay", replays);
    out.set("traces", traces);
    out
}

#[test]
fn lifecycle_reads_match_the_committed_golden() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut runs: Vec<PathBuf> = std::fs::read_dir(root.join(FIXTURES))
        .expect("fixture directory")
        .map(|f| f.expect("dir entry").path())
        .filter(|p| p.is_dir())
        .collect();
    runs.sort();
    assert_eq!(runs.len(), 3, "daemon, fleet and overload runs");
    let mut doc = Json::obj();
    for dir in &runs {
        let name = dir.file_name().and_then(|s| s.to_str()).expect("run name");
        doc.set(name, entry(dir));
    }
    let seen = doc.to_string_pretty() + "\n";
    let golden = std::fs::read_to_string(root.join(GOLDEN)).unwrap_or_default();
    if seen == golden {
        return;
    }
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lifecycle.seen.json");
    std::fs::write(&out, &seen).unwrap_or_else(|e| panic!("{}: {e}", out.display()));
    let at = match seen.lines().zip(golden.lines()).position(|(a, b)| a != b) {
        Some(i) => format!("first at line {}", i + 1),
        None => "one is a prefix of the other".to_owned(),
    };
    panic!(
        "this build's lifecycle reads differ from {GOLDEN} ({at}); its output is in {}",
        out.display()
    );
}

//! Integration tests for the structured event log: a real daemon's log
//! file must replay into consistent per-job lifecycles on its own,
//! concurrent batch jobs must carry distinct stable request IDs, and
//! cache hits must record the producing job's ID as provenance.

use addon_sig::sigobs::replay::{replay_log, Outcome};
use addon_sig::sigobs::{EventLog, Level, SamplePolicy};
use addon_sig::sigserve::{Client, ServeConfig, Server};
use addon_sig::sigtrace::Layer;
use minijson::Json;
use std::path::PathBuf;
use std::sync::Arc;

/// A unique temp path per test (no tempfile crate; keyed by pid + name).
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("addon_sig_obs_{}_{name}", std::process::id()))
}

fn bind_with_log(cfg: ServeConfig) -> Server {
    Server::builder()
        .config(cfg)
        .addr("127.0.0.1:0")
        .analyze(addon_sig::service_engine)
        .start()
        .expect("bind")
}

#[test]
fn full_lifecycle_replays_from_the_log_file_alone() {
    let log_path = temp_path("lifecycle.jsonl");
    let log = Arc::new(EventLog::to_file(&log_path, Level::Debug).expect("create log"));
    let cfg = ServeConfig {
        workers: 2,
        log: Some(log),
        ..ServeConfig::default()
    };
    let server = bind_with_log(cfg);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // One computed job, one cache hit of the same source, one error.
    let good = "var u = content.location.href; \
                var r = XHRWrapper(\"http://x.com\"); r.send(u);";
    let first = client.vet_source(Some("good.js"), good).expect("vet");
    assert_eq!(first["verdict"], "ok");
    let second = client.vet_source(Some("again.js"), good).expect("vet");
    assert_eq!(second["cached"], Json::Bool(true));
    let broken = client.vet_source(Some("broken.js"), "var = ;").expect("vet");
    assert_eq!(broken["verdict"], "error");
    client.shutdown().expect("shutdown");
    server.join();

    // The proof: reconstruct every lifecycle from the file alone.
    let text = std::fs::read_to_string(&log_path).expect("read log");
    let timelines = replay_log(&text).expect("log must replay").timelines;
    std::fs::remove_file(&log_path).ok();

    let id = |resp: &Json| resp["job"].as_str().expect("job id").to_owned();
    let computed = &timelines[&id(&first)];
    assert_eq!(computed.outcome, Some(Outcome::Computed));
    assert_eq!(computed.verdict.as_deref(), Some("ok"));
    // Debug level: the pipeline's phase spans land in the timeline,
    // tagged with this job's ID (the sigtrace adapter at work).
    for layer in Layer::ALL {
        assert!(
            computed.spans.iter().any(|(s, _, _)| s == layer.name()),
            "missing span {} in {:?}",
            layer.name(),
            computed.spans
        );
    }

    let hit = &timelines[&id(&second)];
    assert_eq!(hit.outcome, Some(Outcome::CacheHit));
    assert_eq!(
        hit.producer.as_deref(),
        Some(id(&first).as_str()),
        "cache hit must record the producing job as provenance"
    );

    let errored = &timelines[&id(&broken)];
    assert_eq!(errored.outcome, Some(Outcome::Computed));
    assert_eq!(errored.verdict.as_deref(), Some("error"));
}

#[test]
fn concurrent_batch_jobs_carry_distinct_stable_ids() {
    let log = Arc::new(EventLog::in_memory(Level::Info).with_tail_cap(4096));
    let cfg = ServeConfig {
        workers: 4,
        log: Some(Arc::clone(&log)),
        ..ServeConfig::default()
    };
    let server = bind_with_log(cfg);
    let addr = server.local_addr();

    // Two concurrent clients, each submitting one vet_batch of distinct
    // sources: every result must carry its own request ID, and the IDs
    // must be unique across the whole daemon.
    let ids: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut req = Json::obj();
                    req.set("kind", Json::from("vet_batch"));
                    req.set(
                        "items",
                        Json::Arr(
                            (0..8)
                                .map(|i| {
                                    let mut o = Json::obj();
                                    o.set("name", Json::from(format!("c{c}i{i}")));
                                    o.set("source", Json::from(format!("var v{c}_{i} = {i};")));
                                    o
                                })
                                .collect(),
                        ),
                    );
                    let resp = client.request(&req).expect("batch");
                    assert_eq!(resp["kind"], "vet_batch_result");
                    resp["results"]
                        .as_array()
                        .expect("results")
                        .iter()
                        .map(|r| {
                            assert_eq!(r["verdict"], "ok", "{}", r.to_string_compact());
                            r["job"].as_str().expect("job id").to_owned()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client"))
            .collect()
    });

    assert_eq!(ids.len(), 16);
    let unique: std::collections::BTreeSet<&String> = ids.iter().collect();
    assert_eq!(unique.len(), 16, "request IDs must be distinct: {ids:?}");
    for id in &ids {
        let n = id.strip_prefix("j-").expect("j-<n> format");
        n.parse::<u64>().expect("numeric suffix");
    }

    let mut shut = Client::connect(addr).expect("connect");
    shut.shutdown().expect("shutdown");
    server.join();

    // Every response ID resolves to a valid lifecycle in the log.
    let timelines = replay_log(&log.tail_lines().join("\n"))
        .expect("log must replay")
        .timelines;
    for id in &ids {
        let t = timelines.get(id).unwrap_or_else(|| panic!("{id} not in log"));
        assert!(t.outcome.is_some(), "{id}: well-formed lifecycle");
    }
}

#[test]
fn overloaded_daemon_keeps_a_sampled_but_exact_log() {
    // A real daemon with a tiny queue under a batch flood: the event
    // log runs under overload sampling, so most `job_rejected` records
    // are dropped — but the kept records plus the declared `suppressed`
    // counts must reconcile exactly with the number of shed jobs, and
    // the sampled log must still replay cleanly.
    const THRESHOLD: u64 = 4;
    const KEEP_ONE_IN: u64 = 8;
    let log = Arc::new(
        EventLog::in_memory(Level::Info)
            .with_tail_cap(8192)
            .with_sampling(SamplePolicy {
                events: vec!["job_rejected".to_owned()],
                threshold: THRESHOLD,
                keep_one_in: KEEP_ONE_IN,
                window: std::time::Duration::from_secs(3600),
            }),
    );
    let cfg = ServeConfig {
        workers: 2,
        queue_cap: 2,
        log: Some(Arc::clone(&log)),
        ..ServeConfig::default()
    };
    let server = bind_with_log(cfg);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Batches submit every item before awaiting any, so a 128-item
    // batch against a 2-slot queue sheds most of its jobs. One
    // submitter means the shed pre-check never races, so the daemon's
    // overloaded-response count is the exact ground truth. Retry a few
    // rounds in case the workers drain unexpectedly fast.
    let mut shed = 0usize;
    let mut accepted = 0usize;
    for round in 0..4 {
        if shed as u64 > THRESHOLD {
            break;
        }
        let mut req = Json::obj();
        req.set("kind", Json::from("vet_batch"));
        req.set(
            "items",
            Json::Arr(
                (0..128)
                    .map(|i| {
                        let mut o = Json::obj();
                        o.set("name", Json::from(format!("flood{round}_{i}")));
                        o.set("source", Json::from(format!("var flood{round}_{i} = {i};")));
                        o
                    })
                    .collect(),
            ),
        );
        let resp = client.request(&req).expect("flood batch");
        for r in resp["results"].as_array().expect("results") {
            if r["kind"] == "overloaded" {
                shed += 1;
            } else {
                assert_eq!(r["verdict"], "ok");
                accepted += 1;
            }
        }
    }
    assert!(
        shed as u64 > THRESHOLD,
        "flood must shed past the sampling threshold (shed {shed})"
    );
    client.shutdown().expect("shutdown");
    server.join();

    // The log stays O(sample rate), not O(flood): kept rejected records
    // follow the threshold-then-1-in-N schedule exactly, and every
    // dropped record is covered by a declared `suppressed` count.
    let replay = replay_log(&log.tail_lines().join("\n")).expect("sampled log must replay");
    let kept_rejected = replay
        .timelines
        .values()
        .filter(|t| t.outcome == Some(Outcome::Rejected))
        .count() as u64;
    let suppressed = *replay.suppressed.get("job_rejected").unwrap_or(&0);
    assert_eq!(
        kept_rejected + suppressed,
        shed as u64,
        "kept + suppressed must equal the daemon's shed count exactly"
    );
    let expected_kept = (shed as u64).min(THRESHOLD)
        + (shed as u64).saturating_sub(THRESHOLD).div_ceil(KEEP_ONE_IN);
    assert_eq!(kept_rejected, expected_kept, "sampling schedule violated");
    assert_eq!(
        log.suppressed_total("job_rejected"),
        suppressed,
        "log's own tally must match the declared suppressed records"
    );
    assert_eq!(replay.presumed_rejected, 0, "no enqueued-only orphans");
    let computed = replay
        .timelines
        .values()
        .filter(|t| t.outcome == Some(Outcome::Computed))
        .count();
    assert_eq!(computed, accepted, "every accepted flood job computed");
}

#[test]
fn submit_time_and_worker_side_hits_both_record_provenance() {
    let log = Arc::new(EventLog::in_memory(Level::Info).with_tail_cap(4096));
    let cfg = ServeConfig {
        workers: 2,
        log: Some(Arc::clone(&log)),
        ..ServeConfig::default()
    };
    let server = bind_with_log(cfg);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let source = "var a = 1; var b = a;";
    let producer = client.vet_source(Some("p"), source).expect("vet");
    let producer_id = producer["job"].as_str().expect("job id").to_owned();
    // Several resubmissions: all hits, all crediting the same producer.
    let mut hit_ids = Vec::new();
    for i in 0..3 {
        let resp = client.vet_source(Some(&format!("h{i}")), source).expect("vet");
        assert_eq!(resp["cached"], Json::Bool(true));
        hit_ids.push(resp["job"].as_str().expect("job id").to_owned());
    }
    client.shutdown().expect("shutdown");
    server.join();

    let timelines = replay_log(&log.tail_lines().join("\n"))
        .expect("log must replay")
        .timelines;
    for id in &hit_ids {
        let t = &timelines[id];
        assert_eq!(t.outcome, Some(Outcome::CacheHit));
        assert_eq!(
            t.producer.as_deref(),
            Some(producer_id.as_str()),
            "{id} must credit {producer_id}"
        );
    }
}

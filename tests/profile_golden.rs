//! Golden tests for the cost-attribution layer: `vet profile`'s hotspot
//! table is a *measurement with a determinism contract* (like the
//! pipeline counters in `trace_golden`), and the daemon's timeout
//! postmortems must be reconstructable from the JSONL log alone.
//!
//! Per-bucket step tallies are order-dependent by design — FIFO and RPO
//! route the worklist differently — which is exactly why
//! [`addon_sig::profile_addon`] pins the order to RPO: the rendered
//! table must be byte-identical across requested worklist orders,
//! repeat runs, and thread counts. Wall-clock microseconds are *not*
//! part of the contract, so the golden assertions go through
//! [`JobProfile::render_table`], which exposes only steps and shares.
//!
//! [`JobProfile::render_table`]: sigtrace::JobProfile::render_table

use addon_sig::sigobs::replay::{replay_log, Outcome};
use addon_sig::sigobs::{EventLog, Level, SamplePolicy};
use addon_sig::sigserve::{Client, ServeConfig, Server, VetOutcome};
use addon_sig::{profile_addon, Error, Pipeline};
use jsanalysis::{AnalysisConfig, WorklistOrder};
use minijson::Json;
use std::sync::Arc;

const TOP_N: usize = 10;

fn table(source: &str, config: &AnalysisConfig) -> String {
    profile_addon(source, config)
        .expect("profile run")
        .render_table(TOP_N)
}

/// The tentpole determinism contract: the hotspot table is byte-identical
/// across repeat runs, across requested worklist orders (profile pins
/// RPO), and across thread counts (scoped-thread sweep vs sequential).
#[test]
fn profile_table_is_bit_identical_across_orders_and_threads() {
    let addons = corpus::addons();
    let rpo = AnalysisConfig::default().with_worklist(WorklistOrder::Rpo);
    let fifo = AnalysisConfig::default().with_worklist(WorklistOrder::Fifo);
    let sequential: Vec<String> = addons.iter().map(|a| table(a.source, &rpo)).collect();
    for (addon, golden) in addons.iter().zip(&sequential) {
        assert_eq!(
            &table(addon.source, &rpo),
            golden,
            "{}: table differs between identical runs",
            addon.name
        );
        assert_eq!(
            &table(addon.source, &fifo),
            golden,
            "{}: requested FIFO order leaked into the profile",
            addon.name
        );
    }
    let parallel: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = addons
            .iter()
            .map(|a| {
                s.spawn(move || {
                    table(
                        a.source,
                        &AnalysisConfig::default().with_worklist(WorklistOrder::Fifo),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("profile thread panicked"))
            .collect()
    });
    assert_eq!(sequential, parallel, "parallel profiling diverged");
}

/// The profile's internal accounting cross-checks: bucket steps sum to
/// the worklist total, hotspots come sorted hottest-first, and the
/// rendered table carries every function the analysis actually stepped.
#[test]
fn profile_accounts_for_every_worklist_step() {
    let addon = corpus::addon_by_name("LivePagerank").expect("corpus addon");
    let config = AnalysisConfig::default();
    let profile = profile_addon(addon.source, &config).expect("profile");
    let bucket_steps: u64 = profile.hotspots.iter().map(|c| c.steps).sum();
    assert_eq!(
        bucket_steps, profile.total_steps,
        "attribution buckets must account for every worklist step"
    );
    assert!(
        profile
            .hotspots
            .windows(2)
            .all(|w| w[0].steps >= w[1].steps),
        "hotspots must come hottest-first"
    );
    assert!(profile.layers.iter().count() > 0, "layer timings attach");
    let rendered = profile.render_table(3);
    assert!(rendered.starts_with(&format!("total worklist steps: {}", profile.total_steps)));
}

/// Budget exhaustion is the postmortem case, not a failure: the engine
/// attaches the profile to both the `Error::Budget` pipeline error and
/// the daemon's `Timeout` outcome.
#[test]
fn budget_exhaustion_still_yields_a_postmortem() {
    let addon = corpus::addon_by_name("LivePagerank").expect("corpus addon");
    let tight = AnalysisConfig::default().with_step_budget(40);

    // Pipeline level: the profile rides the error.
    let Err(Error::Budget { steps, profile, .. }) = Pipeline::new()
        .config(tight.clone())
        .profile(true)
        .run(addon.source)
    else {
        panic!("a 40-step budget must trip on a real addon")
    };
    let profile = *profile.expect("budget error must carry the postmortem");
    assert_eq!(profile.total_steps, steps as u64);
    assert!(!profile.hotspots.is_empty(), "postmortem names hotspots");

    // profile_addon level: exhaustion is a result, not an error.
    let via_helper = profile_addon(addon.source, &tight).expect("postmortem");
    assert_eq!(via_helper.total_steps, steps as u64);

    // Service level: the daemon outcome carries the same postmortem.
    let metrics = sigtrace::MetricsRegistry::new();
    match addon_sig::service_engine(addon.source, &tight, &metrics, sigtrace::Trace::Off) {
        VetOutcome::Timeout { profile, .. } => {
            let p = profile.expect("timeout outcome must carry a profile");
            assert!(!p.hotspots.is_empty());
        }
        other => panic!("expected a timeout outcome, got {other:?}"),
    }
}

/// The daemon contract, end to end: a real server under a step budget
/// answers `verdict:"timeout"`, and the JSONL log alone reconstructs
/// *why* — the replay validator now demands the `job_profile` postmortem
/// on every timeout and validates its shape and placement.
#[test]
fn daemon_timeout_postmortem_replays_from_the_log_alone() {
    let log = Arc::new(EventLog::in_memory(Level::Info).with_tail_cap(4096));
    let mut cfg = ServeConfig {
        workers: 2,
        log: Some(Arc::clone(&log)),
        ..ServeConfig::default()
    };
    cfg.analysis.step_budget = Some(40);
    let server = Server::builder()
        .config(cfg)
        .addr("127.0.0.1:0")
        .analyze(addon_sig::service_engine)
        .start()
        .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let addon = corpus::addon_by_name("LivePagerank").expect("corpus addon");
    let resp = client
        .vet_source(Some("slow.js"), addon.source)
        .expect("vet");
    assert_eq!(resp["verdict"], "timeout");
    let job = resp["job"].as_str().expect("job id").to_owned();
    // A quick job rides along: ok verdicts need no postmortem at info
    // level (the daemon logs theirs at debug).
    let quick = client
        .vet_source(Some("quick.js"), "var x = 1;")
        .expect("vet");
    assert_eq!(quick["verdict"], "ok");
    client.shutdown().expect("shutdown");
    server.join();

    let replay = replay_log(&log.tail_lines().join("\n")).expect("log must replay");
    let t = &replay.timelines[&job];
    assert_eq!(t.outcome, Some(Outcome::Computed));
    assert_eq!(t.verdict.as_deref(), Some("timeout"));
    assert!(
        t.profile.is_some(),
        "timeout lifecycle must carry its job_profile postmortem"
    );
    assert!(
        !t.hotspots.is_empty(),
        "the postmortem must name where the budget went"
    );
    let hot_steps: u64 = t.hotspots.iter().map(|(_, s)| s).sum();
    assert!(hot_steps <= t.profile_steps.expect("total_steps logged"));
}

/// Satellite: merged multi-node logs × `SamplePolicy`. A worker whose
/// `job_profile` stream runs under overload sampling drops most
/// postmortems — but the kept records plus the declared `suppressed`
/// counts must reconcile exactly per node, and the merged fleet log
/// must still replay with the postmortems it kept intact.
#[test]
fn merged_fleet_log_reconciles_sampled_postmortems_exactly() {
    const JOBS: u64 = 20;
    const THRESHOLD: u64 = 3;
    const KEEP_ONE_IN: u64 = 5;
    let coord = EventLog::in_memory(Level::Info).with_tail_cap(4096);
    let worker = EventLog::in_memory(Level::Info)
        .with_tail_cap(4096)
        .with_sampling(SamplePolicy {
            events: vec!["job_profile".to_owned()],
            threshold: THRESHOLD,
            keep_one_in: KEEP_ONE_IN,
            window: std::time::Duration::from_secs(3600),
        });

    let n = |v: u64| Json::from(v as f64);
    for i in 0..JOBS {
        let job = format!("j-{i}");
        let j = || ("job", Json::from(job.as_str()));
        coord.info("job_enqueued", &[j(), ("name", Json::from("flood.js"))]);
        worker.info("job_dequeued", &[j(), ("queue_wait_us", n(7))]);
        worker.warn("job_computed", &[j(), ("verdict", Json::from("timeout"))]);
        let mut hot = Json::obj();
        hot.set("func", Json::from("loop"));
        hot.set("ctx", Json::from("0"));
        hot.set("phase", Json::from("fixpoint"));
        hot.set("steps", n(40));
        hot.set("time_us", n(90));
        worker.warn(
            "job_profile",
            &[
                j(),
                ("verdict", Json::from("timeout")),
                ("total_steps", n(41)),
                ("hotspots", Json::Arr(vec![hot])),
            ],
        );
        coord.info("job_done", &[j(), ("micros", n(120))]);
    }
    coord.flush();
    worker.flush();

    let coord_text = coord.tail_lines().join("\n");
    let worker_text = worker.tail_lines().join("\n");
    let merged =
        addon_sig::sigobs::merge_fleet_logs(&[("coord", &coord_text), ("w0", &worker_text)])
            .expect("fleet logs merge");
    let replay = replay_log(&merged).expect("sampled fleet log must replay");

    // Exact reconciliation: every one of the JOBS postmortems is either
    // kept or declared suppressed — by the worker, the only node that
    // writes them.
    let kept = replay
        .timelines
        .values()
        .filter(|t| t.profile.is_some())
        .count() as u64;
    let suppressed = replay.budget("job_profile");
    assert_eq!(
        kept + suppressed,
        JOBS,
        "kept + suppressed must cover every job"
    );
    let expected_kept = JOBS.min(THRESHOLD) + JOBS.saturating_sub(THRESHOLD).div_ceil(KEEP_ONE_IN);
    assert_eq!(kept, expected_kept, "sampling schedule violated");
    assert_eq!(
        worker.suppressed_total("job_profile"),
        suppressed,
        "worker's own tally must match the declared suppressed records"
    );
    assert_eq!(
        replay.presumed_profile_sampled,
        JOBS - kept,
        "every missing postmortem must be accepted against the budget"
    );
    // Per-node accounting: every suppression declaration came from the
    // worker, and kept postmortems carry its node tag in the merge.
    for line in merged.lines() {
        let r = Json::parse(line).expect("merged line");
        match r["event"].as_str() {
            Some("suppressed") | Some("job_profile") => {
                assert_eq!(r["node"].as_str(), Some("w0"), "{line}");
            }
            _ => {}
        }
    }
    // And the kept postmortems still validate in full on the timelines.
    for t in replay.timelines.values() {
        assert_eq!(t.outcome, Some(Outcome::Computed));
        if t.profile.is_some() {
            assert_eq!(t.hotspots, [("loop".to_owned(), 40)]);
        }
    }
}

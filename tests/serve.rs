//! Integration tests for the vetting daemon: concurrent clients against
//! the real pipeline, CLI/service response equivalence, cache behavior
//! across resubmission rounds, and budget-degraded verdicts.

use addon_sig::sigserve::{protocol, Client, ServeConfig, Server};
use addon_sig::{service_engine, Pipeline};
use minijson::Json;

/// Binds an ephemeral daemon on the real pipeline.
fn bind(cfg: ServeConfig) -> Server {
    Server::builder()
        .config(cfg)
        .addr("127.0.0.1:0")
        .analyze(service_engine)
        .start()
        .expect("bind")
}

/// Fetches the (hits, misses) cache counters.
fn cache_counts(client: &mut Client) -> (f64, f64) {
    let stats = client.stats().expect("stats");
    (
        stats["cache"]["hits"].as_f64().unwrap(),
        stats["cache"]["misses"].as_f64().unwrap(),
    )
}

/// One round: `clients` concurrent connections each vet every
/// `(name, source, signature)` input once, asserting each response
/// matches its expected signature document byte for byte.
fn run_round(addr: std::net::SocketAddr, clients: usize, expected: &[(String, String, String)]) {
    std::thread::scope(|scope| {
        for c in 0..clients {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Stagger the order per client so duplicate submissions
                // of the same addon race through the daemon.
                let mut order: Vec<&(String, String, String)> = expected.iter().collect();
                order.rotate_left(c % expected.len());
                for (name, source, sig_json) in order {
                    let resp = client.vet_source(Some(name), source).expect("vet");
                    assert_eq!(resp["verdict"], "ok", "{name}");
                    assert_eq!(resp["name"].as_str(), Some(name.as_str()));
                    // The service's signature value must reproduce the
                    // bytes `vet --json` prints for the same addon.
                    assert_eq!(
                        &resp["signature"].to_string_pretty(),
                        sig_json,
                        "{name}: service signature diverged from the CLI document"
                    );
                }
            });
        }
    });
}

fn source_of(name: &str) -> &'static str {
    corpus::addon_by_name(name).expect("corpus addon").source
}

#[test]
fn concurrent_clients_match_cli_and_resubmissions_hit_the_cache() {
    // The documents `vet --json` prints (Signature::to_json), computed
    // through the plain library pipeline (triage off), for the corpus,
    // the attack gallery and one benign shape the daemon triages.
    let expected: Vec<(String, String, String)> = corpus::addons()
        .iter()
        .map(|a| (a.name.to_owned(), a.source.to_owned()))
        .chain(
            corpus::attacks::attacks()
                .iter()
                .map(|a| (a.name.to_owned(), a.source.to_owned())),
        )
        .chain(std::iter::once((
            "benign".to_owned(),
            corpus::benign_addon(0),
        )))
        .map(|(name, source)| {
            let report = Pipeline::new().run(&source).expect("pipeline");
            let sig = report.signature.to_json();
            (name, source, sig)
        })
        .collect();

    let server = bind(ServeConfig::default());
    let addr = server.local_addr();
    let mut probe = Client::connect(addr).expect("connect");

    // Round 1: 4 concurrent clients, cold cache. Every addon is analyzed
    // at most a handful of times (racing duplicates may share a result).
    run_round(addr, 4, &expected);
    let (hits_r1, misses_r1) = cache_counts(&mut probe);
    assert_eq!(
        hits_r1 + misses_r1,
        4.0 * expected.len() as f64,
        "every round-1 submission passes through the cache"
    );
    assert!(
        misses_r1 >= expected.len() as f64,
        "each addon must miss at least once on a cold cache"
    );

    // Round 2: identical resubmissions must be answered from the cache.
    run_round(addr, 4, &expected);
    let (hits_r2, misses_r2) = cache_counts(&mut probe);
    let round2_lookups = (hits_r2 + misses_r2) - (hits_r1 + misses_r1);
    let round2_hit_rate = (hits_r2 - hits_r1) / round2_lookups;
    assert!(
        round2_hit_rate >= 0.9,
        "round 2 must be >=90% cache hits, got {:.0}%",
        round2_hit_rate * 100.0
    );

    // The real engine feeds the metrics registry: pipeline counters and
    // per-phase latency histograms ride along in every stats response.
    let stats = probe.stats().expect("stats");
    assert!(
        stats["metrics"]["counters"]["pipeline_worklist_steps"]
            .as_f64()
            .is_some_and(|v| v > 0.0),
        "pipeline counters missing from stats metrics: {stats}"
    );
    assert!(
        stats["metrics"]["histograms"]["pipeline_jsanalysis_fixpoint_us"]["count"]
            .as_f64()
            .is_some_and(|v| v > 0.0),
        "phase-latency histograms missing from stats metrics"
    );
    // The daemon triages: five corpus/gallery addons and the benign
    // shape skip phase 2, with the same bytes as the untriaged CLI.
    assert!(
        stats["metrics"]["counters"]["pipeline_triaged"]
            .as_f64()
            .is_some_and(|v| v >= 6.0),
        "daemon must triage flow-free addons: {stats}"
    );

    let ack = probe.shutdown().expect("shutdown");
    assert_eq!(ack["kind"], "shutdown_ack");
    assert_eq!(
        ack["stats"]["jobs"]["rejected"].as_f64(),
        Some(0.0),
        "this load fits the queue; nothing should be shed"
    );
    server.join();
}

#[test]
fn step_budget_yields_timeout_verdict_and_daemon_survives() {
    // A budget far below any corpus addon's real step count (PinPoints
    // needs ~1000 steps) but comfortably above trivial programs.
    let mut cfg = ServeConfig::default();
    cfg.analysis.step_budget = Some(25);
    let server = bind(cfg);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let resp = client
        .vet_source(Some("PinPoints"), source_of("PinPoints"))
        .expect("vet");
    assert_eq!(
        resp["verdict"], "timeout",
        "a 25-step budget cannot finish a real addon"
    );
    assert!(
        resp["steps"].as_f64().unwrap() > 25.0,
        "the timeout reports how far the analysis got"
    );

    // The worker survived the abort: the same daemon still vets small
    // inputs and reports the abort in its counters.
    let ok = client.vet_source(Some("tiny"), "var x = 1;").expect("vet");
    assert_eq!(
        ok["verdict"], "ok",
        "daemon must keep serving after a timeout"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stats["jobs"]["budget_aborts"].as_f64(), Some(1.0));

    // Step-budget timeouts are deterministic, so resubmitting the same
    // addon is answered from the cache — still as a timeout.
    let again = client
        .vet_source(Some("PinPoints"), source_of("PinPoints"))
        .expect("vet");
    assert_eq!(again["verdict"], "timeout");
    assert_eq!(again["cached"], Json::Bool(true));

    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn overload_response_when_queue_is_saturated() {
    // One worker stuck on a slow (budget-less) analysis plus a one-slot
    // queue: the third concurrent submission must be shed as
    // `overloaded`, not queued without bound.
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    };
    let server = bind(cfg);
    let addr = server.local_addr();
    let slow = source_of("LivePagerank");
    let overloads: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    // Distinct sources: no cache sharing between clients.
                    let unique = format!("var fill{i} = 1;\n{slow}");
                    let resp = client.vet_source(None, &unique).expect("vet");
                    (resp["kind"] == "overloaded") as usize
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    // 1 in flight + 1 queued leaves up to 4 submissions to shed; timing
    // decides the exact count, but with 6 concurrent slow jobs at least
    // one must see a full queue.
    assert!(
        overloads >= 1,
        "expected at least one overloaded response from a saturated queue"
    );
    let mut probe = Client::connect(addr).expect("connect");
    let stats = probe.stats().expect("stats");
    assert_eq!(stats["jobs"]["rejected"].as_f64(), Some(overloads as f64));
    probe.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn stats_carry_the_process_memory_gauges() {
    let server = bind(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for i in 0..3 {
        let resp = client
            .vet_source(Some("benign"), &corpus::benign_addon(i))
            .expect("vet");
        assert_eq!(resp["verdict"], "ok");
    }
    let stats = client.stats().expect("stats");
    for gauge in ["serve_process_rss_bytes", "serve_interned_symbols"] {
        let v = stats["metrics"]["counters"][gauge].as_f64();
        assert!(v.is_some_and(|v| v > 0.0), "{gauge} = {v:?}");
    }
    client.shutdown().expect("shutdown");
    server.join();
}

/// Runs `vet serve --stdio --workers 2` over `requests`, fed through a
/// pipe or, with `from_file`, from a regular file (which epoll cannot
/// watch, so the daemon must read it with blocking reads). Returns the
/// response lines.
fn stdio_session(requests: &[&str], from_file: bool) -> Vec<Json> {
    use std::io::Write;
    use std::process::{Command, Stdio};
    let script: String = requests.iter().map(|r| format!("{r}\n")).collect();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_vet"));
    cmd.args(["serve", "--stdio", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let path = std::env::temp_dir().join(format!("addon_sig_stdio_{}.ndjson", std::process::id()));
    let out = if from_file {
        std::fs::write(&path, &script).expect("write script");
        let file = std::fs::File::open(&path).expect("open script");
        cmd.stdin(Stdio::from(file)).output().expect("run daemon")
    } else {
        let mut child = cmd.stdin(Stdio::piped()).spawn().expect("spawn daemon");
        child
            .stdin
            .take()
            .expect("stdin")
            .write_all(script.as_bytes())
            .expect("write script");
        child.wait_with_output().expect("daemon output")
    };
    std::fs::remove_file(&path).ok();
    assert!(out.status.success(), "daemon exit: {}", out.status);
    String::from_utf8(out.stdout)
        .expect("utf8")
        .lines()
        .map(|l| Json::parse(l).expect("json line"))
        .collect()
}

const VET_PINPOINTS: &str = r#"{"kind":"vet","path":"crates/corpus/addons/pinpoints.js"}"#;

#[test]
fn stdio_stats_after_a_vet_already_counts_it() {
    let lines = stdio_session(
        &[
            VET_PINPOINTS,
            r#"{"kind":"stats"}"#,
            r#"{"kind":"shutdown"}"#,
        ],
        false,
    );
    assert_eq!(lines.len(), 3);
    assert_eq!(lines[0]["verdict"], "ok");
    assert_eq!(lines[1]["kind"], "stats");
    assert!(
        lines[1]["metrics"]["counters"]["pipeline_worklist_steps"]
            .as_f64()
            .is_some_and(|v| v > 0.0),
        "stats must see the vet before it: {}",
        lines[1]
    );
    assert_eq!(lines[2]["kind"], "shutdown_ack");
}

#[test]
fn stdio_second_identical_vet_hits_the_cache() {
    let lines = stdio_session(
        &[VET_PINPOINTS, "", VET_PINPOINTS, r#"{"kind":"shutdown"}"#],
        false,
    );
    assert_eq!(lines.len(), 3, "blank lines get no response");
    assert_eq!(lines[0]["cached"], Json::Bool(false));
    assert_eq!(lines[1]["cached"], Json::Bool(true));
    assert_eq!(lines[0]["signature"], lines[1]["signature"]);
}

#[test]
fn stdio_reads_requests_from_a_regular_file() {
    // No trailing shutdown: EOF stops the daemon.
    let lines = stdio_session(&[VET_PINPOINTS, VET_PINPOINTS, r#"{"kind":"stats"}"#], true);
    assert_eq!(lines.len(), 3);
    assert_eq!(lines[0]["verdict"], "ok");
    assert_eq!(lines[1]["cached"], Json::Bool(true));
    assert_eq!(lines[2]["cache"]["hits"].as_f64(), Some(1.0));
}

#[test]
fn never_seen_jobs_leave_the_interned_symbols_gauge_unchanged() {
    // Each job interns into a table of its own, freed when it ends: once
    // a first job has built the environment, a batch of never-seen
    // addons adds nothing to the process's symbol table. The daemon is
    // a process of its own, so no other test interns into its table.
    let vet = |i: usize| {
        let name = format!("benign{i}.js");
        protocol::vet_request(Some(&name), &corpus::benign_addon(i)).to_string_compact()
    };
    let stats = r#"{"kind":"stats"}"#.to_owned();
    let mut requests = vec![vet(0), stats.clone()];
    requests.extend((1..40).map(vet));
    requests.extend([stats, r#"{"kind":"shutdown"}"#.to_owned()]);
    let requests: Vec<&str> = requests.iter().map(String::as_str).collect();
    let lines = stdio_session(&requests, false);
    let ok = lines
        .iter()
        .filter(|l| l["kind"] == "vet_result" && l["verdict"] == "ok")
        .count();
    assert_eq!(ok, 40);
    let gauges: Vec<f64> = lines
        .iter()
        .filter(|l| l["kind"] == "stats")
        .map(|l| {
            l["metrics"]["counters"]["serve_interned_symbols"]
                .as_f64()
                .expect("gauge")
        })
        .collect();
    assert_eq!(gauges.len(), 2);
    assert!(gauges[0] > 0.0);
    assert_eq!(
        gauges[1], gauges[0],
        "39 never-seen jobs grew the symbol table"
    );
}

//! Fleet tests: a daemon hands jobs to remote workers over
//! join/claim/complete on real loopback TCP, alone (no local workers,
//! the `vet coordinate` preset) or beside its own local workers. Stub
//! engines exercise coalescing, the reaper and shutdown; the real
//! pipeline shows that a worker killed mid-job costs latency, not
//! correctness, and that the per-node event logs — including the dead
//! worker's truncated one — merge into a single log that replays as
//! valid job lifecycles.

use addon_sig::jsanalysis::AnalysisConfig;
use addon_sig::sigobs::{self, replay::Outcome};
use addon_sig::sigserve::protocol::{self, claim_request, join_request};
use addon_sig::sigserve::{Client, ServeConfig, Server, VetOutcome, Worker, WorkerConfig};
use addon_sig::sigtrace::{LayerTimes, MetricsRegistry, Trace};
use minijson::Json;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn stub(source: &str, _c: &AnalysisConfig, m: &MetricsRegistry, _t: Trace<'_>) -> VetOutcome {
    m.add("stub_calls", 1);
    VetOutcome::report(
        format!("{{\n  \"len\": {}\n}}", source.len()),
        LayerTimes::default(),
    )
}

/// A slow stub, so submissions overlap the job they duplicate.
fn slow_stub(s: &str, c: &AnalysisConfig, m: &MetricsRegistry, t: Trace<'_>) -> VetOutcome {
    thread::sleep(Duration::from_millis(200));
    stub(s, c, m, t)
}

/// The `vet coordinate` preset: a daemon with no local workers, so
/// every job goes to a remote worker.
fn coordinator() -> ServeConfig {
    ServeConfig {
        workers: 0,
        queue_cap: 256,
        cache_cap: 4096,
        ..ServeConfig::default()
    }
}

/// The canonical analysis config a hand-spoken worker must join with.
fn daemon_config() -> String {
    coordinator().analysis.canonical_string()
}

fn fast_cfg() -> ServeConfig {
    ServeConfig {
        heartbeat: Duration::from_millis(50),
        reap_after: Duration::from_millis(250),
        ..coordinator()
    }
}

fn bind(cfg: ServeConfig) -> Server {
    Server::builder()
        .config(cfg)
        .addr("127.0.0.1:0")
        .analyze(addon_sig::service_engine)
        .start()
        .expect("bind")
}

fn mem_log() -> Arc<sigobs::EventLog> {
    Arc::new(sigobs::EventLog::in_memory(sigobs::Level::Info).with_tail_cap(4096))
}

/// A `stats` field by the short name these tests use.
fn counter(stats: &Json, name: &str) -> f64 {
    let (group, key) = match name {
        "pending" => ("queue", "depth"),
        "jobs_completed" => ("jobs", "completed"),
        "jobs_requeued" => ("jobs", "requeued"),
        "dedup_hits" => ("jobs", "coalesced"),
        other => ("fleet", other),
    };
    stats[group][key].as_f64().unwrap_or(-1.0)
}

fn fleet_stat(coord: &Server, name: &str) -> f64 {
    counter(&coord.stats(), name)
}

/// Kill a worker mid-job. The client must still get the correct
/// verdict (via reap + requeue + a healthy worker), and the merged
/// per-node logs — coordinator, the dead worker's *truncated* log, and
/// the rescuer's — must replay as one valid lifecycle per job.
#[test]
fn worker_kill_loses_no_jobs_and_merged_log_replays() {
    const SOURCE: &str = "var held = 'hostage'; var out = held + '!';";
    let coord_log = mem_log();
    let coord = bind(ServeConfig {
        log: Some(coord_log.clone()),
        ..fast_cfg()
    });
    let addr = coord.local_addr().to_string();

    // Client submits; no worker exists yet, so the job waits in queue.
    let submit_addr = addr.clone();
    let submitter = std::thread::spawn(move || {
        let mut c = Client::connect(submit_addr.as_str()).expect("connect");
        c.vet_source(Some("held.js"), SOURCE).expect("vet")
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while fleet_stat(&coord, "pending") < 1.0 {
        assert!(Instant::now() < deadline, "job never enqueued");
        std::thread::sleep(Duration::from_millis(5));
    }

    // A protocol-level worker claims the job and dies mid-analysis: it
    // logged the dequeue, was SIGKILLed mid-write of the next record,
    // and never completed or heartbeat again.
    let doomed_log = {
        let mut doomed = Client::connect(addr.as_str()).expect("connect doomed");
        let ack = doomed
            .request(&protocol::join_request("doomed", &daemon_config()))
            .expect("join");
        assert_eq!(ack["kind"], "join_ack");
        let wid = ack["worker"].as_str().expect("worker id").to_owned();
        let job = doomed
            .request(&protocol::claim_request(&wid, 2_000))
            .expect("claim");
        assert_eq!(job["kind"], "job", "doomed worker must claim the job");
        let job_id = job["job"].as_str().expect("job id").to_owned();
        format!(
            "{{\"seq\":0,\"ts_us\":10,\"level\":\"info\",\"event\":\"job_dequeued\",\
             \"job\":\"{job_id}\"}}\n{{\"seq\":1,\"ts_us\":20,\"event\":\"job_compu"
        )
    }; // connection dropped: claimed but never completed

    // The reaper notices the missed heartbeats and requeues.
    while fleet_stat(&coord, "jobs_requeued") < 1.0 {
        assert!(Instant::now() < deadline, "reaper never requeued");
        std::thread::sleep(Duration::from_millis(10));
    }

    // A healthy worker (real pipeline) joins and rescues the job.
    let worker_log = mem_log();
    let mut wc = WorkerConfig::new(addr.clone());
    wc.node = "rescue".to_owned();
    wc.threads = 1;
    wc.claim_wait_ms = 100;
    wc.log = Some(worker_log.clone());
    let worker = Worker::join_fleet(wc, addon_sig::service_engine).expect("join");

    let resp = submitter.join().expect("submitter");
    assert_eq!(resp["verdict"], "ok", "requeued job must still vet");
    let cold = addon_sig::analyze_addon(SOURCE).expect("cold analysis");
    assert_eq!(
        resp["signature"].to_string(),
        Json::parse(&cold.signature.to_json()).unwrap().to_string(),
        "rescued job must carry the exact cold signature"
    );
    assert_eq!(fleet_stat(&coord, "workers_reaped"), 1.0);

    let mut shut = Client::connect(addr.as_str()).expect("connect");
    assert_eq!(shut.shutdown().expect("shutdown")["kind"], "shutdown_ack");
    coord.join();
    worker.join();

    // Merge all three logs — the doomed one ends in a half-written
    // line, which the merge must tolerate — and replay the result.
    coord_log.flush();
    worker_log.flush();
    let coord_text = coord_log.tail_lines().join("\n");
    let worker_text = worker_log.tail_lines().join("\n");
    let merged = sigobs::merge_fleet_logs(&[
        ("coord", coord_text.as_str()),
        ("doomed", doomed_log.as_str()),
        ("rescue", worker_text.as_str()),
    ])
    .expect("merge tolerates the truncated log");
    let replay = sigobs::replay::replay_log(&merged).expect("merged log replays");
    let computed = replay
        .timelines
        .values()
        .filter(|t| t.outcome == Some(Outcome::Computed))
        .count();
    assert_eq!(computed, 1, "exactly one computed lifecycle");
    assert_eq!(replay.presumed_rejected, 0, "no orphaned enqueues");
    // Both dequeue records (dead claimant + rescuer) survive the merge.
    let dequeues = merged
        .lines()
        .filter(|l| l.contains("\"job_dequeued\""))
        .count();
    assert_eq!(dequeues, 2, "both claimants' dequeues are in the merged log");
}

/// Multi-node fleet responses carry byte-identical signatures to a
/// cold local analysis — remote workers and the shared cache never
/// change the bytes a client sees.
#[test]
fn fleet_signatures_match_cold_analysis() {
    let coord = bind(coordinator());
    let addr = coord.local_addr().to_string();
    let workers: Vec<Worker> = (0..2)
        .map(|i| {
            let mut wc = WorkerConfig::new(addr.clone());
            wc.node = format!("node-{i}");
            wc.threads = 1;
            wc.claim_wait_ms = 100;
            Worker::join_fleet(wc, addon_sig::service_engine).expect("join")
        })
        .collect();
    let mut client = Client::connect(addr.as_str()).expect("connect");
    for addon in corpus::addons().iter().take(3) {
        let resp = client.vet_source(Some(addon.name), addon.source).expect("vet");
        assert_eq!(resp["verdict"], "ok", "{}", addon.name);
        let cold = addon_sig::analyze_addon(addon.source).expect("cold");
        assert_eq!(
            resp["signature"].to_string(),
            Json::parse(&cold.signature.to_json()).unwrap().to_string(),
            "{}: fleet bytes must match the cold analysis",
            addon.name
        );
    }
    let mut shut = Client::connect(addr.as_str()).expect("connect");
    assert_eq!(shut.shutdown().expect("shutdown")["kind"], "shutdown_ack");
    coord.join();
    for w in workers {
        w.join();
    }
}

/// A worker's engine config is part of every result it completes, and
/// the daemon caches results under its own config key. So a default
/// daemon refuses a worker analyzing at a different context depth —
/// with an error naming both configs, before that worker computes
/// anything — and a matching worker still joins and vets.
#[test]
fn worker_with_a_different_config_is_refused_at_join() {
    static REFUSED_CALLS: AtomicUsize = AtomicUsize::new(0);
    fn refused(s: &str, c: &AnalysisConfig, m: &MetricsRegistry, t: Trace<'_>) -> VetOutcome {
        REFUSED_CALLS.fetch_add(1, Ordering::SeqCst);
        stub(s, c, m, t)
    }
    let coord = bind(coordinator());
    let addr = coord.local_addr().to_string();

    let mut deep = WorkerConfig::new(addr.clone());
    deep.analysis = deep.analysis.with_context_depth(2);
    let deep_canon = deep.analysis.canonical_string();
    let err = match Worker::join_fleet(deep, refused) {
        Ok(w) => panic!("worker {} joined with a different config", w.id()),
        Err(e) => e.to_string(),
    };
    assert!(err.contains(&deep_canon), "names the worker's config: {err}");
    assert!(err.contains(&daemon_config()), "names the daemon's config: {err}");
    assert_eq!(fleet_stat(&coord, "workers_alive"), 0.0);

    let mut same = WorkerConfig::new(addr.clone());
    same.threads = 1;
    same.claim_wait_ms = 100;
    let worker = Worker::join_fleet(same, addon_sig::service_engine).expect("join");
    assert_eq!(fleet_stat(&coord, "workers_alive"), 1.0);
    let mut client = Client::connect(addr.as_str()).expect("connect");
    let resp = client.vet_source(Some("x.js"), "var x = 1;").expect("vet");
    assert_eq!(resp["verdict"], "ok");
    assert_eq!(REFUSED_CALLS.load(Ordering::SeqCst), 0, "refused worker computed");

    client.shutdown().expect("shutdown");
    coord.join();
    worker.join();
}

/// A daemon with a local worker *and* a joined remote worker is one
/// fleet: a batch spreads over both claimants, every response carries
/// the cold signature, and the two nodes' logs merge into a replay with
/// one computed lifecycle per job.
#[test]
fn local_and_remote_workers_share_one_queue() {
    let daemon_log = mem_log();
    let server = bind(ServeConfig {
        workers: 1,
        log: Some(daemon_log.clone()),
        ..ServeConfig::default()
    });
    let addr = server.local_addr().to_string();
    let worker_log = mem_log();
    let mut wc = WorkerConfig::new(addr.clone());
    wc.node = "remote".to_owned();
    wc.threads = 1;
    wc.claim_wait_ms = 100;
    wc.log = Some(worker_log.clone());
    let worker = Worker::join_fleet(wc, addon_sig::service_engine).expect("join");

    let addons = corpus::addons();
    let req = protocol::vet_batch_request(
        addons
            .iter()
            .map(|a| (a.name.to_owned(), a.source.to_owned())),
    );
    let mut client = Client::connect(addr.as_str()).expect("connect");
    let resp = client.request(&req).expect("batch");
    for (a, r) in addons
        .iter()
        .zip(resp["results"].as_array().expect("results"))
    {
        let cold = addon_sig::analyze_addon(a.source).expect("cold");
        assert_eq!(
            r["signature"].to_string(),
            Json::parse(&cold.signature.to_json()).unwrap().to_string(),
            "{}: byte-identical to the cold analysis",
            a.name
        );
    }
    assert_eq!(client.shutdown().expect("shutdown")["kind"], "shutdown_ack");
    server.join();
    worker.join();

    let daemon_text = daemon_log.tail_lines().join("\n");
    let worker_text = worker_log.tail_lines().join("\n");
    assert!(
        daemon_text.contains("\"event\":\"job_dequeued\""),
        "the local worker ran jobs"
    );
    assert!(
        daemon_text.contains("\"event\":\"job_claimed\""),
        "the remote worker ran jobs"
    );
    assert!(worker_text.contains("\"event\":\"job_computed\""));
    let merged = sigobs::merge_fleet_logs(&[
        ("daemon", daemon_text.as_str()),
        ("remote", worker_text.as_str()),
    ])
    .expect("logs merge");
    let replay = sigobs::replay::replay_log(&merged).expect("merged log replays");
    let computed = replay
        .timelines
        .values()
        .filter(|t| t.outcome == Some(Outcome::Computed))
        .count();
    assert_eq!(computed, addons.len(), "one computed lifecycle per job");
    assert_eq!(replay.presumed_rejected, 0);
}

fn bind_slow(workers: usize, log: Arc<sigobs::EventLog>) -> Server {
    Server::builder()
        .config(ServeConfig {
            workers,
            log: Some(log),
            ..ServeConfig::default()
        })
        .addr("127.0.0.1:0")
        .analyze(slow_stub)
        .start()
        .expect("bind")
}

/// Sends `lines` in one write and reads one response per line.
fn pipelined(addr: std::net::SocketAddr, lines: &[String]) -> Vec<Json> {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.write_all(lines.concat().as_bytes()).expect("write");
    let mut reader = BufReader::new(stream);
    lines
        .iter()
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            Json::parse(line.trim()).expect("json")
        })
        .collect()
}

#[test]
fn pipelined_identical_vets_compute_once() {
    let log = mem_log();
    let server = bind_slow(2, log.clone());
    let line = "{\"kind\":\"vet\",\"source\":\"var same = 1;\"}\n".to_owned();
    let resps = pipelined(server.local_addr(), &vec![line; 6]);
    for r in &resps {
        assert_eq!(r["verdict"], "ok");
        assert_eq!(r["signature"], resps[0]["signature"]);
    }
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.shutdown().expect("shutdown");
    server.join();
    let text = log.tail_lines().join("\n");
    assert_eq!(text.matches("\"event\":\"job_computed\"").count(), 1);
    assert_eq!(text.matches("\"event\":\"job_coalesced\"").count(), 5);
    let replay = sigobs::replay::replay_log(&text).expect("log replays");
    let coalesced = replay
        .timelines
        .values()
        .filter(|t| t.outcome == Some(Outcome::Coalesced))
        .count();
    assert_eq!(
        coalesced, 5,
        "every other submission shares the one analysis"
    );
}

/// Shutdown's one rule: pending jobs drain to local workers, or are
/// shed with `job_rejected(shutting_down)` when there are none.
#[test]
fn shutdown_sheds_pending_jobs_only_without_local_workers() {
    let vets: Vec<String> = (0..2)
        .map(|i| format!("{{\"kind\":\"vet\",\"source\":\"var pending{i};\"}}\n"))
        .collect();
    for workers in [0, 1] {
        let log = mem_log();
        let server = bind_slow(workers, log.clone());
        let addr = server.local_addr();
        let requests = vets.clone();
        let submitter = std::thread::spawn(move || pipelined(addr, &requests));
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats()["jobs"]["accepted"].as_f64() < Some(2.0) {
            assert!(Instant::now() < deadline, "jobs never queued");
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut client = Client::connect(addr).expect("connect");
        client.shutdown().expect("shutdown");
        let resps = submitter.join().expect("submitter");
        server.join();
        let replay = sigobs::replay::replay_log(&log.tail_lines().join("\n")).expect("replays");
        let expected = if workers == 0 {
            Outcome::Rejected
        } else {
            Outcome::Computed
        };
        for r in &resps {
            if workers == 0 {
                assert_eq!(r["kind"], "error", "shed at shutdown: {r}");
            } else {
                assert_eq!(r["verdict"], "ok", "drained at shutdown: {r}");
            }
        }
        assert_eq!(replay.timelines.len(), 2);
        assert!(
            replay
                .timelines
                .values()
                .all(|t| t.outcome == Some(expected)),
            "workers={workers}: every job ends {expected:?}"
        );
    }
}

#[test]
fn fleet_vets_and_store_answers_resubmission() {
    let coord = bind(fast_cfg());
    let addr = coord.local_addr().to_string();
    let workers: Vec<Worker> = (0..2)
        .map(|i| {
            let mut wc = WorkerConfig::new(addr.clone());
            wc.node = format!("node-{i}");
            wc.threads = 1;
            wc.claim_wait_ms = 100;
            Worker::join_fleet(wc, stub).expect("join")
        })
        .collect();

    let mut client = Client::connect(addr.as_str()).expect("connect");
    let first = client.vet_source(Some("a.js"), "var alpha;").expect("vet");
    assert_eq!(first["verdict"], "ok");
    assert_eq!(first["cached"], Json::Bool(false));
    assert_eq!(first["signature"]["len"].as_f64(), Some(10.0));

    // Resubmission: the shared result store answers without a worker.
    let second = client.vet_source(Some("a.js"), "var alpha;").expect("vet");
    assert_eq!(second["cached"], Json::Bool(true));
    assert_eq!(
        second["signature"].to_string(),
        first["signature"].to_string()
    );

    let stats = coord.stats();
    assert_eq!(counter(&stats, "workers_alive"), 2.0);
    assert_eq!(counter(&stats, "jobs_completed"), 1.0);
    assert_eq!(stats["cache"]["hits"].as_f64(), Some(1.0));

    client.shutdown().expect("shutdown");
    for w in workers {
        w.join();
    }
    coord.join();
}

#[test]
fn identical_concurrent_submissions_resolve_to_one_analysis() {
    // The slow stub holds the first submission in flight long enough
    // that the other clients coalesce onto it fleet-wide.
    let coord = bind(fast_cfg());
    let addr = coord.local_addr().to_string();
    let worker = {
        let mut wc = WorkerConfig::new(addr.clone());
        wc.threads = 2;
        wc.claim_wait_ms = 100;
        Worker::join_fleet(wc, slow_stub).expect("join")
    };

    let clients = 4;
    let responses: Vec<Json> = thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut c = Client::connect(addr.as_str()).expect("connect");
                    c.vet_source(Some("dup.js"), "var duplicated_content;")
                        .expect("vet")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    for r in &responses {
        assert_eq!(r["verdict"], "ok");
        assert_eq!(
            r["signature"].to_string(),
            responses[0]["signature"].to_string()
        );
    }
    let stats = coord.stats();
    let dedup = counter(&stats, "dedup_hits");
    let store_hits = stats["cache"]["hits"].as_f64().unwrap();
    // One client computed; every other one either coalesced onto the
    // in-flight job or (arriving after completion) hit the store.
    assert_eq!(dedup + store_hits, (clients - 1) as f64, "stats: {stats}");
    assert_eq!(counter(&stats, "jobs_completed"), 1.0);

    let mut client = Client::connect(addr.as_str()).expect("connect");
    client.shutdown().expect("shutdown");
    worker.join();
    coord.join();
}

#[test]
fn reaper_requeues_jobs_from_dead_workers() {
    let cfg = ServeConfig {
        heartbeat: Duration::from_millis(40),
        reap_after: Duration::from_millis(150),
        ..coordinator()
    };
    let coord = bind(cfg);
    let addr = coord.local_addr().to_string();

    // A doomed worker, spoken by hand: join, claim until a job arrives,
    // then vanish without completing or heartbeating.
    let mut doomed = Client::connect(addr.as_str()).expect("connect");
    let ack = doomed
        .request(&join_request("doomed", &daemon_config()))
        .expect("join");
    let doomed_id = ack["worker"].as_str().expect("worker id").to_owned();

    // Submit from a background thread; it blocks until a live worker
    // eventually answers.
    let submit_addr = addr.clone();
    let submitter = thread::spawn(move || {
        let mut c = Client::connect(submit_addr.as_str()).expect("connect");
        c.vet_source(Some("victim.js"), "var victim;").expect("vet")
    });

    // The doomed worker grabs the job and dies.
    let job = loop {
        let resp = doomed
            .request(&claim_request(&doomed_id, 500))
            .expect("claim");
        if resp["kind"] == "job" {
            break resp;
        }
    };
    assert_eq!(job["kind"], "job");
    drop(doomed);

    // Wait for the reaper to notice the silence and requeue.
    let t0 = Instant::now();
    loop {
        let stats = coord.stats();
        if counter(&stats, "jobs_requeued") >= 1.0 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "reaper never requeued: {stats}"
        );
        thread::sleep(Duration::from_millis(20));
    }

    // A live worker joins and rescues the requeued job.
    let worker = {
        let mut wc = WorkerConfig::new(addr.clone());
        wc.threads = 1;
        wc.claim_wait_ms = 100;
        Worker::join_fleet(wc, stub).expect("join")
    };
    let resp = submitter.join().expect("submitter");
    assert_eq!(resp["verdict"], "ok", "rescued job must answer: {resp}");
    assert_eq!(resp["signature"]["len"].as_f64(), Some(11.0));

    let stats = coord.stats();
    assert_eq!(
        counter(&stats, "workers_alive"),
        1.0,
        "doomed reaped, live joined"
    );
    assert!(counter(&stats, "workers_reaped") >= 1.0);
    assert_eq!(counter(&stats, "jobs_completed"), 1.0);

    let mut client = Client::connect(addr.as_str()).expect("connect");
    client.shutdown().expect("shutdown");
    worker.join();
    coord.join();
}

#[test]
fn heartbeats_keep_an_idle_worker_alive() {
    let cfg = ServeConfig {
        heartbeat: Duration::from_millis(30),
        reap_after: Duration::from_millis(120),
        ..coordinator()
    };
    let coord = bind(cfg);
    let addr = coord.local_addr().to_string();
    let worker = {
        let mut wc = WorkerConfig::new(addr.clone());
        wc.threads = 1;
        // Claim returns fast and the loop mostly sleeps on the
        // long-poll; liveness must come from the heartbeat thread too.
        wc.claim_wait_ms = 20;
        Worker::join_fleet(wc, stub).expect("join")
    };
    thread::sleep(Duration::from_millis(500));
    let stats = coord.stats();
    assert_eq!(
        counter(&stats, "workers_alive"),
        1.0,
        "idle worker reaped: {stats}"
    );
    let mut client = Client::connect(addr.as_str()).expect("connect");
    let resp = client.vet_source(None, "var still_alive;").expect("vet");
    assert_eq!(resp["verdict"], "ok");
    client.shutdown().expect("shutdown");
    worker.join();
    coord.join();
}

#[test]
fn overload_sheds_with_typed_backpressure() {
    let cfg = ServeConfig {
        queue_cap: 1,
        ..fast_cfg()
    };
    // No workers at all: everything pends, the second submission of a
    // *different* content must shed.
    let coord = bind(cfg);
    let addr = coord.local_addr().to_string();
    let submit_addr = addr.clone();
    let blocked = thread::spawn(move || {
        let mut c = Client::connect(submit_addr.as_str()).expect("connect");
        c.vet_source(None, "var first;").expect("vet")
    });
    // Wait until the first submission is pending.
    let t0 = Instant::now();
    while counter(&coord.stats(), "pending") < 1.0 {
        assert!(t0.elapsed() < Duration::from_secs(5));
        thread::sleep(Duration::from_millis(10));
    }
    let mut c2 = Client::connect(addr.as_str()).expect("connect");
    let resp = c2.vet_source(None, "var second;").expect("vet");
    assert_eq!(resp["kind"], "overloaded", "expected shed: {resp}");

    // A worker arrives; the pending job completes; shutdown drains.
    let worker = {
        let mut wc = WorkerConfig::new(addr.clone());
        wc.threads = 1;
        wc.claim_wait_ms = 50;
        Worker::join_fleet(wc, stub).expect("join")
    };
    let resp = blocked.join().expect("blocked client");
    assert_eq!(resp["verdict"], "ok");
    c2.shutdown().expect("shutdown");
    worker.join();
    coord.join();
}

#[test]
fn shutdown_sheds_pending_and_stops_workers() {
    // No workers: a pending job must be shed with an error verdict at
    // shutdown rather than hanging its client forever.
    let coord = bind(fast_cfg());
    let addr = coord.local_addr().to_string();
    let submit_addr = addr.clone();
    let blocked = thread::spawn(move || {
        let mut c = Client::connect(submit_addr.as_str()).expect("connect");
        c.vet_source(None, "var doomed_job;").expect("vet")
    });
    let t0 = Instant::now();
    while counter(&coord.stats(), "pending") < 1.0 {
        assert!(t0.elapsed() < Duration::from_secs(5));
        thread::sleep(Duration::from_millis(10));
    }
    let mut client = Client::connect(addr.as_str()).expect("connect");
    client.shutdown().expect("shutdown");
    let resp = blocked.join().expect("blocked client");
    assert_eq!(resp["kind"], "error", "shed at shutdown: {resp}");
    coord.join();
}

#[test]
fn fleet_metrics_expose_prometheus_text() {
    let coord = bind(fast_cfg());
    let addr = coord.local_addr().to_string();
    let worker = Worker::join_fleet(
        {
            let mut wc = WorkerConfig::new(addr.clone());
            wc.threads = 1;
            wc.claim_wait_ms = 50;
            wc
        },
        stub,
    )
    .expect("join");
    let mut client = Client::connect(addr.as_str()).expect("connect");
    client.vet_source(None, "var metered;").expect("vet");
    client.vet_source(None, "var metered;").expect("vet");
    let resp = client.metrics().expect("metrics");
    let text = resp["prometheus"].as_str().expect("prometheus text");
    assert!(sigobs::validate_prometheus_text(text).is_ok());
    for name in [
        "serve_workers_alive",
        "serve_jobs_completed",
        "serve_queue_wait_us",
        "serve_cache_hits",
    ] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
    client.shutdown().expect("shutdown");
    worker.join();
    coord.join();
}

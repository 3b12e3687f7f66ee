//! Load benchmark for the `sigserve` vetting daemon, std-only.
//!
//! Boots an in-process daemon on an ephemeral loopback port with the
//! real pipeline (`addon_sig::service_engine`), then measures three
//! things an addon-market deployment cares about:
//!
//! 1. **cold** — per-request latency with an empty cache (every corpus
//!    addon analyzed from scratch),
//! 2. **cached** — per-request latency for identical re-submissions
//!    (content-addressed cache hits), and
//! 3. **load** — sustained throughput with several concurrent clients
//!    replaying the corpus with duplicates, plus the resulting
//!    cache-hit rate from the daemon's own counters.
//!
//! Writes `BENCH_serve.json` at the repo root — the service-perf
//! trajectory file future changes regress against.
//!
//! Flags:
//! - `--clients N`   concurrent load clients (default 4)
//! - `--rounds N`    corpus replays per client in the load phase (default 3)
//! - `--workers N`   daemon worker threads (default 4)
//! - `--check`       tiny fast run that only asserts the invariants (all
//!   verdicts ok, cache actually hits, cached much faster than cold, and
//!   the daemon's structured event log replays into consistent per-job
//!   lifecycles) and writes nothing. Also forces a tiny job queue and
//!   runs an extra overload burst so shedding + sampled `job_rejected`
//!   logging are exercised: the sampled log must still replay, and kept
//!   records plus declared `suppressed` counts must reconcile exactly
//!   with the daemon's shed count.
//! - `--out PATH`    where to write the JSON (default
//!   `<repo root>/BENCH_serve.json`)
//! - `--fleet N`     benchmark a daemon with no local workers (the `vet
//!   coordinate` preset) + N remote worker nodes over loopback instead of
//!   a single daemon: a worker-kill/requeue test, deterministic
//!   fleet-wide dedup, whole-corpus byte-identity against a cold local
//!   analysis, a 1..N-node scaling sweep on fixed-service-time stub
//!   engines, and a causal merge of the per-node event logs that must
//!   replay as one valid lifecycle per job. Writes `BENCH_fleet.json`
//!   (default at the repo root).
//! - `--connections N`  many-connection benchmark for the event-driven
//!   server core: hold N mostly-idle connections open (in re-exec'd
//!   holder subprocesses, since this container caps any one process at
//!   20k fds) with a slow connect/close churn, then measure an active
//!   cache-hit request stream through the crowd. Writes
//!   `BENCH_serve_conn.json` (default at the repo root); ci.sh gates its
//!   active p99.
//! - `--metrics-dir DIR`  (fleet + connections modes) metrics-history
//!   ring, for `vet metrics-report --gate`

use minijson::Json;
use sigserve::{Client, ServeConfig, Server};
use std::sync::Arc;
use std::time::Instant;

fn percentile_us(sorted: &[u128], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64
}

struct LatencyStats {
    p50: f64,
    p95: f64,
    p99: f64,
    mean: f64,
}

fn latency_stats(mut micros: Vec<u128>) -> LatencyStats {
    micros.sort_unstable();
    let mean = micros.iter().sum::<u128>() as f64 / micros.len() as f64;
    LatencyStats {
        p50: percentile_us(&micros, 0.50),
        p95: percentile_us(&micros, 0.95),
        p99: percentile_us(&micros, 0.99),
        mean,
    }
}

fn stats_json(s: &LatencyStats) -> Json {
    let mut o = Json::obj();
    o.set("p50_us", Json::from(s.p50));
    o.set("p95_us", Json::from(s.p95));
    o.set("p99_us", Json::from(s.p99));
    o.set("mean_us", Json::from(s.mean));
    o
}

/// Vets every corpus addon once on `client`, asserting `verdict:"ok"`,
/// and returns the client-observed per-request latencies.
fn corpus_round(client: &mut Client, addons: &[corpus::Addon]) -> Vec<u128> {
    addons
        .iter()
        .map(|a| {
            let t0 = Instant::now();
            let resp = client.vet_source(Some(a.name), a.source).expect("vet");
            let micros = t0.elapsed().as_micros();
            assert_eq!(resp["verdict"], "ok", "{} must vet cleanly", a.name);
            micros
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden holder mode (re-exec'd by --connections): not part of the
    // flag grammar below because it is an internal protocol, not a UI.
    if args.first().map(String::as_str) == Some("--hold") {
        let addr = args.get(1).expect("--hold ADDR N CHURN_MS");
        let n: usize = args.get(2).and_then(|s| s.parse().ok()).expect("--hold N");
        let churn_ms: u64 = args
            .get(3)
            .and_then(|s| s.parse().ok())
            .expect("--hold CHURN_MS");
        run_hold(addr, n, churn_ms);
        return;
    }
    let mut clients = 4usize;
    let mut rounds = 3usize;
    let mut workers = 4usize;
    let mut check = false;
    let mut out: Option<String> = None;
    let mut fleet: Option<usize> = None;
    let mut connections: Option<usize> = None;
    let mut metrics_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--clients" => {
                i += 1;
                clients = args[i].parse().expect("--clients N");
            }
            "--rounds" => {
                i += 1;
                rounds = args[i].parse().expect("--rounds N");
            }
            "--workers" => {
                i += 1;
                workers = args[i].parse().expect("--workers N");
            }
            "--check" => check = true,
            "--out" => {
                i += 1;
                out = Some(args[i].clone());
            }
            "--fleet" => {
                i += 1;
                fleet = Some(args[i].parse().expect("--fleet N"));
            }
            "--connections" => {
                i += 1;
                connections = Some(args[i].parse().expect("--connections N"));
            }
            "--metrics-dir" => {
                i += 1;
                metrics_dir = Some(args[i].clone());
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if let Some(nodes) = fleet {
        let out =
            out.unwrap_or_else(|| format!("{}/../../BENCH_fleet.json", env!("CARGO_MANIFEST_DIR")));
        run_fleet(nodes.max(1), &out, metrics_dir);
        return;
    }
    if let Some(total) = connections {
        let out = out.unwrap_or_else(|| {
            format!("{}/../../BENCH_serve_conn.json", env!("CARGO_MANIFEST_DIR"))
        });
        run_connections(total.max(1), workers, &out, metrics_dir);
        return;
    }
    if check {
        // The ci.sh sanity target: smallest run that still exercises
        // concurrency and the cache.
        clients = 2;
        rounds = 1;
    }
    let out =
        out.unwrap_or_else(|| format!("{}/../../BENCH_serve.json", env!("CARGO_MANIFEST_DIR")));

    let addons = corpus::addons();
    // In --check mode the daemon keeps an in-memory event log with a
    // tail deep enough for the whole session, and we replay it at the
    // end: every job lifecycle must reconstruct from the log alone.
    // The log runs under overload sampling (threshold 8, then 1-in-4,
    // one huge window so the whole session is a single sampling window)
    // so the burst phase below exercises the degraded-logging path.
    const SAMPLE_THRESHOLD: u64 = 8;
    const SAMPLE_KEEP_ONE_IN: u64 = 4;
    let log = check.then(|| {
        Arc::new(
            sigobs::EventLog::in_memory(sigobs::Level::Info)
                .with_tail_cap(16_384)
                .with_sampling(sigobs::SamplePolicy {
                    events: vec!["job_rejected".to_owned()],
                    threshold: SAMPLE_THRESHOLD,
                    keep_one_in: SAMPLE_KEEP_ONE_IN,
                    window: std::time::Duration::from_secs(3600),
                }),
        )
    });
    let default_cfg = ServeConfig::default();
    let cfg = ServeConfig {
        workers,
        log: log.clone(),
        // A tiny queue in check mode so the burst phase actually sheds;
        // the cold/cached/load phases are one-request-per-connection
        // round trips, so they never queue more than `clients` jobs.
        queue_cap: if check { 4 } else { default_cfg.queue_cap },
        ..default_cfg
    };
    let server = Server::builder()
        .config(cfg)
        .addr("127.0.0.1:0")
        .analyze(addon_sig::service_engine)
        .start()
        .expect("bind daemon");
    let addr = server.local_addr();
    println!(
        "serve_load: daemon on {addr}, {workers} workers, {} corpus addons",
        addons.len()
    );

    // Phase 1: cold latencies — empty cache, one request per addon.
    let mut probe = Client::connect(addr).expect("connect");
    let cold = latency_stats(corpus_round(&mut probe, &addons));

    // Phase 2: cached latencies — identical resubmissions, all hits.
    let mut cached_micros = Vec::new();
    for _ in 0..2 {
        cached_micros.extend(corpus_round(&mut probe, &addons));
    }
    let cached = latency_stats(cached_micros);
    let speedup = cold.p50 / cached.p50.max(1.0);
    println!(
        "cold p50 {:.0}µs  cached p50 {:.0}µs  ({speedup:.0}x)",
        cold.p50, cached.p50
    );

    // Phase 3: sustained load — `clients` concurrent connections each
    // replaying the whole corpus `rounds` times. Each client starts at a
    // different corpus offset so the daemon sees interleaved duplicates,
    // like an addon market replaying overlapping submissions.
    let before = server.stats();
    let load_t0 = Instant::now();
    let all_micros: Vec<u128> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addons = &addons;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut micros = Vec::new();
                    for r in 0..rounds {
                        let mut order: Vec<&corpus::Addon> = addons.iter().collect();
                        order.rotate_left((c + r) % addons.len());
                        for a in order {
                            let t0 = Instant::now();
                            let resp = client.vet_source(Some(a.name), a.source).expect("vet");
                            micros.push(t0.elapsed().as_micros());
                            assert_eq!(resp["verdict"], "ok");
                        }
                    }
                    micros
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load client"))
            .collect()
    });
    let load_wall = load_t0.elapsed();
    let load_requests = all_micros.len();
    let load = latency_stats(all_micros);
    let throughput = load_requests as f64 / load_wall.as_secs_f64().max(1e-9);

    // Cache-hit rate over the load phase only (delta of the daemon's
    // counters, so the cold/cached warm-up phases don't pollute it).
    let after = server.stats();
    let hits = after["cache"]["hits"].as_f64().unwrap() - before["cache"]["hits"].as_f64().unwrap();
    let misses =
        after["cache"]["misses"].as_f64().unwrap() - before["cache"]["misses"].as_f64().unwrap();
    let hit_rate = hits / (hits + misses).max(1.0);
    println!(
        "load: {load_requests} requests, {clients} clients x {rounds} rounds in {:.2}s \
         ({throughput:.0} req/s, hit rate {:.0}%)",
        load_wall.as_secs_f64(),
        hit_rate * 100.0
    );

    // Phase 4 (check mode only): overload burst. Fire batches of
    // distinct trivial sources at the tiny queue from one connection —
    // `vet_batch` submits every item before awaiting any, so the queue
    // fills and most of the batch is shed with `overloaded`. With a
    // single submitter the shed pre-check can never lose a race (only
    // workers touch the queue, and they only drain it), so the daemon's
    // shed count must reconcile *exactly* with the sampled log.
    let mut shed_total = 0usize;
    let mut accepted_burst = 0usize;
    if check {
        let mut burst = Client::connect(addr).expect("connect");
        let mut round = 0usize;
        while shed_total < 24 && round < 5 {
            let mut req = Json::obj();
            req.set("kind", Json::from("vet_batch"));
            req.set(
                "items",
                Json::Arr(
                    (0..256)
                        .map(|i| {
                            let mut o = Json::obj();
                            o.set("name", Json::from(format!("burst{round}_{i}")));
                            o.set("source", Json::from(format!("var burst{round}_{i} = {i};")));
                            o
                        })
                        .collect(),
                ),
            );
            let resp = burst.request(&req).expect("burst batch");
            assert_eq!(resp["kind"], "vet_batch_result");
            for r in resp["results"].as_array().expect("results") {
                if r["kind"] == "overloaded" {
                    shed_total += 1;
                } else {
                    assert_eq!(r["verdict"], "ok", "accepted burst job must vet cleanly");
                    accepted_burst += 1;
                }
            }
            round += 1;
        }
        println!("burst: {shed_total} shed, {accepted_burst} accepted over {round} round(s)");
        assert!(
            shed_total as u64 > SAMPLE_THRESHOLD,
            "burst must shed past the sampling threshold (shed {shed_total})"
        );
    }

    let mut shut = Client::connect(addr).expect("connect");
    let ack = shut.shutdown().expect("shutdown");
    assert_eq!(ack["kind"], "shutdown_ack");
    server.join();

    if check {
        // Everything analyzed (all corpus keys were warmed before the
        // load phase, so the load phase must be pure hits), and the
        // cache must be doing real work.
        assert!(hits > 0.0, "load phase produced no cache hits");
        assert!(
            speedup >= 10.0,
            "cached vets must be >=10x faster than cold (got {speedup:.1}x)"
        );
        // Replay the structured event log: strict seq order, every job
        // resolves to a consistent lifecycle, and the overload-sampled
        // `job_rejected` stream reconciles exactly — kept records plus
        // the declared `suppressed` counts must equal the daemon's shed
        // count, with the kept count matching the sampling schedule.
        let log = log.expect("check mode attaches a log");
        log.flush();
        let text = log.tail_lines().join("\n");
        let replay = sigobs::replay::replay_log(&text).expect("event log must replay");
        let computed = replay
            .timelines
            .values()
            .filter(|t| t.outcome == Some(sigobs::replay::Outcome::Computed))
            .count();
        let hits = replay
            .timelines
            .values()
            .filter(|t| t.outcome == Some(sigobs::replay::Outcome::CacheHit))
            .count();
        let kept_rejected = replay
            .timelines
            .values()
            .filter(|t| t.outcome == Some(sigobs::replay::Outcome::Rejected))
            .count();
        let suppressed = *replay.suppressed.get("job_rejected").unwrap_or(&0) as usize;
        assert_eq!(
            computed,
            addons.len() + accepted_burst,
            "each addon computed exactly once, plus every accepted burst job"
        );
        assert!(hits > 0, "replay must see cache-hit lifecycles");
        assert_eq!(
            kept_rejected + suppressed,
            shed_total,
            "sampled log must account for every shed job exactly"
        );
        // One submitter, one sampling window: the kept count is exactly
        // the threshold head plus one-in-N of the overflow.
        let shed = shed_total as u64;
        let expected_kept = shed.min(SAMPLE_THRESHOLD)
            + shed
                .saturating_sub(SAMPLE_THRESHOLD)
                .div_ceil(SAMPLE_KEEP_ONE_IN);
        assert_eq!(
            kept_rejected as u64, expected_kept,
            "kept job_rejected records must follow the sampling schedule"
        );
        assert_eq!(
            log.suppressed_total("job_rejected"),
            suppressed as u64,
            "log's own suppression tally must match the declared records"
        );
        assert_eq!(
            replay.presumed_rejected, 0,
            "single submitter: no enqueued-only orphans"
        );
        println!(
            "serve_load --check: ok ({} jobs replayed: {computed} computed, {hits} cache hits, \
             {kept_rejected} rejected kept + {suppressed} suppressed = {shed_total} shed)",
            replay.timelines.len()
        );
        return;
    }

    let mut doc = Json::obj();
    doc.set("schema", Json::from(1u32));
    doc.set("workers", Json::from(workers as f64));
    doc.set("clients", Json::from(clients as f64));
    doc.set("rounds", Json::from(rounds as f64));
    doc.set("corpus_addons", Json::from(addons.len() as f64));
    doc.set("cold", stats_json(&cold));
    doc.set("cached", stats_json(&cached));
    doc.set(
        "speedup_cold_over_cached_p50",
        Json::from((speedup * 10.0).round() / 10.0),
    );
    let mut load_json = Json::obj();
    load_json.set("requests", Json::from(load_requests as f64));
    load_json.set(
        "wall_s",
        Json::from((load_wall.as_secs_f64() * 1e6).round() / 1e6),
    );
    load_json.set("throughput_rps", Json::from(throughput.round()));
    let Json::Obj(percentiles) = stats_json(&load) else {
        unreachable!()
    };
    for (k, v) in percentiles {
        load_json.set(&k, v);
    }
    doc.set("load", load_json);
    let mut cache_json = Json::obj();
    cache_json.set("hits", Json::from(hits));
    cache_json.set("misses", Json::from(misses));
    cache_json.set("hit_rate", Json::from((hit_rate * 1000.0).round() / 1000.0));
    doc.set("cache", cache_json);

    std::fs::write(&out, doc.to_string_pretty() + "\n").expect("write snapshot");
    println!("wrote {out}");
}

/// Holder subprocess for `--connections`: opens `n` connections to the
/// daemon at `addr`, reports `ready` on stdout, then slowly churns them
/// (close one, open one, every `churn_ms`) until stdin says `quit` or
/// closes. Holding the client fds in subprocesses keeps the parent —
/// which IS the daemon process — under the container's 20k-fd cap while
/// still presenting the server with the full connection count.
fn run_hold(addr: &str, n: usize, churn_ms: u64) {
    use std::io::{BufRead, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    // The listener's accept backlog is finite; a connect that loses the
    // race just backs off and retries instead of aborting the bench.
    fn connect(addr: &str) -> TcpStream {
        let mut delay = 1u64;
        loop {
            match TcpStream::connect(addr) {
                Ok(s) => return s,
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(delay));
                    delay = (delay * 2).min(100);
                }
            }
        }
    }

    let mut held: Vec<TcpStream> = (0..n).map(|_| connect(addr)).collect();
    println!("ready {n}");
    std::io::stdout().flush().expect("flush ready");

    let quit = Arc::new(AtomicBool::new(false));
    {
        let quit = Arc::clone(&quit);
        std::thread::spawn(move || {
            let mut line = String::new();
            let _ = std::io::stdin().lock().read_line(&mut line); // quit or EOF
            quit.store(true, Ordering::SeqCst);
        });
    }
    let mut i = 0usize;
    while !quit.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(churn_ms));
        if held.is_empty() {
            continue;
        }
        // Replace one held connection: the daemon sees a close and a
        // fresh accept while the other n-1 stay parked.
        let slot = i % held.len();
        held[slot] = connect(addr);
        i += 1;
    }
}

/// `--connections N`: the many-connection benchmark for the event-driven
/// server core. Parks N mostly-idle connections (held by re-exec'd
/// subprocesses, `run_hold`), keeps a slow accept/close churn going, and
/// measures an active cache-hit request stream threading through the
/// crowd. Asserts nothing was shed and writes `BENCH_serve_conn.json`.
fn run_connections(total: usize, workers: usize, out: &str, metrics_dir: Option<String>) {
    use std::io::{BufRead, Write};
    use std::time::Duration;

    const HOLDERS: usize = 4;
    const CHURN_MS: u64 = 25;
    const ACTIVE_REQUESTS: usize = 2000;

    let cfg = ServeConfig {
        workers,
        metrics_dir: metrics_dir.map(Into::into),
        metrics_interval: Duration::from_millis(100),
        ..ServeConfig::default()
    };
    let server = Server::builder()
        .config(cfg)
        .addr("127.0.0.1:0")
        .analyze(addon_sig::service_engine)
        .start()
        .expect("bind daemon");
    let addr = server.local_addr().to_string();
    println!("serve_load --connections: daemon on {addr}, target {total} held connections");

    let exe = std::env::current_exe().expect("current_exe");
    let mut children = Vec::new();
    let mut remaining = total;
    for h in 0..HOLDERS {
        let share = remaining / (HOLDERS - h);
        remaining -= share;
        let child = std::process::Command::new(&exe)
            .args(["--hold", &addr, &share.to_string(), &CHURN_MS.to_string()])
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn holder");
        children.push(child);
    }
    // Each holder prints `ready` only once all its connections are
    // established; reading the lines is the startup barrier.
    for child in &mut children {
        let stdout = child.stdout.take().expect("holder stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("holder ready line");
        assert!(line.starts_with("ready"), "holder said {line:?}");
    }

    let mut probe = Client::connect(addr.as_str()).expect("connect probe");
    let deadline = Instant::now() + Duration::from_secs(30);
    let open_with_load = loop {
        let open = probe.stats().expect("stats")["conns"]["open"]
            .as_f64()
            .expect("conns.open");
        // Churn briefly dips below `total`; +1 is the probe itself.
        if open >= total as f64 {
            break open;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never reported {total} open connections (saw {open})"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    println!("held: {open_with_load} connections open (target {total})");

    // Active stream through the crowd: one cold vet to warm the cache,
    // then pure cache-hit round trips — the latency an addon market's
    // live submitter sees while thousands of idle consoles stay parked.
    const ACTIVE_SOURCE: &str = "var active = content.location.href;";
    let warm = probe
        .vet_source(Some("active"), ACTIVE_SOURCE)
        .expect("warm vet");
    assert_eq!(warm["verdict"], "ok");
    let micros: Vec<u128> = (0..ACTIVE_REQUESTS)
        .map(|_| {
            let t0 = Instant::now();
            let resp = probe
                .vet_source(Some("active"), ACTIVE_SOURCE)
                .expect("active vet");
            let micros = t0.elapsed().as_micros();
            assert_eq!(resp["verdict"], "ok");
            micros
        })
        .collect();
    let active = latency_stats(micros);
    println!(
        "active stream: {ACTIVE_REQUESTS} cache-hit requests, p50 {:.0}µs p99 {:.0}µs",
        active.p50, active.p99
    );

    let stats = probe.stats().expect("final stats");
    let conn_stat = |name: &str| stats["conns"][name].as_f64().unwrap_or(-1.0);
    assert!(
        conn_stat("accepted") >= total as f64,
        "daemon must have accepted at least {total} connections"
    );
    assert!(conn_stat("closed") >= 1.0, "churn must close connections");
    assert_eq!(
        conn_stat("backpressure_sheds"),
        0.0,
        "idle holders read nothing but owe nothing; no sheds expected"
    );

    // Tear down: holders first (so the daemon drains their closes), then
    // the daemon itself.
    for child in &mut children {
        let mut stdin = child.stdin.take().expect("holder stdin");
        let _ = stdin.write_all(b"quit\n");
    }
    for mut child in children {
        let status = child.wait().expect("holder wait");
        assert!(status.success(), "holder exited {status}");
    }
    let ack = probe.shutdown().expect("shutdown");
    assert_eq!(ack["kind"], "shutdown_ack");
    server.join();

    let mut doc = Json::obj();
    doc.set("schema", Json::from(1u32));
    doc.set("connections", Json::from(total as f64));
    doc.set("holders", Json::from(HOLDERS as f64));
    doc.set("churn_ms", Json::from(CHURN_MS as f64));
    doc.set("workers", Json::from(workers as f64));
    doc.set("active_requests", Json::from(ACTIVE_REQUESTS as f64));
    doc.set("active", stats_json(&active));
    let mut conns = Json::obj();
    conns.set("open_with_load", Json::from(open_with_load));
    conns.set("accepted", Json::from(conn_stat("accepted")));
    conns.set("closed", Json::from(conn_stat("closed")));
    conns.set(
        "backpressure_sheds",
        Json::from(conn_stat("backpressure_sheds")),
    );
    conns.set("deadline_misses", Json::from(conn_stat("deadline_misses")));
    doc.set("conns", conns);
    std::fs::write(out, doc.to_string_pretty() + "\n").expect("write conn snapshot");
    println!("wrote {out}");
}

/// Fixed-service-time engine for the scaling sweep: the real analyzer
/// is CPU-bound, so on a small benchmark host extra nodes just contend
/// for cores and the sweep would measure the machine, not the fleet.
/// A 15ms sleep per job models a network of single-threaded nodes with
/// identical service time; near-linear claim/complete scaling is then a
/// property of the coordinator alone.
fn sleep_stub(
    source: &str,
    _config: &jsanalysis::AnalysisConfig,
    _metrics: &sigtrace::MetricsRegistry,
    _trace: sigtrace::Trace<'_>,
) -> sigserve::VetOutcome {
    std::thread::sleep(std::time::Duration::from_millis(15));
    sigserve::VetOutcome::report(
        format!("{{\n  \"len\": {}\n}}", source.len()),
        sigserve::LayerTimes::default(),
    )
}

/// Fleet-mode benchmark: coordinator + `nodes` in-process worker nodes
/// over loopback TCP (the full wire protocol, just without separate
/// OS processes). Asserts the fleet's correctness invariants — zero
/// lost jobs across a worker kill, deterministic dedup, byte-identical
/// signatures, and a merged per-node log that replays — then writes the
/// scaling snapshot to `out`.
fn run_fleet(nodes: usize, out: &str, metrics_dir: Option<String>) {
    use sigserve::{Worker, WorkerConfig};
    use std::time::Duration;

    // The `vet coordinate` preset: every job goes to a remote worker.
    let coordinator = || ServeConfig {
        workers: 0,
        queue_cap: 256,
        cache_cap: 4096,
        ..ServeConfig::default()
    };
    let bind = |cfg: ServeConfig| {
        Server::builder()
            .config(cfg)
            .addr("127.0.0.1:0")
            .start()
            .expect("bind coordinator")
    };
    let addons = corpus::addons();
    let coord_log =
        Arc::new(sigobs::EventLog::in_memory(sigobs::Level::Info).with_tail_cap(16_384));
    // Heartbeat/reap tuned down so the kill test runs in bench time.
    let cfg = ServeConfig {
        heartbeat: Duration::from_millis(100),
        reap_after: Duration::from_millis(400),
        log: Some(coord_log.clone()),
        metrics_dir: metrics_dir.map(Into::into),
        metrics_interval: Duration::from_millis(100),
        ..coordinator()
    };
    let coord = bind(cfg);
    let addr = coord.local_addr().to_string();
    println!(
        "serve_load --fleet: coordinator on {addr}, {nodes} worker node(s), {} corpus addons",
        addons.len()
    );
    let stat = |group: &str, name: &str| coord.stats()[group][name].as_f64().unwrap_or(-1.0);

    // Phase 1: worker kill. A client submits a job; a protocol-level
    // "doomed" worker joins, claims it, and dies without completing or
    // heartbeating. The reaper must requeue the claimed job, and the
    // client must still get the correct verdict — from a real worker
    // that joins later — with zero lost jobs.
    const VICTIM_SOURCE: &str = "var victim = 'held hostage';";
    let victim_addr = addr.clone();
    let victim = std::thread::spawn(move || {
        let mut c = Client::connect(victim_addr.as_str()).expect("connect victim");
        c.vet_source(Some("victim.js"), VICTIM_SOURCE)
            .expect("vet victim")
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while stat("queue", "depth") < 1.0 {
        assert!(Instant::now() < deadline, "victim job never enqueued");
        std::thread::sleep(Duration::from_millis(5));
    }
    {
        let mut doomed = Client::connect(addr.as_str()).expect("connect doomed");
        let ack = doomed
            .request(&sigserve::protocol::join_request(
                "doomed",
                &coordinator().analysis.canonical_string(),
            ))
            .expect("join doomed");
        assert_eq!(ack["kind"], "join_ack");
        let wid = ack["worker"].as_str().expect("worker id").to_owned();
        let job = doomed
            .request(&sigserve::protocol::claim_request(&wid, 2_000))
            .expect("claim doomed");
        assert_eq!(job["kind"], "job", "doomed worker must claim the victim");
    } // connection dropped mid-job: no complete, no further heartbeats
    while stat("jobs", "requeued") < 1.0 {
        assert!(
            Instant::now() < deadline,
            "reaper never requeued the dead worker's job"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    println!("kill test: doomed worker reaped, victim job requeued");

    // Phase 2: fleet-wide dedup, made deterministic by timing: no live
    // worker exists yet, so concurrent identical submissions *must*
    // coalesce onto the one enqueued job rather than racing completion.
    const DEDUP_CLIENTS: usize = 8;
    const DEDUP_SOURCE: &str = "var dedup = 'x'; var y = dedup + dedup;";
    let barrier = Arc::new(std::sync::Barrier::new(DEDUP_CLIENTS));
    let dedup_clients: Vec<_> = (0..DEDUP_CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr.as_str()).expect("connect dedup");
                barrier.wait();
                c.vet_source(Some("dedup.js"), DEDUP_SOURCE)
                    .expect("vet dedup")
            })
        })
        .collect();
    while stat("jobs", "coalesced") < (DEDUP_CLIENTS - 1) as f64 {
        assert!(
            Instant::now() < deadline,
            "dedup submissions never coalesced"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Phase 3: real worker nodes join (in-process, real pipeline, own
    // event logs) and drain the requeued victim plus the dedup job.
    let mut worker_logs = Vec::new();
    let workers: Vec<Worker> = (0..nodes)
        .map(|i| {
            let log =
                Arc::new(sigobs::EventLog::in_memory(sigobs::Level::Info).with_tail_cap(16_384));
            worker_logs.push(log.clone());
            let mut wc = WorkerConfig::new(addr.clone());
            wc.node = format!("bench-{i}");
            wc.threads = 2;
            wc.claim_wait_ms = 100;
            wc.log = Some(log);
            Worker::join_fleet(wc, addon_sig::service_engine).expect("join worker")
        })
        .collect();
    let victim_resp = victim.join().expect("victim thread");
    assert_eq!(victim_resp["verdict"], "ok", "requeued job must still vet");
    let victim_cold = addon_sig::analyze_addon(VICTIM_SOURCE).expect("cold victim");
    assert_eq!(
        victim_resp["signature"].to_string(),
        Json::parse(&victim_cold.signature.to_json())
            .unwrap()
            .to_string(),
        "rescued job must produce the exact cold signature"
    );
    let dedup_resps: Vec<Json> = dedup_clients
        .into_iter()
        .map(|t| t.join().expect("dedup client"))
        .collect();
    for resp in &dedup_resps {
        assert_eq!(resp["verdict"], "ok");
        assert_eq!(
            resp["signature"].to_string(),
            dedup_resps[0]["signature"].to_string(),
            "all coalesced submissions share one result"
        );
    }
    println!(
        "dedup: {} concurrent identical submissions -> 1 analysis",
        DEDUP_CLIENTS
    );

    // Phase 4: whole-corpus byte-identity. Every fleet response must
    // carry the exact signature a cold local analysis produces (the
    // single-node `vet --json` bytes); a second pass must be all
    // shared-store hits.
    let mut client = Client::connect(addr.as_str()).expect("connect corpus");
    for a in &addons {
        let resp = client
            .vet_source(Some(a.name), a.source)
            .expect("vet corpus");
        assert_eq!(resp["verdict"], "ok", "{} must vet cleanly", a.name);
        let cold = addon_sig::analyze_addon(a.source).expect("cold corpus");
        assert_eq!(
            resp["signature"].to_string(),
            Json::parse(&cold.signature.to_json()).unwrap().to_string(),
            "{}: fleet signature must be byte-identical to a cold analysis",
            a.name
        );
    }
    for a in &addons {
        let resp = client
            .vet_source(Some(a.name), a.source)
            .expect("re-vet corpus");
        assert_eq!(
            resp["cached"],
            Json::Bool(true),
            "{}: second pass must hit",
            a.name
        );
    }
    println!(
        "corpus: {} addons byte-identical, second pass all store hits",
        addons.len()
    );

    // Phase 5: scaling sweep on fixed-service-time stubs, one fresh
    // coordinator per fleet size so no shared store warms the next run.
    const SCALE_JOBS: usize = 60;
    let mut throughputs: Vec<f64> = Vec::new();
    let mut sizes_json = Vec::new();
    for size in 1..=nodes {
        let c = bind(coordinator());
        let caddr = c.local_addr().to_string();
        let ws: Vec<Worker> = (0..size)
            .map(|i| {
                let mut wc = WorkerConfig::new(caddr.clone());
                wc.node = format!("scale-{i}");
                wc.threads = 1; // one claim thread: service time is the 15ms stub
                wc.claim_wait_ms = 100;
                Worker::join_fleet(wc, sleep_stub).expect("join scale")
            })
            .collect();
        let mut cl = Client::connect(caddr.as_str()).expect("connect scale");
        let req = sigserve::protocol::vet_batch_request((0..SCALE_JOBS).map(|i| {
            (
                format!("scale{size}_{i}"),
                format!("var scale{size}_{i} = {i};"),
            )
        }));
        let t0 = Instant::now();
        let resp = cl.request(&req).expect("scale batch");
        let wall = t0.elapsed();
        assert_eq!(resp["kind"], "vet_batch_result");
        for r in resp["results"].as_array().expect("results") {
            assert_eq!(r["verdict"], "ok");
        }
        let ack = cl.shutdown().expect("scale shutdown");
        assert_eq!(ack["kind"], "shutdown_ack");
        c.join();
        for w in ws {
            w.join();
        }
        let tput = SCALE_JOBS as f64 / wall.as_secs_f64().max(1e-9);
        println!(
            "scale: {size} node(s): {SCALE_JOBS} jobs in {:.2}s ({tput:.0} jobs/s)",
            wall.as_secs_f64()
        );
        let mut o = Json::obj();
        o.set("nodes", Json::from(size as f64));
        o.set(
            "wall_s",
            Json::from((wall.as_secs_f64() * 1e6).round() / 1e6),
        );
        o.set("throughput_rps", Json::from((tput * 10.0).round() / 10.0));
        sizes_json.push(o);
        throughputs.push(tput);
    }
    let ratio = |n: usize| (throughputs[n - 1] / throughputs[0] * 100.0).round() / 100.0;
    if nodes >= 2 {
        assert!(
            ratio(2) >= 1.7,
            "2-node fleet must be >=1.7x 1-node throughput (got {:.2}x)",
            ratio(2)
        );
    }

    // Phase 6: shutdown, then merge the per-node logs causally and
    // replay the result — every job must resolve to one valid
    // lifecycle even though its events are spread across processes.
    let final_stats = coord.stats();
    let mut shut = Client::connect(addr.as_str()).expect("connect shutdown");
    let ack = shut.shutdown().expect("shutdown");
    assert_eq!(ack["kind"], "shutdown_ack");
    coord.join();
    for w in workers {
        w.join();
    }
    coord_log.flush();
    let coord_text = coord_log.tail_lines().join("\n");
    let worker_texts: Vec<(String, String)> = worker_logs
        .iter()
        .enumerate()
        .map(|(i, l)| {
            l.flush();
            (format!("bench-{i}"), l.tail_lines().join("\n"))
        })
        .collect();
    let mut merge_input: Vec<(&str, &str)> = vec![("coord", coord_text.as_str())];
    for (name, text) in &worker_texts {
        merge_input.push((name.as_str(), text.as_str()));
    }
    let merged = sigobs::merge_fleet_logs(&merge_input).expect("fleet logs must merge");
    let replay = sigobs::replay::replay_log(&merged).expect("merged log must replay");
    let outcome_count = |want: sigobs::replay::Outcome| {
        replay
            .timelines
            .values()
            .filter(|t| t.outcome == Some(want))
            .count()
    };
    let computed = outcome_count(sigobs::replay::Outcome::Computed);
    let coalesced = outcome_count(sigobs::replay::Outcome::Coalesced);
    let store_hits = outcome_count(sigobs::replay::Outcome::CacheHit);
    assert_eq!(
        computed,
        addons.len() + 2,
        "each corpus addon, the victim, and the dedup job computed exactly once"
    );
    assert_eq!(
        coalesced,
        DEDUP_CLIENTS - 1,
        "the other dedup submissions coalesced"
    );
    assert!(
        store_hits >= addons.len(),
        "second corpus pass must replay as store hits (got {store_hits})"
    );
    assert_eq!(
        replay.presumed_rejected, 0,
        "a clean fleet session has no enqueued-only orphans"
    );
    println!(
        "merged replay: {} jobs ({computed} computed, {store_hits} store hits, \
         {coalesced} coalesced), 0 lost",
        replay.timelines.len()
    );

    let mut doc = Json::obj();
    doc.set("schema", Json::from(1u32));
    doc.set("nodes", Json::from(nodes as f64));
    doc.set("corpus_addons", Json::from(addons.len() as f64));
    doc.set("scale_jobs", Json::from(SCALE_JOBS as f64));
    doc.set("sizes", Json::Arr(sizes_json));
    if nodes >= 2 {
        doc.set("ratio_2v1", Json::from(ratio(2)));
    }
    if nodes >= 3 {
        doc.set("ratio_3v1", Json::from(ratio(3)));
    }
    let mut fleet_json = Json::obj();
    for (name, group, key) in [
        ("jobs_accepted", "jobs", "accepted"),
        ("jobs_completed", "jobs", "completed"),
        ("jobs_requeued", "jobs", "requeued"),
        ("jobs_coalesced", "jobs", "coalesced"),
        ("workers_reaped", "fleet", "workers_reaped"),
    ] {
        fleet_json.set(
            name,
            Json::from(final_stats[group][key].as_f64().unwrap_or(-1.0)),
        );
    }
    doc.set("fleet", fleet_json);
    std::fs::write(out, doc.to_string_pretty() + "\n").expect("write fleet snapshot");
    println!("wrote {out}");
}

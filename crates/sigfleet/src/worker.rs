//! The worker side of the fleet: claim loops that pull jobs from a
//! coordinator, run the analysis engine, and post completions, plus a
//! heartbeat thread that keeps the worker off the reaper's list.
//!
//! Each worker owns one *shard* of the fleet's signature cache: the
//! coordinator assigns a `slot` at join time, and the worker caches
//! (and preferentially claims) only keys with `key % slots == slot`.
//! The coordinator's shared result store still covers every key; the
//! shard is the warm L1 in front of it.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use jsanalysis::AnalysisConfig;
use minijson::Json;
use sigobs::{EventLog, Level, LogTracer};
use sigserve::{Client, SigCache, VetOutcome};
use sigtrace::{MetricsRegistry, Trace};

use crate::protocol::{
    claim_request, complete_request, heartbeat_request, join_request, key_from_json,
};

/// Worker configuration. Timings (heartbeat cadence, reap horizon) are
/// coordinator-governed and arrive in the `join_ack`.
pub struct WorkerConfig {
    /// The coordinator's address (`host:port`).
    pub coordinator: String,
    /// Self-reported node name (shows up in fleet stats and logs).
    pub node: String,
    /// Number of claim loops (each with its own connection).
    pub threads: usize,
    /// Capacity of this node's cache shard (entries; 0 disables).
    pub cache_cap: usize,
    /// Long-poll duration per claim request.
    pub claim_wait_ms: u64,
    /// The analysis configuration the engine runs under (default: the
    /// default analysis with triage on, like `sigserve::ServeConfig`).
    /// Must match the coordinator's, or shard keys and verdicts diverge.
    pub analysis: AnalysisConfig,
    /// Structured event log (job lifecycle events land here).
    pub log: Option<Arc<EventLog>>,
}

impl WorkerConfig {
    /// A worker pointed at `coordinator` with local-fleet defaults.
    pub fn new(coordinator: impl Into<String>) -> WorkerConfig {
        WorkerConfig {
            coordinator: coordinator.into(),
            node: "worker".to_owned(),
            threads: 2,
            cache_cap: 1024,
            claim_wait_ms: 500,
            analysis: AnalysisConfig::default().with_triage(true),
            log: None,
        }
    }
}

struct WorkerShared {
    coordinator: String,
    id: String,
    slot: usize,
    slots: usize,
    claim_wait_ms: u64,
    analysis: AnalysisConfig,
    shard: Mutex<SigCache>,
    metrics: MetricsRegistry,
    log: Option<Arc<EventLog>>,
    stop: Arc<AtomicBool>,
    engine: Box<sigserve::AnalyzeJobFn>,
}

impl WorkerShared {
    fn lock_shard(&self) -> MutexGuard<'_, SigCache> {
        self.shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn log_event(&self, level: Level, event: &str, fields: &[(&str, Json)]) {
        if let Some(log) = &self.log {
            log.log(level, event, fields);
        }
    }

    fn owns(&self, key: u64) -> bool {
        key as usize % self.slots == self.slot
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one claimed job: shard lookup, else compute (panic-contained),
/// then `complete`. Returns the line to send back to the coordinator.
fn run_job(shared: &WorkerShared, msg: &Json) -> Result<Json, String> {
    let job = msg
        .get("job")
        .and_then(Json::as_str)
        .ok_or("job message without id")?
        .to_owned();
    let key = key_from_json(msg, "key")?;
    let source = msg
        .get("source")
        .and_then(Json::as_str)
        .ok_or("job message without source")?;
    shared.log_event(
        Level::Info,
        "job_dequeued",
        &[("job", Json::from(job.as_str()))],
    );
    // The shard: only keys this worker owns live here, so a hit means
    // this node (or a predecessor on the same slot) computed the key.
    if shared.owns(key) {
        let cached = shared.lock_shard().get(key);
        if let Some((core, producer)) = cached {
            shared.metrics.add("worker_shard_hits", 1);
            shared.log_event(
                Level::Info,
                "cache_hit",
                &[
                    ("job", Json::from(job.as_str())),
                    ("producer", Json::from(producer)),
                ],
            );
            return Ok(complete_request(&shared.id, &job, true, &core));
        }
    }
    let t0 = Instant::now();
    // Panic-contained: a crashing analysis becomes an error verdict,
    // never a lost job.
    let outcome = match catch_unwind(AssertUnwindSafe(|| {
        let mut tracer = shared
            .log
            .as_ref()
            .filter(|l| l.enabled(Level::Debug))
            .map(|l| LogTracer::new(l, &job));
        let trace = match tracer.as_mut() {
            Some(t) => Trace::On(t),
            None => Trace::Off,
        };
        (shared.engine)(source, &shared.analysis, &shared.metrics, trace)
    })) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            shared.metrics.add("worker_panics", 1);
            shared.log_event(
                Level::Error,
                "worker_panic",
                &[
                    ("job", Json::from(job.as_str())),
                    ("message", Json::from(msg.as_str())),
                ],
            );
            VetOutcome::error(format!("worker panicked: {msg}"))
        }
    };
    // Same postmortem contract as the single-node daemon: the cost
    // profile rides right after `job_computed`, so a merged fleet log
    // replays with every timeout explainable (and `vet trace-job` can
    // attach hotspots to the timeline).
    if let Some(log) = &shared.log {
        sigserve::log_job_computed(log, &job, &outcome);
        sigserve::log_job_profile(log, &job, &outcome);
    }
    shared.metrics.record(
        "worker_vet_us",
        t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
    );
    match &outcome {
        VetOutcome::Timeout { .. } => shared.metrics.add("worker_budget_aborts", 1),
        VetOutcome::Error { .. } => shared.metrics.add("worker_analysis_errors", 1),
        _ => {}
    }
    let core = outcome.core_json();
    let cacheable = outcome.cacheable(&shared.analysis);
    if cacheable && shared.owns(key) {
        shared.lock_shard().insert(key, core.clone(), &job);
        shared.log_event(
            Level::Debug,
            "cache_insert",
            &[("job", Json::from(job.as_str()))],
        );
    }
    Ok(complete_request(&shared.id, &job, cacheable, &core))
}

fn claim_loop(shared: &WorkerShared) {
    let Ok(mut client) = Client::connect(shared.coordinator.as_str()) else {
        shared.stop.store(true, Ordering::SeqCst);
        return;
    };
    while !shared.stop.load(Ordering::SeqCst) {
        let claim = claim_request(&shared.id, shared.claim_wait_ms);
        let resp = match client.request(&claim) {
            Ok(r) => r,
            // Connection gone: the coordinator shut down or restarted.
            Err(_) => break,
        };
        match resp.get("kind").and_then(Json::as_str) {
            Some("no_job") => continue,
            Some("job") => {
                let complete = match run_job(shared, &resp) {
                    Ok(c) => c,
                    Err(e) => {
                        shared.log_event(
                            Level::Warn,
                            "protocol_error",
                            &[("error", Json::from(e.as_str()))],
                        );
                        continue;
                    }
                };
                match client.request(&complete) {
                    Ok(ack) => {
                        if matches!(ack.get("stale"), Some(Json::Bool(true))) {
                            shared.metrics.add("worker_stale_completes", 1);
                        }
                    }
                    Err(_) => break,
                }
            }
            // `fleet_shutdown`, an `error` (e.g. this worker was
            // reaped), or anything unrecognized: stop the whole worker.
            _ => break,
        }
    }
    shared.stop.store(true, Ordering::SeqCst);
}

fn heartbeat_loop(shared: &WorkerShared, mut client: Client, interval: Duration) {
    while !shared.stop.load(Ordering::SeqCst) {
        if client.request(&heartbeat_request(&shared.id)).is_err() {
            return;
        }
        // Sleep in small slices so stop() is prompt even with the
        // multi-second production cadence.
        let t0 = Instant::now();
        while t0.elapsed() < interval {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(25).min(interval));
        }
    }
}

/// A running fleet worker: `threads` claim loops plus a heartbeat
/// thread, all stopped by coordinator shutdown or [`Worker::stop`].
pub struct Worker {
    id: String,
    slot: usize,
    slots: usize,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    shared: Arc<WorkerShared>,
}

impl Worker {
    /// Joins the fleet at `cfg.coordinator` and starts claiming.
    ///
    /// The engine receives a [`sigtrace::Trace`] carrying the owning
    /// job's coordinator-assigned ID (a [`LogTracer`] when the event
    /// log is at debug level), exactly like `sigserve`'s traced engine.
    pub fn join_fleet<F>(cfg: WorkerConfig, engine: F) -> io::Result<Worker>
    where
        F: for<'a> Fn(&str, &AnalysisConfig, &MetricsRegistry, Trace<'a>) -> VetOutcome
            + Send
            + Sync
            + 'static,
    {
        let mut client = Client::connect(cfg.coordinator.as_str())?;
        let ack = client
            .request(&join_request(&cfg.node))
            .map_err(|e| io::Error::new(io::ErrorKind::ConnectionRefused, e))?;
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("join_ack: {what}"));
        if ack.get("kind").and_then(Json::as_str) != Some("join_ack") {
            return Err(bad(&format!(
                "unexpected response {}",
                ack.to_string_compact()
            )));
        }
        let id = ack
            .get("worker")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing worker"))?
            .to_owned();
        let slot = ack
            .get("slot")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("missing slot"))? as usize;
        let slots = ack
            .get("slots")
            .and_then(Json::as_f64)
            .filter(|s| *s >= 1.0)
            .ok_or_else(|| bad("missing slots"))? as usize;
        let heartbeat_ms = ack
            .get("heartbeat_ms")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("missing heartbeat_ms"))? as u64;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(WorkerShared {
            coordinator: cfg.coordinator,
            id: id.clone(),
            slot,
            slots,
            claim_wait_ms: cfg.claim_wait_ms,
            analysis: cfg.analysis,
            shard: Mutex::new(SigCache::new(cfg.cache_cap)),
            metrics: MetricsRegistry::new(),
            log: cfg.log,
            stop: Arc::clone(&stop),
            engine: Box::new(engine),
        });
        shared.log_event(
            Level::Info,
            "worker_started",
            &[
                ("worker", Json::from(id.as_str())),
                ("node", Json::from(cfg.node.as_str())),
                ("slot", Json::from(slot as f64)),
                ("slots", Json::from(slots as f64)),
                ("threads", Json::from(cfg.threads.max(1) as f64)),
            ],
        );
        let mut handles = Vec::new();
        // The join connection becomes the heartbeat connection.
        {
            let shared = Arc::clone(&shared);
            let interval = Duration::from_millis(heartbeat_ms.max(1));
            handles.push(
                std::thread::Builder::new()
                    .name(format!("sigfleet-hb-{id}"))
                    .spawn(move || heartbeat_loop(&shared, client, interval))
                    .expect("spawn heartbeat thread"),
            );
        }
        for i in 0..cfg.threads.max(1) {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("sigfleet-claim-{id}-{i}"))
                    .spawn(move || claim_loop(&shared))
                    .expect("spawn claim thread"),
            );
        }
        Ok(Worker {
            id,
            slot,
            slots,
            stop,
            handles,
            shared,
        })
    }

    /// The coordinator-assigned worker ID (`w-<n>`).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// This worker's cache-shard slot.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// The fleet's shard count.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Asks the claim loops and heartbeat to stop after their current
    /// request. In-flight analyses still complete and post back.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// A snapshot of the worker-local metrics registry.
    pub fn metrics_snapshot(&self) -> sigtrace::MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Waits for every thread. Returns when the coordinator shut the
    /// fleet down, the connection dropped, or after [`Worker::stop`].
    pub fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
        if let Some(log) = &self.shared.log {
            log.flush();
        }
    }
}

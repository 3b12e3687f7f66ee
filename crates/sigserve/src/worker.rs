//! The remote worker (`vet serve --join`): claim loops that pull jobs
//! from a daemon over the worker verbs, run them through the same
//! compute step as the daemon's local workers, and post
//! completions, plus a heartbeat thread that keeps the worker off the
//! reaper's list.

use crate::jobs::{spawn_pipeline_thread, Engine};
use crate::protocol::{claim_request, complete_request, heartbeat_request, join_request};
use crate::{Client, VetOutcome};
use jsanalysis::AnalysisConfig;
use minijson::Json;
use sigobs::{EventLog, Level};
use sigtrace::{MetricsRegistry, Trace};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Worker configuration. Timings (heartbeat cadence, reap horizon) are
/// daemon-governed and arrive in the `join_ack`.
pub struct WorkerConfig {
    /// The daemon's address (`host:port`).
    pub coordinator: String,
    /// Self-reported node name (shows up in the daemon's stats and logs).
    pub node: String,
    /// Number of claim loops (each with its own connection).
    pub threads: usize,
    /// Long-poll duration per claim request.
    pub claim_wait_ms: u64,
    /// The analysis configuration the engine runs under (default: the
    /// default analysis with triage on, like [`crate::ServeConfig`]).
    /// Must match the daemon's, whose cache keys assume it.
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
            claim_wait_ms: 500,
            analysis: AnalysisConfig::default().with_triage(true),
            log: None,
        }
    }
}

struct WorkerShared {
    coordinator: String,
    id: String,
    claim_wait_ms: u64,
    engine: Engine,
    stop: AtomicBool,
}

/// Runs one claimed job and returns the `complete` to send back.
fn run_job(shared: &WorkerShared, msg: &Json) -> Result<Json, String> {
    let job = msg
        .get("job")
        .and_then(Json::as_str)
        .ok_or("job message without id")?;
    let source = msg
        .get("source")
        .and_then(Json::as_str)
        .ok_or("job message without source")?;
    shared
        .engine
        .log_event(Level::Info, "job_dequeued", &[("job", Json::from(job))]);
    let (core, cacheable) = shared.engine.compute(job, source);
    Ok(complete_request(&shared.id, job, cacheable, &core))
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
            // Connection gone: the daemon shut down or restarted.
            Err(_) => break,
        };
        match resp.get("kind").and_then(Json::as_str) {
            Some("no_job") => continue,
            Some("job") => {
                let complete = match run_job(shared, &resp) {
                    Ok(c) => c,
                    Err(e) => {
                        shared.engine.log_event(
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
                            shared.engine.metrics.add("serve_stale_completes", 1);
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
        // Sleep in small slices so a stop is prompt even with the
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

/// A running remote worker: `threads` claim loops plus a heartbeat
/// thread, all stopped by daemon shutdown.
pub struct Worker {
    handles: Vec<JoinHandle<()>>,
    shared: Arc<WorkerShared>,
}

impl Worker {
    /// Joins the daemon at `cfg.coordinator` and starts claiming.
    ///
    /// The engine receives a [`sigtrace::Trace`] carrying the owning
    /// job's daemon-assigned ID (a [`sigobs::LogTracer`] when the event
    /// log is at debug level), exactly like the daemon's local workers.
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
        let bad =
            |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("join_ack: {what}"));
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
        let heartbeat_ms = ack
            .get("heartbeat_ms")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("missing heartbeat_ms"))? as u64;
        let shared = Arc::new(WorkerShared {
            coordinator: cfg.coordinator,
            id: id.clone(),
            claim_wait_ms: cfg.claim_wait_ms,
            engine: Engine::new(Box::new(engine), cfg.analysis, cfg.log),
            stop: AtomicBool::new(false),
        });
        let threads = cfg.threads.max(1);
        shared.engine.log_event(
            Level::Info,
            "worker_started",
            &[
                ("worker", Json::from(id.as_str())),
                ("node", Json::from(cfg.node.as_str())),
                ("threads", Json::from(threads as f64)),
            ],
        );
        let mut handles = Vec::new();
        // The join connection becomes the heartbeat connection.
        {
            let shared = Arc::clone(&shared);
            let interval = Duration::from_millis(heartbeat_ms.max(1));
            handles.push(
                std::thread::Builder::new()
                    .name(format!("sigserve-hb-{id}"))
                    .spawn(move || heartbeat_loop(&shared, client, interval))
                    .expect("spawn heartbeat thread"),
            );
        }
        for i in 0..threads {
            let shared = Arc::clone(&shared);
            handles.push(spawn_pipeline_thread(
                format!("sigserve-claim-{id}-{i}"),
                move || claim_loop(&shared),
            ));
        }
        Ok(Worker { handles, shared })
    }

    /// The daemon-assigned worker ID (`w-<n>`).
    pub fn id(&self) -> &str {
        &self.shared.id
    }

    /// Waits for every thread. Returns when the daemon shut down or the
    /// connection dropped.
    pub fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
        if let Some(log) = &self.shared.engine.log {
            log.flush();
        }
    }
}

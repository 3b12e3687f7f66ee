//! The fleet coordinator: one process that owns the job queue, the
//! shared content-addressed result store, and the worker registry, and
//! speaks both protocol dialects on one port.
//!
//! Jobs move through a small state machine:
//!
//! ```text
//! submitted --(store hit)--------------------> answered   (cached:true)
//! submitted --(key already in flight)--------> coalesced  (waits on owner)
//! submitted --(queue full / shutting down)---> rejected
//! submitted -> pending --claim--> claimed --complete--> answered
//!                 ^                   |
//!                 +----- requeued ----+   (worker missed heartbeats)
//! ```
//!
//! The coordinator never runs an analysis itself; workers claim jobs,
//! compute, and post `complete`. A background reaper removes workers
//! whose `last_seen` (any verb refreshes it) is older than `reap_after`
//! and pushes their claimed-but-incomplete jobs back to the *front* of
//! the queue, so a worker crash delays its jobs but never loses them.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use jsanalysis::AnalysisConfig;
use minijson::Json;
use sigobs::{EventLog, Level};
use sigserve::protocol::{
    error_response, metrics_response, overloaded_response, vet_response,
};
use sigserve::{cache_key, metrics_json, Request, SigCache, Source, VetItem};
use sigtrace::{MetricsRegistry, MetricsSnapshot};

use crate::protocol::{
    complete_ack, fleet_shutdown, heartbeat_ack, job_message, join_ack, no_job,
    parse_fleet_request, FleetRequest, WorkerRequest,
};

/// Coordinator configuration. `Default` gives local-fleet-friendly
/// values; production deployments mostly tune the timings.
pub struct FleetConfig {
    /// Maximum unclaimed jobs before submissions shed as `overloaded`.
    pub queue_cap: usize,
    /// Capacity of the shared result store (entries; 0 disables).
    pub result_cap: usize,
    /// Number of cache shards; a key's owner is `key % slots`.
    pub slots: usize,
    /// The analysis configuration whose canonical string keys the store
    /// (default: the default analysis with triage on, matching
    /// `WorkerConfig`). Workers are expected to run the same one.
    pub analysis: AnalysisConfig,
    /// How often workers must heartbeat (sent to them in `join_ack`).
    pub heartbeat: Duration,
    /// Reap a worker whose `last_seen` is older than this.
    pub reap_after: Duration,
    /// Structured event log (fleet lifecycle events land here).
    pub log: Option<Arc<EventLog>>,
    /// When set, append merged metrics snapshots to this on-disk ring.
    pub metrics_dir: Option<PathBuf>,
    /// Snapshot interval for `metrics_dir`.
    pub metrics_interval: Duration,
    /// Ring capacity for `metrics_dir`.
    pub metrics_history_cap: u64,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            queue_cap: 256,
            result_cap: 4096,
            slots: 8,
            analysis: AnalysisConfig::default().with_triage(true),
            heartbeat: Duration::from_millis(2000),
            reap_after: Duration::from_millis(6000),
            log: None,
            metrics_dir: None,
            metrics_interval: Duration::from_secs(5),
            metrics_history_cap: 512,
        }
    }
}

/// One job the fleet owns (pending or claimed).
struct FleetJob {
    key: u64,
    name: Option<String>,
    source: String,
    /// Every submission waiting on this content: the original plus any
    /// coalesced duplicates. Each gets the core result on completion.
    waiters: Vec<mpsc::Sender<Json>>,
    enqueued: Instant,
    claimed_by: Option<String>,
}

struct WorkerEntry {
    node: String,
    slot: usize,
    last_seen: Instant,
    claimed: Vec<String>,
}

#[derive(Default)]
struct FleetState {
    /// Unclaimed job IDs, oldest first (requeues go to the front).
    pending: VecDeque<String>,
    jobs: HashMap<String, FleetJob>,
    /// In-flight dedup: content key -> owning job ID.
    by_key: HashMap<u64, String>,
    workers: BTreeMap<String, WorkerEntry>,
    shutting: bool,
}

struct Shared {
    queue_cap: usize,
    slots: usize,
    heartbeat: Duration,
    reap_after: Duration,
    config_canon: String,
    state: Mutex<FleetState>,
    /// Notified on enqueue, requeue, and shutdown; claims wait on it.
    jobs_cv: Condvar,
    store: Mutex<SigCache>,
    metrics: MetricsRegistry,
    log: Option<Arc<EventLog>>,
    job_seq: AtomicU64,
    worker_seq: AtomicU64,
    shutting_down: AtomicBool,
    addr: Option<SocketAddr>,
    metrics_dir: Option<PathBuf>,
    metrics_interval: Duration,
    metrics_history_cap: u64,
}

impl Shared {
    fn new(cfg: FleetConfig, addr: Option<SocketAddr>) -> Shared {
        Shared {
            queue_cap: cfg.queue_cap,
            slots: cfg.slots.max(1),
            heartbeat: cfg.heartbeat,
            reap_after: cfg.reap_after,
            config_canon: cfg.analysis.canonical_string(),
            state: Mutex::new(FleetState::default()),
            jobs_cv: Condvar::new(),
            store: Mutex::new(SigCache::new(cfg.result_cap)),
            metrics: MetricsRegistry::new(),
            log: cfg.log,
            job_seq: AtomicU64::new(0),
            worker_seq: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            addr,
            metrics_dir: cfg.metrics_dir,
            metrics_interval: cfg.metrics_interval,
            metrics_history_cap: cfg.metrics_history_cap,
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, FleetState> {
        // Recover, don't propagate: same crash-cascade rationale as the
        // sigserve cache lock.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_store(&self) -> MutexGuard<'_, SigCache> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn next_job_id(&self) -> String {
        format!("j-{}", self.job_seq.fetch_add(1, Ordering::Relaxed))
    }

    fn log_event(&self, level: Level, event: &str, fields: &[(&str, Json)]) {
        if let Some(log) = &self.log {
            log.log(level, event, fields);
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.metrics.counter(name).load(Ordering::Relaxed)
    }

    fn set_alive(&self, n: usize) {
        self.metrics
            .counter("fleet_workers_alive")
            .store(n as u64, Ordering::Relaxed);
    }

    /// The registry snapshot plus fleet occupancy and result-store
    /// counters, under `fleet_`-prefixed names — what `metrics`
    /// responses and the on-disk history both render.
    fn merged_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let (pending, claimed) = {
            let st = self.lock_state();
            let claimed = st.jobs.values().filter(|j| j.claimed_by.is_some()).count();
            (st.pending.len(), claimed)
        };
        let store = self.lock_store().counters();
        let extra = [
            ("fleet_pending_jobs", pending as u64),
            ("fleet_claimed_jobs", claimed as u64),
            ("fleet_store_hits", store.hits),
            ("fleet_store_misses", store.misses),
            ("fleet_store_entries", store.entries),
            ("fleet_store_evictions", store.evictions),
        ];
        for (name, v) in extra {
            snap.counters.push((name.to_owned(), v));
        }
        snap.counters.sort();
        snap
    }

    fn stats_body(&self) -> Json {
        let store = self.lock_store().counters();
        let mut body = Json::obj();
        {
            let st = self.lock_state();
            let claimed = st.jobs.values().filter(|j| j.claimed_by.is_some()).count();
            let mut fleet = Json::obj();
            fleet.set("workers_alive", Json::from(st.workers.len() as f64));
            fleet.set("pending", Json::from(st.pending.len() as f64));
            fleet.set("claimed", Json::from(claimed as f64));
            fleet.set("queue_cap", Json::from(self.queue_cap as f64));
            fleet.set("slots", Json::from(self.slots as f64));
            fleet.set(
                "jobs_accepted",
                Json::from(self.counter("fleet_jobs_accepted") as f64),
            );
            fleet.set(
                "jobs_completed",
                Json::from(self.counter("fleet_jobs_completed") as f64),
            );
            fleet.set(
                "jobs_requeued",
                Json::from(self.counter("fleet_jobs_requeued") as f64),
            );
            fleet.set(
                "jobs_rejected",
                Json::from(self.counter("fleet_jobs_rejected") as f64),
            );
            fleet.set(
                "dedup_hits",
                Json::from(self.counter("fleet_dedup_hits") as f64),
            );
            fleet.set(
                "workers_reaped",
                Json::from(self.counter("fleet_workers_reaped") as f64),
            );
            body.set("fleet", fleet);
            let mut workers = Vec::new();
            for (id, w) in &st.workers {
                let mut o = Json::obj();
                o.set("worker", Json::from(id.as_str()));
                o.set("node", Json::from(w.node.as_str()));
                o.set("slot", Json::from(w.slot as f64));
                o.set("claimed", Json::from(w.claimed.len() as f64));
                o.set(
                    "idle_ms",
                    Json::from(w.last_seen.elapsed().as_millis() as f64),
                );
                workers.push(o);
            }
            body.set("workers", Json::Arr(workers));
        }
        let mut cache = Json::obj();
        cache.set("hits", Json::from(store.hits as f64));
        cache.set("misses", Json::from(store.misses as f64));
        cache.set("evictions", Json::from(store.evictions as f64));
        cache.set("entries", Json::from(store.entries as f64));
        cache.set("capacity", Json::from(store.capacity as f64));
        body.set("cache", cache);
        body.set("metrics", metrics_json(&self.metrics.snapshot()));
        if let Some(log) = &self.log {
            body.set("log_tail", Json::Arr(log.tail()));
        }
        body
    }
}

/// A submitted-but-not-yet-answered vet item (mirrors sigserve's
/// `PendingVet` so batches pipeline across the whole fleet).
enum Pending {
    Ready(Json),
    Waiting {
        id: String,
        name: Option<String>,
        rx: mpsc::Receiver<Json>,
        t0: Instant,
    },
}

fn submit_vet(shared: &Shared, item: VetItem) -> Pending {
    let t0 = Instant::now();
    let (name, source) = match item.source {
        Source::Inline(s) => (item.name, s),
        Source::Path(p) => match std::fs::read_to_string(&p) {
            Ok(s) => (item.name.or(Some(p)), s),
            Err(e) => {
                shared.log_event(
                    Level::Warn,
                    "vet_path_error",
                    &[
                        ("path", Json::from(p.as_str())),
                        ("error", Json::from(format!("{e}"))),
                    ],
                );
                let mut core = Json::obj();
                core.set("verdict", Json::from("error"));
                core.set("message", Json::from(format!("{p}: {e}")));
                return Pending::Ready(vet_response(
                    &core,
                    item.name.as_deref().or(Some(&p)),
                    None,
                    false,
                    t0.elapsed().as_micros(),
                ));
            }
        },
    };
    let id = shared.next_job_id();
    let key = cache_key(&source, &shared.config_canon);
    // 1. The shared result store: any node's past computation answers.
    if let Some((core, producer)) = shared.lock_store().get(key) {
        shared.log_event(
            Level::Info,
            "cache_hit",
            &[
                ("job", Json::from(id.as_str())),
                ("name", name.as_deref().map(Json::from).unwrap_or(Json::Null)),
                ("producer", Json::from(producer)),
            ],
        );
        let micros = t0.elapsed().as_micros();
        let resp = vet_response(&core, name.as_deref(), Some(&id), true, micros);
        shared.log_event(
            Level::Info,
            "job_done",
            &[
                ("job", Json::from(id.as_str())),
                ("micros", Json::from(micros as f64)),
                ("cached", Json::Bool(true)),
            ],
        );
        return Pending::Ready(resp);
    }
    let mut st = shared.lock_state();
    if st.shutting {
        shared.metrics.add("fleet_jobs_rejected", 1);
        shared.log_event(
            Level::Warn,
            "job_rejected",
            &[
                ("job", Json::from(id.as_str())),
                ("reason", Json::from("shutting_down")),
            ],
        );
        return Pending::Ready(error_response("fleet is shutting down"));
    }
    // 2. Fleet-wide in-flight dedup: identical concurrent submissions
    // (possibly from different client connections) resolve to the one
    // analysis already owned by `owner`.
    if let Some(owner) = st.by_key.get(&key).cloned() {
        shared.metrics.add("fleet_dedup_hits", 1);
        shared.log_event(
            Level::Info,
            "job_coalesced",
            &[
                ("job", Json::from(id.as_str())),
                ("producer", Json::from(owner.as_str())),
            ],
        );
        let (tx, rx) = mpsc::channel();
        if let Some(job) = st.jobs.get_mut(&owner) {
            job.waiters.push(tx);
        }
        return Pending::Waiting { id, name, rx, t0 };
    }
    // 3. Backpressure: shed before logging the lifecycle (same
    // log-amplification rationale as sigserve).
    if st.pending.len() >= shared.queue_cap {
        shared.metrics.add("fleet_jobs_rejected", 1);
        shared.log_event(
            Level::Warn,
            "job_rejected",
            &[
                ("job", Json::from(id.as_str())),
                ("reason", Json::from("overloaded")),
            ],
        );
        return Pending::Ready(overloaded_response(
            name.as_deref(),
            st.pending.len(),
            shared.queue_cap,
        ));
    }
    // 4. Admission.
    shared.metrics.add("fleet_jobs_accepted", 1);
    shared
        .metrics
        .record("fleet_queue_depth", st.pending.len() as u64);
    shared.log_event(
        Level::Info,
        "job_enqueued",
        &[
            ("job", Json::from(id.as_str())),
            ("name", name.as_deref().map(Json::from).unwrap_or(Json::Null)),
            ("queue_depth", Json::from(st.pending.len() as f64)),
        ],
    );
    let (tx, rx) = mpsc::channel();
    st.jobs.insert(
        id.clone(),
        FleetJob {
            key,
            name: name.clone(),
            source,
            waiters: vec![tx],
            enqueued: Instant::now(),
            claimed_by: None,
        },
    );
    st.by_key.insert(key, id.clone());
    st.pending.push_back(id.clone());
    drop(st);
    shared.jobs_cv.notify_all();
    Pending::Waiting { id, name, rx, t0 }
}

fn await_vet(shared: &Shared, pending: Pending) -> Json {
    match pending {
        Pending::Ready(resp) => resp,
        Pending::Waiting { id, name, rx, t0 } => match rx.recv() {
            // A shed-at-shutdown marker, not a result: the job's
            // lifecycle ended at `job_rejected`, so no `job_done` here.
            Ok(core) if core.get("__shed").is_some() => {
                error_response("fleet is shutting down")
            }
            Ok(core) => {
                let micros = t0.elapsed().as_micros();
                let resp = vet_response(&core, name.as_deref(), Some(&id), false, micros);
                shared.log_event(
                    Level::Info,
                    "job_done",
                    &[
                        ("job", Json::from(id.as_str())),
                        ("micros", Json::from(micros as f64)),
                        ("cached", Json::Bool(false)),
                    ],
                );
                resp
            }
            Err(_) => error_response("fleet shut down before the job finished"),
        },
    }
}

fn handle_join(shared: &Shared, node: &str) -> Json {
    let n = shared.worker_seq.fetch_add(1, Ordering::Relaxed);
    let id = format!("w-{n}");
    let slot = (n as usize) % shared.slots;
    let mut st = shared.lock_state();
    st.workers.insert(
        id.clone(),
        WorkerEntry {
            node: node.to_owned(),
            slot,
            last_seen: Instant::now(),
            claimed: Vec::new(),
        },
    );
    let alive = st.workers.len();
    drop(st);
    shared.set_alive(alive);
    shared.metrics.add("fleet_workers_joined", 1);
    shared.log_event(
        Level::Info,
        "worker_joined",
        &[
            ("worker", Json::from(id.as_str())),
            ("node", Json::from(node)),
            ("slot", Json::from(slot as f64)),
        ],
    );
    join_ack(
        &id,
        slot,
        shared.slots,
        shared.heartbeat.as_millis() as u64,
        shared.reap_after.as_millis() as u64,
    )
}

fn handle_claim(shared: &Shared, worker: &str, wait_ms: u64) -> Json {
    let deadline = Instant::now() + Duration::from_millis(wait_ms);
    let mut st = shared.lock_state();
    loop {
        if st.shutting {
            return fleet_shutdown();
        }
        let slot = match st.workers.get_mut(worker) {
            None => return error_response("unknown worker (reaped or never joined)"),
            Some(w) => {
                w.last_seen = Instant::now();
                w.slot
            }
        };
        // Prefer a job this worker's cache shard owns (`key % slots ==
        // slot`) so shard locality pays off; otherwise take the oldest.
        let pick = st
            .pending
            .iter()
            .position(|id| st.jobs.get(id).is_some_and(|j| j.key as usize % shared.slots == slot))
            .or(if st.pending.is_empty() { None } else { Some(0) });
        if let Some(pos) = pick {
            let id = st.pending.remove(pos).expect("position in range");
            let job = st.jobs.get_mut(&id).expect("pending job exists");
            job.claimed_by = Some(worker.to_owned());
            let wait_us = job.enqueued.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            let msg = job_message(&id, job.key, job.name.as_deref(), &job.source);
            if let Some(w) = st.workers.get_mut(worker) {
                w.claimed.push(id.clone());
            }
            drop(st);
            shared.metrics.record("fleet_claim_wait_us", wait_us);
            shared.metrics.add("fleet_jobs_claimed", 1);
            shared.log_event(
                Level::Info,
                "job_claimed",
                &[
                    ("job", Json::from(id.as_str())),
                    ("worker", Json::from(worker)),
                ],
            );
            return msg;
        }
        let now = Instant::now();
        if now >= deadline {
            return no_job();
        }
        let (guard, _timeout) = shared
            .jobs_cv
            .wait_timeout(st, deadline - now)
            .unwrap_or_else(PoisonError::into_inner);
        st = guard;
    }
}

fn handle_complete(shared: &Shared, worker: &str, job_id: &str, cacheable: bool, core: Json) -> Json {
    let mut st = shared.lock_state();
    if let Some(w) = st.workers.get_mut(worker) {
        w.last_seen = Instant::now();
    }
    let fresh = st
        .jobs
        .get(job_id)
        .is_some_and(|j| j.claimed_by.as_deref() == Some(worker));
    if !fresh {
        // The job was reaped and reassigned (or already answered by the
        // new owner): the result is dropped, the worker moves on.
        drop(st);
        shared.metrics.add("fleet_stale_completes", 1);
        shared.log_event(
            Level::Debug,
            "stale_complete",
            &[
                ("job", Json::from(job_id)),
                ("worker", Json::from(worker)),
            ],
        );
        return complete_ack(true);
    }
    let job = st.jobs.remove(job_id).expect("checked above");
    st.by_key.remove(&job.key);
    if let Some(w) = st.workers.get_mut(worker) {
        w.claimed.retain(|j| j != job_id);
    }
    drop(st);
    if cacheable {
        shared.lock_store().insert(job.key, core.clone(), job_id);
        shared.log_event(Level::Debug, "cache_insert", &[("job", Json::from(job_id))]);
    }
    shared.metrics.add("fleet_jobs_completed", 1);
    for tx in &job.waiters {
        // A vanished submitter is fine; the result may be stored anyway.
        let _ = tx.send(core.clone());
    }
    complete_ack(false)
}

fn handle_heartbeat(shared: &Shared, worker: &str) -> Json {
    let mut st = shared.lock_state();
    if let Some(w) = st.workers.get_mut(worker) {
        w.last_seen = Instant::now();
    }
    heartbeat_ack()
}

fn with_kind(kind: &str, body: Json) -> Json {
    let mut o = Json::obj();
    o.set("kind", Json::from(kind));
    if let Json::Obj(entries) = body {
        for (k, v) in entries {
            o.set(&k, v);
        }
    }
    o
}

/// Handles one parsed request; the bool means "tear the fleet down
/// after writing this response".
fn respond(shared: &Shared, req: Result<FleetRequest, String>) -> (Json, bool) {
    match req {
        Err(msg) => {
            shared.metrics.add("fleet_protocol_errors", 1);
            shared.log_event(
                Level::Warn,
                "protocol_error",
                &[("error", Json::from(msg.as_str()))],
            );
            (error_response(&msg), false)
        }
        Ok(FleetRequest::Worker(w)) => match w {
            WorkerRequest::Join { node } => (handle_join(shared, &node), false),
            WorkerRequest::Claim { worker, wait_ms } => {
                (handle_claim(shared, &worker, wait_ms), false)
            }
            WorkerRequest::Complete {
                worker,
                job,
                cacheable,
                core,
            } => (handle_complete(shared, &worker, &job, cacheable, core), false),
            WorkerRequest::Heartbeat { worker } => (handle_heartbeat(shared, &worker), false),
        },
        Ok(FleetRequest::Client(Request::Vet(item))) => {
            (await_vet(shared, submit_vet(shared, item)), false)
        }
        Ok(FleetRequest::Client(Request::VetBatch(items))) => {
            // Submit everything first so the batch saturates the fleet.
            let pending: Vec<Pending> = items.into_iter().map(|i| submit_vet(shared, i)).collect();
            let results: Vec<Json> = pending.into_iter().map(|p| await_vet(shared, p)).collect();
            let mut o = Json::obj();
            o.set("kind", Json::from("vet_batch_result"));
            o.set("results", Json::Arr(results));
            (o, false)
        }
        Ok(FleetRequest::Client(Request::Stats)) => {
            (with_kind("stats", shared.stats_body()), false)
        }
        Ok(FleetRequest::Client(Request::Metrics)) => {
            let text = sigobs::prometheus_text(&shared.merged_snapshot());
            let samples = sigobs::validate_prometheus_text(&text).unwrap_or(0);
            (metrics_response(&text, samples), false)
        }
        Ok(FleetRequest::Client(Request::Shutdown)) => {
            shared.log_event(Level::Info, "fleet_shutdown", &[]);
            let mut o = Json::obj();
            o.set("kind", Json::from("shutdown_ack"));
            o.set("stats", shared.stats_body());
            (o, true)
        }
    }
}

/// Flips the fleet into shutdown: pending (unclaimed) jobs shed with a
/// `job_rejected` lifecycle, open claims return `fleet_shutdown`, and
/// the acceptor is poked awake. Jobs already claimed stay owned: their
/// workers post `complete` normally before seeing the shutdown on the
/// next claim, so accepted work finishes.
fn initiate_shutdown(shared: &Shared) {
    if shared.shutting_down.swap(true, Ordering::SeqCst) {
        return;
    }
    let mut st = shared.lock_state();
    st.shutting = true;
    let shed: Vec<String> = st.pending.drain(..).collect();
    for id in shed {
        if let Some(job) = st.jobs.remove(&id) {
            st.by_key.remove(&job.key);
            shared.metrics.add("fleet_jobs_rejected", 1);
            shared.log_event(
                Level::Warn,
                "job_rejected",
                &[
                    ("job", Json::from(id.as_str())),
                    ("reason", Json::from("shutting_down")),
                ],
            );
            let mut core = Json::obj();
            core.set("__shed", Json::Bool(true));
            for tx in &job.waiters {
                let _ = tx.send(core.clone());
            }
        }
    }
    drop(st);
    shared.jobs_cv.notify_all();
    if let Some(addr) = shared.addr {
        let _ = TcpStream::connect(addr);
    }
}

/// The protocol loop for one connection (worker or client).
fn serve_lines(shared: &Shared, reader: impl BufRead, mut writer: impl Write) -> io::Result<bool> {
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let (resp, is_shutdown) = respond(shared, parse_fleet_request(&line));
        let mut framed = resp.to_string_compact();
        framed.push('\n');
        writer.write_all(framed.as_bytes())?;
        writer.flush()?;
        if is_shutdown {
            initiate_shutdown(shared);
            return Ok(true);
        }
    }
    Ok(false)
}

fn handle_conn(shared: &Shared, stream: TcpStream) {
    // Same `conn_accepted`/`conn_closed` lifecycle events the sigserve
    // event loop emits, so fleet logs replay under the one validator.
    static CONN_SEQ: AtomicU64 = AtomicU64::new(0);
    let cid = format!("fc-{}", CONN_SEQ.fetch_add(1, Ordering::Relaxed));
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".to_owned());
    shared.log_event(
        Level::Debug,
        "conn_accepted",
        &[
            ("conn", Json::from(cid.as_str())),
            ("peer", Json::from(peer.as_str())),
        ],
    );
    let _ = stream.set_nodelay(true);
    let reason = match stream.try_clone() {
        Ok(reader) => match serve_lines(shared, BufReader::new(reader), stream) {
            Ok(true) => "shutdown",
            Ok(false) => "eof",
            Err(_) => "io_error",
        },
        Err(_) => "io_error",
    };
    shared.log_event(
        Level::Debug,
        "conn_closed",
        &[
            ("conn", Json::from(cid.as_str())),
            ("reason", Json::from(reason)),
        ],
    );
}

/// Spawns the reaper: workers whose `last_seen` is older than
/// `reap_after` are removed, and every job they had claimed goes back to
/// the *front* of the queue (it has already waited once).
fn spawn_reaper(shared: &Arc<Shared>) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name("sigfleet-reaper".to_owned())
        .spawn(move || {
            let poll = (shared.reap_after / 5).clamp(Duration::from_millis(5), Duration::from_millis(250));
            loop {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(poll);
                let mut st = shared.lock_state();
                let dead: Vec<String> = st
                    .workers
                    .iter()
                    .filter(|(_, w)| w.last_seen.elapsed() > shared.reap_after)
                    .map(|(id, _)| id.clone())
                    .collect();
                if dead.is_empty() {
                    continue;
                }
                let mut requeued = 0u64;
                for id in &dead {
                    let Some(entry) = st.workers.remove(id) else {
                        continue;
                    };
                    shared.log_event(
                        Level::Warn,
                        "worker_reaped",
                        &[
                            ("worker", Json::from(id.as_str())),
                            ("node", Json::from(entry.node.as_str())),
                            (
                                "idle_ms",
                                Json::from(entry.last_seen.elapsed().as_millis() as f64),
                            ),
                        ],
                    );
                    // Front of the queue: the job was admitted before
                    // everything currently pending.
                    for jid in entry.claimed.into_iter().rev() {
                        if let Some(job) = st.jobs.get_mut(&jid) {
                            job.claimed_by = None;
                            st.pending.push_front(jid.clone());
                            requeued += 1;
                            shared.log_event(
                                Level::Warn,
                                "job_requeued",
                                &[
                                    ("job", Json::from(jid.as_str())),
                                    ("worker", Json::from(id.as_str())),
                                ],
                            );
                        }
                    }
                }
                let alive = st.workers.len();
                drop(st);
                shared.metrics.add("fleet_workers_reaped", dead.len() as u64);
                if requeued > 0 {
                    shared.metrics.add("fleet_jobs_requeued", requeued);
                }
                shared.set_alive(alive);
                shared.jobs_cv.notify_all();
            }
        })
        .expect("spawn reaper thread")
}

/// Spawns the metrics-history thread (same contract as sigserve's:
/// a snapshot every interval plus one final snapshot at shutdown).
fn spawn_history(shared: &Arc<Shared>) -> Option<JoinHandle<()>> {
    let dir = shared.metrics_dir.clone()?;
    let shared = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name("sigfleet-history".to_owned())
        .spawn(move || {
            let mut history =
                match sigobs::MetricsHistory::open(&dir, shared.metrics_history_cap) {
                    Ok(h) => h,
                    Err(e) => {
                        shared.log_event(
                            Level::Error,
                            "metrics_history_error",
                            &[("error", Json::from(format!("{e}")))],
                        );
                        return;
                    }
                };
            let poll = Duration::from_millis(25);
            loop {
                let interval_start = Instant::now();
                while interval_start.elapsed() < shared.metrics_interval {
                    if shared.shutting_down.load(Ordering::SeqCst) {
                        let _ = history.append(&shared.merged_snapshot());
                        return;
                    }
                    std::thread::sleep(poll.min(shared.metrics_interval));
                }
                if let Err(e) = history.append(&shared.merged_snapshot()) {
                    shared.log_event(
                        Level::Warn,
                        "metrics_history_error",
                        &[("error", Json::from(format!("{e}")))],
                    );
                }
            }
        })
        .expect("spawn history thread");
    Some(handle)
}

/// A running fleet coordinator. Send a client `shutdown` request (or
/// call [`Coordinator::stop`]) and then [`Coordinator::join`].
pub struct Coordinator {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
    reaper: JoinHandle<()>,
    history: Option<JoinHandle<()>>,
}

impl Coordinator {
    /// Binds `addr` (e.g. `127.0.0.1:0`), spawns the acceptor, the
    /// reaper, and (with `metrics_dir`) the history thread.
    pub fn bind(addr: &str, cfg: FleetConfig) -> io::Result<Coordinator> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared::new(cfg, Some(local)));
        shared.log_event(
            Level::Info,
            "coordinate_started",
            &[
                ("queue_cap", Json::from(shared.queue_cap as f64)),
                ("slots", Json::from(shared.slots as f64)),
                (
                    "heartbeat_ms",
                    Json::from(shared.heartbeat.as_millis() as f64),
                ),
                (
                    "reap_ms",
                    Json::from(shared.reap_after.as_millis() as f64),
                ),
            ],
        );
        let reaper = spawn_reaper(&shared);
        let history = spawn_history(&shared);
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sigfleet-acceptor".to_owned())
                .spawn(move || loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if shared.shutting_down.load(Ordering::SeqCst) {
                                break;
                            }
                            let shared = Arc::clone(&shared);
                            std::thread::spawn(move || handle_conn(&shared, stream));
                        }
                        Err(_) => {
                            if shared.shutting_down.load(Ordering::SeqCst) {
                                break;
                            }
                        }
                    }
                })
                .expect("spawn acceptor thread")
        };
        Ok(Coordinator {
            shared,
            addr: local,
            acceptor,
            reaper,
            history,
        })
    }

    /// The bound address (resolves `:0` to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A `stats`-shaped snapshot for in-process harnesses.
    pub fn stats(&self) -> Json {
        with_kind("stats", self.shared.stats_body())
    }

    /// The merged metrics snapshot for in-process harnesses.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.merged_snapshot()
    }

    /// Initiates shutdown (equivalent to a `shutdown` request, minus
    /// the ack).
    pub fn stop(&self) {
        initiate_shutdown(&self.shared);
    }

    /// Waits for the acceptor, reaper, and history threads; flushes the
    /// log. Call after a `shutdown` request or [`Coordinator::stop`].
    pub fn join(self) {
        let _ = self.acceptor.join();
        let _ = self.reaper.join();
        if let Some(h) = self.history {
            let _ = h.join();
        }
        if let Some(log) = &self.shared.log {
            log.flush();
        }
    }
}

//! The job core: one pending queue, one in-flight coalescing index, one
//! [`SigCache`], one `j-<n>` sequence and one remote-worker registry,
//! shared by the daemon's local worker threads and by remote `--join`
//! workers.
//!
//! Jobs move through one state machine:
//!
//! ```text
//! submitted --(cache hit)------------------> answered  (cached:true)
//! submitted --(key already in flight)------> coalesced (waits on the owner)
//! submitted --(queue full / shutting down)-> rejected
//! submitted -> pending --claim--> running --finish--> answered
//!                 ^                  |
//!                 +---- requeued ----+   (a remote claimant missed heartbeats)
//! pending --(shutdown, no local workers)--> rejected (shutting_down)
//! ```
//!
//! Local workers claim in-process (`JobCore::next_local`); remote
//! workers claim through the event loop's `claim` verb
//! (`JobCore::claim`) and answer with `complete`. Both run a job
//! through `Engine::compute`. A finished job's core goes to every
//! submission waiting on it — the owner and its coalesced duplicates —
//! through the event loop's completion queue.
//!
//! Submissions only ever come from the event loop, and so do remote
//! `complete`s and reaper ticks; local workers only take pending jobs
//! and finish their own. The state mutex recovers from poisoning rather
//! than propagate it, so one panicking holder cannot cascade into every
//! later request.

use crate::cache::{cache_key, SigCache};
use crate::poller::Waker;
use crate::protocol::{
    complete_ack, error_response, fleet_shutdown, job_message, join_ack, overloaded_response,
    vet_response, Source, VetItem,
};
use crate::server::ServeConfig;
use crate::stats::{stats_response, with_gauges};
use crate::{AnalyzeJobFn, MetricsSnapshot, VetOutcome};
use jsanalysis::AnalysisConfig;
use minijson::Json;
use sigobs::{EventLog, Level, LogTracer};
use sigtrace::{MetricsRegistry, Trace};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Stack size of every thread that runs the analysis pipeline (local
/// workers and remote claim threads). The pipeline recurses once per
/// nesting level of the source; `jsparser`'s nesting limit is sized so
/// the deepest accepted input of every recursive form completes on a
/// stack this large.
pub const PIPELINE_STACK_BYTES: usize = 64 * 1024 * 1024;

/// Spawns a thread that runs the analysis pipeline, with
/// [`PIPELINE_STACK_BYTES`] of stack.
pub(crate) fn spawn_pipeline_thread(
    name: String,
    f: impl FnOnce() + Send + 'static,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .stack_size(PIPELINE_STACK_BYTES)
        .spawn(f)
        .expect("spawn pipeline thread")
}

fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// Best-effort text of a panic payload (`&str` / `String` downcasts).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// What runs a job: the injected pipeline plus the configuration it runs
/// under and the registry and log it reports to. The daemon owns one for
/// its local workers; a remote worker owns its own.
pub(crate) struct Engine {
    analyze: Box<AnalyzeJobFn>,
    analysis: AnalysisConfig,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) log: Option<Arc<EventLog>>,
}

impl Engine {
    pub(crate) fn new(
        analyze: Box<AnalyzeJobFn>,
        analysis: AnalysisConfig,
        log: Option<Arc<EventLog>>,
    ) -> Engine {
        Engine {
            analyze,
            analysis,
            metrics: MetricsRegistry::new(),
            log,
        }
    }

    pub(crate) fn log_event(&self, level: Level, event: &str, fields: &[(&str, Json)]) {
        if let Some(log) = &self.log {
            log.log(level, event, fields);
        }
    }

    /// Runs one job's analysis, logs it as computed, and returns its
    /// core result plus whether the core may be cached.
    pub(crate) fn compute(&self, job: &str, source: &str) -> (Json, bool) {
        let (outcome, cacheable) = self.run(job, source);
        self.log_computed(job, &outcome);
        (outcome.core_json(), cacheable)
    }

    /// Runs one job's analysis and returns its outcome plus whether its
    /// core may be cached, logging nothing of the compute: a remote
    /// worker logs it only once the daemon credits the result. A
    /// panicking analysis costs exactly one job, never the worker: it
    /// is contained, counted in `serve_worker_panics` and answered as
    /// an uncached error verdict. Deadline-based timeouts are not
    /// cacheable either (they depend on machine load); step-budget
    /// timeouts are deterministic and cache.
    pub(crate) fn run(&self, job: &str, source: &str) -> (VetOutcome, bool) {
        let t0 = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            // At debug level a LogTracer turns phase spans into `span`
            // log events tagged with this job's ID; otherwise the
            // engine sees Trace::Off.
            let mut tracer = self
                .log
                .as_ref()
                .filter(|l| l.enabled(Level::Debug))
                .map(|l| LogTracer::new(l, job));
            let trace = match tracer.as_mut() {
                Some(t) => Trace::On(t),
                None => Trace::Off,
            };
            (self.analyze)(source, &self.analysis, &self.metrics, trace)
        }));
        self.metrics.record("serve_vet_us", micros(t0.elapsed()));
        let outcome = match run {
            Ok(outcome) => outcome,
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                self.metrics.add("serve_worker_panics", 1);
                self.log_event(
                    Level::Error,
                    "worker_panic",
                    &[
                        ("job", Json::from(job)),
                        ("message", Json::from(msg.as_str())),
                    ],
                );
                return (VetOutcome::error(format!("worker panicked: {msg}")), false);
            }
        };
        match &outcome {
            VetOutcome::Timeout { .. } => self.metrics.add("serve_budget_aborts", 1),
            VetOutcome::Error { .. } => self.metrics.add("serve_analysis_errors", 1),
            VetOutcome::Report { .. } => {}
        }
        let cacheable = outcome.cacheable(&self.analysis);
        (outcome, cacheable)
    }

    /// Logs a job's `job_computed` record, and right after it the cost
    /// postmortem (`job_profile`) when the outcome carries one.
    pub(crate) fn log_computed(&self, job: &str, outcome: &VetOutcome) {
        if let Some(log) = &self.log {
            crate::log_job_computed(log, job, outcome);
            crate::log_job_profile(log, job, outcome);
        }
    }
}

/// What a finished or shed job hands each submission waiting on it.
pub(crate) enum Delivery {
    /// The job's core result.
    Done(Json),
    /// The job was shed at shutdown; its `job_rejected` is already
    /// logged, so the submission must not log a `job_done`.
    Shed,
}

/// Deliveries posted for the event loop, plus the waker that interrupts
/// its parked poll.
pub(crate) struct CompletionQueue {
    done: Mutex<Vec<(u64, Delivery)>>,
    waker: Waker,
}

impl CompletionQueue {
    pub(crate) fn new(waker: Waker) -> CompletionQueue {
        CompletionQueue {
            done: Mutex::new(Vec::new()),
            waker,
        }
    }

    fn post(&self, batch: Vec<(u64, Delivery)>) {
        if batch.is_empty() {
            return;
        }
        self.done
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(batch);
        self.waker.wake();
    }

    pub(crate) fn drain(&self) -> Vec<(u64, Delivery)> {
        std::mem::take(&mut *self.done.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// A submission waiting on a job: its completion token in the event
/// loop, its own request ID, and when it arrived.
struct Waiter {
    token: u64,
    id: String,
    t0: Instant,
}

/// Who is running a claimed job.
#[derive(PartialEq)]
enum Claimant {
    Local,
    Remote(String),
}

/// One job the core owns (pending or running).
struct Job {
    key: u64,
    name: Option<String>,
    /// Kept until the job finishes when a remote worker claims it, so a
    /// requeue can hand it to the next claimant.
    source: String,
    enq: Instant,
    claimed_by: Option<Claimant>,
    /// The owner's submission first, then coalesced duplicates.
    waiters: Vec<Waiter>,
}

struct RemoteWorker {
    node: String,
    last_seen: Instant,
    claimed: Vec<String>,
}

struct State {
    /// Unclaimed job IDs, oldest first (requeues go to the front).
    pending: VecDeque<String>,
    jobs: HashMap<String, Job>,
    /// In-flight coalescing: content key -> owning job ID.
    by_key: HashMap<u64, String>,
    /// Kept under the same lock as `by_key`, so a job moves from
    /// in-flight to cached atomically: no submission can miss both.
    cache: SigCache,
    workers: BTreeMap<String, RemoteWorker>,
    worker_seq: u64,
    shutting: bool,
}

/// The outcome of a submission.
pub(crate) enum Admission {
    /// Answered without a worker (cache hit, overload, bad path, ...);
    /// any terminal log record is already written.
    Ready(Json),
    /// Waiting on a job (its own or an in-flight duplicate's); the core
    /// posts the result under the submission's token.
    Waiting {
        id: String,
        name: Option<String>,
        t0: Instant,
    },
}

/// A point-in-time view of the core for `stats` and gauges.
pub(crate) struct CoreView {
    pub(crate) pending: usize,
    pub(crate) running: usize,
    pub(crate) cache_entries: usize,
    pub(crate) cache_capacity: usize,
    /// `(worker ID, node, claimed jobs, idle ms)` per remote worker.
    pub(crate) workers: Vec<(String, String, usize, u128)>,
}

/// The daemon's counters, registered at start so every snapshot and
/// exposition carries them (zero until touched).
const COUNTERS: &[&str] = &[
    "serve_jobs_accepted",
    "serve_jobs_rejected",
    "serve_jobs_completed",
    "serve_jobs_coalesced",
    "serve_jobs_requeued",
    "serve_cache_hits",
    "serve_cache_misses",
    "serve_cache_evictions",
    "serve_budget_aborts",
    "serve_analysis_errors",
    "serve_worker_panics",
    "serve_protocol_errors",
    "serve_conns_open",
    "serve_conn_accepted",
    "serve_conn_closed",
    "serve_conn_backpressure_sheds",
    "serve_deadline_misses",
    "serve_workers_alive",
    "serve_workers_joined",
    "serve_workers_reaped",
    "serve_stale_completes",
];

/// The job core; see the module docs. It is the daemon's one piece of
/// shared state: the event loop, the local workers and the history
/// thread all hold it.
pub(crate) struct JobCore {
    state: Mutex<State>,
    /// Notified on enqueue, requeue and shutdown; local workers wait on
    /// it.
    work: Condvar,
    pub(crate) engine: Engine,
    /// The daemon's configuration (its analysis and log run in
    /// `engine`).
    pub(crate) cfg: ServeConfig,
    /// `analysis.canonical_string()`, computed once: the config half of
    /// every cache key.
    config_canon: String,
    job_seq: AtomicU64,
    pub(crate) completions: CompletionQueue,
    /// Set once by [`JobCore::shutdown`], for the threads that poll it;
    /// the core's own decisions read the flag under its lock.
    pub(crate) shutting_down: AtomicBool,
}

impl JobCore {
    pub(crate) fn new(
        mut cfg: ServeConfig,
        analyze: Box<AnalyzeJobFn>,
        completions: CompletionQueue,
    ) -> JobCore {
        cfg.queue_cap = cfg.queue_cap.max(1);
        cfg.outbuf_cap = cfg.outbuf_cap.max(1024);
        let engine = Engine::new(analyze, cfg.analysis.clone(), cfg.log.clone());
        for name in COUNTERS {
            engine.metrics.counter(name);
        }
        JobCore {
            state: Mutex::new(State {
                pending: VecDeque::new(),
                jobs: HashMap::new(),
                by_key: HashMap::new(),
                cache: SigCache::new(cfg.cache_cap),
                workers: BTreeMap::new(),
                worker_seq: 0,
                shutting: false,
            }),
            work: Condvar::new(),
            config_canon: cfg.analysis.canonical_string(),
            engine,
            cfg,
            job_seq: AtomicU64::new(0),
            completions,
            shutting_down: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn count(&self, name: &str, delta: u64) {
        self.engine.metrics.add(name, delta);
    }

    pub(crate) fn log_event(&self, level: Level, event: &str, fields: &[(&str, Json)]) {
        self.engine.log_event(level, event, fields);
    }

    /// The registry snapshot plus the core's gauges — what `metrics`
    /// responses, `stats` and the on-disk history all render.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        with_gauges(self.engine.metrics.snapshot(), &self.view())
    }

    /// The `stats` response.
    pub(crate) fn stats(&self) -> Json {
        let view = self.view();
        let snap = with_gauges(self.engine.metrics.snapshot(), &view);
        let mut body = stats_response(&snap, &view, self.cfg.workers, self.cfg.queue_cap);
        if let Some(log) = &self.engine.log {
            // The in-memory ring tail: the last ~128 structured events,
            // so an operator gets recent history from a stats round-trip
            // even with no log file configured.
            body.set("log_tail", Json::Arr(log.tail()));
        }
        body
    }

    fn reject(&self, id: &str, reason: &str) {
        self.count("serve_jobs_rejected", 1);
        self.log_event(
            Level::Warn,
            "job_rejected",
            &[("job", Json::from(id)), ("reason", Json::from(reason))],
        );
    }

    /// Admits one vet item: cache hit, coalesce onto an in-flight
    /// duplicate, shed, or enqueue. `token` names the submission in the
    /// completion queue.
    pub(crate) fn submit(&self, item: VetItem, token: u64) -> Admission {
        let t0 = Instant::now();
        let (name, source) = match item.source {
            Source::Inline(s) => (item.name, s),
            Source::Path(p) => match std::fs::read_to_string(&p) {
                // A path submission defaults its display name to the path.
                Ok(s) => (item.name.or(Some(p)), s),
                Err(e) => {
                    // Failed before entering the system: no job ID
                    // assigned, logged as daemon narration.
                    self.log_event(
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
                    return Admission::Ready(vet_response(
                        &core,
                        item.name.as_deref().or(Some(&p)),
                        None,
                        false,
                        t0.elapsed().as_micros(),
                    ));
                }
            },
        };
        let id = format!("j-{}", self.job_seq.fetch_add(1, Ordering::Relaxed));
        let key = cache_key(&source, &self.config_canon);
        let name_json = || name.as_deref().map(Json::from).unwrap_or(Json::Null);
        let mut st = self.lock();
        if let Some((core, producer)) = st.cache.get(key) {
            drop(st);
            self.count("serve_cache_hits", 1);
            self.log_event(
                Level::Info,
                "cache_hit",
                &[
                    ("job", Json::from(id.as_str())),
                    ("name", name_json()),
                    ("producer", Json::from(producer)),
                ],
            );
            let micros = t0.elapsed().as_micros();
            let resp = vet_response(&core, name.as_deref(), Some(&id), true, micros);
            self.log_event(
                Level::Info,
                "job_done",
                &[
                    ("job", Json::from(id.as_str())),
                    ("micros", Json::from(micros as f64)),
                    ("cached", Json::Bool(true)),
                ],
            );
            return Admission::Ready(resp);
        }
        self.count("serve_cache_misses", 1);
        if st.shutting {
            drop(st);
            self.reject(&id, "shutting_down");
            return Admission::Ready(error_response("daemon is shutting down"));
        }
        // Identical concurrent submissions (from any connection) resolve
        // to the one analysis already owned by `owner`.
        if let Some(owner) = st.by_key.get(&key).cloned() {
            if let Some(job) = st.jobs.get_mut(&owner) {
                job.waiters.push(Waiter {
                    token,
                    id: id.clone(),
                    t0,
                });
            }
            drop(st);
            self.count("serve_jobs_coalesced", 1);
            self.log_event(
                Level::Info,
                "job_coalesced",
                &[
                    ("job", Json::from(id.as_str())),
                    ("producer", Json::from(owner.as_str())),
                ],
            );
            return Admission::Waiting { id, name, t0 };
        }
        // Shed *before* logging the lifecycle: under sustained overload
        // the rejected stream must cost at most one (sampled)
        // `job_rejected` line per job, not an `enqueued` + `rejected`
        // pair — otherwise the log amplifies the overload it narrates.
        let depth = st.pending.len();
        if depth >= self.cfg.queue_cap {
            drop(st);
            self.reject(&id, "overloaded");
            return Admission::Ready(overloaded_response(
                name.as_deref(),
                depth,
                self.cfg.queue_cap,
            ));
        }
        // Logged under the lock, before any worker can dequeue the job,
        // so the log's seq order matches the lifecycle.
        self.log_event(
            Level::Info,
            "job_enqueued",
            &[
                ("job", Json::from(id.as_str())),
                ("name", name_json()),
                ("queue_depth", Json::from(depth as f64)),
            ],
        );
        st.jobs.insert(
            id.clone(),
            Job {
                key,
                name: name.clone(),
                source,
                enq: Instant::now(),
                claimed_by: None,
                waiters: vec![Waiter {
                    token,
                    id: id.clone(),
                    t0,
                }],
            },
        );
        st.by_key.insert(key, id.clone());
        st.pending.push_back(id.clone());
        drop(st);
        self.work.notify_one();
        self.count("serve_jobs_accepted", 1);
        self.engine
            .metrics
            .record("serve_queue_depth", depth as u64 + 1);
        Admission::Waiting { id, name, t0 }
    }

    /// Blocks a local worker until a job is pending; `None` once the core
    /// is shutting down and drained.
    fn next_local(&self) -> Option<(String, String)> {
        let mut st = self.lock();
        loop {
            if let Some(id) = st.pending.pop_front() {
                let job = st.jobs.get_mut(&id).expect("pending job exists");
                job.claimed_by = Some(Claimant::Local);
                let wait_us = micros(job.enq.elapsed());
                // Local workers contain panics and never die, so a local
                // job is never requeued and needs no copy of its source.
                let source = std::mem::take(&mut job.source);
                drop(st);
                self.engine.metrics.record("serve_queue_wait_us", wait_us);
                self.log_event(
                    Level::Info,
                    "job_dequeued",
                    &[
                        ("job", Json::from(id.as_str())),
                        ("queue_wait_us", Json::from(wait_us as f64)),
                    ],
                );
                return Some((id, source));
            }
            if st.shutting {
                return None;
            }
            st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Retires a job: caches its core (when cacheable), ends every
    /// waiting submission's lifecycle with `job_done`, and delivers the
    /// core to them. Cache insert and in-flight removal happen under one
    /// lock.
    fn finish(&self, id: &str, core: Json, cacheable: bool) {
        let mut st = self.lock();
        let Some(job) = st.jobs.remove(id) else {
            return;
        };
        st.by_key.remove(&job.key);
        let evicted = cacheable && st.cache.insert(job.key, core.clone(), id);
        drop(st);
        if evicted {
            self.count("serve_cache_evictions", 1);
        }
        if cacheable {
            self.log_event(Level::Debug, "cache_insert", &[("job", Json::from(id))]);
        }
        self.count("serve_jobs_completed", 1);
        let mut batch = Vec::with_capacity(job.waiters.len());
        for w in job.waiters {
            // Logged even when nobody reads the response any more (the
            // connection closed, or a request deadline answered first).
            self.log_event(
                Level::Info,
                "job_done",
                &[
                    ("job", Json::from(w.id.as_str())),
                    ("micros", Json::from(w.t0.elapsed().as_micros() as f64)),
                    ("cached", Json::Bool(false)),
                ],
            );
            batch.push((w.token, Delivery::Done(core.clone())));
        }
        self.completions.post(batch);
    }

    /// Sheds every pending job (shutdown with nobody local to run them):
    /// each waiting submission ends in `job_rejected(shutting_down)`.
    fn shed_pending(&self, st: &mut State) -> Vec<(u64, Delivery)> {
        let mut out = Vec::new();
        while let Some(id) = st.pending.pop_front() {
            let Some(job) = st.jobs.remove(&id) else {
                continue;
            };
            st.by_key.remove(&job.key);
            for w in job.waiters {
                self.reject(&w.id, "shutting_down");
                out.push((w.token, Delivery::Shed));
            }
        }
        out
    }

    /// Flips the daemon into shutdown (once): no new jobs; pending jobs
    /// drain to the local workers, or are shed when there are none; the
    /// event loop is woken to drain its connections.
    pub(crate) fn shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut st = self.lock();
        st.shutting = true;
        let shed = if self.cfg.workers == 0 {
            self.shed_pending(&mut st)
        } else {
            Vec::new()
        };
        drop(st);
        self.work.notify_all();
        self.completions.post(shed);
        self.completions.waker.wake();
    }

    /// Registers a remote worker whose engine runs under the canonical
    /// analysis config `config`. A worker with a missing or different
    /// config is refused with an `error` naming both: every result it
    /// completed would be cached under this daemon's config key.
    pub(crate) fn join(&self, node: &str, config: Option<&str>) -> Json {
        if config != Some(self.config_canon.as_str()) {
            return error_response(&format!(
                "worker analysis config {} differs from the daemon's {:?}",
                config.map_or_else(|| "(none)".to_owned(), |c| format!("{c:?}")),
                self.config_canon
            ));
        }
        let mut st = self.lock();
        let id = format!("w-{}", st.worker_seq);
        st.worker_seq += 1;
        st.workers.insert(
            id.clone(),
            RemoteWorker {
                node: node.to_owned(),
                last_seen: Instant::now(),
                claimed: Vec::new(),
            },
        );
        let alive = st.workers.len();
        drop(st);
        self.set_alive(alive);
        self.count("serve_workers_joined", 1);
        self.log_event(
            Level::Info,
            "worker_joined",
            &[
                ("worker", Json::from(id.as_str())),
                ("node", Json::from(node)),
            ],
        );
        join_ack(
            &id,
            self.cfg.heartbeat.as_millis() as u64,
            self.cfg.reap_after.as_millis() as u64,
        )
    }

    fn set_alive(&self, n: usize) {
        self.engine
            .metrics
            .counter("serve_workers_alive")
            .store(n as u64, Ordering::Relaxed);
    }

    /// A remote claim: the oldest pending job as a `job` message,
    /// `fleet_shutdown`, or an error for an unknown worker. `None` means
    /// nothing is pending yet; the event loop parks the claim.
    pub(crate) fn claim(&self, worker: &str) -> Option<Json> {
        let mut st = self.lock();
        if st.shutting {
            return Some(fleet_shutdown());
        }
        let Some(w) = st.workers.get_mut(worker) else {
            return Some(error_response("unknown worker (reaped or never joined)"));
        };
        w.last_seen = Instant::now();
        let id = st.pending.pop_front()?;
        let job = st.jobs.get_mut(&id).expect("pending job exists");
        job.claimed_by = Some(Claimant::Remote(worker.to_owned()));
        let wait_us = micros(job.enq.elapsed());
        let msg = job_message(&id, job.name.as_deref(), &job.source);
        if let Some(w) = st.workers.get_mut(worker) {
            w.claimed.push(id.clone());
        }
        drop(st);
        self.engine.metrics.record("serve_queue_wait_us", wait_us);
        self.log_event(
            Level::Info,
            "job_claimed",
            &[
                ("job", Json::from(id.as_str())),
                ("worker", Json::from(worker)),
            ],
        );
        Some(msg)
    }

    /// A remote worker's `complete`. Only the current claimant is
    /// credited; a reaped-and-requeued job's late result is dropped.
    pub(crate) fn complete(&self, worker: &str, job: &str, cacheable: bool, core: Json) -> Json {
        let mut st = self.lock();
        if let Some(w) = st.workers.get_mut(worker) {
            w.last_seen = Instant::now();
            w.claimed.retain(|j| j != job);
        }
        let claimant = Claimant::Remote(worker.to_owned());
        let fresh = st
            .jobs
            .get(job)
            .is_some_and(|j| j.claimed_by.as_ref() == Some(&claimant));
        drop(st);
        if !fresh {
            self.count("serve_stale_completes", 1);
            self.log_event(
                Level::Debug,
                "stale_complete",
                &[("job", Json::from(job)), ("worker", Json::from(worker))],
            );
            return complete_ack(true);
        }
        // Reaping runs on the event loop, like this call, so the job
        // cannot change hands between the check and the finish.
        self.finish(job, core, cacheable);
        complete_ack(false)
    }

    /// Refreshes a remote worker's liveness (a heartbeat, or a claim
    /// parked on a live connection).
    pub(crate) fn touch(&self, worker: &str) {
        if let Some(w) = self.lock().workers.get_mut(worker) {
            w.last_seen = Instant::now();
        }
    }

    pub(crate) fn has_remote_workers(&self) -> bool {
        !self.lock().workers.is_empty()
    }

    /// The reaper: removes remote workers silent for longer than
    /// `reap_after` and puts their claimed jobs back at the *front* of
    /// the queue (they were admitted before everything pending), so a
    /// worker crash delays its jobs but never loses them.
    pub(crate) fn reap(&self) {
        let mut st = self.lock();
        let dead: Vec<String> = st
            .workers
            .iter()
            .filter(|(_, w)| w.last_seen.elapsed() > self.cfg.reap_after)
            .map(|(id, _)| id.clone())
            .collect();
        if dead.is_empty() {
            return;
        }
        let mut requeued = 0u64;
        for id in &dead {
            let Some(entry) = st.workers.remove(id) else {
                continue;
            };
            self.log_event(
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
            for jid in entry.claimed.into_iter().rev() {
                if let Some(job) = st.jobs.get_mut(&jid) {
                    job.claimed_by = None;
                    st.pending.push_front(jid.clone());
                    requeued += 1;
                    self.log_event(
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
        let shed = if st.shutting && self.cfg.workers == 0 {
            self.shed_pending(&mut st)
        } else {
            Vec::new()
        };
        let alive = st.workers.len();
        drop(st);
        self.count("serve_workers_reaped", dead.len() as u64);
        self.count("serve_jobs_requeued", requeued);
        self.set_alive(alive);
        self.work.notify_all();
        self.completions.post(shed);
    }

    pub(crate) fn view(&self) -> CoreView {
        let st = self.lock();
        CoreView {
            pending: st.pending.len(),
            running: st.jobs.len() - st.pending.len(),
            cache_entries: st.cache.len(),
            cache_capacity: st.cache.capacity(),
            workers: st
                .workers
                .iter()
                .map(|(id, w)| {
                    (
                        id.clone(),
                        w.node.clone(),
                        w.claimed.len(),
                        w.last_seen.elapsed().as_millis(),
                    )
                })
                .collect(),
        }
    }
}

/// A local worker: claims jobs in-process until the core shuts down and
/// drains.
pub(crate) fn run_local_worker(core: &JobCore) {
    while let Some((id, source)) = core.next_local() {
        let (result, cacheable) = core.engine.compute(&id, &source);
        core.finish(&id, result, cacheable);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poller::wake_pair;

    /// "ok" for anything, a step-budget timeout for `@timeout`, an error
    /// for sources containing `!`.
    fn stub(source: &str, config: &AnalysisConfig, metrics: &MetricsRegistry) -> VetOutcome {
        metrics.add("stub_calls", 1);
        if source.contains("@timeout") {
            VetOutcome::timeout(config.step_budget.map_or(999, |b| b + 1), Duration::ZERO)
        } else if source.contains('!') {
            VetOutcome::error("stub parse error")
        } else {
            VetOutcome::report(
                format!("{{\n  \"len\": {}\n}}", source.len()),
                sigtrace::LayerTimes::default(),
            )
        }
    }

    fn core_with(workers: usize, queue_cap: usize, analysis: AnalysisConfig) -> JobCore {
        let (waker, _rx) = wake_pair().expect("wake pair");
        let cfg = ServeConfig {
            workers,
            queue_cap,
            analysis,
            reap_after: Duration::from_millis(200),
            ..ServeConfig::default()
        };
        JobCore::new(
            cfg,
            Box::new(
                |s: &str, c: &AnalysisConfig, m: &MetricsRegistry, _t: Trace<'_>| stub(s, c, m),
            ),
            CompletionQueue::new(waker),
        )
    }

    fn core(local_workers: usize, queue_cap: usize) -> JobCore {
        core_with(local_workers, queue_cap, AnalysisConfig::default())
    }

    fn inline(source: &str) -> VetItem {
        VetItem {
            name: None,
            source: Source::Inline(source.to_owned()),
        }
    }

    fn counter(core: &JobCore, name: &str) -> u64 {
        core.engine.metrics.counter(name).load(Ordering::Relaxed)
    }

    /// Runs every pending job on the calling thread, as a local worker
    /// would.
    fn drain(core: &JobCore) {
        while core.view().pending > 0 {
            let (id, source) = core.next_local().expect("pending job");
            let (result, cacheable) = core.engine.compute(&id, &source);
            core.finish(&id, result, cacheable);
        }
    }

    fn delivered(core: &JobCore) -> Vec<(u64, Option<Json>)> {
        let mut out: Vec<(u64, Option<Json>)> = core
            .completions
            .drain()
            .into_iter()
            .map(|(token, d)| match d {
                Delivery::Done(core) => (token, Some(core)),
                Delivery::Shed => (token, None),
            })
            .collect();
        out.sort_by_key(|(token, _)| *token);
        out
    }

    #[test]
    fn computes_once_then_answers_from_cache() {
        let core = core(1, 8);
        assert!(matches!(
            core.submit(inline("var x = 1;"), 7),
            Admission::Waiting { .. }
        ));
        drain(&core);
        let done = delivered(&core);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, 7);
        assert_eq!(
            done[0].1.as_ref().unwrap()["signature"]["len"].as_f64(),
            Some(10.0)
        );
        match core.submit(inline("var x = 1;"), 8) {
            Admission::Ready(resp) => {
                assert_eq!(resp["cached"], Json::Bool(true));
                assert_eq!(resp["verdict"], "ok");
            }
            Admission::Waiting { .. } => panic!("expected a cache hit"),
        }
        assert_eq!(core.view().pending, 0);
        assert_eq!(counter(&core, "serve_cache_hits"), 1);
        assert_eq!(counter(&core, "serve_cache_misses"), 1);
        assert_eq!(counter(&core, "stub_calls"), 1);
    }

    #[test]
    fn overload_sheds_with_typed_response() {
        let core = core(1, 1);
        assert!(matches!(
            core.submit(inline("one"), 0),
            Admission::Waiting { .. }
        ));
        match core.submit(
            VetItem {
                name: Some("b".to_owned()),
                source: Source::Inline("two".to_owned()),
            },
            1,
        ) {
            Admission::Ready(resp) => {
                assert_eq!(resp["kind"], "overloaded");
                assert_eq!(resp["capacity"].as_f64(), Some(1.0));
            }
            Admission::Waiting { .. } => panic!("expected overload"),
        }
        assert_eq!(
            counter(&core, "serve_jobs_rejected"),
            1,
            "rejection must be counted"
        );
    }

    #[test]
    fn timeout_and_error_cores() {
        let core = core(1, 8);
        let (t, t_cacheable) = core.engine.compute("j-t", "@timeout");
        assert_eq!(t["verdict"], "timeout");
        assert_eq!(t["steps"].as_f64(), Some(999.0));
        let (e, e_cacheable) = core.engine.compute("j-e", "oops!");
        assert_eq!(e["verdict"], "error");
        assert_eq!(counter(&core, "serve_budget_aborts"), 1);
        assert_eq!(counter(&core, "serve_analysis_errors"), 1);
        // Deadline-ish timeouts (no step budget configured) are not
        // cached; errors are.
        assert!(!t_cacheable);
        assert!(e_cacheable);
    }

    #[test]
    fn step_budget_timeouts_are_cached() {
        let analysis = AnalysisConfig {
            step_budget: Some(10),
            ..AnalysisConfig::default()
        };
        let core = core_with(1, 8, analysis);
        let (t, cacheable) = core.engine.compute("j-b", "@timeout");
        assert_eq!(t["verdict"], "timeout");
        assert!(cacheable);
    }

    #[test]
    fn reaped_claims_requeue_to_the_front_and_late_completes_are_stale() {
        let core = core(0, 8);
        let ack = core.join("doomed", Some(&core.config_canon));
        let doomed = ack["worker"].as_str().unwrap().to_owned();
        assert!(core.claim(&doomed).is_none(), "nothing pending yet");
        assert!(matches!(
            core.submit(inline("var first;"), 0),
            Admission::Waiting { .. }
        ));
        assert!(matches!(
            core.submit(inline("var second;"), 1),
            Admission::Waiting { .. }
        ));
        let job = core.claim(&doomed).expect("a job");
        let first = job["job"].as_str().unwrap().to_owned();
        assert_eq!(job["source"], "var first;");

        std::thread::sleep(Duration::from_millis(250));
        core.reap();
        assert_eq!(counter(&core, "serve_workers_reaped"), 1);
        assert_eq!(counter(&core, "serve_jobs_requeued"), 1);
        assert!(!core.has_remote_workers());
        assert_eq!(
            core.claim(&doomed).unwrap()["kind"],
            "error",
            "reaped worker is unknown"
        );

        let rescue = core.join("rescue", Some(&core.config_canon))["worker"]
            .as_str()
            .unwrap()
            .to_owned();
        let again = core.claim(&rescue).expect("requeued job");
        assert_eq!(
            again["job"].as_str(),
            Some(first.as_str()),
            "requeued to the front"
        );
        let mut result = Json::obj();
        result.set("verdict", Json::from("ok"));
        let stale = core.complete(&doomed, &first, true, result.clone());
        assert_eq!(stale["stale"], Json::Bool(true));
        let fresh = core.complete(&rescue, &first, true, result.clone());
        assert_eq!(fresh["stale"], Json::Bool(false));
        assert_eq!(delivered(&core), [(0, Some(result))]);
    }
}

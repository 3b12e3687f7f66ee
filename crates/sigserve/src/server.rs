//! The daemon itself: shared state, the worker pool, the event-driven
//! connection core, and the TCP / stdio front ends.
//!
//! TCP connections are served by a single readiness-driven event loop
//! (`sigserve-loop`) over nonblocking sockets and a [`crate::poller`]
//! backend (epoll on Linux, `poll(2)` fallback): thousands of idle or
//! slow connections cost one registered fd each, not one parked thread.
//! Inbound bytes reassemble into NDJSON lines via [`crate::conn::LineBuf`];
//! outbound responses queue in a per-connection [`crate::conn::WriteBuf`]
//! so a client that stops reading exerts *backpressure* instead of
//! blocking a handler: past a soft cap its new vet items are shed with a
//! typed `overloaded` (reason `write_backpressure`) response, and past
//! the hard cap the connection is closed. Workers never touch sockets —
//! they post finished cores to a completion queue and wake the loop
//! through a pipe, which also decouples request *deadlines* (answered
//! `timeout` by the loop) from worker scheduling.
//!
//! Data flow for one `vet` request:
//!
//! ```text
//! event loop ──cache get──> hit ──> respond (cached:true, µs)
//!      │ miss
//!      ├─ queue full ──> respond overloaded (typed backpressure)
//!      └─ try_push(Job{key, source, resp}) ──> worker pool
//!                                                │ peek cache (dedupe)
//!                                                │ analyze under budget
//!                                                │ insert cache
//!      completion queue + waker pipe <──post──── core result
//! ```
//!
//! Workers never die on behalf of a job: a runaway analysis is cut off by
//! the step budget / deadline inside `jsanalysis` and comes back as a
//! `timeout` core result like any other, and an analysis that panics
//! outright is contained with `catch_unwind` — counted in
//! `serve_worker_panics`, logged, answered as an error verdict — while
//! the worker keeps serving. Shared-state mutexes recover from
//! poisoning rather than propagate it, so a single panic can never
//! cascade into every subsequent handler.
//!
//! Construction goes through [`Server::builder`]; the legacy
//! `bind`/`bind_traced`/`serve_stdio`/`serve_stdio_traced` entry points
//! remain as deprecated shims.

use crate::cache::{cache_key, SigCache};
use crate::conn::{LineBuf, WriteBuf};
use crate::poller::{self, Backend, Interest, Poller, WakeRx};
use crate::protocol::{
    backpressure_response, error_response, metrics_response, overloaded_response, parse_request,
    vet_response, Request, Source, VetItem,
};
use crate::queue::{Bounded, PushError};
use crate::stats::{metrics_json, Stats};
use crate::{AnalyzeJobFn, MetricsRegistry, MetricsSnapshot, VetOutcome};
use jsanalysis::AnalysisConfig;
use minijson::Json;
use sigobs::{EventLog, Level, LogTracer};
use sigtrace::Trace;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration (the `vet serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads running analyses (default 4).
    pub workers: usize,
    /// Result-cache capacity in entries (default 1024; 0 disables).
    pub cache_cap: usize,
    /// Job-queue bound; pushes beyond it are shed with `overloaded`
    /// (default `workers * 8`).
    pub queue_cap: usize,
    /// The analysis configuration every job runs under, including the
    /// `step_budget` / `deadline` robustness knobs. Defaults to
    /// [`AnalysisConfig::default`] with triage on: a service only
    /// returns signatures, so an addon whose phase 1 proves no flow can
    /// exist skips PDG construction (the signature is byte-identical).
    pub analysis: AnalysisConfig,
    /// Dump the metrics-registry snapshot to stderr when the daemon
    /// shuts down (default `false`; `vet serve` turns it on). Off by
    /// default so embedded servers — tests, benches — stay quiet.
    pub dump_metrics_on_shutdown: bool,
    /// Structured event log (`vet serve --log FILE` / `--log-level`).
    /// Every job lifecycle event, keyed by the job's request ID, goes
    /// here; the ring tail also rides along in `stats` responses.
    /// Default `None`: no logging overhead at all.
    pub log: Option<Arc<EventLog>>,
    /// Metrics-history directory (`vet serve --metrics-dir D`). When
    /// set, a background thread snapshots the merged metrics into a
    /// bounded on-disk ring every [`ServeConfig::metrics_interval`], so
    /// metrics survive restarts. Default `None`.
    pub metrics_dir: Option<PathBuf>,
    /// Snapshot interval for the history thread (default 5 s).
    pub metrics_interval: Duration,
    /// On-disk history ring capacity in snapshots (default 256).
    pub metrics_history_cap: u64,
    /// In-daemon alert rules (`vet serve --alert-rules FILE`): the
    /// `metrics-report --gate` rule language, evaluated by the history
    /// thread against every appended snapshot. Threshold crossings emit
    /// `alert_fired` / `alert_cleared` log events. Needs
    /// [`ServeConfig::metrics_dir`]; default `None`.
    pub alert_rules: Option<sigobs::alerts::AlertRules>,
    /// Close a TCP connection that has been completely quiet — no
    /// buffered input, no pending jobs, nothing left to write — for this
    /// long (`vet serve --idle-timeout-ms`). Default `None`: never.
    pub idle_timeout: Option<Duration>,
    /// Answer an in-flight vet request with a typed `timeout` (reason
    /// `deadline`) if its worker has not finished within this budget
    /// (`vet serve --request-deadline-ms`); the worker keeps running and
    /// its eventual result still lands in the cache. Default `None`.
    pub request_deadline: Option<Duration>,
    /// Soft cap on a connection's queued outbound bytes (default
    /// 256 KiB). Past it, new vet items on that connection are shed with
    /// a typed `write_backpressure` response; past **4×** this cap the
    /// connection is closed outright.
    pub outbuf_cap: usize,
    /// Longest accepted request line in bytes (default 64 MiB). An
    /// unterminated line beyond it gets an error response and the
    /// connection is drained and closed.
    pub max_line_bytes: usize,
    /// Readiness backend for the event loop (default: epoll on Linux,
    /// `poll(2)` elsewhere). Tests pin [`Backend::Poll`] to keep the
    /// fallback honest.
    pub poller_backend: Backend,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        let workers = 4;
        ServeConfig {
            workers,
            cache_cap: 1024,
            queue_cap: workers * 8,
            analysis: AnalysisConfig::default().with_triage(true),
            dump_metrics_on_shutdown: false,
            log: None,
            metrics_dir: None,
            metrics_interval: Duration::from_secs(5),
            metrics_history_cap: 256,
            alert_rules: None,
            idle_timeout: None,
            request_deadline: None,
            outbuf_cap: 256 * 1024,
            max_line_bytes: 64 * 1024 * 1024,
            poller_backend: Backend::default(),
        }
    }
}

/// Where a finished job's core result goes: a blocking channel (stdio
/// front end, unit tests) or the event loop's completion queue.
enum Completion {
    /// The submitter blocks on the paired receiver (`await_vet`).
    Channel(mpsc::Sender<Json>),
    /// The submitter is the event loop: post under the job token and
    /// wake it.
    Posted {
        token: u64,
        queue: Arc<CompletionQueue>,
    },
}

impl Completion {
    fn deliver(self, core: Json) {
        match self {
            // A disconnected submitter is fine; the result is cached
            // anyway.
            Completion::Channel(tx) => {
                let _ = tx.send(core);
            }
            Completion::Posted { token, queue } => queue.post(token, core),
        }
    }
}

/// Finished cores posted by workers for the event loop, plus the waker
/// that interrupts its parked [`Poller::wait`].
struct CompletionQueue {
    done: Mutex<Vec<(u64, Json)>>,
    waker: poller::Waker,
}

impl CompletionQueue {
    fn new(waker: poller::Waker) -> CompletionQueue {
        CompletionQueue {
            done: Mutex::new(Vec::new()),
            waker,
        }
    }

    fn post(&self, token: u64, core: Json) {
        self.done
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((token, core));
        self.waker.wake();
    }

    fn drain(&self) -> Vec<(u64, Json)> {
        std::mem::take(&mut *self.done.lock().unwrap_or_else(PoisonError::into_inner))
    }

    fn wake(&self) {
        self.waker.wake();
    }
}

/// One queued vetting job.
struct Job {
    /// Request ID (`j-<n>`), carried through the queue so the worker's
    /// log records correlate with the submitting handler's.
    id: String,
    key: u64,
    source: String,
    resp: Completion,
    /// When the job entered the queue; the dequeuing worker turns it
    /// into the `serve_queue_wait_us` histogram and the `queue_wait_us`
    /// field on `job_dequeued`.
    enq: Instant,
}

/// State shared by the event loop, stdio front end, and workers.
struct Shared {
    analysis: AnalysisConfig,
    /// `analysis.canonical_string()`, computed once: the config half of
    /// every cache key.
    config_canon: String,
    workers: usize,
    queue: Bounded<Job>,
    cache: Mutex<SigCache>,
    stats: Stats,
    metrics: MetricsRegistry,
    analyze: Box<AnalyzeJobFn>,
    shutting_down: AtomicBool,
    dump_metrics_on_shutdown: bool,
    /// Structured event log, shared with whoever configured it.
    log: Option<Arc<EventLog>>,
    /// Source of per-job request IDs (`j-<n>`).
    job_seq: AtomicU64,
    metrics_dir: Option<PathBuf>,
    metrics_interval: Duration,
    metrics_history_cap: u64,
    alert_rules: Option<sigobs::alerts::AlertRules>,
    idle_timeout: Option<Duration>,
    request_deadline: Option<Duration>,
    outbuf_cap: usize,
    max_line_bytes: usize,
    /// The event loop's completion queue in TCP mode; `None` in stdio
    /// mode and unit tests. Shutdown wakes the loop through its waker.
    completions: Option<Arc<CompletionQueue>>,
}

impl Shared {
    fn new(
        cfg: ServeConfig,
        analyze: Box<AnalyzeJobFn>,
        completions: Option<Arc<CompletionQueue>>,
    ) -> Shared {
        Shared {
            config_canon: cfg.analysis.canonical_string(),
            workers: cfg.workers.max(1),
            queue: Bounded::new(cfg.queue_cap.max(1)),
            cache: Mutex::new(SigCache::new(cfg.cache_cap)),
            stats: Stats::default(),
            metrics: MetricsRegistry::new(),
            analysis: cfg.analysis,
            analyze,
            shutting_down: AtomicBool::new(false),
            dump_metrics_on_shutdown: cfg.dump_metrics_on_shutdown,
            log: cfg.log,
            job_seq: AtomicU64::new(0),
            metrics_dir: cfg.metrics_dir,
            metrics_interval: cfg.metrics_interval,
            metrics_history_cap: cfg.metrics_history_cap,
            alert_rules: cfg.alert_rules,
            idle_timeout: cfg.idle_timeout,
            request_deadline: cfg.request_deadline,
            outbuf_cap: cfg.outbuf_cap.max(1024),
            max_line_bytes: cfg.max_line_bytes.max(1024),
            completions,
        }
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, SigCache> {
        // Recover, don't propagate: the LRU map stays structurally valid
        // if a holder panics, and propagating poison would turn one
        // panicking worker into a daemon-wide crash cascade.
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn next_job_id(&self) -> String {
        format!("j-{}", self.job_seq.fetch_add(1, Ordering::Relaxed))
    }

    fn log_event(&self, level: Level, event: &str, fields: &[(&str, Json)]) {
        if let Some(log) = &self.log {
            log.log(level, event, fields);
        }
    }

    /// The registry snapshot plus the daemon's own `Stats` counters and
    /// cache occupancy, under `serve_`-prefixed names — what `metrics`
    /// responses and the on-disk history both render, so the exposition
    /// covers the whole daemon, not just what the engine recorded.
    fn merged_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let read = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        let cache = self.lock_cache().counters();
        let extra = [
            ("serve_jobs_accepted", read(&self.stats.jobs_accepted)),
            ("serve_jobs_rejected", read(&self.stats.jobs_rejected)),
            ("serve_jobs_completed", read(&self.stats.jobs_completed)),
            ("serve_protocol_errors", read(&self.stats.protocol_errors)),
            ("serve_cache_entries", cache.entries),
            ("serve_cache_evictions", cache.evictions),
            ("serve_conns_open", read(&self.stats.conns_open)),
            ("serve_conn_accepted", read(&self.stats.conn_accepted)),
            ("serve_conn_closed", read(&self.stats.conn_closed)),
            (
                "serve_conn_backpressure_sheds",
                read(&self.stats.conn_backpressure_sheds),
            ),
            ("serve_deadline_misses", read(&self.stats.deadline_misses)),
        ];
        for (name, v) in extra {
            snap.counters.push((name.to_owned(), v));
        }
        snap.counters.sort();
        snap
    }

    fn stats_body(&self) -> Json {
        let mut body = self.stats.snapshot(
            self.lock_cache().counters(),
            self.workers,
            self.queue.len(),
            self.queue.capacity(),
        );
        body.set("metrics", metrics_json(&self.metrics.snapshot()));
        if let Some(log) = &self.log {
            // The in-memory ring tail: the last ~128 structured events,
            // so an operator gets recent history from a stats round-trip
            // even with no log file configured.
            body.set("log_tail", Json::Arr(log.tail()));
        }
        body
    }

    /// The shutdown dump: one compact JSON line on stderr so a service
    /// operator gets the full registry even without a final `stats`
    /// round-trip. Gated by `ServeConfig::dump_metrics_on_shutdown`.
    fn maybe_dump_metrics(&self) {
        if self.dump_metrics_on_shutdown {
            let snap = metrics_json(&self.metrics.snapshot());
            eprintln!("sigserve metrics: {}", snap.to_string_compact());
        }
    }
}

/// Runs one job's analysis, updates the counters, and caches the core
/// result. Deadline-based timeouts are *not* cached: they depend on
/// machine load, so a later resubmission deserves a fresh attempt, while
/// step-budget timeouts are deterministic and cache fine.
fn compute(shared: &Shared, key: u64, source: &str, job: &str) -> Json {
    let t0 = Instant::now();
    let outcome = {
        // Thread the job's request ID into the pipeline: at debug level
        // a LogTracer turns phase spans into `span` log events tagged
        // with this job's ID; otherwise the engine sees Trace::Off.
        let mut tracer = shared
            .log
            .as_ref()
            .filter(|l| l.enabled(Level::Debug))
            .map(|l| LogTracer::new(l, job));
        let trace = match tracer.as_mut() {
            Some(t) => Trace::On(t),
            None => Trace::Off,
        };
        (shared.analyze)(source, &shared.analysis, &shared.metrics, trace)
    };
    // The cost postmortem rides the log right after `job_computed`.
    if let Some(log) = &shared.log {
        crate::log_job_computed(log, job, &outcome);
        crate::log_job_profile(log, job, &outcome);
    }
    let vet = t0.elapsed();
    shared.stats.record_vet(vet);
    shared
        .metrics
        .record("serve_vet_us", vet.as_micros().min(u128::from(u64::MAX)) as u64);
    match &outcome {
        VetOutcome::Report { timings, .. } => {
            shared.stats.record_phases(timings.p1, timings.p2, timings.p3);
        }
        VetOutcome::Timeout { .. } => {
            Stats::incr(&shared.stats.budget_aborts);
            shared.metrics.add("serve_budget_aborts", 1);
        }
        VetOutcome::Error { .. } => {
            Stats::incr(&shared.stats.analysis_errors);
            shared.metrics.add("serve_analysis_errors", 1);
        }
    }
    let core = outcome.core_json();
    if outcome.cacheable(&shared.analysis) {
        shared.lock_cache().insert(key, core.clone(), job);
        shared.log_event(Level::Debug, "cache_insert", &[("job", Json::from(job))]);
    }
    core
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

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        let wait_us = job.enq.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        shared.metrics.record("serve_queue_wait_us", wait_us);
        shared.log_event(
            Level::Info,
            "job_dequeued",
            &[
                ("job", Json::from(job.id.as_str())),
                ("queue_wait_us", Json::from(wait_us as f64)),
            ],
        );
        // Dedupe racing submissions of the same content: another worker
        // may have finished this key while the job sat in the queue.
        // (Bound before the match: a guard temporary in the scrutinee
        // would still be held when compute() re-locks the cache.)
        let cached = shared.lock_cache().peek(job.key);
        let core = match cached {
            Some((hit, producer)) => {
                shared.log_event(
                    Level::Info,
                    "cache_hit",
                    &[
                        ("job", Json::from(job.id.as_str())),
                        ("producer", Json::from(producer)),
                    ],
                );
                hit
            }
            None => {
                // A panicking analysis must cost exactly one job, not
                // the worker (and with it the daemon): contain it, count
                // it, and answer the submitter with an error verdict.
                match catch_unwind(AssertUnwindSafe(|| {
                    compute(shared, job.key, &job.source, &job.id)
                })) {
                    Ok(core) => core,
                    Err(payload) => {
                        let msg = panic_message(payload.as_ref());
                        shared.metrics.add("serve_worker_panics", 1);
                        shared.log_event(
                            Level::Error,
                            "worker_panic",
                            &[
                                ("job", Json::from(job.id.as_str())),
                                ("message", Json::from(msg.as_str())),
                            ],
                        );
                        // Terminal lifecycle for replay: the job *was*
                        // computed, with an error verdict. Not cached —
                        // a resubmission deserves a fresh attempt.
                        shared.log_event(
                            Level::Warn,
                            "job_computed",
                            &[
                                ("job", Json::from(job.id.as_str())),
                                ("verdict", Json::from("error")),
                                ("message", Json::from(msg.as_str())),
                            ],
                        );
                        VetOutcome::error(format!("worker panicked: {msg}")).core_json()
                    }
                }
            }
        };
        Stats::incr(&shared.stats.jobs_completed);
        job.resp.deliver(core);
    }
}

/// A submitted-but-not-yet-answered vet item, so batches can pipeline
/// all submissions across the worker pool before collecting any result.
enum PendingVet {
    /// Answered without a worker (cache hit, overload, bad path, ...);
    /// any terminal log events were already written at submit time.
    Ready(Json),
    /// In the worker pool; await the core result on the channel.
    Waiting {
        id: String,
        name: Option<String>,
        rx: mpsc::Receiver<Json>,
        t0: Instant,
    },
}

/// What `submit_vet_with` did with an item: answered it immediately, or
/// enqueued it (the caller's `make_resp` closure was invoked exactly
/// once to wire up the completion path).
enum Submitted {
    /// Answered without a worker; terminal log events already written.
    Ready(Json),
    /// Admitted to the worker queue under `id`.
    Enqueued {
        id: String,
        name: Option<String>,
        t0: Instant,
    },
}

/// The submission path shared by the blocking front end and the event
/// loop: cache probe, shed-on-overload, enqueue. `make_resp` is called
/// exactly once, at the moment a job is actually pushed, so each caller
/// chooses how the finished core comes back (channel vs. posted).
fn submit_vet_with(
    shared: &Shared,
    item: VetItem,
    make_resp: &mut dyn FnMut() -> Completion,
) -> Submitted {
    let t0 = Instant::now();
    let (name, source) = match item.source {
        Source::Inline(s) => (item.name, s),
        Source::Path(p) => match std::fs::read_to_string(&p) {
            // A path submission defaults its display name to the path.
            Ok(s) => (item.name.or(Some(p)), s),
            Err(e) => {
                // Failed before entering the system: no job ID assigned,
                // logged as daemon narration rather than a lifecycle.
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
                return Submitted::Ready(vet_response(
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
    if let Some((core, producer)) = shared.lock_cache().get(key) {
        shared.metrics.add("serve_cache_hits", 1);
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
        return Submitted::Ready(resp);
    }
    shared.metrics.add("serve_cache_misses", 1);
    // Shed *before* logging the lifecycle: under sustained overload the
    // rejected stream must cost at most one (sampled) `job_rejected`
    // line per job, not an `enqueued` + `rejected` pair — otherwise the
    // log amplifies the very overload it is narrating. The pre-check is
    // advisory (a racing push can still hit Full below); that rare path
    // keeps the enqueued-then-rejected pair, which replay accepts.
    if shared.queue.is_full() {
        Stats::incr(&shared.stats.jobs_rejected);
        shared.log_event(
            Level::Warn,
            "job_rejected",
            &[
                ("job", Json::from(id.as_str())),
                ("reason", Json::from("overloaded")),
            ],
        );
        return Submitted::Ready(overloaded_response(
            name.as_deref(),
            shared.queue.len(),
            shared.queue.capacity(),
        ));
    }
    // Log admission *before* try_push: once the job is in the queue a
    // worker can dequeue it immediately, and the log's seq order must
    // match the lifecycle order (enqueued < dequeued).
    shared.log_event(
        Level::Info,
        "job_enqueued",
        &[
            ("job", Json::from(id.as_str())),
            ("name", name.as_deref().map(Json::from).unwrap_or(Json::Null)),
            ("queue_depth", Json::from(shared.queue.len() as f64)),
        ],
    );
    let resp = make_resp();
    match shared.queue.try_push(Job {
        id: id.clone(),
        key,
        source,
        resp,
        enq: Instant::now(),
    }) {
        Ok(_) => {
            Stats::incr(&shared.stats.jobs_accepted);
            shared
                .metrics
                .record("serve_queue_depth", shared.queue.len() as u64);
            Submitted::Enqueued { id, name, t0 }
        }
        Err(PushError::Full(_)) => {
            Stats::incr(&shared.stats.jobs_rejected);
            shared.log_event(
                Level::Warn,
                "job_rejected",
                &[
                    ("job", Json::from(id.as_str())),
                    ("reason", Json::from("overloaded")),
                ],
            );
            Submitted::Ready(overloaded_response(
                name.as_deref(),
                shared.queue.len(),
                shared.queue.capacity(),
            ))
        }
        Err(PushError::ShutDown(_)) => {
            Stats::incr(&shared.stats.jobs_rejected);
            shared.log_event(
                Level::Warn,
                "job_rejected",
                &[
                    ("job", Json::from(id.as_str())),
                    ("reason", Json::from("shutting_down")),
                ],
            );
            Submitted::Ready(error_response("daemon is shutting down"))
        }
    }
}

/// The blocking submission wrapper (stdio front end, unit tests): the
/// completion path is an mpsc channel the caller receives on.
fn submit_vet(shared: &Shared, item: VetItem) -> PendingVet {
    let mut rx_slot: Option<mpsc::Receiver<Json>> = None;
    let submitted = {
        let mut make = || {
            let (tx, rx) = mpsc::channel();
            rx_slot = Some(rx);
            Completion::Channel(tx)
        };
        submit_vet_with(shared, item, &mut make)
    };
    match submitted {
        Submitted::Ready(resp) => PendingVet::Ready(resp),
        Submitted::Enqueued { id, name, t0 } => PendingVet::Waiting {
            id,
            name,
            rx: rx_slot.expect("completion channel created at enqueue"),
            t0,
        },
    }
}

/// Wraps a finished core into the `vet_result` response and writes the
/// terminal `job_done` lifecycle record. Shared by the blocking await
/// path and the event loop's completion handler.
fn finish_vet(shared: &Shared, id: &str, name: Option<&str>, t0: Instant, core: &Json) -> Json {
    let micros = t0.elapsed().as_micros();
    let resp = vet_response(core, name, Some(id), false, micros);
    shared.log_event(
        Level::Info,
        "job_done",
        &[
            ("job", Json::from(id)),
            ("micros", Json::from(micros as f64)),
            ("cached", Json::Bool(false)),
        ],
    );
    resp
}

fn await_vet(shared: &Shared, pending: PendingVet) -> Json {
    match pending {
        PendingVet::Ready(resp) => resp,
        PendingVet::Waiting { id, name, rx, t0 } => match rx.recv() {
            Ok(core) => finish_vet(shared, &id, name.as_deref(), t0, &core),
            Err(_) => error_response("worker pool shut down before the job finished"),
        },
    }
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

/// Handles one parsed request. The bool says "this was a shutdown":
/// the caller writes the response first, then tears the daemon down.
fn respond(shared: &Shared, req: Result<Request, String>) -> (Json, bool) {
    match req {
        Err(msg) => {
            Stats::incr(&shared.stats.protocol_errors);
            shared.log_event(
                Level::Warn,
                "protocol_error",
                &[("error", Json::from(msg.as_str()))],
            );
            (error_response(&msg), false)
        }
        Ok(Request::Vet(item)) => (await_vet(shared, submit_vet(shared, item)), false),
        Ok(Request::VetBatch(items)) => {
            // Submit everything first so the batch saturates the worker
            // pool; items beyond the queue bound come back `overloaded`.
            let pending: Vec<PendingVet> =
                items.into_iter().map(|i| submit_vet(shared, i)).collect();
            let results: Vec<Json> = pending
                .into_iter()
                .map(|p| await_vet(shared, p))
                .collect();
            let mut o = Json::obj();
            o.set("kind", Json::from("vet_batch_result"));
            o.set("results", Json::Arr(results));
            (o, false)
        }
        Ok(Request::Stats) => (with_kind("stats", shared.stats_body()), false),
        Ok(Request::Metrics) => {
            let text = sigobs::prometheus_text(&shared.merged_snapshot());
            // Our own renderer must always validate; the sample count is
            // a convenience for scripted smoke tests.
            let samples = sigobs::validate_prometheus_text(&text).unwrap_or(0);
            (metrics_response(&text, samples), false)
        }
        Ok(Request::Shutdown) => {
            shared.log_event(Level::Info, "serve_shutdown", &[]);
            let mut o = Json::obj();
            o.set("kind", Json::from("shutdown_ack"));
            o.set("stats", shared.stats_body());
            (o, true)
        }
    }
}

/// Flips the daemon into shutdown: no new jobs, workers drain and exit,
/// and the event loop (if any) is woken so it can drain connections.
fn initiate_shutdown(shared: &Shared) {
    if shared.shutting_down.swap(true, Ordering::SeqCst) {
        return; // someone else already did
    }
    shared.queue.shutdown();
    if let Some(completions) = &shared.completions {
        completions.wake();
    }
}

/// The blocking protocol loop (stdio front end): read request lines,
/// write response lines. Returns `true` if the peer requested shutdown
/// (vs. just disconnecting).
fn serve_lines(
    shared: &Shared,
    reader: impl BufRead,
    mut writer: impl Write,
) -> io::Result<bool> {
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let (resp, is_shutdown) = respond(shared, parse_request(&line));
        // Single write per response line (see Client::raw_line: split
        // writes interact badly with Nagle + delayed ACK).
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

fn spawn_workers(shared: &Arc<Shared>) -> Vec<JoinHandle<()>> {
    (0..shared.workers)
        .map(|i| {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name(format!("sigserve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker thread")
        })
        .collect()
}

/// The `serve_started` log record both front ends emit once the pool is
/// up, so a log file identifies the daemon configuration it narrates.
fn log_started(shared: &Shared) {
    shared.log_event(
        Level::Info,
        "serve_started",
        &[
            ("workers", Json::from(shared.workers as f64)),
            ("queue_cap", Json::from(shared.queue.capacity() as f64)),
            (
                "cache_cap",
                Json::from(shared.lock_cache().counters().capacity as f64),
            ),
        ],
    );
}

/// The in-daemon alerting state: which rule names are currently firing.
/// After each snapshot lands in the history ring, the history thread
/// re-evaluates the configured rules over the on-disk window and emits
/// one `alert_fired` (warn) per newly violated rule and one
/// `alert_cleared` (info) per rule that stopped violating -- edges, not
/// levels, so a long-running breach is one log record, not one per
/// snapshot.
fn evaluate_alerts(
    shared: &Shared,
    dir: &std::path::Path,
    rules: &sigobs::alerts::AlertRules,
    firing: &mut std::collections::BTreeSet<String>,
) {
    let records = match sigobs::MetricsHistory::load(dir) {
        Ok(r) => r,
        Err(e) => {
            shared.log_event(
                Level::Warn,
                "metrics_history_error",
                &[("error", Json::from(format!("{e}")))],
            );
            return;
        }
    };
    let report = sigobs::alerts::evaluate(rules, &records);
    for outcome in &report.outcomes {
        let name = outcome.rule.name.as_str();
        if outcome.violated && !firing.contains(name) {
            firing.insert(name.to_owned());
            let value = outcome.value.map_or(Json::Null, Json::from);
            let bound = match (outcome.rule.min, outcome.rule.max) {
                (Some(lo), _) if outcome.value.is_some_and(|v| v < lo) => Json::from(lo),
                (_, Some(hi)) => Json::from(hi),
                (Some(lo), None) => Json::from(lo),
                (None, None) => Json::Null,
            };
            shared.log_event(
                Level::Warn,
                "alert_fired",
                &[("rule", Json::from(name)), ("value", value), ("bound", bound)],
            );
        } else if !outcome.violated && firing.remove(name) {
            shared.log_event(Level::Info, "alert_cleared", &[("rule", Json::from(name))]);
        }
    }
}

/// Spawns the metrics-history thread when `--metrics-dir` is configured:
/// it appends a merged snapshot to the on-disk ring every
/// `metrics_interval`, plus one final snapshot at shutdown, and polls
/// the shutdown flag often enough that daemon teardown is prompt. With
/// alert rules configured, each appended snapshot is followed by an
/// alerting pass over the recorded window.
fn spawn_history(shared: &Arc<Shared>) -> Option<JoinHandle<()>> {
    let dir = shared.metrics_dir.clone()?;
    let shared = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name("sigserve-history".to_owned())
        .spawn(move || {
            let mut history = match sigobs::MetricsHistory::open(&dir, shared.metrics_history_cap)
            {
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
            let mut firing = std::collections::BTreeSet::new();
            let poll = Duration::from_millis(25);
            loop {
                let interval_start = Instant::now();
                while interval_start.elapsed() < shared.metrics_interval {
                    if shared.shutting_down.load(Ordering::SeqCst) {
                        let _ = history.append(&shared.merged_snapshot());
                        if let Some(rules) = &shared.alert_rules {
                            evaluate_alerts(&shared, &dir, rules, &mut firing);
                        }
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
                } else if let Some(rules) = &shared.alert_rules {
                    evaluate_alerts(&shared, &dir, rules, &mut firing);
                }
            }
        })
        .expect("spawn history thread");
    Some(handle)
}

// ---------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------

/// Poller token for the TCP listener.
const LISTENER_TOKEN: u64 = 0;
/// Poller token for the completion-queue waker pipe.
const WAKER_TOKEN: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// How long a draining shutdown waits for connections to flush before
/// force-closing them.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// An in-flight vet item on a connection: the slot in the response
/// pipeline a posted completion (or a fired deadline) will fill.
struct VetWait {
    /// Completion-queue token (distinct from the `j-<n>` request ID).
    token: u64,
    id: String,
    name: Option<String>,
    t0: Instant,
    deadline: Option<Instant>,
}

/// One position in a connection's ordered response pipeline.
enum Part {
    /// Serialized compact response line (no trailing newline).
    Done(String),
    /// Still in the worker pool.
    Wait(VetWait),
}

/// One request's worth of response: a single line, or a batch whose
/// items flush together as one `vet_batch_result` line.
enum Slot {
    One(Part),
    Batch(Vec<Part>),
}

impl Slot {
    fn parts(&self) -> &[Part] {
        match self {
            Slot::One(p) => std::slice::from_ref(p),
            Slot::Batch(v) => v.as_slice(),
        }
    }

    fn parts_mut(&mut self) -> &mut [Part] {
        match self {
            Slot::One(p) => std::slice::from_mut(p),
            Slot::Batch(v) => v.as_mut_slice(),
        }
    }

    fn ready(&self) -> bool {
        self.parts().iter().all(|p| matches!(p, Part::Done(_)))
    }
}

/// Per-connection state owned by the event loop.
struct Conn {
    stream: TcpStream,
    /// Connection ID (`c-<n>`) for log correlation.
    cid: String,
    rbuf: LineBuf,
    wbuf: WriteBuf,
    /// Responses in request order; the head flushes once fully `Done`.
    pending: VecDeque<Slot>,
    /// Bytes of `Done` parts not yet folded into `wbuf` (backpressure
    /// accounting: `wbuf.queued() + pending_bytes` is what this client
    /// owes us to read).
    pending_bytes: usize,
    last_activity: Instant,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Peer sent EOF (half-close): stop reading, flush what's owed.
    peer_eof: bool,
    /// Set when the connection should close after draining its output
    /// (shutdown ack written, protocol violation answered, ...).
    closing: Option<&'static str>,
    /// Set when the connection must close *now*, unflushed.
    kill: Option<&'static str>,
    /// Edge flag so a backpressure episode logs once, not per item.
    backpressured: bool,
    /// Lifetime bytes read off this socket (reported on `conn_closed`
    /// so timeline reconstruction can cross-check framing totals; the
    /// write side lives in [`WriteBuf::written`]).
    bytes_read: u64,
    /// Requests this connection submitted (parsed non-empty lines).
    requests: u64,
}

impl Conn {
    fn new(stream: TcpStream, cid: String, max_line: usize) -> Conn {
        Conn {
            stream,
            cid,
            rbuf: LineBuf::new(max_line),
            wbuf: WriteBuf::new(),
            pending: VecDeque::new(),
            pending_bytes: 0,
            last_activity: Instant::now(),
            interest: Interest::READ,
            peer_eof: false,
            closing: None,
            kill: None,
            backpressured: false,
            bytes_read: 0,
            requests: 0,
        }
    }
}

fn push_done(conn: &mut Conn, resp: &Json) {
    let s = resp.to_string_compact();
    conn.pending_bytes += s.len() + 1;
    conn.pending.push_back(Slot::One(Part::Done(s)));
}

/// The readiness-driven connection core: one thread, one poller, all
/// TCP connections.
struct EventLoop {
    shared: Arc<Shared>,
    poller: Poller,
    listener: TcpListener,
    wake_rx: WakeRx,
    completions: Arc<CompletionQueue>,
    conns: HashMap<u64, Conn>,
    /// Completion token → owning connection token.
    jobs: HashMap<u64, u64>,
    /// Jobs whose connection is gone or whose deadline already answered:
    /// the eventual completion still writes the terminal `job_done`.
    late: HashMap<u64, (String, Instant)>,
    next_conn_token: u64,
    conn_seq: u64,
    next_job_token: u64,
    drain_deadline: Option<Instant>,
}

impl EventLoop {
    fn new(
        shared: Arc<Shared>,
        poller: Poller,
        listener: TcpListener,
        wake_rx: WakeRx,
        completions: Arc<CompletionQueue>,
    ) -> EventLoop {
        EventLoop {
            shared,
            poller,
            listener,
            wake_rx,
            completions,
            conns: HashMap::new(),
            jobs: HashMap::new(),
            late: HashMap::new(),
            next_conn_token: FIRST_CONN_TOKEN,
            conn_seq: 0,
            next_job_token: 0,
            drain_deadline: None,
        }
    }

    fn run(&mut self) -> io::Result<()> {
        self.poller
            .register(self.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        self.poller
            .register(self.wake_rx.fd(), WAKER_TOKEN, Interest::READ)?;
        let mut events: Vec<poller::Event> = Vec::new();
        loop {
            let timeout = self.wait_timeout();
            self.poller.wait(&mut events, timeout)?;
            let batch: Vec<poller::Event> = events.drain(..).collect();
            for ev in batch {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.wake_rx.drain(),
                    token => self.conn_event(token, ev),
                }
            }
            self.apply_completions();
            self.apply_timers();
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                self.begin_drain();
                let hard = self.drain_deadline.is_some_and(|d| Instant::now() >= d);
                if self.conns.is_empty() && (self.late.is_empty() || hard) {
                    return Ok(());
                }
            }
        }
    }

    /// The park duration: indefinite unless some timer needs servicing.
    /// Timers tick at a quarter of their bound (clamped) rather than
    /// tracking exact next-expiry — cheap, and precise enough for
    /// second-scale idle timeouts and millisecond-scale deadlines.
    fn wait_timeout(&self) -> Option<Duration> {
        fn tick(bound: Duration) -> Duration {
            (bound / 4).clamp(Duration::from_millis(1), Duration::from_millis(250))
        }
        let mut timeout: Option<Duration> = None;
        let mut merge = |d: Duration| {
            timeout = Some(timeout.map_or(d, |t: Duration| t.min(d)));
        };
        if self.drain_deadline.is_some() {
            merge(Duration::from_millis(25));
        }
        if let Some(idle) = self.shared.idle_timeout {
            if !self.conns.is_empty() {
                merge(tick(idle));
            }
        }
        if let Some(deadline) = self.shared.request_deadline {
            if !self.jobs.is_empty() {
                merge(tick(deadline));
            }
        }
        timeout
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    if self.shared.shutting_down.load(Ordering::SeqCst) {
                        // Draining: refuse by immediate close.
                        drop(stream);
                        continue;
                    }
                    if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err()
                    {
                        continue;
                    }
                    let token = self.next_conn_token;
                    self.next_conn_token += 1;
                    let cid = format!("c-{}", self.conn_seq);
                    self.conn_seq += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    Stats::incr(&self.shared.stats.conn_accepted);
                    self.shared.stats.conns_open.fetch_add(1, Ordering::Relaxed);
                    self.shared.log_event(
                        Level::Debug,
                        "conn_accepted",
                        &[
                            ("conn", Json::from(cid.as_str())),
                            ("peer", Json::from(peer.to_string())),
                        ],
                    );
                    self.conns
                        .insert(token, Conn::new(stream, cid, self.shared.max_line_bytes));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept errors (EMFILE, aborted handshake):
                // stop for this readiness round; the listener reports
                // again when another connection is pending.
                Err(_) => break,
            }
        }
    }

    fn conn_event(&mut self, token: u64, ev: poller::Event) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        if ev.readable || ev.closed {
            self.read_ready(&mut conn);
            self.process_lines(token, &mut conn);
            // Guard against a pure-error readiness state (e.g. EPOLLERR
            // with nothing readable) spinning the loop: treat it as a
            // peer hangup once buffered input is consumed.
            if ev.closed && !conn.peer_eof && conn.kill.is_none() {
                conn.peer_eof = true;
            }
        }
        self.settle(token, conn);
    }

    fn read_ready(&mut self, conn: &mut Conn) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.bytes_read += n as u64;
                    if !conn.rbuf.extend(&chunk[..n]) {
                        Stats::incr(&self.shared.stats.protocol_errors);
                        self.shared.log_event(
                            Level::Warn,
                            "protocol_error",
                            &[("error", Json::from("request line exceeds maximum length"))],
                        );
                        push_done(conn, &error_response("request line exceeds maximum length"));
                        conn.closing.get_or_insert("protocol");
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.kill = Some("io_error");
                    break;
                }
            }
        }
    }

    fn process_lines(&mut self, token: u64, conn: &mut Conn) {
        while conn.closing.is_none() && conn.kill.is_none() {
            match conn.rbuf.next_line() {
                None => break,
                Some(Err(_)) => {
                    // Non-UTF-8 bytes ended the blocking server's
                    // connection without a response; match that.
                    conn.kill = Some("protocol");
                    break;
                }
                Some(Ok(line)) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    conn.last_activity = Instant::now();
                    self.handle_line(token, conn, &line);
                }
            }
        }
    }

    fn handle_line(&mut self, token: u64, conn: &mut Conn, line: &str) {
        let shared = Arc::clone(&self.shared);
        conn.requests += 1;
        // Hard cap: a client this far behind on reading is not exerting
        // backpressure anymore, it is a memory leak. Close it.
        let owed = conn.wbuf.queued() + conn.pending_bytes;
        if owed > shared.outbuf_cap.saturating_mul(4) {
            shared.log_event(
                Level::Warn,
                "write_backpressure",
                &[
                    ("conn", Json::from(conn.cid.as_str())),
                    ("queued_bytes", Json::from(owed as f64)),
                    ("action", Json::from("close")),
                ],
            );
            conn.kill = Some("write_backpressure");
            return;
        }
        match parse_request(line) {
            Err(msg) => {
                Stats::incr(&shared.stats.protocol_errors);
                shared.log_event(
                    Level::Warn,
                    "protocol_error",
                    &[("error", Json::from(msg.as_str()))],
                );
                push_done(conn, &error_response(&msg));
            }
            Ok(Request::Vet(item)) => {
                let part = self.vet_part(token, conn, item);
                conn.pending.push_back(Slot::One(part));
            }
            Ok(Request::VetBatch(items)) => {
                // Submit everything first so the batch saturates the
                // worker pool; items beyond the queue bound come back
                // `overloaded`.
                let parts: Vec<Part> = items
                    .into_iter()
                    .map(|i| self.vet_part(token, conn, i))
                    .collect();
                conn.pending.push_back(Slot::Batch(parts));
            }
            Ok(Request::Stats) => push_done(conn, &with_kind("stats", shared.stats_body())),
            Ok(Request::Metrics) => {
                let text = sigobs::prometheus_text(&shared.merged_snapshot());
                let samples = sigobs::validate_prometheus_text(&text).unwrap_or(0);
                push_done(conn, &metrics_response(&text, samples));
            }
            Ok(Request::Shutdown) => {
                shared.log_event(Level::Info, "serve_shutdown", &[]);
                let mut o = Json::obj();
                o.set("kind", Json::from("shutdown_ack"));
                o.set("stats", shared.stats_body());
                push_done(conn, &o);
                conn.closing.get_or_insert("shutdown");
                initiate_shutdown(&shared);
            }
        }
    }

    /// Submits one vet item from a connection: shed under write
    /// backpressure, answer immediately when possible, otherwise park a
    /// [`VetWait`] the completion (or deadline) will fill.
    fn vet_part(&mut self, conn_token: u64, conn: &mut Conn, item: VetItem) -> Part {
        let shared = Arc::clone(&self.shared);
        let owed = conn.wbuf.queued() + conn.pending_bytes;
        if owed >= shared.outbuf_cap {
            // Soft cap: the client owes us reads before it may submit
            // more work. Typed response, one log line per episode.
            Stats::incr(&shared.stats.conn_backpressure_sheds);
            if !conn.backpressured {
                conn.backpressured = true;
                shared.log_event(
                    Level::Warn,
                    "write_backpressure",
                    &[
                        ("conn", Json::from(conn.cid.as_str())),
                        ("queued_bytes", Json::from(owed as f64)),
                        ("capacity_bytes", Json::from(shared.outbuf_cap as f64)),
                    ],
                );
            }
            let resp = backpressure_response(item.name.as_deref(), owed, shared.outbuf_cap);
            let s = resp.to_string_compact();
            conn.pending_bytes += s.len() + 1;
            return Part::Done(s);
        }
        let job_token = self.next_job_token;
        self.next_job_token += 1;
        let completions = Arc::clone(&self.completions);
        let submitted = {
            let mut make = || Completion::Posted {
                token: job_token,
                queue: Arc::clone(&completions),
            };
            submit_vet_with(&shared, item, &mut make)
        };
        match submitted {
            Submitted::Ready(resp) => {
                let s = resp.to_string_compact();
                conn.pending_bytes += s.len() + 1;
                Part::Done(s)
            }
            Submitted::Enqueued { id, name, t0 } => {
                self.jobs.insert(job_token, conn_token);
                Part::Wait(VetWait {
                    token: job_token,
                    id,
                    name,
                    t0,
                    deadline: shared.request_deadline.map(|d| t0 + d),
                })
            }
        }
    }

    /// Routes drained completions to their waiting connection slots (or
    /// to the terminal-log-only `late` path) and flushes touched conns.
    fn apply_completions(&mut self) {
        let batch = self.completions.drain();
        if batch.is_empty() {
            return;
        }
        let shared = Arc::clone(&self.shared);
        let mut touched: Vec<u64> = Vec::new();
        for (token, core) in batch {
            if let Some((id, t0)) = self.late.remove(&token) {
                // Connection gone or deadline already answered: the
                // response bytes have nowhere to go, but the lifecycle
                // still terminates for replay.
                let _ = finish_vet(&shared, &id, None, t0, &core);
                continue;
            }
            let Some(conn_token) = self.jobs.remove(&token) else {
                continue;
            };
            let Some(conn) = self.conns.get_mut(&conn_token) else {
                continue;
            };
            'fill: for slot in conn.pending.iter_mut() {
                for part in slot.parts_mut() {
                    if let Part::Wait(w) = part {
                        if w.token == token {
                            let resp =
                                finish_vet(&shared, &w.id, w.name.as_deref(), w.t0, &core);
                            let s = resp.to_string_compact();
                            conn.pending_bytes += s.len() + 1;
                            *part = Part::Done(s);
                            break 'fill;
                        }
                    }
                }
            }
            if !touched.contains(&conn_token) {
                touched.push(conn_token);
            }
        }
        for t in touched {
            if let Some(c) = self.conns.remove(&t) {
                self.settle(t, c);
            }
        }
    }

    /// Fires request deadlines, closes idle connections, and force-closes
    /// everything once the drain grace period lapses.
    fn apply_timers(&mut self) {
        let now = Instant::now();
        let shared = Arc::clone(&self.shared);
        if shared.request_deadline.is_some() && !self.jobs.is_empty() {
            let deadline_ms =
                shared.request_deadline.map_or(0.0, |d| d.as_millis() as f64);
            let mut touched: Vec<u64> = Vec::new();
            for (&token, conn) in self.conns.iter_mut() {
                let mut fired = false;
                for slot in conn.pending.iter_mut() {
                    for part in slot.parts_mut() {
                        let Part::Wait(w) = part else { continue };
                        if !w.deadline.is_some_and(|d| now >= d) {
                            continue;
                        }
                        // The client gets a typed timeout *now*; the
                        // worker keeps running and its completion takes
                        // the `late` path (terminal log, result cached).
                        Stats::incr(&shared.stats.deadline_misses);
                        shared.log_event(
                            Level::Warn,
                            "job_deadline",
                            &[
                                ("job", Json::from(w.id.as_str())),
                                ("deadline_ms", Json::from(deadline_ms)),
                            ],
                        );
                        let mut core = Json::obj();
                        core.set("verdict", Json::from("timeout"));
                        core.set("reason", Json::from("deadline"));
                        core.set("deadline_ms", Json::from(deadline_ms));
                        let resp = vet_response(
                            &core,
                            w.name.as_deref(),
                            Some(&w.id),
                            false,
                            w.t0.elapsed().as_micros(),
                        );
                        self.jobs.remove(&w.token);
                        self.late.insert(w.token, (w.id.clone(), w.t0));
                        let s = resp.to_string_compact();
                        conn.pending_bytes += s.len() + 1;
                        *part = Part::Done(s);
                        fired = true;
                    }
                }
                if fired {
                    touched.push(token);
                }
            }
            for t in touched {
                if let Some(c) = self.conns.remove(&t) {
                    self.settle(t, c);
                }
            }
        }
        if let Some(idle) = shared.idle_timeout {
            let stale: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| {
                    c.pending.is_empty()
                        && c.wbuf.is_empty()
                        && now.duration_since(c.last_activity) >= idle
                })
                .map(|(&t, _)| t)
                .collect();
            for t in stale {
                if let Some(c) = self.conns.remove(&t) {
                    self.close_conn(c, "idle");
                }
            }
        }
        if self.drain_deadline.is_some_and(|d| now >= d) {
            let all: Vec<u64> = self.conns.keys().copied().collect();
            for t in all {
                if let Some(c) = self.conns.remove(&t) {
                    self.close_conn(c, "drain_timeout");
                }
            }
        }
    }

    /// Starts the draining shutdown exactly once: every connection stops
    /// reading and closes as soon as its owed output flushes.
    fn begin_drain(&mut self) {
        if self.drain_deadline.is_some() {
            return;
        }
        self.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for t in tokens {
            if let Some(mut c) = self.conns.remove(&t) {
                c.closing.get_or_insert("shutdown");
                self.settle(t, c);
            }
        }
    }

    /// Folds completed head slots into the write buffer and flushes as
    /// far as the socket accepts right now.
    fn flush_ready(&mut self, conn: &mut Conn) {
        while conn.pending.front().map_or(false, Slot::ready) {
            let slot = conn.pending.pop_front().expect("checked front");
            match slot {
                Slot::One(Part::Done(s)) => {
                    conn.pending_bytes = conn.pending_bytes.saturating_sub(s.len() + 1);
                    conn.wbuf.push(s.as_bytes());
                    conn.wbuf.push(b"\n");
                }
                Slot::One(Part::Wait(_)) => unreachable!("ready() said all parts are Done"),
                Slot::Batch(parts) => {
                    // Byte-identical to the blocking server's
                    // `vet_batch_result` object (minijson compact form).
                    let mut line = String::from("{\"kind\":\"vet_batch_result\",\"results\":[");
                    for (i, part) in parts.iter().enumerate() {
                        let Part::Done(s) = part else {
                            unreachable!("ready() said all parts are Done")
                        };
                        if i > 0 {
                            line.push(',');
                        }
                        line.push_str(s);
                        conn.pending_bytes = conn.pending_bytes.saturating_sub(s.len() + 1);
                    }
                    line.push_str("]}\n");
                    conn.wbuf.push(line.as_bytes());
                }
            }
        }
        if conn.wbuf.is_empty() {
            return;
        }
        match conn.wbuf.write_to(&mut conn.stream) {
            Ok(()) => conn.last_activity = Instant::now(),
            Err(_) => {
                conn.kill = Some("io_error");
                return;
            }
        }
        if conn.backpressured
            && conn.wbuf.queued() + conn.pending_bytes <= self.shared.outbuf_cap / 2
        {
            conn.backpressured = false;
        }
    }

    /// The single exit point for a connection's event handling: flush,
    /// close if terminal, otherwise update poller interest and re-park.
    fn settle(&mut self, token: u64, mut conn: Conn) {
        if conn.kill.is_none() {
            self.flush_ready(&mut conn);
        }
        if let Some(reason) = conn.kill {
            self.close_conn(conn, reason);
            return;
        }
        let drained = conn.pending.is_empty() && conn.wbuf.is_empty();
        if drained && (conn.closing.is_some() || conn.peer_eof) {
            let reason = conn.closing.unwrap_or("eof");
            self.close_conn(conn, reason);
            return;
        }
        let want = Interest {
            read: conn.closing.is_none() && !conn.peer_eof,
            write: !conn.wbuf.is_empty(),
        };
        if want != conn.interest {
            if self
                .poller
                .reregister(conn.stream.as_raw_fd(), token, want)
                .is_err()
            {
                self.close_conn(conn, "io_error");
                return;
            }
            conn.interest = want;
        }
        self.conns.insert(token, conn);
    }

    fn close_conn(&mut self, conn: Conn, reason: &'static str) {
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        // Orphan the in-flight jobs: their completions still terminate
        // the log lifecycle through the `late` path.
        for slot in &conn.pending {
            for part in slot.parts() {
                if let Part::Wait(w) = part {
                    self.jobs.remove(&w.token);
                    self.late.insert(w.token, (w.id.clone(), w.t0));
                }
            }
        }
        Stats::incr(&self.shared.stats.conn_closed);
        self.shared.stats.conns_open.fetch_sub(1, Ordering::Relaxed);
        self.shared.log_event(
            Level::Debug,
            "conn_closed",
            &[
                ("conn", Json::from(conn.cid.as_str())),
                ("reason", Json::from(reason)),
                ("bytes_read", Json::from(conn.bytes_read as f64)),
                ("bytes_written", Json::from(conn.wbuf.written() as f64)),
                ("requests", Json::from(conn.requests as f64)),
            ],
        );
    }
}

// ---------------------------------------------------------------------
// Front ends
// ---------------------------------------------------------------------

/// A running TCP daemon. Dropping the handle does *not* stop it; send a
/// `shutdown` request (or call [`Server::stop`]) and then [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    event_loop: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    history: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts configuring a daemon. The one construction path for every
    /// front-end combination:
    ///
    /// ```text
    /// Server::builder().addr("127.0.0.1:0").analyze(f).start()?   // TCP
    /// Server::builder().stdio().analyze(f).run()?                 // stdio
    /// ```
    pub fn builder() -> ServerBuilder {
        ServerBuilder {
            cfg: ServeConfig::default(),
            addr: None,
            stdio: false,
            analyze: None,
        }
    }

    /// The bound address (resolves `:0` to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A `stats`-shaped snapshot for in-process harnesses (the bench
    /// tool), without a round-trip through the protocol.
    pub fn stats(&self) -> Json {
        with_kind("stats", self.shared.stats_body())
    }

    /// Initiates shutdown from the owning process (equivalent to a
    /// `shutdown` protocol request, minus the ack).
    pub fn stop(&self) {
        initiate_shutdown(&self.shared);
    }

    /// Waits for the event loop and workers to finish. Call after a
    /// `shutdown` request or [`Server::stop`]; joining a running server
    /// blocks until one of those happens.
    pub fn join(self) {
        let _ = self.event_loop.join();
        for w in self.workers {
            let _ = w.join();
        }
        if let Some(h) = self.history {
            let _ = h.join();
        }
        if let Some(log) = &self.shared.log {
            log.flush();
        }
        self.shared.maybe_dump_metrics();
    }

    /// A snapshot of the daemon's metrics registry for in-process
    /// harnesses (the bench tool), without a protocol round-trip.
    pub fn metrics_snapshot(&self) -> crate::MetricsSnapshot {
        self.shared.metrics.snapshot()
    }
}

/// Builds a daemon: pick a front end ([`ServerBuilder::addr`] or
/// [`ServerBuilder::stdio`]), inject the engine
/// ([`ServerBuilder::analyze`] / [`ServerBuilder::analyze_traced`]),
/// optionally attach observability ([`ServerBuilder::log`],
/// [`ServerBuilder::metrics`]), then [`ServerBuilder::start`] (TCP) or
/// [`ServerBuilder::run`] (either front end, blocking).
pub struct ServerBuilder {
    cfg: ServeConfig,
    addr: Option<String>,
    stdio: bool,
    analyze: Option<Box<AnalyzeJobFn>>,
}

impl ServerBuilder {
    /// Replaces the whole configuration, including any `log` /
    /// `metrics_dir` it carries — call this *before* the individual
    /// setters so they aren't clobbered.
    pub fn config(mut self, cfg: ServeConfig) -> ServerBuilder {
        self.cfg = cfg;
        self
    }

    /// Serve TCP on `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn addr(mut self, addr: impl Into<String>) -> ServerBuilder {
        self.addr = Some(addr.into());
        self.stdio = false;
        self
    }

    /// Serve the protocol over stdin/stdout instead of TCP (only
    /// reachable through [`ServerBuilder::run`]).
    pub fn stdio(mut self) -> ServerBuilder {
        self.stdio = true;
        self.addr = None;
        self
    }

    /// The analysis engine, classic 3-argument form; phase spans never
    /// reach the event log.
    pub fn analyze<F>(self, analyze: F) -> ServerBuilder
    where
        F: Fn(&str, &AnalysisConfig, &MetricsRegistry) -> VetOutcome + Send + Sync + 'static,
    {
        self.analyze_traced(move |s, c, m, _trace| analyze(s, c, m))
    }

    /// The analysis engine, trace-aware form: also receives a
    /// [`sigtrace::Trace`] carrying the owning job's request ID into the
    /// pipeline (a [`LogTracer`] when the event log is at debug level,
    /// [`Trace::Off`] otherwise).
    ///
    /// [`Trace::Off`]: sigtrace::Trace::Off
    pub fn analyze_traced<F>(mut self, analyze: F) -> ServerBuilder
    where
        F: for<'a> Fn(&str, &AnalysisConfig, &MetricsRegistry, Trace<'a>) -> VetOutcome
            + Send
            + Sync
            + 'static,
    {
        self.analyze = Some(Box::new(analyze));
        self
    }

    /// Attaches the structured event log (shorthand for setting
    /// [`ServeConfig::log`]).
    pub fn log(mut self, log: Arc<EventLog>) -> ServerBuilder {
        self.cfg.log = Some(log);
        self
    }

    /// Enables the on-disk metrics history in `dir` (shorthand for
    /// setting [`ServeConfig::metrics_dir`]).
    pub fn metrics(mut self, dir: impl Into<PathBuf>) -> ServerBuilder {
        self.cfg.metrics_dir = Some(dir.into());
        self
    }

    /// Starts a TCP daemon and returns its handle immediately. Errors
    /// with `InvalidInput` when no address was configured (the stdio
    /// front end has no handle — use [`ServerBuilder::run`]).
    pub fn start(self) -> io::Result<Server> {
        let analyze = self
            .analyze
            .ok_or_else(|| invalid_input("ServerBuilder needs an analyze engine"))?;
        if self.stdio {
            return Err(invalid_input(
                "stdio servers have no handle; use ServerBuilder::run",
            ));
        }
        let Some(addr) = self.addr else {
            return Err(invalid_input("ServerBuilder needs addr(..) or stdio()"));
        };
        start_tcp(&addr, self.cfg, analyze)
    }

    /// Runs the daemon to completion on the calling thread: the stdio
    /// protocol loop, or a TCP daemon joined until a `shutdown` request
    /// lands.
    pub fn run(self) -> io::Result<()> {
        if self.stdio {
            let analyze = self
                .analyze
                .ok_or_else(|| invalid_input("ServerBuilder needs an analyze engine"))?;
            return run_stdio(self.cfg, analyze);
        }
        let server = self.start()?;
        server.join();
        Ok(())
    }
}

fn invalid_input(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

fn start_tcp(addr: &str, cfg: ServeConfig, analyze: Box<AnalyzeJobFn>) -> io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let (waker, wake_rx) = poller::wake_pair()?;
    let completions = Arc::new(CompletionQueue::new(waker));
    let poller = Poller::with_backend(cfg.poller_backend)?;
    let shared = Arc::new(Shared::new(cfg, analyze, Some(Arc::clone(&completions))));
    log_started(&shared);
    let workers = spawn_workers(&shared);
    let history = spawn_history(&shared);
    let event_loop = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("sigserve-loop".to_owned())
            .spawn(move || {
                let mut el = EventLoop::new(
                    Arc::clone(&shared),
                    poller,
                    listener,
                    wake_rx,
                    completions,
                );
                if let Err(e) = el.run() {
                    // A dead event loop must not leave workers parked
                    // forever: log and tear the daemon down.
                    shared.log_event(
                        Level::Error,
                        "event_loop_error",
                        &[("error", Json::from(format!("{e}")))],
                    );
                    initiate_shutdown(&shared);
                }
            })
            .expect("spawn event loop thread")
    };
    Ok(Server {
        shared,
        addr: local,
        event_loop,
        workers,
        history,
    })
}

fn run_stdio(cfg: ServeConfig, analyze: Box<AnalyzeJobFn>) -> io::Result<()> {
    let shared = Arc::new(Shared::new(cfg, analyze, None));
    log_started(&shared);
    let workers = spawn_workers(&shared);
    let history = spawn_history(&shared);
    let result = serve_lines(&shared, io::stdin().lock(), io::stdout().lock());
    initiate_shutdown(&shared);
    for w in workers {
        let _ = w.join();
    }
    if let Some(h) = history {
        let _ = h.join();
    }
    if let Some(log) = &shared.log {
        log.flush();
    }
    shared.maybe_dump_metrics();
    result.map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::time::Duration;

    /// A fast stub engine: "ok" for anything, "timeout" for sources
    /// containing the marker, error for sources containing "!".
    fn stub(source: &str, _config: &AnalysisConfig, metrics: &MetricsRegistry) -> VetOutcome {
        metrics.add("stub_calls", 1);
        if source.contains("@timeout") {
            VetOutcome::timeout(999, Duration::from_micros(77))
        } else if source.contains('!') {
            VetOutcome::error("stub parse error")
        } else {
            VetOutcome::report(
                format!("{{\n  \"len\": {}\n}}", source.len()),
                crate::PhaseTimings::new(
                    Duration::from_micros(30),
                    Duration::from_micros(20),
                    Duration::from_micros(10),
                ),
            )
        }
    }

    fn stub_server(cfg: ServeConfig) -> Server {
        Server::builder()
            .config(cfg)
            .addr("127.0.0.1:0")
            .analyze(stub)
            .start()
            .expect("start")
    }

    fn shared_with(cfg: ServeConfig) -> Shared {
        Shared::new(
            cfg,
            Box::new(
                |s: &str, c: &AnalysisConfig, m: &MetricsRegistry, _t: Trace<'_>| stub(s, c, m),
            ),
            None,
        )
    }

    #[test]
    fn respond_vet_computes_then_caches() {
        let shared = shared_with(ServeConfig::default());
        {
            // No worker pool in this unit test: drive the queue inline.
            let item = VetItem {
                name: Some("a".to_owned()),
                source: Source::Inline("var x = 1;".to_owned()),
            };
            let pending = submit_vet(&shared, item);
            let job = shared.queue.pop().expect("job queued");
            let core = compute(&shared, job.key, &job.source, &job.id);
            job.resp.deliver(core);
            let resp = await_vet(&shared, pending);
            assert_eq!(resp["verdict"], "ok");
            assert_eq!(resp["cached"], Json::Bool(false));
            assert_eq!(resp["signature"]["len"].as_f64(), Some(10.0));
        }
        // Second submission of identical content: answered from cache
        // without touching the queue.
        let item = VetItem {
            name: None,
            source: Source::Inline("var x = 1;".to_owned()),
        };
        match submit_vet(&shared, item) {
            PendingVet::Ready(resp) => {
                assert_eq!(resp["cached"], Json::Bool(true));
                assert_eq!(resp["verdict"], "ok");
            }
            PendingVet::Waiting { .. } => panic!("expected a cache hit"),
        }
        assert!(shared.queue.is_empty());
    }

    #[test]
    fn overload_sheds_with_typed_response() {
        let cfg = ServeConfig {
            queue_cap: 1,
            ..ServeConfig::default()
        };
        let shared = shared_with(cfg);
        let first = submit_vet(
            &shared,
            VetItem {
                name: None,
                source: Source::Inline("one".to_owned()),
            },
        );
        assert!(matches!(first, PendingVet::Waiting { .. }));
        let second = submit_vet(
            &shared,
            VetItem {
                name: Some("b".to_owned()),
                source: Source::Inline("two".to_owned()),
            },
        );
        match second {
            PendingVet::Ready(resp) => {
                assert_eq!(resp["kind"], "overloaded");
                assert_eq!(resp["capacity"].as_f64(), Some(1.0));
            }
            PendingVet::Waiting { .. } => panic!("expected overload"),
        }
        assert_eq!(
            shared.stats.jobs_rejected.load(Ordering::Relaxed),
            1,
            "rejection must be counted"
        );
    }

    #[test]
    fn timeout_and_error_cores() {
        let shared = shared_with(ServeConfig::default());
        let t = compute(&shared, 1, "@timeout", "j-t");
        assert_eq!(t["verdict"], "timeout");
        assert_eq!(t["steps"].as_f64(), Some(999.0));
        let e = compute(&shared, 2, "oops!", "j-e");
        assert_eq!(e["verdict"], "error");
        assert_eq!(shared.stats.budget_aborts.load(Ordering::Relaxed), 1);
        assert_eq!(shared.stats.analysis_errors.load(Ordering::Relaxed), 1);
        // Deadline-ish timeouts (no step budget configured) are not
        // cached; errors are.
        assert!(shared.lock_cache().peek(1).is_none());
        assert!(shared.lock_cache().peek(2).is_some());
    }

    #[test]
    fn step_budget_timeouts_are_cached() {
        let mut cfg = ServeConfig::default();
        cfg.analysis.step_budget = Some(10);
        let shared = Shared::new(
            cfg,
            Box::new(
                |_: &str, _: &AnalysisConfig, _: &MetricsRegistry, _: Trace<'_>| {
                    VetOutcome::timeout(11, Duration::from_micros(5))
                },
            ),
            None,
        );
        let t = compute(&shared, 9, "whatever", "j-b");
        assert_eq!(t["verdict"], "timeout");
        assert!(shared.lock_cache().peek(9).is_some());
    }

    #[test]
    fn end_to_end_over_tcp_with_stub_engine() {
        let server = stub_server(ServeConfig::default());
        let mut client = crate::Client::connect(server.local_addr()).expect("connect");
        let r1 = client.vet_source(Some("a"), "var a;").unwrap();
        assert_eq!(r1["verdict"], "ok");
        assert_eq!(r1["cached"], Json::Bool(false));
        let r2 = client.vet_source(Some("a"), "var a;").unwrap();
        assert_eq!(r2["cached"], Json::Bool(true));
        let stats = client.stats().unwrap();
        assert_eq!(stats["cache"]["hits"].as_f64(), Some(1.0));
        assert_eq!(stats["jobs"]["completed"].as_f64(), Some(1.0));
        assert_eq!(stats["conns"]["open"].as_f64(), Some(1.0));
        assert_eq!(stats["conns"]["accepted"].as_f64(), Some(1.0));
        // The metrics registry rides along in every stats response: the
        // daemon's own counters plus whatever the engine recorded.
        let metrics = &stats["metrics"];
        assert_eq!(metrics["counters"]["serve_cache_hits"].as_f64(), Some(1.0));
        assert_eq!(metrics["counters"]["serve_cache_misses"].as_f64(), Some(1.0));
        assert_eq!(metrics["counters"]["stub_calls"].as_f64(), Some(1.0));
        assert_eq!(
            metrics["histograms"]["serve_vet_us"]["count"].as_f64(),
            Some(1.0)
        );
        let ack = client.shutdown().unwrap();
        assert_eq!(ack["kind"], "shutdown_ack");
        assert_eq!(ack["stats"]["jobs"]["accepted"].as_f64(), Some(1.0));
        server.join();
    }

    #[test]
    fn poll_backend_serves_end_to_end() {
        let cfg = ServeConfig {
            poller_backend: Backend::Poll,
            ..ServeConfig::default()
        };
        let server = stub_server(cfg);
        let mut client = crate::Client::connect(server.local_addr()).expect("connect");
        let r = client.vet_source(Some("p"), "var p;").unwrap();
        assert_eq!(r["verdict"], "ok");
        let ack = client.shutdown().unwrap();
        assert_eq!(ack["kind"], "shutdown_ack");
        server.join();
    }

    #[test]
    fn batch_pipelines_and_preserves_order() {
        let server = stub_server(ServeConfig::default());
        let mut client = crate::Client::connect(server.local_addr()).expect("connect");
        let mut req = Json::obj();
        req.set("kind", Json::from("vet_batch"));
        req.set(
            "items",
            Json::Arr(
                (0..6)
                    .map(|i| {
                        let mut o = Json::obj();
                        o.set("name", Json::from(format!("n{i}")));
                        o.set("source", Json::from(format!("var v{i};")));
                        o
                    })
                    .collect(),
            ),
        );
        let resp = client.request(&req).unwrap();
        assert_eq!(resp["kind"], "vet_batch_result");
        let results = resp["results"].as_array().unwrap();
        assert_eq!(results.len(), 6);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r["name"].as_str(), Some(format!("n{i}").as_str()));
            assert_eq!(r["verdict"], "ok");
        }
        client.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let server = stub_server(ServeConfig::default());
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).unwrap();
        // Three requests in one write, no reads in between: the loop
        // must answer them in request order even though the workers
        // finish in whatever order they like.
        let burst = (0..3)
            .map(|i| format!("{{\"kind\":\"vet\",\"name\":\"q{i}\",\"source\":\"var q{i};\"}}\n"))
            .collect::<String>();
        stream.write_all(burst.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for i in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let resp = Json::parse(line.trim()).unwrap();
            assert_eq!(resp["name"].as_str(), Some(format!("q{i}").as_str()), "{resp}");
            assert_eq!(resp["verdict"], "ok");
        }
        drop(reader);
        drop(stream);
        let mut client = crate::Client::connect(server.local_addr()).expect("connect");
        client.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn request_deadline_answers_timeout_while_worker_runs() {
        fn slow(source: &str, c: &AnalysisConfig, m: &MetricsRegistry) -> VetOutcome {
            if source.contains("@slow") {
                std::thread::sleep(Duration::from_millis(400));
            }
            stub(source, c, m)
        }
        let cfg = ServeConfig {
            workers: 1,
            request_deadline: Some(Duration::from_millis(50)),
            ..ServeConfig::default()
        };
        let server = Server::builder()
            .config(cfg)
            .addr("127.0.0.1:0")
            .analyze(slow)
            .start()
            .expect("start");
        let mut client = crate::Client::connect(server.local_addr()).expect("connect");
        let t0 = Instant::now();
        let resp = client.vet_source(Some("s"), "@slow").unwrap();
        assert_eq!(resp["verdict"], "timeout", "{resp}");
        assert_eq!(resp["reason"], "deadline");
        assert!(
            t0.elapsed() < Duration::from_millis(350),
            "deadline must answer before the worker finishes"
        );
        let stats = client.stats().unwrap();
        assert_eq!(stats["conns"]["deadline_misses"].as_f64(), Some(1.0));
        client.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn idle_connections_are_reaped() {
        let cfg = ServeConfig {
            idle_timeout: Some(Duration::from_millis(80)),
            ..ServeConfig::default()
        };
        let server = stub_server(cfg);
        let mut idle = crate::Client::connect(server.local_addr()).expect("connect");
        let r = idle.vet_source(Some("i"), "var i;").unwrap();
        assert_eq!(r["verdict"], "ok");
        std::thread::sleep(Duration::from_millis(300));
        // The daemon closed the quiet connection; the next round-trip
        // fails (EOF on read, or a send error once the close lands).
        assert!(idle.vet_source(Some("i2"), "var j;").is_err());
        // New connections still work.
        let mut fresh = crate::Client::connect(server.local_addr()).expect("connect");
        let r = fresh.vet_source(Some("f"), "var f;").unwrap();
        assert_eq!(r["verdict"], "ok");
        fresh.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn panicking_worker_does_not_kill_the_daemon() {
        // Regression: a panicking AnalyzeJobFn used to poison the cache
        // mutex (compute holds it around insert) and crash the worker;
        // every later request then panicked on the poisoned lock —
        // one bad addon took the whole daemon down.
        fn panicky(source: &str, c: &AnalysisConfig, m: &MetricsRegistry) -> VetOutcome {
            if source.contains("@panic") {
                panic!("injected analysis panic");
            }
            stub(source, c, m)
        }
        let cfg = ServeConfig {
            workers: 1, // one worker: if the panic killed it, nothing answers
            ..ServeConfig::default()
        };
        let server = Server::builder()
            .config(cfg)
            .addr("127.0.0.1:0")
            .analyze(panicky)
            .start()
            .expect("start");
        let mut client = crate::Client::connect(server.local_addr()).expect("connect");
        let boom = client.vet_source(Some("bad"), "@panic").unwrap();
        assert_eq!(boom["verdict"], "error");
        assert!(
            boom["message"].as_str().unwrap_or("").contains("panicked"),
            "{boom:?}"
        );
        // The same (sole) worker must still answer the next request.
        let ok = client.vet_source(Some("good"), "var fine;").unwrap();
        assert_eq!(ok["verdict"], "ok");
        let snap = server.metrics_snapshot();
        let panics = snap
            .counters
            .iter()
            .find(|(n, _)| n == "serve_worker_panics")
            .map(|(_, v)| *v);
        assert_eq!(panics, Some(1));
        client.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn malformed_lines_get_error_responses_and_daemon_survives() {
        let server = stub_server(ServeConfig::default());
        let mut client = crate::Client::connect(server.local_addr()).expect("connect");
        let resp = client.raw_line("this is not json").unwrap();
        assert_eq!(resp["kind"], "error");
        let resp = client.raw_line(r#"{"kind":"frobnicate"}"#).unwrap();
        assert_eq!(resp["kind"], "error");
        let ok = client.vet_source(None, "still alive").unwrap();
        assert_eq!(ok["verdict"], "ok");
        let stats = client.stats().unwrap();
        assert_eq!(stats["jobs"]["protocol_errors"].as_f64(), Some(2.0));
        client.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn builder_refuses_half_configured_daemons() {
        assert!(Server::builder().addr("127.0.0.1:0").start().is_err());
        assert!(Server::builder().analyze(stub).start().is_err());
        assert!(Server::builder().stdio().analyze(stub).start().is_err());
    }
}

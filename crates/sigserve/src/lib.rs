//! `sigserve` — the vetting service daemon.
//!
//! The paper frames signature inference as a tool for addon-market
//! curators vetting a continuous stream of submissions. This crate is the
//! service layer around the analysis pipeline: a long-running daemon
//! that
//!
//! - accepts vetting jobs over a newline-delimited JSON protocol
//!   ([`protocol`]) on TCP or stdio, all served by one event loop
//!   ([`server`]),
//! - runs them through one **job core** ([`jobs`]): a bounded pending
//!   queue with backpressure (when it is full the submitter gets a typed
//!   `overloaded` response instead of unbounded latency), an in-flight
//!   index that coalesces identical concurrent submissions onto one
//!   analysis, and a **content-addressed LRU cache** ([`cache`]) keyed by
//!   FNV-1a of (source bytes, canonicalized analysis config),
//! - hands jobs to local worker threads and to remote workers that join
//!   over the same port (`vet serve --join`, [`worker`]); a remote worker
//!   that stops heartbeating is reaped and its jobs requeued, so a
//!   single daemon and a fleet are one system with different worker
//!   counts,
//! - survives pathological inputs by running every analysis under a
//!   configurable **step budget / wall-clock deadline** (the hooks live
//!   in `jsanalysis`); an exhausted budget produces a degraded
//!   `verdict:"timeout"` response while the worker stays alive, and
//! - reports what it is doing through one metrics registry ([`stats`]).
//!
//! The analysis pipeline itself is injected (see [`ServerBuilder`]) so this
//! crate depends only on `jsanalysis` (for configuration types),
//! `sigtrace` (timings and the metrics registry), `sigobs` (the event
//! log) and the in-tree `minijson`; the root `addon-sig` crate supplies
//! the real pipeline (`addon_sig::service_engine`) and the `vet serve` /
//! `vet --client` CLI entry points.
//!
//! # In-process example
//!
//! ```
//! use jsanalysis::AnalysisConfig;
//! use sigserve::{Client, MetricsRegistry, ServeConfig, Server, VetOutcome};
//! use sigserve::PhaseTimings;
//! use sigtrace::Trace;
//! use std::time::Duration;
//!
//! // A stub engine; real deployments pass `addon_sig::service_engine`.
//! fn analyze(
//!     _source: &str,
//!     _config: &AnalysisConfig,
//!     _metrics: &MetricsRegistry,
//!     _trace: Trace<'_>,
//! ) -> VetOutcome {
//!     VetOutcome::report(
//!         "{\n  \"flows\": []\n}".to_owned(),
//!         PhaseTimings::new(
//!             Duration::from_micros(10),
//!             Duration::from_micros(5),
//!             Duration::from_micros(1),
//!         ),
//!     )
//! }
//!
//! let server = Server::builder()
//!     .config(ServeConfig::default())
//!     .addr("127.0.0.1:0")
//!     .analyze(analyze)
//!     .start()?;
//! let mut client = Client::connect(server.local_addr())?;
//! let resp = client.vet_source(Some("tiny"), "var x = 1;")?;
//! assert_eq!(resp["verdict"], "ok");
//! let ack = client.shutdown()?;
//! assert_eq!(ack["kind"], "shutdown_ack");
//! server.join();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod conn;
pub mod jobs;
pub mod poller;
pub mod protocol;
pub mod server;
pub mod stats;
pub mod worker;

pub use cache::{cache_key, SigCache};
pub use client::Client;
pub use jobs::PIPELINE_STACK_BYTES;
pub use poller::Backend;
pub use protocol::{parse_request, Request, Source, VetItem};
pub use server::{ServeConfig, Server, ServerBuilder};
pub use stats::metrics_json;
pub use worker::{Worker, WorkerConfig};
/// Re-exported from `sigobs`: the structured event log `ServeConfig`
/// can attach so every job lifecycle lands in a JSONL stream, plus the
/// overload sampling policy it can run under.
pub use sigobs::{EventLog, Level, SamplePolicy};
/// Re-exported from `sigtrace`: the metrics registry every worker feeds,
/// the phase-timing triple `VetOutcome::Report` carries, and the per-job
/// cost profile outcomes can attach.
pub use sigtrace::{JobProfile, MetricsRegistry, MetricsSnapshot, PhaseTimings};

use minijson::Json;
use std::time::Duration;

/// What one run of the injected analysis pipeline produced.
///
/// The variants are `#[non_exhaustive]`: construct them through
/// [`VetOutcome::report`] / [`VetOutcome::timeout`] /
/// [`VetOutcome::error`], and let [`VetOutcome::core_json`] do the
/// protocol encoding, so the wire format lives in exactly one place.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum VetOutcome {
    /// The pipeline finished; `signature_json` is the exact document the
    /// CLI's `--json` mode prints (`Signature::to_json()`), so cached and
    /// fresh service responses reproduce the CLI's bytes.
    #[non_exhaustive]
    Report {
        /// The signature JSON document.
        signature_json: String,
        /// Per-phase wall times (the paper's Table 2 columns).
        timings: PhaseTimings,
        /// Per-job cost attribution, when the engine ran with it
        /// enabled. Never part of [`VetOutcome::core_json`] — the wire
        /// format and cache identity are profile-free; the daemon
        /// surfaces it through the `job_profile` log event instead.
        profile: Option<JobProfile>,
    },
    /// The analysis budget (step or wall-clock) was exhausted; the
    /// daemon reports `verdict:"timeout"` and keeps the worker.
    #[non_exhaustive]
    Timeout {
        /// Worklist steps executed when the budget tripped.
        steps: usize,
        /// Wall time spent in the fixpoint loop.
        elapsed: Duration,
        /// The hotspot postmortem: where the exhausted budget went.
        /// Present whenever the engine ran with attribution enabled
        /// (the daemon's engines always do), so every timeout verdict
        /// is explainable from the log alone.
        profile: Option<JobProfile>,
    },
    /// The pipeline failed (parse error, step-limit safety valve, ...).
    #[non_exhaustive]
    Error {
        /// Human-readable failure description.
        message: String,
    },
}

impl VetOutcome {
    /// A successful vetting: the signature document plus phase timings.
    pub fn report(signature_json: String, timings: PhaseTimings) -> VetOutcome {
        VetOutcome::Report {
            signature_json,
            timings,
            profile: None,
        }
    }

    /// [`VetOutcome::report`] carrying a per-job cost profile.
    pub fn report_profiled(
        signature_json: String,
        timings: PhaseTimings,
        profile: JobProfile,
    ) -> VetOutcome {
        VetOutcome::Report {
            signature_json,
            timings,
            profile: Some(profile),
        }
    }

    /// A budget-exhausted (degraded) vetting.
    pub fn timeout(steps: usize, elapsed: Duration) -> VetOutcome {
        VetOutcome::Timeout {
            steps,
            elapsed,
            profile: None,
        }
    }

    /// [`VetOutcome::timeout`] carrying the hotspot postmortem.
    pub fn timeout_profiled(steps: usize, elapsed: Duration, profile: JobProfile) -> VetOutcome {
        VetOutcome::Timeout {
            steps,
            elapsed,
            profile: Some(profile),
        }
    }

    /// The attached cost profile, if the engine recorded one.
    pub fn profile(&self) -> Option<&JobProfile> {
        match self {
            VetOutcome::Report { profile, .. } | VetOutcome::Timeout { profile, .. } => {
                profile.as_ref()
            }
            VetOutcome::Error { .. } => None,
        }
    }

    /// A failed vetting.
    pub fn error(message: impl Into<String>) -> VetOutcome {
        VetOutcome::Error {
            message: message.into(),
        }
    }

    /// The protocol "core" of this outcome: the verdict-bearing object
    /// cached and embedded into `vet_result` responses. This is the one
    /// place outcomes are encoded; the timing keys stay the flat
    /// `p1_us`/`p2_us`/`p3_us` the protocol has always used.
    pub fn core_json(&self) -> Json {
        let mut core = Json::obj();
        match self {
            VetOutcome::Report {
                signature_json,
                timings,
                ..
            } => {
                core.set("verdict", Json::from("ok"));
                core.set("p1_us", Json::from(timings.p1.as_micros() as f64));
                core.set("p2_us", Json::from(timings.p2.as_micros() as f64));
                core.set("p3_us", Json::from(timings.p3.as_micros() as f64));
                let sig = Json::parse(signature_json)
                    .unwrap_or_else(|_| Json::Str(signature_json.clone()));
                core.set("signature", sig);
            }
            VetOutcome::Timeout { steps, elapsed, .. } => {
                core.set("verdict", Json::from("timeout"));
                core.set("steps", Json::from(*steps as f64));
                core.set("elapsed_us", Json::from(elapsed.as_micros() as f64));
            }
            VetOutcome::Error { message } => {
                core.set("verdict", Json::from("error"));
                core.set("message", Json::from(message.as_str()));
            }
        }
        core
    }

    /// Whether this outcome may be served from cache on resubmission.
    /// Deadline-based timeouts are not cacheable: they depend on machine
    /// load, so a later identical submission deserves a fresh attempt,
    /// while step-budget timeouts are deterministic and cache fine.
    pub fn cacheable(&self, config: &jsanalysis::AnalysisConfig) -> bool {
        match self {
            VetOutcome::Report { .. } | VetOutcome::Error { .. } => true,
            VetOutcome::Timeout { steps, .. } => {
                // Deterministic iff the step budget (not the wall clock)
                // tripped.
                config.step_budget.is_some_and(|budget| *steps > budget)
            }
        }
    }
}

/// Renders a [`JobProfile`] as JSON: `total_steps`, the per-phase wall
/// times, and the `top` hottest attribution buckets. This is the one
/// encoding shared by the daemon's `job_profile` log event and
/// `vet profile --json`, so postmortems read identically everywhere.
/// (It lives here rather than in `sigtrace` because `sigtrace` is
/// deliberately dependency-free and `minijson` is a dependency.)
pub fn profile_json(profile: &JobProfile, top: usize) -> Json {
    let mut doc = Json::obj();
    doc.set("total_steps", Json::from(profile.total_steps as f64));
    let phases = profile
        .phases
        .iter()
        .map(|(phase, us)| {
            let mut p = Json::obj();
            p.set("phase", Json::from(phase.as_str()));
            p.set("us", Json::from(*us as f64));
            p
        })
        .collect();
    doc.set("phases", Json::Arr(phases));
    let hotspots = profile
        .top(top)
        .iter()
        .map(|cost| {
            let mut h = Json::obj();
            h.set("func", Json::from(cost.func.as_str()));
            h.set("ctx", Json::from(sigtrace::ctx_class_name(cost.ctx_class)));
            h.set("phase", Json::from(cost.phase.as_str()));
            h.set("steps", Json::from(cost.steps as f64));
            h.set("time_us", Json::from(cost.time_us as f64));
            h
        })
        .collect();
    doc.set("hotspots", Json::Arr(hotspots));
    doc
}

/// How many hotspot buckets a `job_profile` log event carries. Top-5
/// answers "where did the budget go" without bloating the JSONL stream
/// on large addons; `vet profile` renders the full table on demand.
pub const POSTMORTEM_TOP_K: usize = 5;

/// Logs `outcome`'s cost postmortem as a `job_profile` event, meant to
/// ride right after the job's `job_computed` record. Timeouts emit at
/// warn — a budget-exhausted verdict must be explainable from the JSONL
/// stream alone, under the default level — completed jobs at debug
/// (opt-in profiling of healthy traffic). No-op when the outcome
/// carries no profile.
pub(crate) fn log_job_profile(log: &sigobs::EventLog, job: &str, outcome: &VetOutcome) {
    let Some(profile) = outcome.profile() else {
        return;
    };
    let (level, verdict) = match outcome {
        VetOutcome::Timeout { .. } => (sigobs::Level::Warn, "timeout"),
        _ => (sigobs::Level::Debug, "ok"),
    };
    let doc = profile_json(profile, POSTMORTEM_TOP_K);
    let field = |key: &str| doc.get(key).cloned().unwrap_or(Json::Null);
    log.log(
        level,
        "job_profile",
        &[
            ("job", Json::from(job)),
            ("verdict", Json::from(verdict)),
            ("total_steps", field("total_steps")),
            ("phases", field("phases")),
            ("hotspots", field("hotspots")),
        ],
    );
}

/// Logs one job's `job_computed` record — the single encoding of that
/// event, so the replay validator sees one contract everywhere.
pub(crate) fn log_job_computed(log: &sigobs::EventLog, job: &str, outcome: &VetOutcome) {
    let mut fields: Vec<(&str, Json)> = vec![("job", Json::from(job))];
    let level = match outcome {
        VetOutcome::Report { timings, .. } => {
            fields.push(("verdict", Json::from("ok")));
            fields.push(("p1_us", Json::from(timings.p1.as_micros() as f64)));
            fields.push(("p2_us", Json::from(timings.p2.as_micros() as f64)));
            fields.push(("p3_us", Json::from(timings.p3.as_micros() as f64)));
            sigobs::Level::Info
        }
        VetOutcome::Timeout { steps, elapsed, .. } => {
            fields.push(("verdict", Json::from("timeout")));
            fields.push(("steps", Json::from(*steps as f64)));
            fields.push(("elapsed_us", Json::from(elapsed.as_micros() as f64)));
            sigobs::Level::Warn
        }
        VetOutcome::Error { message } => {
            fields.push(("verdict", Json::from("error")));
            fields.push(("message", Json::from(message.as_str())));
            sigobs::Level::Warn
        }
    };
    log.log(level, "job_computed", &fields);
}

/// The injected analysis pipeline: full vetting of one source under one
/// configuration, folding whatever it wants to expose (pipeline
/// counters, per-phase latencies) into the daemon's metrics registry,
/// and attaching the given [`sigtrace::Trace`] to the pipeline, so
/// per-phase spans land in the daemon's structured event log tagged with
/// the owning job's request ID. The daemon passes [`Trace::Off`] when no
/// log is attached (or its level is below debug), which an engine can
/// forward untouched at zero cost.
///
/// [`Trace::Off`]: sigtrace::Trace::Off
pub type AnalyzeJobFn = dyn for<'a> Fn(&str, &jsanalysis::AnalysisConfig, &MetricsRegistry, sigtrace::Trace<'a>) -> VetOutcome
    + Send
    + Sync;

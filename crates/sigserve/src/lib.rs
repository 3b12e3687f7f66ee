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
//! use sigtrace::{LayerTimes, Trace};
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
//!         LayerTimes::default(),
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
/// Re-exported from `sigobs`: the structured event log `ServeConfig`
/// can attach so every job lifecycle lands in a JSONL stream, plus the
/// overload sampling policy it can run under.
pub use sigobs::{EventLog, Level, SamplePolicy};
/// Re-exported from `sigtrace`: the metrics registry every worker feeds,
/// the per-layer timings `VetOutcome::Report` carries, and the per-job
/// cost profile outcomes can attach.
pub use sigtrace::{JobProfile, LayerTimes, MetricsRegistry, MetricsSnapshot};
pub use stats::metrics_json;
pub use worker::{Worker, WorkerConfig};

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
        /// Per-layer wall times (summed into the paper's Table 2 phases
        /// on the wire).
        timings: LayerTimes,
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
    /// A successful vetting: the signature document plus layer timings.
    pub fn report(signature_json: String, timings: LayerTimes) -> VetOutcome {
        VetOutcome::Report {
            signature_json,
            timings,
            profile: None,
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

    /// This outcome carrying `profile`, the per-job cost profile (the
    /// hotspot postmortem of a timeout). An error carries none.
    pub fn with_profile(mut self, profile: Option<JobProfile>) -> VetOutcome {
        if let VetOutcome::Report { profile: p, .. } | VetOutcome::Timeout { profile: p, .. } =
            &mut self
        {
            *p = profile;
        }
        self
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
    /// place outcomes are encoded: the verdict fields (shared with the
    /// `job_computed` log record), plus the signature of a completed
    /// vetting.
    pub fn core_json(&self) -> Json {
        let mut core = Json::obj();
        for (key, value) in self.verdict_fields() {
            core.set(key, value);
        }
        if let VetOutcome::Report { signature_json, .. } = self {
            let sig =
                Json::parse(signature_json).unwrap_or_else(|_| Json::Str(signature_json.clone()));
            core.set("signature", sig);
        }
        core
    }

    /// The verdict and what backs it, in wire order: a completed
    /// vetting's flat `p1_us`/`p2_us`/`p3_us` (the protocol's keys,
    /// each [`LayerTimes::phase`] of its paper phase), a timeout's
    /// steps and elapsed time, or an error's message. Shared by the
    /// `vet_result` core and the `job_computed` log record.
    fn verdict_fields(&self) -> Vec<(&'static str, Json)> {
        match self {
            VetOutcome::Report { timings, .. } => {
                let phases = [("p1_us", 1), ("p2_us", 2), ("p3_us", 3)]
                    .map(|(key, p)| (key, Json::from(timings.phase(p).as_micros() as f64)));
                std::iter::once(("verdict", Json::from("ok")))
                    .chain(phases)
                    .collect()
            }
            VetOutcome::Timeout { steps, elapsed, .. } => vec![
                ("verdict", Json::from("timeout")),
                ("steps", Json::from(*steps as f64)),
                ("elapsed_us", Json::from(elapsed.as_micros() as f64)),
            ],
            VetOutcome::Error { message } => vec![
                ("verdict", Json::from("error")),
                ("message", Json::from(message.as_str())),
            ],
        }
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

/// Renders a [`JobProfile`] as JSON: `total_steps`, the per-layer wall
/// times (`layers`, one `{"layer","us"}` entry per layer that ran), and
/// the `top` hottest attribution buckets. This is the one
/// encoding shared by the daemon's `job_profile` log event and
/// `vet profile --json`, so postmortems read identically everywhere.
/// (It lives here rather than in `sigtrace` because `sigtrace` is
/// deliberately dependency-free and `minijson` is a dependency.)
pub fn profile_json(profile: &JobProfile, top: usize) -> Json {
    let mut doc = Json::obj();
    doc.set("total_steps", Json::from(profile.total_steps as f64));
    let layers = profile
        .layers
        .iter()
        .map(|(layer, elapsed)| {
            let mut l = Json::obj();
            l.set("layer", Json::from(layer.name()));
            l.set("us", Json::from(elapsed.as_micros() as f64));
            l
        })
        .collect();
    doc.set("layers", Json::Arr(layers));
    let hotspots = profile
        .top(top)
        .iter()
        .map(|cost| {
            let mut h = Json::obj();
            h.set("func", Json::from(cost.func.as_str()));
            h.set("ctx", Json::from(sigtrace::ctx_class_name(cost.ctx_class)));
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
    let mut fields = vec![("job", Json::from(job)), ("verdict", Json::from(verdict))];
    let doc = profile_json(profile, POSTMORTEM_TOP_K);
    if let Json::Obj(pairs) = &doc {
        fields.extend(
            pairs
                .iter()
                .map(|(key, value)| (key.as_str(), value.clone())),
        );
    }
    log.log(level, "job_profile", &fields);
}

/// Logs one job's `job_computed` record — the single encoding of that
/// event, so the replay validator sees one contract everywhere.
pub(crate) fn log_job_computed(log: &sigobs::EventLog, job: &str, outcome: &VetOutcome) {
    let level = match outcome {
        VetOutcome::Report { .. } => sigobs::Level::Info,
        _ => sigobs::Level::Warn,
    };
    let mut fields = vec![("job", Json::from(job))];
    fields.extend(outcome.verdict_fields());
    log.log(level, "job_computed", &fields);
}

/// The injected analysis pipeline: full vetting of one source under one
/// configuration, folding whatever it wants to expose (pipeline
/// counters, per-layer latencies) into the daemon's metrics registry,
/// and attaching the given [`sigtrace::Trace`] to the pipeline, so
/// per-layer spans land in the daemon's structured event log tagged with
/// the owning job's request ID. The daemon passes [`Trace::Off`] when no
/// log is attached (or its level is below debug), which an engine can
/// forward untouched at zero cost.
///
/// [`Trace::Off`]: sigtrace::Trace::Off
pub type AnalyzeJobFn = dyn for<'a> Fn(
        &str,
        &jsanalysis::AnalysisConfig,
        &MetricsRegistry,
        sigtrace::Trace<'a>,
    ) -> VetOutcome
    + Send
    + Sync;

//! `vet` -- the command-line vetting tool.
//!
//! ```text
//! vet <addon.js> [--json] [--dot] [--explain] [--trace FILE]
//!     [--k <depth>] [--constant-strings]
//! vet --corpus [--json] [--sequential]
//! vet serve [--addr HOST:PORT | --stdio] [--workers N] [--cache-cap N]
//!           [--queue-cap N] [--step-budget N] [--deadline-ms N]
//!           [--idle-timeout-ms N] [--request-deadline-ms N]
//!           [--heartbeat-ms N] [--reap-ms N]
//!           [--k <depth>] [--constant-strings]
//!           [--log FILE] [--log-level LEVEL]
//!           [--log-sample N] [--log-sample-threshold R]
//!           [--metrics-dir DIR] [--metrics-interval-ms N]
//! vet serve --join HOST:PORT [--node NAME] [--workers N]
//!           [--step-budget N] [--deadline-ms N] [--k <depth>]
//!           [--constant-strings] [--log FILE] [--log-level LEVEL]
//! vet coordinate [vet serve flags except --stdio/--join/--node]
//! vet --client HOST:PORT [<addon.js>... | --stats | --metrics | --shutdown]
//! vet profile <addon.js> [--top N] [--json] [--k <depth>] [--constant-strings]
//!             [--step-budget N]
//! vet trace-job <job-id> --log FILE... [--out FILE]
//! vet metrics-report DIR [--gate RULES]
//! vet corpus-snapshot [--out FILE] [--k <depth>] [--constant-strings]
//!                     [--step-budget N]
//! vet corpus-diff OLD NEW
//! ```
//!
//! Analyzes a JavaScript addon and prints its inferred security
//! signature (or a JSON report with `--json`). `--explain` appends, per
//! reported flow, the PDG provenance path that justifies its flow type
//! as an annotated-source excerpt. `--trace FILE` writes a
//! `chrome://tracing` / Perfetto `trace_event` JSON profile of the run
//! (single-file mode only). `--corpus` runs the built-in benchmark
//! suite instead of a file, vetting the addons on parallel threads
//! (each addon's analysis is independent); output is buffered per addon
//! and printed in corpus order, so the report is byte-identical to a
//! sequential run. `--sequential` disables the thread pool. Exits
//! nonzero when the addon fails to parse or uses restricted
//! dynamic-code APIs.
//!
//! `serve` runs the long-lived vetting daemon (`sigserve`): a job queue
//! with backpressure, a content-addressed signature cache, in-flight
//! coalescing of identical submissions, local worker threads, and
//! per-analysis step/deadline budgets so one pathological addon cannot
//! wedge the service. The daemon runs the
//! configured analysis with triage on: an addon whose phase 1 proves no
//! flow can exist skips PDG construction, with a byte-identical
//! signature (counted in `pipeline_triaged`). `--log FILE` writes the
//! structured JSONL event log (every job lifecycle, keyed by request ID;
//! `--log-level debug` adds one pipeline span per layer); `--log-level`
//! alone keeps an in-memory log whose tail rides along in `stats`
//! responses; `--log-sample N` keeps the log overload-safe by degrading
//! the `job_rejected` stream to 1-in-N past `--log-sample-threshold R`
//! occurrences per second (drops are declared in counted `suppressed`
//! records the replay validator reconciles against), and a debug-level
//! log under sampling rate-limits the high-volume `span` stream at the
//! same rate.
//! `--metrics-dir DIR` snapshots the metrics registry into a bounded
//! on-disk ring every `--metrics-interval-ms` (default 5000), surviving
//! restarts; `vet metrics-report DIR --gate RULES` checks it.
//!
//! Remote workers join a TCP daemon with `serve --join ADDR`: each
//! claims jobs over the wire, analyzes them with the same engine and
//! budgets as a local worker, and posts completions back. A worker that
//! misses heartbeats (`--heartbeat-ms`, reaped after `--reap-ms`) is
//! reaped and its claimed jobs re-queued, so a worker killed mid-job
//! costs latency, never a lost job. `coordinate` is `serve` with no
//! local workers on port 7171 (queue 256, cache 4096): every job goes to
//! a remote worker. Per-node `--log` files merge into one valid
//! lifecycle replay (`sigobs::merge_fleet_logs`).
//!
//! `--client` speaks the daemon's NDJSON protocol:
//! each named file is vetted (source is read locally and sent inline)
//! and the response printed one JSON object per line; `--metrics`
//! prints the daemon's Prometheus text exposition.
//!
//! `profile <addon.js>` runs the pipeline with per-function cost
//! attribution enabled and prints the top-N hotspot table: which
//! `(function, context-class)` buckets the worklist spent its steps on.
//! The worklist order is pinned (RPO) so the table is deterministic —
//! byte-identical across FIFO/RPO configurations and thread counts —
//! and a budget-exhausted run prints the same table as a postmortem
//! instead of failing. `--json` prints the same document the daemon
//! logs as its `job_profile` event.
//!
//! `trace-job <job-id>` reconstructs one job's cross-node timeline
//! (enqueue → queue wait → claim → pipeline phases → respond, or the
//! job's cache hit, coalesce or rejection) from the structured JSONL
//! logs the daemon and fleet nodes wrote (`--log FILE` repeats, one per
//! node; node names come from the file stems) and writes a Chrome
//! `trace_event` document (`chrome://tracing`, Perfetto) with the job's
//! hotspot postmortem attached to the analyze slice. It draws the same
//! folded timeline `sigobs::replay::replay_log` validates.
//!
//! `metrics-report DIR` renders a metrics-history directory as counter
//! rates and latency percentiles over the recorded window (percentiles
//! are inclusive upper bounds of the log2 histogram buckets). With
//! `--gate RULES` it also evaluates a declarative alert-rules file
//! (counter-rate / gauge / cache-hit-ratio / histogram-percentile
//! thresholds) and exits nonzero when any rule fires — a health gate
//! with the same CI shape as `corpus-diff`.
//! `corpus-snapshot` analyzes the built-in corpus and writes a
//! drift-observatory snapshot (verdicts + signatures + order-independent
//! counters, keyed by analyzer version and config hash);
//! `corpus-diff OLD NEW` classifies what changed between two snapshots
//! and exits nonzero on signature-level drift (verdict flips, flow
//! additions/removals, flow-type transitions).

use jsanalysis::{AnalysisConfig, StringDomain};
use sigserve::{Client, ServeConfig};
use sigtrace::SpanCollector;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage:
  vet <addon.js> [--json] [--dot] [--explain] [--trace FILE] [--k <depth>]
      [--constant-strings]
  vet --corpus [--json] [--sequential]
  vet serve [--addr HOST:PORT | --stdio] [--workers N] [--cache-cap N]
            [--queue-cap N] [--step-budget N] [--deadline-ms N]
            [--idle-timeout-ms N] [--request-deadline-ms N]
            [--heartbeat-ms N] [--reap-ms N]
            [--k <depth>] [--constant-strings]
            [--log FILE] [--log-level error|warn|info|debug]
            [--log-sample N] [--log-sample-threshold R]
            [--metrics-dir DIR] [--metrics-interval-ms N]
  vet serve --join HOST:PORT [--node NAME] [--workers N]
            [--step-budget N] [--deadline-ms N] [--k <depth>]
            [--constant-strings] [--log FILE] [--log-level error|warn|info|debug]
  vet coordinate [vet serve flags except --stdio/--join/--node]
                 (vet serve --workers 0 on 127.0.0.1:7171, queue 256, cache 4096)
  vet --client HOST:PORT [<addon.js>... | --stats | --metrics | --shutdown]
  vet profile <addon.js> [--top N] [--json] [--k <depth>] [--constant-strings]
              [--step-budget N]
  vet trace-job <job-id> --log FILE... [--out FILE]
  vet metrics-report DIR [--gate RULES]
  vet corpus-snapshot [--out FILE] [--k <depth>] [--constant-strings]
                      [--step-budget N]
  vet corpus-diff OLD NEW";

struct Options {
    json: bool,
    dot: bool,
    explain: bool,
    corpus: bool,
    sequential: bool,
    context_depth: usize,
    string_domain: StringDomain,
    /// `--trace FILE`: write a Chrome `trace_event` profile of the run.
    trace: Option<String>,
    file: Option<String>,
}

/// `vet serve` / `vet coordinate` flags.
struct ServeOptions {
    /// `Some(addr)` for TCP, `None` for `--stdio`.
    addr: Option<String>,
    config: ServeConfig,
    /// `--log FILE`: structured JSONL event-log destination. `None`
    /// with a `log_level` set keeps an in-memory log (tail in `stats`).
    log_file: Option<String>,
    /// `--log-level`: `Some` turns logging on even without `--log`.
    log_level: Option<sigobs::Level>,
    /// `--log-sample N`: past the per-window threshold, keep 1-in-N
    /// records of each sampled stream (suppressed drops are counted).
    log_sample: Option<u64>,
    /// `--log-sample-threshold R`: full records per window before
    /// sampling kicks in (default 100).
    log_sample_threshold: Option<u64>,
    /// `--join ADDR`: worker mode — claim vet jobs from the daemon at
    /// ADDR instead of serving clients directly.
    join: Option<String>,
    /// `--node NAME`: worker identity in fleet logs (worker mode only;
    /// defaults to `worker-<pid>`).
    node: Option<String>,
}

/// What `vet --client` should ask the daemon.
enum ClientAction {
    Vet(Vec<String>),
    Stats,
    Metrics,
    Shutdown,
}

struct ClientOptions {
    addr: String,
    action: ClientAction,
}

enum Mode {
    /// `--help`: usage on stdout, exit 0.
    Help,
    Run(Options),
    Serve(Box<ServeOptions>),
    Client(ClientOptions),
    /// `vet profile <file>`: deterministic per-function cost-attribution
    /// hotspot table (or the daemon's `job_profile` JSON with `--json`).
    Profile {
        file: String,
        top: usize,
        json: bool,
        config: AnalysisConfig,
    },
    /// `vet trace-job <job-id> --log FILE...`: one job's cross-node
    /// Chrome-trace timeline from per-node JSONL logs.
    TraceJob {
        job: String,
        logs: Vec<String>,
        out: Option<String>,
    },
    /// `vet metrics-report DIR [--gate RULES]`: render a metrics-history
    /// ring; with `--gate`, also evaluate alert rules (nonzero exit on a
    /// violated threshold).
    MetricsReport {
        dir: String,
        gate: Option<String>,
    },
    /// `vet corpus-snapshot`: write a drift-observatory snapshot.
    CorpusSnapshot {
        out: Option<String>,
        config: AnalysisConfig,
    },
    /// `vet corpus-diff OLD NEW`: classify drift between snapshots.
    CorpusDiff { old: String, new: String },
}

fn parse_usize(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<usize, String> {
    let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("bad {flag} value: {v}"))
}

/// The flags a `--join` worker takes: the engine and its log. The
/// daemon it joins owns the socket, queue, cache, metrics and timings.
const WORKER_FLAGS: [&str; 9] = [
    "--join",
    "--node",
    "--workers",
    "--step-budget",
    "--deadline-ms",
    "--k",
    "--constant-strings",
    "--log",
    "--log-level",
];

fn parse_millis(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<Duration, String> {
    Ok(Duration::from_millis(parse_usize(args, flag)?.max(1) as u64))
}

/// `vet serve` arguments; with `coordinate`, the `vet coordinate` preset:
/// the same daemon with no local workers on port 7171, a 256-job queue
/// and a 4096-entry cache.
fn parse_serve_args(
    mut args: impl Iterator<Item = String>,
    coordinate: bool,
) -> Result<Mode, String> {
    let mut addr: Option<String> = None;
    let mut stdio = false;
    let mut config = ServeConfig::default();
    if coordinate {
        config.workers = 0;
        config.cache_cap = 4096;
    }
    let mut queue_cap: Option<usize> = None;
    let mut log_file: Option<String> = None;
    let mut log_level: Option<sigobs::Level> = None;
    let mut log_sample: Option<u64> = None;
    let mut log_sample_threshold: Option<u64> = None;
    let mut join: Option<String> = None;
    let mut node: Option<String> = None;
    let mut seen: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = Some(args.next().ok_or("--addr needs HOST:PORT")?),
            "--stdio" => stdio = true,
            "--join" => join = Some(args.next().ok_or("--join needs HOST:PORT")?),
            "--node" => node = Some(args.next().ok_or("--node needs a NAME")?),
            "--workers" => config.workers = parse_usize(&mut args, "--workers")?,
            "--cache-cap" => config.cache_cap = parse_usize(&mut args, "--cache-cap")?,
            "--queue-cap" => queue_cap = Some(parse_usize(&mut args, "--queue-cap")?.max(1)),
            "--step-budget" => {
                config.analysis.step_budget = Some(parse_usize(&mut args, "--step-budget")?)
            }
            "--deadline-ms" => {
                config.analysis.deadline =
                    Some(Duration::from_millis(parse_usize(&mut args, "--deadline-ms")? as u64))
            }
            "--idle-timeout-ms" => {
                config.idle_timeout = Some(parse_millis(&mut args, "--idle-timeout-ms")?)
            }
            "--request-deadline-ms" => {
                config.request_deadline = Some(parse_millis(&mut args, "--request-deadline-ms")?)
            }
            "--heartbeat-ms" => config.heartbeat = parse_millis(&mut args, "--heartbeat-ms")?,
            "--reap-ms" => config.reap_after = parse_millis(&mut args, "--reap-ms")?,
            "--k" => config.analysis.context_depth = parse_usize(&mut args, "--k")?,
            "--constant-strings" => config.analysis.string_domain = StringDomain::ConstantOnly,
            "--log" => log_file = Some(args.next().ok_or("--log needs a FILE")?),
            "--log-level" => {
                let v = args.next().ok_or("--log-level needs a level")?;
                log_level =
                    Some(sigobs::Level::parse(&v).ok_or_else(|| format!("bad log level: {v}"))?)
            }
            "--log-sample" => {
                log_sample = Some(parse_usize(&mut args, "--log-sample")?.max(1) as u64)
            }
            "--log-sample-threshold" => {
                log_sample_threshold =
                    Some(parse_usize(&mut args, "--log-sample-threshold")? as u64)
            }
            "--metrics-dir" => {
                config.metrics_dir =
                    Some(args.next().ok_or("--metrics-dir needs a DIR")?.into())
            }
            "--metrics-interval-ms" => {
                config.metrics_interval = parse_millis(&mut args, "--metrics-interval-ms")?
            }
            "--help" | "-h" => return Ok(Mode::Help),
            other if coordinate => return Err(format!("unknown coordinate flag: {other}")),
            other => return Err(format!("unknown serve flag: {other}")),
        }
        seen.push(arg);
    }
    if coordinate {
        if let Some(flag) = seen
            .iter()
            .find(|f| ["--stdio", "--join", "--node"].contains(&f.as_str()))
        {
            return Err(format!("{flag} is not a vet coordinate flag"));
        }
    }
    if stdio && addr.is_some() {
        return Err("--addr and --stdio are mutually exclusive".to_owned());
    }
    if join.is_some() {
        if let Some(flag) = seen.iter().find(|f| !WORKER_FLAGS.contains(&f.as_str())) {
            return Err(format!("{flag} is not available in --join worker mode"));
        }
    } else if node.is_some() {
        return Err("--node requires --join".to_owned());
    }
    // A reap window at or below the heartbeat interval reaps every
    // healthy worker between two beats.
    if config.reap_after <= config.heartbeat {
        return Err("--reap-ms must exceed --heartbeat-ms".to_owned());
    }
    if (log_sample.is_some() || log_sample_threshold.is_some())
        && log_file.is_none()
        && log_level.is_none()
    {
        return Err("--log-sample requires --log or --log-level".to_owned());
    }
    // The queue bound scales with the local pool; a daemon without one
    // queues for its remote workers.
    config.queue_cap = queue_cap.unwrap_or(match config.workers {
        0 => 256,
        n => n * 8,
    });
    let addr = if stdio {
        None
    } else {
        let default = if coordinate {
            "127.0.0.1:7171"
        } else {
            "127.0.0.1:7161"
        };
        Some(addr.unwrap_or_else(|| default.to_owned()))
    };
    Ok(Mode::Serve(Box::new(ServeOptions {
        addr,
        config,
        log_file,
        log_level,
        log_sample,
        log_sample_threshold,
        join,
        node,
    })))
}

/// `vet corpus-snapshot` / `vet corpus-diff` arguments.
fn parse_corpus_snapshot_args(mut args: impl Iterator<Item = String>) -> Result<Mode, String> {
    let mut out: Option<String> = None;
    let mut config = AnalysisConfig::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = Some(args.next().ok_or("--out needs a FILE")?),
            "--k" => config.context_depth = parse_usize(&mut args, "--k")?,
            "--constant-strings" => config.string_domain = StringDomain::ConstantOnly,
            "--step-budget" => {
                config.step_budget = Some(parse_usize(&mut args, "--step-budget")?)
            }
            "--help" | "-h" => return Ok(Mode::Help),
            other => return Err(format!("unknown corpus-snapshot flag: {other}")),
        }
    }
    Ok(Mode::CorpusSnapshot { out, config })
}

/// `vet profile` arguments.
fn parse_profile_args(mut args: impl Iterator<Item = String>) -> Result<Mode, String> {
    let mut file: Option<String> = None;
    let mut top = 10usize;
    let mut json = false;
    let mut config = AnalysisConfig::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--top" => top = parse_usize(&mut args, "--top")?.max(1),
            "--json" => json = true,
            "--k" => config.context_depth = parse_usize(&mut args, "--k")?,
            "--constant-strings" => config.string_domain = StringDomain::ConstantOnly,
            "--step-budget" => {
                config.step_budget = Some(parse_usize(&mut args, "--step-budget")?)
            }
            "--help" | "-h" => return Ok(Mode::Help),
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_owned()),
            other => return Err(format!("unknown profile flag: {other}")),
        }
    }
    let file = file.ok_or("profile needs an <addon.js> file")?;
    Ok(Mode::Profile {
        file,
        top,
        json,
        config,
    })
}

/// `vet trace-job` arguments.
fn parse_trace_job_args(mut args: impl Iterator<Item = String>) -> Result<Mode, String> {
    let mut job: Option<String> = None;
    let mut logs: Vec<String> = Vec::new();
    let mut out: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--log" => logs.push(args.next().ok_or("--log needs a FILE")?),
            "--out" => out = Some(args.next().ok_or("--out needs a FILE")?),
            "--help" | "-h" => return Ok(Mode::Help),
            other if !other.starts_with('-') && job.is_none() => job = Some(other.to_owned()),
            other => return Err(format!("unknown trace-job flag: {other}")),
        }
    }
    let job = job.ok_or("trace-job needs a <job-id>")?;
    if logs.is_empty() {
        return Err("trace-job needs at least one --log FILE".to_owned());
    }
    Ok(Mode::TraceJob { job, logs, out })
}

fn parse_client_args(mut args: impl Iterator<Item = String>) -> Result<Mode, String> {
    let addr = args.next().ok_or("--client needs HOST:PORT")?;
    let mut files = Vec::new();
    let mut action = None;
    for arg in args {
        match arg.as_str() {
            "--stats" => action = Some(ClientAction::Stats),
            "--metrics" => action = Some(ClientAction::Metrics),
            "--shutdown" => action = Some(ClientAction::Shutdown),
            "--help" | "-h" => return Ok(Mode::Help),
            other if !other.starts_with('-') => files.push(other.to_owned()),
            other => return Err(format!("unknown client flag: {other}")),
        }
    }
    let action = match action {
        Some(a) if files.is_empty() => a,
        Some(_) => return Err("--stats/--metrics/--shutdown take no files".to_owned()),
        None if files.is_empty() => {
            return Err(
                "--client needs files to vet, --stats, --metrics, or --shutdown".to_owned()
            )
        }
        None => ClientAction::Vet(files),
    };
    Ok(Mode::Client(ClientOptions { addr, action }))
}

fn parse_args() -> Result<Mode, String> {
    let mut opts = Options {
        json: false,
        dot: false,
        explain: false,
        corpus: false,
        sequential: false,
        context_depth: 1,
        string_domain: StringDomain::Prefix,
        trace: None,
        file: None,
    };
    let mut args = std::env::args().skip(1).peekable();
    // Subcommand-style modes are decided by the first argument.
    match args.peek().map(String::as_str) {
        Some("serve") => {
            args.next();
            return parse_serve_args(args, false);
        }
        Some("coordinate") => {
            args.next();
            return parse_serve_args(args, true);
        }
        Some("--client") => {
            args.next();
            return parse_client_args(args);
        }
        Some("profile") => {
            args.next();
            return parse_profile_args(args);
        }
        Some("trace-job") => {
            args.next();
            return parse_trace_job_args(args);
        }
        Some("metrics-report") => {
            args.next();
            let dir = args.next().ok_or("metrics-report needs a DIR")?;
            let mut gate = None;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--gate" => gate = Some(args.next().ok_or("--gate needs a RULES file")?),
                    "--help" | "-h" => return Ok(Mode::Help),
                    other => return Err(format!("unknown metrics-report flag: {other}")),
                }
            }
            return Ok(Mode::MetricsReport { dir, gate });
        }
        Some("corpus-snapshot") => {
            args.next();
            return parse_corpus_snapshot_args(args);
        }
        Some("corpus-diff") => {
            args.next();
            let old = args.next().ok_or("corpus-diff needs OLD and NEW files")?;
            let new = args.next().ok_or("corpus-diff needs OLD and NEW files")?;
            return Ok(Mode::CorpusDiff { old, new });
        }
        _ => {}
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--dot" => opts.dot = true,
            "--explain" => opts.explain = true,
            "--corpus" => opts.corpus = true,
            "--sequential" => opts.sequential = true,
            "--constant-strings" => opts.string_domain = StringDomain::ConstantOnly,
            "--k" => {
                let v = args.next().ok_or("--k needs a value")?;
                opts.context_depth = v.parse().map_err(|_| format!("bad depth: {v}"))?;
            }
            "--trace" => opts.trace = Some(args.next().ok_or("--trace needs a FILE")?),
            "--help" | "-h" => return Ok(Mode::Help),
            other if !other.starts_with('-') => opts.file = Some(other.to_owned()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if !opts.corpus && opts.file.is_none() {
        return Err("no input file (try --help)".to_owned());
    }
    if opts.corpus && opts.trace.is_some() {
        return Err("--trace is single-file only (corpus runs are parallel)".to_owned());
    }
    Ok(Mode::Run(opts))
}

/// Everything one addon's vetting produced, buffered so corpus mode can
/// run addons concurrently and still print deterministically.
struct VetOutcome {
    clean: bool,
    report: String,
    warnings: String,
}

fn vet_source(name: &str, source: &str, opts: &Options) -> Result<VetOutcome, String> {
    let config = AnalysisConfig::default()
        .with_context_depth(opts.context_depth)
        .with_string_domain(opts.string_domain);
    let pipeline = addon_sig::Pipeline::new().config(config);
    // `--trace` collects the run's spans and writes them as Chrome
    // trace_event JSON (single-file mode only, enforced at argument
    // parsing).
    let mut spans = opts.trace.as_ref().map(|_| SpanCollector::new());
    let result = match &mut spans {
        Some(c) => pipeline.tracer(c).run(source),
        None => pipeline.run(source),
    };
    let report = result.map_err(|e| format!("{name}: {e}"))?;
    if let (Some(path), Some(c)) = (&opts.trace, &spans) {
        std::fs::write(path, c.to_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    let mut out = String::new();
    if opts.json {
        writeln!(out, "{}", report.signature.to_json()).unwrap();
    } else if opts.dot {
        writeln!(out, "{}", jspdg::pdg_to_dot(&report.lowered.program, &report.pdg)).unwrap();
    } else {
        writeln!(out, "=== {name} ===").unwrap();
        if report.signature.is_empty() {
            writeln!(out, "  (no interesting flows, sinks, or API uses)").unwrap();
        } else {
            write!(out, "{}", report.signature).unwrap();
        }
        writeln!(
            out,
            "  [P1 {:?}, P2 {:?}, P3 {:?}; {} PDG edges]",
            report.timings.phase(1),
            report.timings.phase(2),
            report.timings.phase(3),
            report.pdg.edge_count()
        )
        .unwrap();
        if opts.explain {
            explain_flows(&report, &mut out);
        }
    }
    // Restricted dynamic-code APIs are grounds for rejection (Section 2).
    let dynamic_code = report
        .signature
        .apis
        .iter()
        .any(|a| a == "eval" || a == "Function" || a == "setTimeout$string");
    let mut warnings = String::new();
    if dynamic_code {
        writeln!(warnings, "{name}: uses restricted dynamic-code APIs").unwrap();
    }
    Ok(VetOutcome {
        clean: !dynamic_code,
        report: out,
        warnings,
    })
}

/// Appends each reported flow's recorded PDG provenance — the path the
/// propagation actually took when it first established the flow's type —
/// as an annotated-source excerpt.
fn explain_flows(report: &addon_sig::Report, out: &mut String) {
    for (entry, path) in &report.signature.provenance {
        writeln!(out, "  explain {entry}:").unwrap();
        for step in path {
            let text = jsir::pretty::stmt_to_string(&report.lowered.program, step.stmt);
            match step.edge {
                Some(a) => {
                    writeln!(out, "    L{:<4} {text}  --[{a}]-->", step.line).unwrap()
                }
                None => writeln!(out, "    L{:<4} {text}", step.line).unwrap(),
            }
        }
    }
}

/// Vets every corpus addon, concurrently unless `--sequential`, and
/// prints the buffered outcomes in corpus order.
fn vet_corpus(opts: &Options) -> bool {
    let addons = corpus::addons();
    let outcomes: Vec<Result<VetOutcome, String>> = if opts.sequential {
        addons
            .iter()
            .map(|a| vet_source(a.name, a.source, opts))
            .collect()
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = addons
                .iter()
                .map(|a| s.spawn(move || vet_source(a.name, a.source, opts)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("vet worker panicked"))
                .collect()
        })
    };
    let mut ok = true;
    for outcome in outcomes {
        match outcome {
            Ok(o) => {
                print!("{}", o.report);
                eprint!("{}", o.warnings);
                ok &= o.clean;
            }
            Err(e) => {
                eprintln!("{e}");
                ok = false;
            }
        }
    }
    ok
}

/// Opens the event log `--log` / `--log-level` ask for, under the
/// `--log-sample` policy: under overload, the sampled event streams
/// degrade to 1-in-N with counted `suppressed` records instead of
/// amplifying the overload with one log write per shed job.
fn open_log(opts: &ServeOptions) -> Result<Option<std::sync::Arc<sigobs::EventLog>>, String> {
    let level = opts.log_level.unwrap_or(sigobs::Level::Info);
    let log = match &opts.log_file {
        Some(path) => sigobs::EventLog::to_file(path, level).map_err(|e| format!("{path}: {e}"))?,
        // `--log-level` without `--log`: in-memory log, tail in `stats`.
        None if opts.log_level.is_some() => sigobs::EventLog::in_memory(level),
        None => return Ok(None),
    };
    if opts.log_sample.is_none() && opts.log_sample_threshold.is_none() {
        return Ok(Some(std::sync::Arc::new(log)));
    }
    let default = sigobs::SamplePolicy::default();
    let mut policy = sigobs::SamplePolicy {
        threshold: opts.log_sample_threshold.unwrap_or(default.threshold),
        keep_one_in: opts.log_sample.unwrap_or(default.keep_one_in),
        ..default
    };
    // A debug-level log under sampling also rate-limits the high-volume
    // per-layer span stream.
    if level == sigobs::Level::Debug {
        policy.events.push("span".to_owned());
    }
    Ok(Some(std::sync::Arc::new(log.with_sampling(policy))))
}

/// Runs the vetting daemon until a `shutdown` request (TCP) or stdin EOF
/// (`--stdio`); with `--join`, runs a remote worker instead.
fn run_serve(mut opts: ServeOptions) -> Result<(), String> {
    let log = open_log(&opts)?;
    if let Some(daemon) = opts.join.take() {
        return run_worker(opts, daemon, log);
    }
    // An operator-facing daemon dumps its metrics registry on shutdown;
    // embedded servers (tests, benches) keep the default quiet exit.
    opts.config.dump_metrics_on_shutdown = true;
    opts.config.log = log;
    let builder = sigserve::Server::builder()
        .config(opts.config)
        .analyze(addon_sig::service_engine);
    match opts.addr {
        Some(addr) => {
            let server = builder
                .addr(&addr)
                .start()
                .map_err(|e| format!("bind {addr}: {e}"))?;
            eprintln!("sigserve listening on {}", server.local_addr());
            server.join(); // returns after a shutdown request
            Ok(())
        }
        None => builder
            .stdio()
            .run()
            .map_err(|e| format!("stdio serve: {e}")),
    }
}

/// Joins the daemon at `daemon` as a remote worker: claims vet jobs
/// over the NDJSON protocol, analyzes them locally (same engine and
/// budgets as a local worker), and posts completions back. Runs until
/// the daemon shuts down or the connection drops.
fn run_worker(
    opts: ServeOptions,
    daemon: String,
    log: Option<std::sync::Arc<sigobs::EventLog>>,
) -> Result<(), String> {
    let mut cfg = sigserve::WorkerConfig::new(daemon.clone());
    cfg.node = opts
        .node
        .unwrap_or_else(|| format!("worker-{}", std::process::id()));
    cfg.threads = opts.config.workers;
    cfg.analysis = opts.config.analysis;
    cfg.log = log;
    let worker = sigserve::Worker::join_fleet(cfg, addon_sig::service_engine)
        .map_err(|e| format!("join {daemon}: {e}"))?;
    eprintln!("sigserve worker {} joined {daemon}", worker.id());
    worker.join(); // returns at daemon shutdown or a dropped connection
    Ok(())
}

/// Speaks the NDJSON protocol to a running daemon; prints one compact
/// JSON response per line. Files are read locally and sent inline, so
/// the daemon need not share a filesystem with the client.
fn run_client(opts: ClientOptions) -> Result<bool, String> {
    let mut client =
        Client::connect(&opts.addr).map_err(|e| format!("connect {}: {e}", opts.addr))?;
    let mut ok = true;
    match opts.action {
        ClientAction::Vet(files) => {
            for path in files {
                let source =
                    std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
                let resp = client
                    .vet_source(Some(&path), &source)
                    .map_err(|e| format!("{path}: {e}"))?;
                println!("{}", resp.to_string_compact());
                ok &= resp["verdict"] == "ok";
            }
        }
        ClientAction::Stats => {
            let resp = client.stats().map_err(|e| e.to_string())?;
            println!("{}", resp.to_string_compact());
        }
        ClientAction::Metrics => {
            // Print the Prometheus text body itself (not the JSON
            // envelope): the output pastes straight into scrape tooling.
            let resp = client.metrics().map_err(|e| e.to_string())?;
            match resp["prometheus"].as_str() {
                Some(text) => print!("{text}"),
                None => return Err(format!("bad metrics response: {}", resp.to_string_compact())),
            }
        }
        ClientAction::Shutdown => {
            let resp = client.shutdown().map_err(|e| e.to_string())?;
            println!("{}", resp.to_string_compact());
        }
    }
    Ok(ok)
}

/// `vet profile <file>`: runs the pipeline with cost attribution on
/// (worklist order pinned to RPO — see [`addon_sig::profile_addon`])
/// and prints the deterministic hotspot table, or the daemon's
/// `job_profile` JSON document with `--json`. A budget-exhausted run is
/// not a failure here: the table *is* the postmortem.
fn run_profile(file: &str, top: usize, json: bool, config: &AnalysisConfig) -> Result<(), String> {
    let source = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let profile = addon_sig::profile_addon(&source, config).map_err(|e| format!("{file}: {e}"))?;
    if json {
        println!(
            "{}",
            sigserve::profile_json(&profile, top).to_string_pretty()
        );
    } else {
        print!("{}", profile.render_table(top));
    }
    Ok(())
}

/// `vet trace-job <job-id>`: merges the per-node JSONL logs (node name
/// = file stem) causally, folds the job's lifecycle, and writes its
/// Chrome trace document to `--out` (or stdout).
fn run_trace_job(job: &str, logs: &[String], out: Option<&str>) -> Result<(), String> {
    let mut bodies: Vec<(String, String)> = Vec::new();
    for path in logs {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let node = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(path.as_str())
            .to_owned();
        bodies.push((node, text));
    }
    let pairs: Vec<(&str, &str)> = bodies
        .iter()
        .map(|(n, t)| (n.as_str(), t.as_str()))
        .collect();
    let merged = sigobs::merge_fleet_logs(&pairs)?;
    let trace = sigobs::job_chrome_trace(&merged, job)?;
    match out {
        Some(path) => {
            std::fs::write(path, trace.as_bytes()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {path} (load it at chrome://tracing or in Perfetto)");
            Ok(())
        }
        None => {
            println!("{trace}");
            Ok(())
        }
    }
}

/// Renders a metrics-history directory (`vet serve --metrics-dir`) as
/// counter rates over the recorded window plus latency percentiles from
/// the newest snapshot. With a `--gate RULES` file, also evaluates the
/// alert rules and returns whether the gate passed.
fn run_metrics_report(dir: &str, gate: Option<&str>) -> Result<bool, String> {
    let records = sigobs::MetricsHistory::load(dir).map_err(|e| format!("{dir}: {e}"))?;
    let (Some(first), Some(last)) = (records.first(), records.last()) else {
        return Err(format!("{dir}: no metrics snapshots"));
    };
    let span_ms = last.unix_ms.saturating_sub(first.unix_ms);
    let span_s = span_ms as f64 / 1000.0;
    println!(
        "metrics history: {} snapshots over {:.1}s (seq {}..{})",
        records.len(),
        span_s,
        first.seq,
        last.seq
    );
    println!("\ncounters (window delta and rate):");
    let first_counters: std::collections::BTreeMap<&str, u64> = first
        .snapshot
        .counters
        .iter()
        .map(|(n, v)| (n.as_str(), *v))
        .collect();
    for (name, end) in &last.snapshot.counters {
        let start = first_counters.get(name.as_str()).copied().unwrap_or(0);
        let delta = end.saturating_sub(start);
        if span_s > 0.0 {
            println!("  {name:<32} {end:>10}  (+{delta}, {:.2}/s)", delta as f64 / span_s);
        } else {
            println!("  {name:<32} {end:>10}  (+{delta})");
        }
    }
    // Percentiles are inclusive upper bounds of log2 buckets (within 2x
    // of the true quantile; exact when one value dominates) — hence the
    // "<=" rendering below.
    println!("\nhistograms (newest snapshot; percentiles are inclusive log2-bucket upper bounds):");
    for h in &last.snapshot.histograms {
        let mean = h.sum.checked_div(h.count).unwrap_or(0);
        let pct = |q: f64| {
            h.percentile(q)
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".to_owned())
        };
        println!(
            "  {:<32} count={} mean={} p50<={} p90<={} p99<={}",
            h.name,
            h.count,
            mean,
            pct(0.50),
            pct(0.90),
            pct(0.99)
        );
    }
    // Window view: newest snapshot minus oldest, so the percentiles
    // describe what happened *during* the recorded window rather than
    // since daemon start. Reading `serve_queue_wait_us` against
    // `serve_vet_us` here answers whether latency came from queueing or
    // from analysis.
    let first_hists: std::collections::BTreeMap<&str, &sigtrace::HistogramSnapshot> = first
        .snapshot
        .histograms
        .iter()
        .map(|h| (h.name.as_str(), h))
        .collect();
    println!("\nhistograms (window delta: newest minus oldest snapshot):");
    if records.len() < 2 {
        println!("  (single snapshot: no window yet)");
    }
    for h in &last.snapshot.histograms {
        let mut delta = h.clone();
        if let Some(start) = first_hists.get(h.name.as_str()) {
            delta.count = h.count.saturating_sub(start.count);
            delta.sum = h.sum.saturating_sub(start.sum);
            for (d, s) in delta.buckets.iter_mut().zip(start.buckets.iter()) {
                *d = d.saturating_sub(*s);
            }
        }
        if delta.count == 0 {
            continue;
        }
        let mean = delta.sum / delta.count;
        let pct = |q: f64| {
            delta
                .percentile(q)
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".to_owned())
        };
        println!(
            "  {:<32} count={} mean={} p50<={} p99<={}",
            delta.name,
            delta.count,
            mean,
            pct(0.50),
            pct(0.99)
        );
    }
    let Some(rules_path) = gate else {
        return Ok(true);
    };
    let text =
        std::fs::read_to_string(rules_path).map_err(|e| format!("{rules_path}: {e}"))?;
    let rules =
        sigobs::alerts::parse_rules(&text).map_err(|e| format!("{rules_path}: {e}"))?;
    let report = sigobs::alerts::evaluate(&rules, &records);
    println!();
    print!("{report}");
    Ok(report.passed())
}

/// Analyzes the corpus and writes the drift-observatory snapshot to
/// `--out FILE` (or stdout).
fn run_corpus_snapshot(out: Option<&str>, config: &AnalysisConfig) -> Result<(), String> {
    let snap = addon_sig::drift::snapshot_corpus(config);
    let doc = snap.to_string_pretty();
    match out {
        Some(path) => std::fs::write(path, doc + "\n").map_err(|e| format!("{path}: {e}")),
        None => {
            println!("{doc}");
            Ok(())
        }
    }
}

/// Diffs two snapshots; prints the machine-readable report and returns
/// whether the corpus is drift-free (signature-level).
fn run_corpus_diff(old: &str, new: &str) -> Result<bool, String> {
    let read = |path: &str| -> Result<minijson::Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        minijson::Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let report = addon_sig::drift::diff_snapshots(&read(old)?, &read(new)?)?;
    println!("{}", report.to_json().to_string_pretty());
    Ok(!report.has_signature_drift())
}

/// A subcommand's exit status: `Ok(false)` is a verdict (drift found, a
/// health gate violated, a failed vet) already printed, an `Err` is
/// printed here; both exit nonzero.
fn exit_code(result: Result<bool, String>) -> ExitCode {
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mode = match parse_args() {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let done = |result: Result<(), String>| exit_code(result.map(|()| true));
    let opts = match mode {
        // Asked-for usage goes to stdout and exits 0; only actual
        // argument errors (above) are failures.
        Mode::Help => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Mode::Serve(serve_opts) => return done(run_serve(*serve_opts)),
        Mode::Client(client_opts) => return exit_code(run_client(client_opts)),
        Mode::Profile {
            file,
            top,
            json,
            config,
        } => return done(run_profile(&file, top, json, &config)),
        Mode::TraceJob { job, logs, out } => {
            return done(run_trace_job(&job, &logs, out.as_deref()))
        }
        Mode::MetricsReport { dir, gate } => {
            return exit_code(run_metrics_report(&dir, gate.as_deref()))
        }
        Mode::CorpusSnapshot { out, config } => {
            return done(run_corpus_snapshot(out.as_deref(), &config))
        }
        Mode::CorpusDiff { old, new } => return exit_code(run_corpus_diff(&old, &new)),
        Mode::Run(opts) => opts,
    };
    let ok = if opts.corpus {
        vet_corpus(&opts)
    } else {
        let path = opts.file.clone().expect("checked in parse_args");
        let source = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match vet_source(&path, &source, &opts) {
            Ok(o) => {
                print!("{}", o.report);
                eprint!("{}", o.warnings);
                o.clean
            }
            Err(e) => {
                eprintln!("{e}");
                false
            }
        }
    };
    exit_code(Ok(ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> impl Iterator<Item = String> {
        args.iter()
            .map(|s| (*s).to_owned())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn serve_join_parses_worker_mode() {
        let mode = parse_serve_args(
            argv(&[
            "--join",
            "127.0.0.1:7171",
            "--node",
            "rack-3",
            "--workers",
            "4",
            ]),
            false,
        )
        .expect("worker mode parses");
        let Mode::Serve(opts) = mode else {
            panic!("expected serve mode")
        };
        assert_eq!(opts.join.as_deref(), Some("127.0.0.1:7171"));
        assert_eq!(opts.node.as_deref(), Some("rack-3"));
        assert_eq!(opts.config.workers, 4);
    }

    #[test]
    fn join_conflicts_are_rejected() {
        for args in [
            &["--join", "a:1", "--stdio"][..],
            &["--join", "a:1", "--addr", "b:2"],
            &["--join", "a:1", "--queue-cap", "4"],
            &["--join", "a:1", "--metrics-dir", "/tmp/x"],
            &["--join", "a:1", "--cache-cap", "64"], // a worker has no cache
            &["--join", "a:1", "--reap-ms", "9000"], // the daemon governs timings
            &["--node", "n"], // --node without --join
        ] {
            assert!(
                parse_serve_args(argv(args), false).is_err(),
                "{args:?} should fail"
            );
        }
    }

    #[test]
    fn service_modes_triage_at_the_configured_depth() {
        // The daemon, a remote worker and the coordinator all run the
        // configured analysis with triage on; the one-shot CLI keeps it
        // off because `--dot`/`--explain` and the phase times need the PDG.
        for args in [&["--k", "2"][..], &["--join", "a:1", "--k", "2"]] {
            let Mode::Serve(opts) = parse_serve_args(argv(args), false).expect("serve parses")
            else {
                panic!("expected serve mode")
            };
            assert!(opts.config.analysis.triage, "{args:?}");
            assert_eq!(opts.config.analysis.context_depth, 2, "{args:?}");
        }
        let Mode::Serve(opts) = parse_serve_args(argv(&[]), true).expect("defaults") else {
            panic!("expected serve mode")
        };
        assert!(opts.config.analysis.triage);
        assert!(sigserve::WorkerConfig::new("a:1").analysis.triage);
    }

    #[test]
    fn coordinate_defaults_and_flags_parse() {
        // `vet coordinate` is `vet serve` with no local workers on the
        // fleet's port and bounds.
        let Mode::Serve(opts) = parse_serve_args(argv(&[]), true).expect("defaults") else {
            panic!("expected serve mode")
        };
        assert_eq!(opts.addr.as_deref(), Some("127.0.0.1:7171"));
        assert_eq!(opts.config.workers, 0);
        assert_eq!(opts.config.queue_cap, 256);
        assert_eq!(opts.config.cache_cap, 4096);
        let Mode::Serve(opts) = parse_serve_args(
            argv(&[
                "--addr",
                "0.0.0.0:9000",
                "--heartbeat-ms",
                "100",
                "--reap-ms",
                "400",
                "--cache-cap",
                "64",
            ]),
            true,
        )
        .expect("flags parse") else {
            panic!("expected serve mode")
        };
        assert_eq!(opts.addr.as_deref(), Some("0.0.0.0:9000"));
        assert_eq!(opts.config.cache_cap, 64);
        assert_eq!(opts.config.heartbeat, Duration::from_millis(100));
        assert_eq!(opts.config.reap_after, Duration::from_millis(400));
        for args in [&["--stdio"][..], &["--join", "a:1"], &["--slots", "16"]] {
            assert!(
                parse_serve_args(argv(args), true).is_err(),
                "{args:?} should fail"
            );
        }
    }

    #[test]
    fn coordinate_rejects_reap_within_heartbeat() {
        for coordinate in [true, false] {
            match parse_serve_args(
                argv(&["--heartbeat-ms", "500", "--reap-ms", "500"]),
                coordinate,
            ) {
                Err(err) => assert!(err.contains("--reap-ms"), "{err}"),
                Ok(_) => panic!("reap <= heartbeat should be rejected"),
            }
        }
    }

    #[test]
    fn profile_args_parse() {
        let Mode::Profile {
            file,
            top,
            json,
            config,
        } = parse_profile_args(argv(&["a.js", "--top", "3", "--json", "--step-budget", "500"]))
            .expect("profile parses")
        else {
            panic!("expected profile mode")
        };
        assert_eq!(file, "a.js");
        assert_eq!(top, 3);
        assert!(json);
        assert_eq!(config.step_budget, Some(500));
        assert!(parse_profile_args(argv(&[])).is_err(), "file is required");
        assert!(parse_profile_args(argv(&["a.js", "--bogus"])).is_err());
    }

    #[test]
    fn trace_job_args_parse() {
        let Mode::TraceJob { job, logs, out } = parse_trace_job_args(argv(&[
            "j-42", "--log", "coord.jsonl", "--log", "w0.jsonl", "--out", "t.json",
        ]))
        .expect("trace-job parses")
        else {
            panic!("expected trace-job mode")
        };
        assert_eq!(job, "j-42");
        assert_eq!(logs, ["coord.jsonl", "w0.jsonl"]);
        assert_eq!(out.as_deref(), Some("t.json"));
        assert!(
            parse_trace_job_args(argv(&["j-1"])).is_err(),
            "at least one --log required"
        );
        assert!(parse_trace_job_args(argv(&["--log", "x"])).is_err(), "job id required");
    }

    #[test]
    fn help_goes_to_help_mode_for_fleet_subcommands() {
        assert!(matches!(
            parse_serve_args(argv(&["--help"]), true),
            Ok(Mode::Help)
        ));
        assert!(matches!(
            parse_serve_args(argv(&["--join", "a:1", "--help"]), false),
            Ok(Mode::Help)
        ));
        assert!(parse_serve_args(argv(&["--bogus"]), true).is_err());
    }
}

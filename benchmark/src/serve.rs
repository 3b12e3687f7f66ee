//! The daemon workload, `serve_cold`, driving the shipped `vet serve`
//! binary as a child process over loopback TCP.
//!
//! Every response is checked: a `vet_result` with verdict `ok`, not
//! served from the cache, and a signature byte-equal to
//! `Signature::to_json()` of the facade for the same base source
//! (comments and edits are appended, so they move no line and change no
//! signature).
//!
//! The traced run drives the daemon for part of the run, for its
//! counters and the client's view of each job, then replays the same
//! sources through the pipeline's layer functions and the same request
//! lines through the daemon's request-path functions, in-process.

use crate::daemon::{histogram, stat, vet_line, Daemon};
use crate::gauge::Gauge;
use crate::inputs::{self, Input};
use crate::metrics::{json_list, Outcome};
use crate::oracle::Oracle;
use crate::stats::{bucket_quantile, median, percentile, sorted};
use crate::trace::{self, Tracer};
use minijson::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Daemons started and stopped one after another before the measured
/// one, so `setup_s` is the median of 16 start-ups. (Probes taken
/// between parts of the closed loop start with caches the load left
/// cold and read 20–40% slower.)
const SETUP_PROBES: usize = 15;
/// Cycles generated per second of the run, more than twice what the
/// reference machine completes; a run uses what it reaches.
const CYCLES_PER_S: f64 = 1.0;
/// A cache smaller than the jobs a run reaches, so every run also
/// exercises eviction, traced runs too: the daemon phase of a 30-second
/// traced run completed 181 jobs in a slow spell.
const DAEMON_ARGS: [&str; 2] = ["--cache-cap", "128"];
/// Share of a traced run that drives the daemon.
const TRACED_DAEMON_SHARE: f64 = 0.4;
/// Share of a traced run after which the pipeline replay starts no
/// further cycle.
const TRACED_REPLAY_SHARE: f64 = 0.3;

/// The signature bytes each input must come back with.
struct Expected {
    per_base: Vec<String>,
    empty: String,
}

impl Expected {
    /// Vets every base once through the facade, checking each against
    /// its hand-written reference.
    fn new(out: &mut Outcome, bases: &[Input]) -> Expected {
        let oracle = Oracle::new();
        let per_base = bases
            .iter()
            .map(|b| match addon_sig::analyze_addon(&b.source) {
                Ok(r) => {
                    out.check(
                        oracle
                            .check(&r.signature, &b.expect)
                            .map_err(|e| format!("{}: {e}", b.name)),
                    );
                    r.signature.to_json()
                }
                Err(e) => {
                    out.check(Err(format!("{}: {e}", b.name)));
                    String::new()
                }
            })
            .collect();
        Expected {
            per_base,
            empty: jssig::Signature::new().to_json(),
        }
    }

    /// Variants reproduce their base; generated flow-free shapes have no
    /// flow, sink or API at all.
    fn of(&self, input: &Input) -> &str {
        match input.base {
            Some(b) => &self.per_base[b],
            None => &self.empty,
        }
    }
}

fn check_response(line: &str, expected: &str) -> Result<(), String> {
    let resp = Json::parse(line).map_err(|e| format!("unparsable response: {e}"))?;
    let short = || line.chars().take(160).collect::<String>();
    if resp["kind"] != "vet_result" || resp["verdict"] != "ok" {
        return Err(format!("failed response: {}", short()));
    }
    if resp["cached"] != Json::Bool(false) {
        return Err(format!(
            "a never-seen job was served from the cache: {}",
            short()
        ));
    }
    if resp["signature"].to_string_pretty() != expected {
        return Err(format!("signature differs from the facade's: {}", short()));
    }
    Ok(())
}

/// Starts and stops `n` daemons one after another; returns their
/// start-up times in seconds.
fn probe_daemons(n: usize) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let d = Daemon::spawn(&DAEMON_ARGS)?;
            let ready = d.ready.as_secs_f64();
            d.shutdown()?;
            Ok(ready)
        })
        .collect()
}

/// Counter deltas of the daemon over the timed phase.
struct Counters {
    hits: f64,
    misses: f64,
    evictions: f64,
    rejected: f64,
    sheds: f64,
    queue_wait: Vec<(Option<f64>, f64)>,
    vet_us: Vec<(Option<f64>, f64)>,
}

impl Counters {
    fn between(before: &Json, after: &Json) -> Counters {
        let d = |g: &str, n: &str| stat(after, g, n) - stat(before, g, n);
        let hist = |name: &str| {
            let old = histogram(before, name);
            histogram(after, name)
                .into_iter()
                .map(|(limit, count)| {
                    let was = old
                        .iter()
                        .find(|(l, _)| *l == limit)
                        .map_or(0.0, |(_, c)| *c);
                    (limit, count - was)
                })
                .collect()
        };
        Counters {
            hits: d("cache", "hits"),
            misses: d("cache", "misses"),
            evictions: d("cache", "evictions"),
            rejected: d("jobs", "rejected"),
            sheds: d("conns", "backpressure_sheds"),
            queue_wait: hist("serve_queue_wait_us"),
            vet_us: hist("serve_vet_us"),
        }
    }

    fn record(&self, out: &mut Outcome) {
        out.set("sigserve.cache.evictions", self.evictions);
        out.set("sigserve.jobs.rejected", self.rejected);
        out.set("sigserve.conn.backpressure_sheds", self.sheds);
    }

    /// The counters, plus the daemon's queue-wait and vet-time quantiles
    /// as the upper bounds of their log₂ buckets: too coarse to show a
    /// change of less than double, so they are diagnostics, not metrics.
    fn json(&self) -> Json {
        let mut o = Json::obj();
        o.set("hits", Json::from(self.hits));
        o.set("misses", Json::from(self.misses));
        o.set("evictions", Json::from(self.evictions));
        o.set("rejected", Json::from(self.rejected));
        o.set("backpressure_sheds", Json::from(self.sheds));
        for (key, hist, p) in [
            ("queue_wait_us_p50", &self.queue_wait, 0.5),
            ("queue_wait_us_p99", &self.queue_wait, 0.99),
            ("vet_us_p50", &self.vet_us, 0.5),
        ] {
            o.set(key, Json::from(bucket_quantile(hist, p)));
        }
        o
    }
}

/// One job as its client saw it.
struct Finished {
    job: usize,
    /// Round trip, milliseconds.
    ms: f64,
    /// The gauge's time right after the response, with the daemon idle.
    gauge_ms: f64,
    resp: Result<(), String>,
}

pub fn cold(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let bases = inputs::bases();
    let cycles = (seconds * CYCLES_PER_S).ceil() as usize;
    let jobs = inputs::cold_jobs(seed, &bases, cycles);
    let expected = Expected::new(&mut out, &bases);
    let lines: Vec<Vec<u8>> = jobs.iter().map(|j| vet_line(&j.name, &j.source)).collect();

    let mut ready = probe_daemons(if trace { 0 } else { SETUP_PROBES })?;
    let daemon = Daemon::spawn(&DAEMON_ARGS)?;
    ready.push(daemon.ready.as_secs_f64());
    let before = daemon.stats()?;
    let share = if trace { TRACED_DAEMON_SHARE } else { 1.0 };
    let end = Instant::now() + Duration::from_secs_f64(seconds * share);
    let mut conn = daemon.connect()?;
    let mut gauge = Gauge::new();
    let mut done: Vec<Finished> = Vec::new();
    // Closed loop: the next job goes out when the last one is answered.
    // The gauge runs in between, while the daemon idles; timed while the
    // daemon works, it would read the daemon's own load on the other
    // core rather than the host's.
    while Instant::now() < end && done.len() < jobs.len() {
        let job = done.len();
        let t0 = Instant::now();
        let line = conn.request(&lines[job]).map_err(|e| format!("vet: {e}"))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        // The first gauge run after a job finds the caches as the daemon
        // left them; its time swung with the host's load more than the
        // job's did, so only the second counts.
        gauge.tick();
        done.push(Finished {
            job,
            ms,
            gauge_ms: gauge.tick(),
            resp: check_response(&line, expected.of(&jobs[job])),
        });
    }
    drop(conn);
    out.set("setup_s", median(&ready));
    out.note("daemon_ready_s", json_list(ready));
    let counters = Counters::between(&before, &daemon.stats()?);
    let peak = daemon.peak_rss_mb();
    daemon.shutdown()?;

    let n = done.len();
    out.require(n > 0, || "no job completed".to_owned());
    out.require(counters.hits == 0.0 && counters.misses == n as f64, || {
        format!(
            "every job must miss the cache: {} hits, {} misses for {n} jobs",
            counters.hits, counters.misses
        )
    });
    out.note("jobs", Json::from(n as f64));
    out.note(
        "tail_rule_percentile",
        crate::stats::tail_percentile(n).map_or(Json::Null, Json::from),
    );
    out.note("daemon_counters", counters.json());
    for d in &done {
        out.check(d.resp.clone());
    }
    if trace {
        counters.record(&mut out);
        // The finished jobs again, in-process, a cycle at a time: through
        // the pipeline's layers, then their requests through the miss
        // path.
        let finished: Vec<usize> = done.iter().map(|d| d.job).collect();
        let cycles = finished.chunks(inputs::COLD_CYCLE).map(<[usize]>::to_vec);
        let deadline = Instant::now() + Duration::from_secs_f64(seconds * TRACED_REPLAY_SHARE);
        let mut tracer = Tracer::new();
        let cores = trace::trace_pipeline(&mut out, &mut tracer, &jobs, cycles, deadline);
        trace::trace_requests(&mut out, &mut tracer, &lines, &cores, cores.keys().copied())?;
        // Per job: the share of its client time that neither its traced
        // vetting nor its request path accounts for.
        let mut layers_us: BTreeMap<usize, f64> = BTreeMap::new();
        for s in &tracer.spans {
            if s.name == trace::VET || s.name == trace::REQUEST {
                *layers_us.entry(s.input).or_default() += (s.end_ns - s.start_ns) as f64 / 1e3;
            }
        }
        let unattributed = done
            .iter()
            .filter_map(|d| {
                let client_us = d.ms * 1e3;
                layers_us
                    .get(&d.job)
                    .map(|layers| (client_us - layers) / client_us)
            })
            .collect();
        out.set(
            "sigserve.unattributed_share",
            percentile(&sorted(unattributed), 0.5),
        );
        crate::write_trace("serve_cold", &tracer, &mut out);
    } else {
        // Windows of one cycle each: jobs finish in the order they were
        // sent, so a window holds one cycle's mix of work.
        let raw: Vec<f64> = done.iter().map(|d| d.ms).collect();
        let gauge_ms: Vec<f64> = done.iter().map(|d| d.gauge_ms).collect();
        crate::inproc::record_timings(&mut out, &raw, &gauge_ms, inputs::COLD_CYCLE);
        out.set("peak_rss_mb", peak);
    }
    Ok(out)
}

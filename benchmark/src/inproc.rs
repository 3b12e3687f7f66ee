//! The in-process workloads, `corpus` and `synth_manyfn`: one thread in
//! a closed loop, vetting through the public facade
//! `addon_sig::analyze_addon`. A pass vets every input once in a seeded
//! order; one warm-up pass is discarded, then passes repeat for the
//! run's seconds.

use crate::daemon::vet_line;
use crate::gauge::{self, Gauge};
use crate::inputs::{self, Input};
use crate::metrics::{json_list, Outcome};
use crate::oracle::Oracle;
use crate::rng::Rng;
use crate::stats::{windowed_percentile, windowed_rate};
use crate::sys;
use crate::trace::{self, Tracer};
use minijson::Json;
use std::time::{Duration, Instant};

/// The tail percentile every workload reports, as the median over the
/// run's windows of each window's percentile. The run also records its
/// sample count and the highest percentile with ten samples beyond it.
pub const TAIL: f64 = 0.95;
/// Fresh processes whose set-up time `setup_s` is the median of.
const SETUP_PROBES: usize = 15;
/// Share of a traced run spent vetting through the pipeline's layers;
/// the request-path replay that follows takes a few hundred
/// milliseconds.
const TRACED_PIPELINE_SHARE: f64 = 0.9;
/// Times the traced run submits each input's request line: a miss, then
/// resubmissions that hit.
const TRACED_SUBMISSIONS: usize = 50;

pub fn inputs(workload: &str, seed: u64) -> Vec<Input> {
    match workload {
        "corpus" => inputs::bases(),
        "synth_manyfn" => inputs::synth_inputs(seed),
        other => unreachable!("{other} is not an in-process workload"),
    }
}

/// Endless passes over `n` inputs, each in its own seeded order.
fn passes(seed: u64, n: usize) -> impl Iterator<Item = Vec<usize>> {
    let mut order = Rng::new(seed, "pass_order");
    std::iter::repeat_with(move || {
        let mut ids: Vec<usize> = (0..n).collect();
        order.shuffle(&mut ids);
        ids
    })
}

pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    if trace {
        return traced(workload, seed, seconds);
    }
    let mut out = Outcome::default();
    let setup = (0..SETUP_PROBES)
        .map(|_| crate::probe_setup(workload, seed))
        .collect::<Result<Vec<(f64, f64)>, String>>()?;
    out.set("setup_s", gauge::scaled_median(&setup));
    out.note("setup_samples_s", json_list(setup.iter().map(|p| p.0)));
    out.note("setup_gauge_ms", json_list(setup.iter().map(|p| p.1)));

    let inputs = inputs(workload, seed);
    let oracle = Oracle::new();
    let mut vet = |input: &Input| -> f64 {
        let t0 = Instant::now();
        let report = addon_sig::analyze_addon(&input.source);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        out.check(
            report
                .map_err(|e| e.to_string())
                .and_then(|r| oracle.check(&r.signature, &input.expect))
                .map_err(|e| format!("{}: {e}", input.name)),
        );
        ms
    };
    // The warm-up pass: checked, not timed.
    for input in &inputs {
        vet(input);
    }

    let start = Instant::now();
    let mut pass_s: Vec<f64> = Vec::new();
    let mut vet_ms = Vec::new();
    let mut gauge = Gauge::new();
    let mut gauge_ms = Vec::new();
    // Whole passes only, so every input weighs the same in every run.
    for ids in passes(seed, inputs.len()) {
        let last = pass_s.last().copied().unwrap_or(0.0);
        if !pass_s.is_empty() && start.elapsed().as_secs_f64() + last > seconds {
            break;
        }
        let pass_start = Instant::now();
        for i in ids {
            vet_ms.push(vet(&inputs[i]));
            // The first gauge run after a vetting finds the caches and
            // the heap as the vetting left them, and read 4–10% slower
            // than the second: a program that used less memory would
            // have moved it. Only the second counts.
            gauge.tick();
            gauge_ms.push(gauge.tick());
        }
        pass_s.push(pass_start.elapsed().as_secs_f64());
    }
    let n = vet_ms.len();
    // Windows of one pass each, so every window holds every input once.
    record_timings(&mut out, &vet_ms, &gauge_ms, inputs.len());
    out.set("peak_rss_mb", sys::vm_hwm_mb(None).unwrap_or(0.0));
    out.note("pass_s", json_list(pass_s));
    out.note("samples", Json::from(n as f64));
    out.note(
        "tail_rule_percentile",
        crate::stats::tail_percentile(n).map_or(Json::Null, Json::from),
    );
    Ok(out)
}

/// Sets the timing metrics of operations run one after another from
/// their times in ms, `raw_ms`, each scaled to the reference machine's
/// speed by the gauge times taken after it, `gauge_ms`, in windows of
/// `per` operations. The unscaled metrics and the host's slowdown go to
/// the diagnostics.
pub fn record_timings(out: &mut Outcome, raw_ms: &[f64], gauge_ms: &[f64], per: usize) {
    let timings = |ms: &[f64]| {
        [
            ("throughput_per_s", windowed_rate(ms, per)),
            ("latency_p50_ms", windowed_percentile(ms, per, 0.5)),
            ("latency_p95_ms", windowed_percentile(ms, per, TAIL)),
        ]
    };
    let scaled = timings(&gauge::scale(raw_ms, gauge_ms));
    let mut unscaled = Json::obj();
    for ((name, value), (_, raw)) in scaled.into_iter().zip(timings(raw_ms)) {
        out.set(name, value);
        unscaled.set(name, Json::from(raw));
    }
    out.note("unscaled", unscaled);
    out.note("host_slowdown", Json::from(gauge::slowdown(gauge_ms)));
}

/// The traced run: seeded passes through the pipeline's layers for most
/// of the run, then each input's request line through the daemon's
/// request path.
fn traced(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = inputs(workload, seed);
    let mut tracer = Tracer::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * TRACED_PIPELINE_SHARE);
    let passes = passes(seed, inputs.len());
    let cores = trace::trace_pipeline(&mut out, &mut tracer, &inputs, passes, deadline);
    let lines: Vec<Vec<u8>> = inputs
        .iter()
        .map(|i| vet_line(&i.name, &i.source))
        .collect();
    let requests = (0..inputs.len())
        .cycle()
        .take(inputs.len() * TRACED_SUBMISSIONS);
    trace::trace_requests(&mut out, &mut tracer, &lines, &cores, requests)?;
    crate::write_trace(workload, &tracer, &mut out);
    Ok(out)
}

//! `benchmark`: the repository's one benchmark of the addon-sig
//! pipeline and the `vet serve` daemon, measured from outside the
//! program. See README.md for the workloads, metrics and layers.
//!
//! ```text
//! benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark compare [--spec BENCHMARK.json] A.json... -- B.json...
//! ```
//!
//! Each workload runs in a fresh child process of this executable, so
//! its peak memory and allocator state are its own. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod compare;
mod daemon;
mod gauge;
mod inproc;
mod inputs;
mod metrics;
mod oracle;
mod rng;
mod serve;
mod stats;
mod sys;
mod trace;

use metrics::{json_list, metrics_json, Outcome};
use minijson::Json;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Instant;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

const WORKLOADS: [&str; 3] = ["corpus", "synth_manyfn", "serve_cold"];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 25.0,
        trace: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w} (one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                args.workload = Some(w.clone());
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("compare") => compare::main(&argv[1..]),
        Some("--child") => child_main(&argv[1..]),
        Some("--probe") => probe_main(&argv[1..]),
        _ => parent_main(&argv),
    };
    std::process::exit(code);
}

fn parent_main(argv: &[String]) -> i32 {
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!("usage: benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]");
            return 2;
        }
    };
    let load_start = sys::loadavg();
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut results = Json::obj();
    let mut summary = Json::obj();
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    for w in &workloads {
        let Some(result) = run_child(w, &args) else {
            eprintln!("benchmark: workload {w} did not finish");
            return 1;
        };
        correct &= result["correct"] == Json::Bool(true);
        attempted += result["attempted"].as_f64().unwrap_or(0.0);
        failed += result["failed"].as_f64().unwrap_or(0.0);
        if let Json::Obj(metrics) = &result["metrics"] {
            for (name, m) in metrics {
                let key = if workloads.len() == 1 {
                    name.clone()
                } else {
                    format!("{w}/{name}")
                };
                summary.set(&key, m.clone());
            }
        }
        results.set(w, result);
    }
    if let Some(path) = &args.out {
        let mut env = Json::obj();
        env.set("nproc", Json::from(sys::nproc() as f64));
        env.set("loadavg_start", json_list(load_start));
        env.set("loadavg_end", json_list(sys::loadavg()));
        let mut doc = Json::obj();
        doc.set("schema", Json::from(1u32));
        doc.set("seed", Json::from(args.seed as f64));
        doc.set("seconds", Json::from(args.seconds));
        doc.set("trace", Json::Bool(args.trace));
        doc.set("env", env);
        doc.set("workloads", results);
        if let Err(e) = std::fs::write(path, doc.to_string_pretty() + "\n") {
            eprintln!("benchmark: {path}: {e}");
            return 1;
        }
    }
    let mut last = Json::obj();
    last.set("correct", Json::Bool(correct));
    last.set("attempted", Json::from(attempted));
    last.set("failed", Json::from(failed));
    last.set("metrics", summary);
    println!("{}", last.to_string_compact());
    i32::from(!correct)
}

/// Runs one workload in a child process, relays its report, and returns
/// its result document (its last line), or `None` if it crashed.
fn run_child(workload: &str, args: &Args) -> Option<Json> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    sys::die_with_parent(&mut cmd);
    let mut child = cmd.spawn().ok()?;
    let stdout = child.stdout.take()?;
    let mut last: Option<String> = None;
    for line in BufReader::new(stdout).lines().map_while(Result::ok) {
        if let Some(prev) = last.replace(line) {
            println!("{prev}");
        }
    }
    let status = child.wait().ok()?;
    let doc = Json::parse(&last?).ok()?;
    if !status.success() || doc["metrics"] == Json::Null {
        return None;
    }
    Some(doc)
}

fn child_main(argv: &[String]) -> i32 {
    let Some((workload, rest)) = argv.split_first() else {
        return 2;
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return 2;
        }
    };
    let outcome = match workload.as_str() {
        "corpus" | "synth_manyfn" => inproc::run(workload, args.seed, args.seconds, args.trace),
        "serve_cold" => serve::cold(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {workload}: {e}");
            return 1;
        }
    };
    report(workload, &outcome, args.trace);
    0
}

/// Prints the workload's metrics as a table, then its result document as
/// the last line.
fn report(workload: &str, outcome: &Outcome, trace: bool) {
    let metrics = outcome.metrics(trace);
    for (name, value, unit) in &metrics {
        println!("{workload:<16} {name:<36} {value:>16.4} {unit}");
    }
    for p in &outcome.problems {
        eprintln!("benchmark: {workload}: {p}");
    }
    let mut doc = Json::obj();
    doc.set("correct", Json::Bool(outcome.correct()));
    doc.set("attempted", Json::from(outcome.attempted as f64));
    doc.set("failed", Json::from(outcome.failed as f64));
    doc.set("metrics", metrics_json(&metrics));
    doc.set(
        "problems",
        Json::Arr(
            outcome
                .problems
                .iter()
                .map(|p| Json::from(p.as_str()))
                .collect(),
        ),
    );
    let mut diagnostics = Json::obj();
    for (k, v) in &outcome.diagnostics {
        diagnostics.set(k, v.clone());
    }
    doc.set("diagnostics", diagnostics);
    println!("{}", doc.to_string_compact());
}

/// A fresh process's set-up for an in-process workload: generate the
/// inputs and vet one trivial addon (the library's lazy initialisation),
/// then report `ready` with the seconds that took and a gauge time taken
/// right after.
fn probe_main(argv: &[String]) -> i32 {
    let t0 = Instant::now();
    let Some((workload, rest)) = argv.split_first() else {
        return 2;
    };
    let Ok(args) = parse_args(rest) else {
        return 2;
    };
    let inputs = inproc::inputs(workload, args.seed);
    std::hint::black_box(&inputs);
    match addon_sig::analyze_addon("var x = 1;") {
        Ok(_) => {
            let setup_s = t0.elapsed().as_secs_f64();
            println!("ready {setup_s} {}", gauge::spot());
            0
        }
        Err(e) => {
            eprintln!("benchmark: trivial vet failed: {e}");
            1
        }
    }
}

/// The set-up time of a fresh `--probe` process, in seconds, with the
/// gauge time it took right after. The process times itself, so the
/// kernel's process start-up stays out of the number.
pub fn probe_setup(workload: &str, seed: u64) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(&exe);
    cmd.args(["--probe", workload, "--seed", &seed.to_string()])
        .stderr(Stdio::inherit());
    sys::die_with_parent(&mut cmd);
    let out = cmd.output().map_err(|e| format!("set-up probe: {e}"))?;
    let line = String::from_utf8_lossy(&out.stdout);
    let parsed = line.trim().strip_prefix("ready ").and_then(|rest| {
        let mut fields = rest.split(' ').map(str::parse::<f64>);
        Some((fields.next()?.ok()?, fields.next()?.ok()?))
    });
    match parsed {
        Some(pair) if out.status.success() => Ok(pair),
        _ => Err(format!("set-up probe failed ({}): {line}", out.status)),
    }
}

/// Writes the run's spans as a Chrome trace under `target/benchmark/`.
pub fn write_trace(workload: &str, tracer: &trace::Tracer, out: &mut Outcome) {
    let dir = std::path::Path::new("target/benchmark");
    let path = dir.join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tracer.chrome_json().to_string_compact()));
    match written {
        Ok(()) => out.note("trace_file", Json::from(path.display().to_string())),
        Err(e) => eprintln!("benchmark: {}: {e}", path.display()),
    }
}

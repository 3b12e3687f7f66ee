//! Performance snapshot for the 10-addon corpus, std-only (no criterion).
//!
//! Runs the whole corpus `runs + 1` times (the paper's methodology from
//! Section 6.2: discard the first pass as warm-up, report medians),
//! printing per-addon P1/P2/P3 medians plus the worklist `steps` counter,
//! and writes `BENCH_pipeline.json` at the repo root — the
//! perf-trajectory file future changes regress against. Every time in
//! it is read off `Report::timings` and keyed by `Layer::name()`.
//!
//! Each addon row also records `outside_layers_pct`: the median over
//! passes of the share of `Pipeline::run` wall time that no layer span
//! covers. The run fails when it exceeds 5% on any addon, so the layers
//! keep adding up to the end-to-end time. The same share is measured
//! over as many more passes with triage on, as every daemon job runs
//! (`triage_outside_layers_pct`, gated alike): triage does inference
//! work before phase 2, which must stay inside a layer too.
//!
//! The snapshot also measures the cost of the sigtrace hooks: the corpus
//! vetted with a no-op `Tracer` attached versus the plain pipeline, as
//! `trace_overhead_pct`, and with cost attribution enabled
//! (`Pipeline::profile(true)`) as `attr_overhead_pct`. The
//! observability layer's contract is that an attached-but-idle tracer
//! and a live attribution sink each cost under 5%; blowing either gate
//! fails the run (and CI).
//!
//! Its `ddg_scaling` section records the layers of
//! `corpus::many_fn_addon(n)` for n = 12, 24, 48, 96 (each the minimum
//! of 5 runs) with the doubling ratios. The run fails unless the DDG and
//! the CDG each take no longer than the fixpoint (phase 1) at every n,
//! and phase 2 no longer than phase 1 on every corpus addon: the PDG
//! must never again be the layer that dominates. It also fails when the
//! PDG's assembly takes longer than the CDG at some n: copying an edge
//! into the PDG must not cost more than finding it.
//!
//! Flags:
//! - `--runs N`       measured passes after warm-up (default 10)
//! - `--sequential`   analyze addons one at a time instead of on
//!   `std::thread::scope` workers
//! - `--out PATH`     where to write the JSON (default
//!   `<repo root>/BENCH_pipeline.json`)

use jsanalysis::AnalysisConfig;
use minijson::Json;
use sigtrace::{Layer, LayerTimes};
use std::time::{Duration, Instant};

/// The gate on `outside_layers_pct`: the layers must cover all but
/// this share of `Pipeline::run`.
const MAX_OUTSIDE_LAYERS_PCT: f64 = 5.0;

struct AddonPass {
    timings: LayerTimes,
    /// Wall time of the whole `Pipeline::run` call.
    total: Duration,
    steps: usize,
}

impl AddonPass {
    /// The share of the run's wall time outside every layer, in percent.
    fn outside_layers_pct(&self) -> f64 {
        let outside = self.total.saturating_sub(self.timings.total());
        outside.as_secs_f64() / self.total.as_secs_f64() * 100.0
    }
}

fn analyze_one(addon: &corpus::Addon, config: &AnalysisConfig) -> AddonPass {
    let pipeline = addon_sig::Pipeline::new().config(config.clone());
    let start = Instant::now();
    let report = pipeline.run(addon.source).expect("pipeline");
    let total = start.elapsed();
    AddonPass {
        timings: report.timings,
        total,
        steps: report.analysis.steps,
    }
}

/// One full-corpus pass; returns (per-addon results in corpus order,
/// wall-clock for the whole pass).
fn corpus_pass(
    addons: &[corpus::Addon],
    sequential: bool,
    config: &AnalysisConfig,
) -> (Vec<AddonPass>, Duration) {
    let start = Instant::now();
    let results: Vec<AddonPass> = if sequential {
        addons.iter().map(|a| analyze_one(a, config)).collect()
    } else {
        // Each addon's pipeline is independent: fan out one scoped worker
        // per addon and join in corpus order.
        std::thread::scope(|scope| {
            let handles: Vec<_> = addons
                .iter()
                .map(|a| scope.spawn(move || analyze_one(a, config)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .collect()
        })
    };
    (results, start.elapsed())
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

fn median_pct(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Which observability hook an overhead sweep pays for.
#[derive(Clone, Copy, PartialEq)]
enum Arm {
    /// Bare pipeline — the baseline both gates compare against.
    Plain,
    /// A no-op [`sigtrace::Tracer`] attached.
    Traced,
    /// Cost attribution enabled (`Pipeline::profile(true)`): the
    /// worklist tallies per-(function, context, phase) steps and time.
    Attributed,
}

/// Vets one addon under the given arm, returning its wall-clock.
fn vet(addon: &corpus::Addon, arm: Arm) -> Duration {
    let start = Instant::now();
    let pipeline = addon_sig::Pipeline::new();
    let report = match arm {
        Arm::Plain => pipeline.run(addon.source),
        Arm::Traced => {
            let mut noop = sigtrace::NoopTracer;
            pipeline.tracer(&mut noop).run(addon.source)
        }
        Arm::Attributed => pipeline.profile(true).run(addon.source),
    };
    std::hint::black_box(report.expect("pipeline"));
    start.elapsed()
}

/// Measures the relative cost of vetting the corpus with an
/// observability hook attached. Each addon is vetted plain and hooked
/// back to back, alternating which goes first, so both runs of a pair
/// see the same state of the host. An addon's overhead is the median of
/// its pairs' hooked/plain ratios, and the estimate compares the sum of
/// the per-addon plain minima with the same sum, each minimum scaled by
/// its addon's median ratio (so a large addon weighs more).
///
/// Estimators that compare each arm's own minima or medians flaked on
/// shared two-vCPU hosts: one lucky or unlucky run decides a minimum,
/// and a scheduling burst inside one arm's batch survives into its
/// median, reading as 5–12% phantom overhead. A pair's ratio cancels the
/// host's slow spells, and the median drops the pairs a burst split. A
/// negative estimate is pure scheduling noise, and the result is
/// clamped at zero rather than reporting a negative overhead.
fn overhead_pct(addons: &[corpus::Addon], runs: usize, arm: Arm) -> f64 {
    let mut plain_min = vec![Duration::MAX; addons.len()];
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); addons.len()];
    // The first round is a warm-up, discarded.
    for round in 0..=3 * runs {
        for (i, addon) in addons.iter().enumerate() {
            let (plain, hooked) = if (round + i) % 2 == 0 {
                let plain = vet(addon, Arm::Plain);
                (plain, vet(addon, arm))
            } else {
                let hooked = vet(addon, arm);
                (vet(addon, Arm::Plain), hooked)
            };
            if round > 0 {
                plain_min[i] = plain_min[i].min(plain);
                ratios[i].push(hooked.as_secs_f64() / plain.as_secs_f64());
            }
        }
    }
    let (mut plain_sum, mut hooked_sum) = (0.0, 0.0);
    for (min, mut rs) in plain_min.into_iter().zip(ratios) {
        rs.sort_by(f64::total_cmp);
        plain_sum += min.as_secs_f64();
        hooked_sum += min.as_secs_f64() * rs[rs.len() / 2];
    }
    ((hooked_sum - plain_sum) / plain_sum * 100.0).max(0.0)
}

/// The many-function sizes `ddg_scaling` times, each double the last.
const SCALING_NS: [usize; 4] = [12, 24, 48, 96];
/// Vettings per `ddg_scaling` size; each layer reports its minimum.
const SCALING_RUNS: usize = 5;

/// One `ddg_scaling` row: the reachable statements and each layer's
/// minimum over the vettings of `corpus::many_fn_addon(n)`.
fn scaling_row(n: usize) -> (usize, LayerTimes) {
    let source = corpus::many_fn_addon(n);
    let mut reachable = 0;
    let runs: Vec<LayerTimes> = (0..SCALING_RUNS)
        .map(|_| {
            let report = addon_sig::analyze_addon(&source).expect("many_fn_addon vets");
            reachable = report.analysis.reachable.len();
            report.timings
        })
        .collect();
    (
        reachable,
        per_layer(&runs, |ts| ts.into_iter().min().unwrap_or_default()),
    )
}

/// Each layer's `pick` (a median, a minimum) over the runs it ran in.
fn per_layer(runs: &[LayerTimes], pick: fn(Vec<Duration>) -> Duration) -> LayerTimes {
    let mut out = LayerTimes::default();
    for layer in Layer::ALL {
        let times: Vec<Duration> = runs.iter().filter_map(|t| t.get(layer)).collect();
        if !times.is_empty() {
            out.add(layer, pick(times));
        }
    }
    out
}

/// Times the many-function family, prints it, and returns the
/// `ddg_scaling` section. A size whose DDG or CDG is slower than its
/// fixpoint, or whose assembly is slower than its CDG, adds a failure.
/// The doubling ratios are recorded, not gated: they swing by a quarter
/// or more between runs.
fn ddg_scaling(failures: &mut Vec<String>) -> Json {
    println!("ddg_scaling: corpus::many_fn_addon(n), min of {SCALING_RUNS} runs per layer");
    println!(
        "{:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "n", "reachable", "p1 (s)", "ddg (s)", "cdg (s)", "asm (s)", "x ddg"
    );
    let ratio = |now: Duration, before: Duration| {
        (now.as_secs_f64() / before.as_secs_f64() * 100.0).round() / 100.0
    };
    let mut rows = Vec::new();
    let mut prev: Option<LayerTimes> = None;
    for n in SCALING_NS {
        let (reachable, t) = scaling_row(n);
        let layer = |l: Layer| t.get(l).unwrap_or_default();
        let mut row = Json::obj();
        row.set("n", Json::from(n as u32));
        row.set("reachable", Json::from(reachable as u32));
        row.set("layers_s", layers_json(&t));
        let mut ddg_doubling = "-".to_owned();
        if let Some(p) = &prev {
            let mut ratios = Json::obj();
            for (l, now) in t.iter() {
                ratios.set(
                    l.name(),
                    Json::from(ratio(now, p.get(l).unwrap_or_default())),
                );
            }
            row.set("ratios", ratios);
            let before = p.get(Layer::Ddg).unwrap_or_default();
            ddg_doubling = format!("{:.2}", ratio(layer(Layer::Ddg), before));
        }
        println!(
            "{n:>5} {reachable:>9} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {ddg_doubling:>7}",
            layer(Layer::Fixpoint).as_secs_f64(),
            layer(Layer::Ddg).as_secs_f64(),
            layer(Layer::Cdg).as_secs_f64(),
            layer(Layer::Assemble).as_secs_f64(),
        );
        // Each layer, and the layer it must not outlast.
        for (slow, bound) in [
            (Layer::Ddg, Layer::Fixpoint),
            (Layer::Cdg, Layer::Fixpoint),
            (Layer::Assemble, Layer::Cdg),
        ] {
            if layer(slow) > layer(bound) {
                failures.push(format!(
                    "many_fn_addon({n}): {} ({:.4} s) is slower than {} ({:.4} s)",
                    slow.name(),
                    layer(slow).as_secs_f64(),
                    bound.name(),
                    layer(bound).as_secs_f64()
                ));
            }
        }
        rows.push(row);
        prev = Some(t);
    }
    let mut section = Json::obj();
    section.set("runs", Json::from(SCALING_RUNS as u32));
    section.set("rows", Json::from(rows));
    section
}

/// Per-layer times in seconds, keyed by [`Layer::name`].
fn layers_json(times: &LayerTimes) -> Json {
    let mut doc = Json::obj();
    for (layer, elapsed) in times.iter() {
        doc.set(layer.name(), Json::from(secs(elapsed)));
    }
    doc
}

fn secs(d: Duration) -> f64 {
    // Round to microseconds so the JSON diffs stay readable.
    (d.as_secs_f64() * 1e6).round() / 1e6
}

/// A percentage rounded to two decimals.
fn pct(p: f64) -> f64 {
    (p * 100.0).round() / 100.0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut runs = 10usize;
    let mut sequential = false;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--runs" => {
                i += 1;
                runs = args[i].parse().expect("--runs N");
            }
            "--sequential" => sequential = true,
            "--out" => {
                i += 1;
                out = Some(args[i].clone());
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let out =
        out.unwrap_or_else(|| format!("{}/../../BENCH_pipeline.json", env!("CARGO_MANIFEST_DIR")));

    let addons = corpus::addons();
    let n = addons.len();

    // Warm-up pass (discarded) + measured passes.
    let config = AnalysisConfig::default();
    let _ = corpus_pass(&addons, sequential, &config);
    let mut walls: Vec<Duration> = Vec::with_capacity(runs);
    let mut per_addon: Vec<Vec<AddonPass>> = (0..n).map(|_| Vec::with_capacity(runs)).collect();
    for _ in 0..runs {
        let (results, wall) = corpus_pass(&addons, sequential, &config);
        walls.push(wall);
        for (slot, r) in per_addon.iter_mut().zip(results) {
            slot.push(r);
        }
    }
    // The same passes under triage, for the layer-coverage gate only.
    let triage = config.with_triage(true);
    let _ = corpus_pass(&addons, sequential, &triage);
    let mut triage_outside: Vec<Vec<f64>> = vec![Vec::with_capacity(runs); n];
    for _ in 0..runs {
        let (results, _) = corpus_pass(&addons, sequential, &triage);
        for (slot, r) in triage_outside.iter_mut().zip(results) {
            slot.push(r.outside_layers_pct());
        }
    }

    let wall_median = median(walls);
    println!(
        "perf_snapshot: {n} addons, {runs} measured passes ({} mode)",
        if sequential { "sequential" } else { "parallel" }
    );
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9} {:>10} {:>8} {:>8}",
        "addon", "p1 (s)", "p2 (s)", "p3 (s)", "total (s)", "steps", "out (%)", "tri (%)"
    );

    let mut doc = Json::obj();
    doc.set("schema", Json::from(2u32));
    doc.set("runs", Json::from(runs as u32));
    doc.set(
        "mode",
        Json::from(if sequential { "sequential" } else { "parallel" }),
    );
    doc.set("end_to_end_s", Json::from(secs(wall_median)));
    let mut addons_json = Json::obj();
    let mut sum_total = Duration::ZERO;
    let mut max_outside = 0.0f64;
    let mut max_triage_outside = 0.0f64;
    let mut failures: Vec<String> = Vec::new();
    for ((addon, passes), triage_outside) in addons.iter().zip(&per_addon).zip(triage_outside) {
        let layers = per_layer(
            &passes.iter().map(|p| p.timings).collect::<Vec<_>>(),
            median,
        );
        let [p1, p2, p3] =
            [1, 2, 3].map(|n| median(passes.iter().map(|p| p.timings.phase(n)).collect()));
        let total = median(passes.iter().map(|p| p.total).collect());
        let outside = median_pct(passes.iter().map(AddonPass::outside_layers_pct).collect());
        max_outside = max_outside.max(outside);
        let triage_outside = median_pct(triage_outside);
        max_triage_outside = max_triage_outside.max(triage_outside);
        let steps = passes[0].steps;
        assert!(
            passes.iter().all(|p| p.steps == steps),
            "steps must be deterministic across passes for {}",
            addon.name
        );
        sum_total += total;
        println!(
            "{:<22} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>10} {:>8.2} {:>8.2}",
            addon.name,
            p1.as_secs_f64(),
            p2.as_secs_f64(),
            p3.as_secs_f64(),
            total.as_secs_f64(),
            steps,
            outside,
            triage_outside,
        );
        let mut row = Json::obj();
        row.set("layers_s", layers_json(&layers));
        row.set("total_s", Json::from(secs(total)));
        row.set("outside_layers_pct", Json::from(pct(outside)));
        row.set("triage_outside_layers_pct", Json::from(pct(triage_outside)));
        row.set("steps", Json::from(steps as u32));
        addons_json.set(addon.name, row);
        if p2 > p1 {
            failures.push(format!(
                "{}: phase 2 ({:.4} s) is slower than phase 1 ({:.4} s)",
                addon.name,
                p2.as_secs_f64(),
                p1.as_secs_f64()
            ));
        }
        for (share, mode) in [(outside, ""), (triage_outside, " under triage")] {
            if share > MAX_OUTSIDE_LAYERS_PCT {
                failures.push(format!(
                    "{}: {share:.2}% of Pipeline::run{mode} falls outside every layer \
                     (gate {MAX_OUTSIDE_LAYERS_PCT}%); work was added between layer spans",
                    addon.name
                ));
            }
        }
    }
    doc.set("sum_addon_total_s", Json::from(secs(sum_total)));
    doc.set("max_outside_layers_pct", Json::from(pct(max_outside)));
    doc.set(
        "triage_max_outside_layers_pct",
        Json::from(pct(max_triage_outside)),
    );
    doc.set("addons", addons_json);
    println!(
        "end-to-end corpus wall (median): {:.4} s   sum of addon totals: {:.4} s",
        wall_median.as_secs_f64(),
        sum_total.as_secs_f64()
    );

    // The PDG must not again become the dominant layer: phase 2 stays
    // at or below phase 1 on every corpus addon (above), the DDG and the
    // CDG at or below the fixpoint on the many-function family, and the
    // assembly at or below the CDG there.
    doc.set("ddg_scaling", ddg_scaling(&mut failures));

    // Observability overhead gates: a no-op tracer attached to the
    // pipeline must cost < 5% on a corpus sweep, and so must full cost
    // attribution (the worklist's dense per-bucket tally).
    let overhead = overhead_pct(&addons, runs.max(5), Arm::Traced);
    doc.set("trace_overhead_pct", Json::from(pct(overhead)));
    println!("no-op tracer overhead: {overhead:+.2}%");
    let attr_overhead = overhead_pct(&addons, runs.max(5), Arm::Attributed);
    doc.set("attr_overhead_pct", Json::from(pct(attr_overhead)));
    println!("cost-attribution overhead: {attr_overhead:+.2}%");

    std::fs::write(&out, doc.to_string_pretty() + "\n").expect("write snapshot");
    println!("wrote {out}");

    if overhead >= 5.0 {
        failures.push(format!(
            "no-op tracer overhead {overhead:.2}% breaches the 5% gate; \
             a hot loop is calling the tracer per step instead of \
             accumulating and flushing per phase"
        ));
    }
    if attr_overhead >= 5.0 {
        failures.push(format!(
            "cost-attribution overhead {attr_overhead:.2}% breaches the \
             5% gate; the worklist must tally into dense per-function \
             buckets and flush once at finish, not call the sink per step"
        ));
    }
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

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
//! A counting pass records the allocator requests (`alloc`,
//! `alloc_zeroed` and `realloc` calls) each layer makes per vetting, as
//! `allocs` keyed by `Layer::name()`, on every corpus addon row and
//! every `ddg_scaling` row. Unlike wall times, these counts compare
//! across hosts and runs. The pass runs twice after a warm-up
//! vetting, on one thread, and the run fails when any count differs
//! between the two.
//!
//! Flags:
//! - `--runs N`       measured passes after warm-up (default 10)
//! - `--sequential`   analyze addons one at a time instead of on
//!   `std::thread::scope` workers
//! - `--out PATH`     where to write the JSON (default
//!   `<repo root>/BENCH_pipeline.json`)

use jsanalysis::AnalysisConfig;
use minijson::Json;
use sigtrace::{Layer, LayerTimes, Tracer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    /// This thread's allocator requests so far.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's requests in [`ALLOCS`].
struct CountingAlloc;

impl CountingAlloc {
    fn bump() {
        // During thread teardown the slot may be gone; that request goes
        // uncounted rather than aborting.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the ones the caller gets. The count lives in
// a thread-local `Cell` with a `const` initializer, which needs no
// allocation, so counting never re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::bump();
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract for
        // `layout`, which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::bump();
        // SAFETY: as for `alloc`: the caller's `layout` meets the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::bump();
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`, and the caller meets the contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A [`Tracer`] that reads this thread's allocation count at each span's
/// start and end, summing the difference per layer. It allocates
/// nothing itself, so it counts only the pipeline's requests.
#[derive(Default)]
struct AllocTracer {
    open: u64,
    per_layer: [u64; Layer::ALL.len()],
}

impl Tracer for AllocTracer {
    fn span_start(&mut self, _layer: Layer) {
        self.open = ALLOCS.with(Cell::get);
    }

    fn span_end(&mut self, layer: Layer) {
        self.per_layer[layer as usize] += ALLOCS.with(Cell::get) - self.open;
    }
}

/// One vetting's allocator requests per layer that ran, on this thread.
fn layer_allocs(source: &str) -> [u64; Layer::ALL.len()] {
    let mut tracer = AllocTracer::default();
    let report = addon_sig::Pipeline::new()
        .tracer(&mut tracer)
        .run(source)
        .expect("pipeline");
    drop(report);
    tracer.per_layer
}

/// The counting pass: each source's per-layer allocations, counted
/// twice after a warm-up vetting (which builds this thread's browser
/// environment and interns the source's names). A layer whose two
/// counts differ adds a failure naming the source and the layer.
fn count_allocs(sources: &[(String, String)], failures: &mut Vec<String>) -> Vec<Json> {
    for (_, source) in sources {
        layer_allocs(source);
    }
    let [first, second] = [0, 1].map(|_| {
        sources
            .iter()
            .map(|(_, source)| layer_allocs(source))
            .collect::<Vec<_>>()
    });
    sources
        .iter()
        .zip(first.iter().zip(&second))
        .map(|((name, _), (a, b))| {
            let mut row = Json::obj();
            for layer in Layer::ALL {
                let (x, y) = (a[layer as usize], b[layer as usize]);
                if x != y {
                    failures.push(format!(
                        "{name}: {} made {x} then {y} allocations in two identical vettings",
                        layer.name()
                    ));
                }
                if x > 0 {
                    row.set(layer.name(), Json::from(x as f64));
                }
            }
            row
        })
        .collect()
}

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
    let results = bench::per_addon(addons, sequential, |a| analyze_one(a, config));
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
/// clamped at zero rather than reporting a negative overhead. Each
/// addon's median ratio is listed with it.
fn overhead_pct(addons: &[corpus::Addon], runs: usize, arm: Arm) -> (f64, String) {
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
    let mut each = Vec::with_capacity(addons.len());
    for ((min, rs), addon) in plain_min.into_iter().zip(ratios).zip(addons) {
        let ratio = median_pct(rs);
        plain_sum += min.as_secs_f64();
        hooked_sum += min.as_secs_f64() * ratio;
        each.push(format!("{} {ratio:.3}", addon.name));
    }
    let pct = ((hooked_sum - plain_sum) / plain_sum * 100.0).max(0.0);
    (pct, each.join(", "))
}

/// The two `times` a failing gate compares, in every pass, as `a/b`
/// seconds: one slow pass reads apart from a regression.
fn per_pass<T>(passes: &[T], times: impl Fn(&T) -> (Duration, Duration)) -> String {
    let each: Vec<String> = passes
        .iter()
        .map(times)
        .map(|(a, b)| format!("{:.4}/{:.4}", a.as_secs_f64(), b.as_secs_f64()))
        .collect();
    each.join(", ")
}

/// The many-function sizes `ddg_scaling` times, each double the last.
const SCALING_NS: [usize; 4] = [12, 24, 48, 96];
/// Vettings per `ddg_scaling` size; each layer reports its minimum.
const SCALING_RUNS: usize = 5;

/// One `ddg_scaling` row: the reachable statements and the layer times
/// of each vetting of `corpus::many_fn_addon(n)`.
fn scaling_row(n: usize) -> (usize, Vec<LayerTimes>) {
    let source = corpus::many_fn_addon(n);
    let mut reachable = 0;
    let runs: Vec<LayerTimes> = (0..SCALING_RUNS)
        .map(|_| {
            let report = addon_sig::analyze_addon(&source).expect("many_fn_addon vets");
            reachable = report.analysis.reachable.len();
            report.timings
        })
        .collect();
    (reachable, runs)
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
    let sources: Vec<(String, String)> = SCALING_NS
        .iter()
        .map(|n| (format!("many_fn_addon({n})"), corpus::many_fn_addon(*n)))
        .collect();
    let allocs = count_allocs(&sources, failures);
    let mut rows = Vec::new();
    let mut prev: Option<LayerTimes> = None;
    for (n, allocs) in SCALING_NS.into_iter().zip(allocs) {
        let (reachable, runs) = scaling_row(n);
        let t = per_layer(&runs, |ts| ts.into_iter().min().unwrap_or_default());
        let layer = |l: Layer| t.get(l).unwrap_or_default();
        let mut row = Json::obj();
        row.set("n", Json::from(n as u32));
        row.set("reachable", Json::from(reachable as u32));
        row.set("layers_s", layers_json(&t));
        row.set("allocs", allocs);
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
                let at = |r: &LayerTimes, l| r.get(l).unwrap_or_default();
                failures.push(format!(
                    "many_fn_addon({n}): {} ({:.4} s) is slower than {} ({:.4} s); \
                     {0}/{2} per run: {}",
                    slow.name(),
                    layer(slow).as_secs_f64(),
                    bound.name(),
                    layer(bound).as_secs_f64(),
                    per_pass(&runs, |r| (at(r, slow), at(r, bound)))
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
    let mut args = std::env::args().skip(1);
    let mut runs = 10usize;
    let mut sequential = false;
    let mut out: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--runs" => runs = bench::flag_value(&mut args, "--runs N"),
            "--sequential" => sequential = true,
            "--out" => out = Some(bench::flag_value(&mut args, "--out PATH")),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
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
    let sources: Vec<(String, String)> = addons
        .iter()
        .map(|a| (a.name.to_owned(), a.source.to_owned()))
        .collect();
    let allocs = count_allocs(&sources, &mut failures);
    for (((addon, passes), triage_outside), allocs) in addons
        .iter()
        .zip(&per_addon)
        .zip(triage_outside)
        .zip(allocs)
    {
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
        row.set("allocs", allocs);
        addons_json.set(addon.name, row);
        if p2 > p1 {
            failures.push(format!(
                "{}: phase 2 ({:.4} s) is slower than phase 1 ({:.4} s); \
                 phase 2/phase 1 per pass: {}",
                addon.name,
                p2.as_secs_f64(),
                p1.as_secs_f64(),
                per_pass(passes, |p| (p.timings.phase(2), p.timings.phase(1)))
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
    let (overhead, trace_ratios) = overhead_pct(&addons, runs.max(5), Arm::Traced);
    doc.set("trace_overhead_pct", Json::from(pct(overhead)));
    println!("no-op tracer overhead: {overhead:+.2}%");
    let (attr_overhead, attr_ratios) = overhead_pct(&addons, runs.max(5), Arm::Attributed);
    doc.set("attr_overhead_pct", Json::from(pct(attr_overhead)));
    println!("cost-attribution overhead: {attr_overhead:+.2}%");

    std::fs::write(&out, doc.to_string_pretty() + "\n").expect("write snapshot");
    println!("wrote {out}");

    if overhead >= 5.0 {
        failures.push(format!(
            "no-op tracer overhead {overhead:.2}% breaches the 5% gate; \
             a hot loop is calling the tracer per step instead of \
             accumulating and flushing per phase; median ratio per addon: {trace_ratios}"
        ));
    }
    if attr_overhead >= 5.0 {
        failures.push(format!(
            "cost-attribution overhead {attr_overhead:.2}% breaches the \
             5% gate; the worklist must tally into dense per-function \
             buckets and flush once at finish, not call the sink per step; \
             median ratio per addon: {attr_ratios}"
        ));
    }
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

//! Golden tests locking in the performance overhaul's "results are
//! bit-identical" guarantee, plus a step-budget regression gate.
//!
//! The RPO worklist, interned contexts, copy-on-write heap and symbol
//! interning are all pure performance work: any worklist order reaches
//! the same fixpoint (the transfer functions are monotone), and running
//! addons on parallel threads must not change a single verdict. These
//! tests pin that down against the naive sequential FIFO configuration.

use addon_sig::Pipeline;
use jsanalysis::{AnalysisConfig, WorklistOrder};
use jssig::{compare, Verdict};

fn config(order: WorklistOrder) -> AnalysisConfig {
    AnalysisConfig::default().with_worklist(order)
}

/// Signature text, verdict, and base-analysis step count for one addon
/// under one configuration.
fn outcome(addon: &corpus::Addon, order: WorklistOrder) -> (String, Verdict, usize) {
    let report = Pipeline::new()
        .config(config(order))
        .run(addon.source)
        .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", addon.name));
    let cmp = compare(
        &report.signature,
        &addon.manual,
        addon.real_extra_flow,
        addon.real_extra_sink,
    );
    (
        report.signature.to_string(),
        cmp.verdict,
        report.analysis.steps,
    )
}

/// The RPO worklist (the default) must produce exactly the signatures and
/// verdicts of the FIFO baseline on every corpus addon -- while taking
/// fewer fixpoint steps to get there.
#[test]
fn rpo_matches_fifo_on_every_addon() {
    for addon in corpus::addons() {
        let (sig_rpo, verdict_rpo, steps_rpo) = outcome(&addon, WorklistOrder::Rpo);
        let (sig_fifo, verdict_fifo, steps_fifo) = outcome(&addon, WorklistOrder::Fifo);
        assert_eq!(
            sig_rpo, sig_fifo,
            "{}: signature differs between worklist orders",
            addon.name
        );
        assert_eq!(
            verdict_rpo, verdict_fifo,
            "{}: verdict differs between worklist orders",
            addon.name
        );
        assert!(
            steps_rpo <= steps_fifo,
            "{}: RPO took more steps than FIFO ({steps_rpo} > {steps_fifo})",
            addon.name
        );
    }
}

/// Vetting the corpus on parallel threads (as `vet --corpus` and the
/// perf_snapshot tool do) must give the same signatures and verdicts as
/// a sequential sweep: the symbol interner is the only shared state, and
/// interning order must never leak into results.
#[test]
fn parallel_vetting_matches_sequential() {
    let addons = corpus::addons();
    let sequential: Vec<(String, Verdict, usize)> = addons
        .iter()
        .map(|a| outcome(a, WorklistOrder::Rpo))
        .collect();
    let parallel: Vec<(String, Verdict, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = addons
            .iter()
            .map(|a| s.spawn(move || outcome(a, WorklistOrder::Rpo)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("vetting thread panicked"))
            .collect()
    });
    for ((addon, seq), par) in addons.iter().zip(&sequential).zip(&parallel) {
        assert_eq!(
            seq, par,
            "{}: parallel run diverged from sequential",
            addon.name
        );
    }
}

/// Regression gate on base-analysis step counts under the default (RPO)
/// configuration. Ceilings are the measured counts plus ~25% headroom;
/// blowing one means a scheduling or transfer-function change made the
/// fixpoint substantially more expensive and needs a deliberate re-bless.
#[test]
fn step_budgets_hold() {
    // (addon, measured steps at time of writing, ceiling)
    let budgets = [
        ("LivePagerank", 2650, 3310),
        ("LessSpamPlease", 577, 720),
        ("YoutubeDownloader", 694, 870),
        ("VKVideoDownloader", 603, 755),
        ("HyperTranslate", 666, 830),
        ("Chess.comNotifier", 548, 685),
        ("CoffeePodsDeals", 1184, 1480),
        ("oDeskJobWatcher", 321, 400),
        ("PinPoints", 1024, 1280),
        ("GoogleTransliterate", 756, 945),
    ];
    let addons = corpus::addons();
    assert_eq!(addons.len(), budgets.len(), "budget table out of date");
    for (name, _, ceiling) in budgets {
        let addon = addons
            .iter()
            .find(|a| a.name == name)
            .unwrap_or_else(|| panic!("unknown addon in budget table: {name}"));
        let (_, _, steps) = outcome(addon, WorklistOrder::Rpo);
        assert!(
            steps <= ceiling,
            "{name}: base analysis took {steps} steps, budget is {ceiling}; \
             if the increase is intentional, re-bless the table in this test"
        );
    }
}

/// A generous analysis budget must be invisible: running every corpus
/// addon with a step budget far above its real step count (and an hour
/// of deadline) must reproduce the unbudgeted signatures, verdicts, and
/// step counts bit for bit. The budget checks may only abort the
/// fixpoint, never perturb it.
#[test]
fn generous_budget_is_bit_identical() {
    for addon in corpus::addons() {
        let (sig, verdict, steps) = outcome(&addon, WorklistOrder::Rpo);
        let budgeted_config = AnalysisConfig::default()
            .with_step_budget(steps * 10)
            .with_deadline(std::time::Duration::from_secs(3600));
        let report = Pipeline::new()
            .config(budgeted_config)
            .run(addon.source)
            .unwrap_or_else(|e| panic!("{}: budgeted pipeline failed: {e}", addon.name));
        let cmp = compare(
            &report.signature,
            &addon.manual,
            addon.real_extra_flow,
            addon.real_extra_sink,
        );
        assert_eq!(
            report.signature.to_string(),
            sig,
            "{}: signature changed under a generous budget",
            addon.name
        );
        assert_eq!(cmp.verdict, verdict, "{}: verdict changed", addon.name);
        assert_eq!(
            report.analysis.steps, steps,
            "{}: step count changed",
            addon.name
        );
    }
}

/// The headline step reductions from the RPO switch, locked for the two
/// addons called out in the performance work: the worst case of the
/// corpus (LivePagerank) and a typical small addon (Chess.comNotifier).
#[test]
fn rpo_beats_fifo_on_headline_addons() {
    for name in ["LivePagerank", "Chess.comNotifier"] {
        let addon = corpus::addon_by_name(name).expect("benchmark exists");
        let (_, _, steps_rpo) = outcome(&addon, WorklistOrder::Rpo);
        let (_, _, steps_fifo) = outcome(&addon, WorklistOrder::Fifo);
        assert!(
            steps_rpo * 2 < steps_fifo,
            "{name}: expected RPO to at least halve the step count \
             (rpo {steps_rpo} vs fifo {steps_fifo})"
        );
    }
}

//! The analysis-budget hook: a caller-imposed step budget (and wall-clock
//! deadline) that aborts the fixpoint loop with a recorded
//! `BudgetExhausted` instead of running to completion. The service daemon
//! relies on both directions tested here: a generous budget must be a
//! no-op (identical results, identical step counts), and a tiny budget
//! must trip deterministically so `verdict=timeout` responses are stable.

use jsanalysis::{analyze, AnalysisConfig};
use std::time::Duration;

fn lower(source: &str) -> jsir::Lowered {
    jsir::lower(&jsparser::parse(source).expect("test source parses"))
}

const LOOPY: &str = "var total = 0;\n\
                     var i = 0;\n\
                     while (i < 1000) { total = total + i; i = i + 1; }\n";

#[test]
fn generous_budget_changes_nothing() {
    let lowered = lower(LOOPY);
    let plain = analyze(&lowered, &AnalysisConfig::default());
    assert!(plain.budget_exhausted.is_none());

    let budgeted = analyze(
        &lowered,
        &AnalysisConfig {
            step_budget: Some(plain.steps * 10),
            deadline: Some(Duration::from_secs(3600)),
            ..AnalysisConfig::default()
        },
    );
    assert!(budgeted.budget_exhausted.is_none());
    assert_eq!(
        plain.steps, budgeted.steps,
        "budget checks must not reschedule work"
    );
    assert_eq!(plain.locs, budgeted.locs);
    assert_eq!(plain.rw, budgeted.rw);
    assert_eq!(plain.may_throw, budgeted.may_throw);
    assert_eq!(plain.call_targets, budgeted.call_targets);
    assert_eq!(plain.sinks, budgeted.sinks);
    assert_eq!(plain.api_uses, budgeted.api_uses);
    assert_eq!(plain.reachable, budgeted.reachable);
    assert_eq!(plain.cyclic_stmts, budgeted.cyclic_stmts);
}

#[test]
fn tiny_step_budget_trips_deterministically() {
    let lowered = lower(LOOPY);
    let config = AnalysisConfig {
        step_budget: Some(1),
        ..AnalysisConfig::default()
    };
    let first = analyze(&lowered, &config);
    let exhausted = first.budget_exhausted.expect("budget of 1 must trip");
    assert!(
        !first.hit_step_limit,
        "budget aborts are not the max_steps valve"
    );
    // The abort happens the moment the counter passes the budget, so the
    // recorded step count is pinned, not merely bounded.
    assert_eq!(exhausted.steps, 2);
    for _ in 0..3 {
        let again = analyze(&lowered, &config);
        assert_eq!(
            again.budget_exhausted.map(|b| b.steps),
            Some(exhausted.steps),
            "budget aborts must be reproducible"
        );
    }
}

#[test]
fn budget_and_step_limit_stay_distinct() {
    let lowered = lower(LOOPY);
    // max_steps still wins when it is the tighter bound: the safety valve
    // reports partial results the old way.
    let r = analyze(
        &lowered,
        &AnalysisConfig {
            max_steps: 1,
            step_budget: Some(1_000_000),
            ..AnalysisConfig::default()
        },
    );
    assert!(r.hit_step_limit);
    assert!(r.budget_exhausted.is_none());
}

#[test]
fn elapsed_is_reported() {
    let lowered = lower(LOOPY);
    let r = analyze(
        &lowered,
        &AnalysisConfig {
            step_budget: Some(3),
            ..AnalysisConfig::default()
        },
    );
    let b = r.budget_exhausted.expect("budget trips");
    // Can't assert much about wall time, but it must be a real reading.
    assert!(b.elapsed <= Duration::from_secs(60));
    assert_eq!(b.steps, 4);
}

#[test]
fn zero_deadline_trips_on_long_enough_runs() {
    // A deadline of zero trips at the first probe (every
    // DEADLINE_CHECK_INTERVAL steps), so it needs a program whose fixpoint
    // takes more steps than one probe interval.
    let source = corpus_like_source();
    let lowered = lower(&source);
    let plain = analyze(&lowered, &AnalysisConfig::default());
    assert!(
        plain.steps > jsanalysis::DEADLINE_CHECK_INTERVAL,
        "need a workload longer than one probe interval, got {} steps",
        plain.steps
    );
    let r = analyze(
        &lowered,
        &AnalysisConfig {
            deadline: Some(Duration::ZERO),
            ..AnalysisConfig::default()
        },
    );
    let b = r.budget_exhausted.expect("zero deadline must trip");
    assert_eq!(b.steps % jsanalysis::DEADLINE_CHECK_INTERVAL, 0);
}

/// A closure-heavy workload big enough to outlast one deadline probe
/// interval (mirrors the shape of the corpus addons).
fn corpus_like_source() -> String {
    let mut src = String::from("var acc = 0;\n");
    for i in 0..40 {
        src.push_str(&format!(
            "var f{i} = function (x) {{ var y = x + {i}; return y; }};\n\
             acc = acc + f{i}(acc);\n"
        ));
    }
    src
}

//! The per-function CDG against its oracle: `jspdg::build_cdg` must
//! produce exactly the `BTreeSet<CtrlDep>` of the ordered-map pass it
//! replaced (kept in `tests/support/full_cdg.rs`), in that set's order
//! (strictly sorted), over the corpus, the attack gallery, the benign
//! queue shape, the Figure 1 program and the many-function scaling
//! family. `tests/fuzz_pipeline.rs` checks the same property on
//! generated programs.

#[path = "support/full_cdg.rs"]
mod full_cdg;

use jsanalysis::AnalysisConfig;
use jspdg::{CtrlDep, CtrlKind, SuperGraph};
use std::collections::BTreeSet;

/// Analyzes `source` and builds its supergraph as the pipeline does,
/// asserts the library and oracle CDGs are identical, and returns the
/// edges.
fn same_cdg(name: &str, source: &str) -> Vec<CtrlDep> {
    let ast = jsparser::parse(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let lowered = jsir::lower(&ast);
    let analysis = jsanalysis::analyze(&lowered, &AnalysisConfig::default());
    assert!(
        analysis.budget_exhausted.is_none() && !analysis.hit_step_limit,
        "{name}: phase 1 did not finish"
    );
    let sg = SuperGraph::build(&lowered, &analysis);
    let edges = jspdg::build_cdg(&lowered, &analysis, &sg);
    assert!(
        edges.is_sorted_by(|a, b| a < b),
        "{name}: build_cdg's edges are not strictly sorted"
    );
    let ours = BTreeSet::from_iter(edges.iter().copied());
    let oracle = full_cdg::build_cdg(&lowered, &analysis, &sg);
    let extra: Vec<_> = ours.difference(&oracle).take(5).collect();
    let missing: Vec<_> = oracle.difference(&ours).take(5).collect();
    assert!(
        extra.is_empty() && missing.is_empty(),
        "{name}: build_cdg has {} edges, the oracle {}; \
         only build_cdg: {extra:?}; only the oracle: {missing:?}",
        ours.len(),
        oracle.len()
    );
    edges
}

#[test]
fn cdg_matches_the_full_oracle_on_corpus_gallery_benign_shapes_and_figure1() {
    let suite: Vec<(String, String)> = corpus::addons()
        .into_iter()
        .map(|a| (a.name.to_owned(), a.source.to_owned()))
        .chain(
            corpus::attacks::attacks()
                .into_iter()
                .map(|a| (a.name.to_owned(), a.source.to_owned())),
        )
        .chain((0..3).map(|i| (format!("benign_{i}"), corpus::benign_addon(i))))
        .chain([("figure1".to_owned(), corpus::figure1_source())])
        .collect();
    assert_eq!(suite.len(), 19);
    let mut kinds = BTreeSet::new();
    let mut amps = BTreeSet::new();
    for (name, source) in &suite {
        for e in same_cdg(name, source) {
            kinds.insert(e.kind);
            amps.insert(e.amp);
        }
    }
    // Not vacuous: every stage and both amplification flags occur.
    assert_eq!(
        kinds,
        BTreeSet::from([CtrlKind::Local, CtrlKind::NonLocExp, CtrlKind::NonLocImp])
    );
    assert_eq!(amps, BTreeSet::from([false, true]));
}

#[test]
fn cdg_matches_the_full_oracle_on_the_many_function_family() {
    let mut last = 0;
    for n in [6, 8, 12, 18, 24, 48] {
        let edges = same_cdg(&format!("many_fn_addon({n})"), &corpus::many_fn_addon(n)).len();
        assert!(edges > last, "n = {n}: {edges} edges, not more than {last}");
        last = edges;
    }
}

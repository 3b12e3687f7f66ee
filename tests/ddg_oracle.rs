//! The sparse DDG against its oracle: `jspdg::build_ddg` must produce
//! exactly the `BTreeSet<DataDep>` of the dense reaching-definitions pass
//! it replaced (kept in `tests/support/dense_ddg.rs`), over the corpus,
//! the attack gallery, the benign queue shape and the many-function
//! scaling family. `tests/fuzz_pipeline.rs` checks the same property on
//! generated programs.

#[path = "support/dense_ddg.rs"]
mod dense_ddg;

use jsanalysis::AnalysisConfig;
use jspdg::{DataDep, SuperGraph};
use std::collections::BTreeSet;

/// Analyzes `source` and builds its supergraph as the pipeline does,
/// asserts the sparse and dense DDGs are identical, and returns the
/// edges.
fn same_ddg(name: &str, source: &str) -> BTreeSet<DataDep> {
    let ast = jsparser::parse(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let lowered = jsir::lower(&ast);
    let analysis = jsanalysis::analyze(&lowered, &AnalysisConfig::default());
    assert!(
        analysis.budget_exhausted.is_none() && !analysis.hit_step_limit,
        "{name}: phase 1 did not finish"
    );
    let sg = SuperGraph::build(&lowered, &analysis);
    let sparse = jspdg::build_ddg(&sg, &analysis);
    let dense = dense_ddg::build_ddg(&sg, &analysis);
    let extra: Vec<_> = sparse.difference(&dense).take(5).collect();
    let missing: Vec<_> = dense.difference(&sparse).take(5).collect();
    assert!(
        extra.is_empty() && missing.is_empty(),
        "{name}: sparse DDG has {} edges, the dense oracle {}; \
         only sparse: {extra:?}; only dense: {missing:?}",
        sparse.len(),
        dense.len()
    );
    sparse
}

#[test]
fn sparse_ddg_matches_the_dense_oracle_on_corpus_gallery_and_benign_shapes() {
    let suite: Vec<(String, String)> = corpus::addons()
        .into_iter()
        .map(|a| (a.name.to_owned(), a.source.to_owned()))
        .chain(
            corpus::attacks::attacks()
                .into_iter()
                .map(|a| (a.name.to_owned(), a.source.to_owned())),
        )
        .chain((0..3).map(|i| (format!("benign_{i}"), corpus::benign_addon(i))))
        .collect();
    assert_eq!(suite.len(), 18);
    let (mut edges, mut strong) = (0, 0);
    for (name, source) in &suite {
        let ddg = same_ddg(name, source);
        edges += ddg.len();
        strong += ddg.iter().filter(|e| e.strong).count();
    }
    // Not vacuous: both annotations occur.
    assert!(
        strong > 0 && strong < edges,
        "{strong} strong of {edges} edges"
    );
}

#[test]
fn sparse_ddg_matches_the_dense_oracle_on_the_many_function_family() {
    let mut last = 0;
    for n in [6, 8, 12, 18, 24, 48] {
        let edges = same_ddg(&format!("many_fn_addon({n})"), &corpus::many_fn_addon(n)).len();
        assert!(edges > last, "n = {n}: {edges} edges, not more than {last}");
        last = edges;
    }
}

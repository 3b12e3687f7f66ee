//! The sparse DDG against its oracle: `jspdg::build_ddg` must produce
//! exactly the `BTreeSet<DataDep>` of the dense reaching-definitions pass
//! it replaced (kept in `tests/support/dense_ddg.rs`), in that set's
//! order (strictly sorted), over the corpus, the attack gallery, the
//! benign queue shape, the many-function scaling family, three
//! one-large-object shapes and a loop whose reads cross recency twins.
//! `tests/fuzz_pipeline.rs` checks the same property on generated
//! programs.

#[path = "support/dense_ddg.rs"]
mod dense_ddg;

use jsanalysis::AnalysisConfig;
use jspdg::{DataDep, SuperGraph};
use std::collections::BTreeSet;

/// Analyzes `source` and builds its supergraph as the pipeline does,
/// asserts the sparse and dense DDGs are identical, and returns the
/// edges.
fn same_ddg(name: &str, source: &str) -> Vec<DataDep> {
    let ast = jsparser::parse(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let lowered = jsir::lower(&ast);
    let analysis = jsanalysis::analyze(&lowered, &AnalysisConfig::default());
    assert!(
        analysis.budget_exhausted.is_none() && !analysis.hit_step_limit,
        "{name}: phase 1 did not finish"
    );
    let sg = SuperGraph::build(&lowered, &analysis);
    let edges = jspdg::build_ddg(&sg, &analysis);
    assert!(
        edges.is_sorted_by(|a, b| a < b),
        "{name}: build_ddg's edges are not strictly sorted"
    );
    let sparse = BTreeSet::from_iter(edges.iter().copied());
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
    edges
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

/// One object with `n` properties: `n` `var`s in one function (its
/// frame), `n` top-level `var`s (the global object) or `n` writes
/// `o.pN = N;` to one object. Each also writes and reads a property
/// under an unknown name `k`: on the global object and on `o` that puts
/// a non-exact location in the large object's group, so the DDG's meet
/// relates exact and non-exact names there (a frame cannot be indexed,
/// so the function shape uses an object of its own).
fn one_large_object(shape: &str, n: usize) -> String {
    let chain = |prefix: &str| {
        (1..n)
            .map(|i| format!("{prefix}v{i} = v{} + 1;\n", i - 1))
            .collect::<String>()
    };
    match shape {
        "function_vars" => format!(
            "function f(k) {{\nvar o = {{}};\nvar v0 = 0;\n{}o[k] = v{};\nvar r = o[k] + o.x;\n}}\nf(getKey());\n",
            chain("var "),
            n - 1
        ),
        "top_level_vars" => format!(
            "var k = getKey();\nvar v0 = 0;\n{}this[k] = v{};\nvar r = this[k] + v0;\n",
            chain("var "),
            n - 1
        ),
        "object_props" => {
            let writes: String = (0..n).map(|i| format!("o.p{i} = {i};\n")).collect();
            let reads: String = (0..n).step_by(7).map(|i| format!("s = s + o.p{i};\n")).collect();
            format!("var k = getKey();\nvar o = {{}};\n{writes}o[k] = 1;\nvar s = o[k];\n{reads}")
        }
        other => unreachable!("unknown shape {other}"),
    }
}

#[test]
fn sparse_ddg_matches_the_dense_oracle_on_one_large_object() {
    for shape in ["function_vars", "top_level_vars", "object_props"] {
        let ddg = same_ddg(shape, &one_large_object(shape, 300));
        // Not vacuous: the chain's strong edges and the unknown name's
        // weak ones both occur.
        let strong = ddg.iter().filter(|e| e.strong).count();
        assert!(
            strong >= 250 && strong < ddg.len(),
            "{shape}: {strong} strong of {} edges",
            ddg.len()
        );
    }
}

/// Objects allocated in a loop, each read one iteration later through
/// the previous one: recency aging renames the last object's site to
/// its twin in between, so the read of the aged object's property must
/// meet the write recorded on the most-recent site.
#[test]
fn sparse_ddg_matches_the_dense_oracle_across_recency_twins() {
    let loop_of = |body: &str| {
        format!(
            "var prev = null; var out = 0;\n\
             while (getFlag()) {{\n var o = {{}};\n if (prev) {{ {body} }}\n o.p = getKey();\n prev = o;\n}}\n\
             send(out);\n"
        )
    };
    for (name, source) in [
        ("exact", loop_of("out = out + prev.p;")),
        ("unknown", loop_of("out = out + prev[getKey()];")),
    ] {
        let ast = jsparser::parse(&source).unwrap();
        let analysis = jsanalysis::analyze(&jsir::lower(&ast), &AnalysisConfig::default());
        assert!(!analysis.site_aliases.is_empty(), "{name}: no aged site");
        same_ddg(name, &source);
    }
}

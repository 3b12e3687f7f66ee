//! The 22 inputs the committed goldens run on, shared by the signature
//! golden (`tests/signature_golden.rs`) and the analysis golden
//! (`tests/analysis_golden.rs`): the corpus, the attack gallery, the
//! Figure 1 program, the benign queue shape and three members of the
//! many-function family, each named.

/// Every golden input as `(name, source)`.
pub fn inputs() -> Vec<(String, String)> {
    corpus::addons()
        .into_iter()
        .map(|a| (a.name.to_owned(), a.source.to_owned()))
        .chain(
            corpus::attacks::attacks()
                .into_iter()
                .map(|a| (a.name.to_owned(), a.source.to_owned())),
        )
        .chain([("figure1".to_owned(), corpus::figure1_source())])
        .chain((0..3).map(|i| (format!("benign_{i}"), corpus::benign_addon(i))))
        .chain([6, 12, 24].map(|n| (format!("many_fn_addon({n})"), corpus::many_fn_addon(n))))
        .collect()
}

//! `vet serve`'s engine runs each job inside a symbol scope of its own
//! (`jsdomains::job_scope`), freed when the job ends. So a stream of
//! never-seen addons leaves the process's symbol table where the first
//! job left it: the daemon's memory does not grow with the number of
//! addons it vets.
//!
//! One test in its own binary, so no other test interns symbols while
//! it counts them. Its first job is the process's first analysis, so
//! the thread's environment template and the empty symbol are first
//! built inside a scope, as on a fresh daemon worker.

use addon_sig::service_engine;
use jsanalysis::AnalysisConfig;
use jsdomains::Sym;
use sigtrace::{MetricsRegistry, Trace};

#[test]
fn distinct_jobs_leave_no_symbols_behind() {
    // The daemon's configuration: triage on.
    let config = AnalysisConfig::default().with_triage(true);
    let metrics = MetricsRegistry::new();
    let job = |source: &str| match service_engine(source, &config, &metrics, Trace::Off) {
        sigserve::VetOutcome::Report { signature_json, .. } => signature_json,
        other => panic!("the job did not report: {other:?}"),
    };
    job(&corpus::benign_addon(0));
    let after_first = Sym::interner_len();
    for i in 1..300 {
        job(&corpus::benign_addon(i));
    }
    assert_eq!(
        Sym::interner_len(),
        after_first,
        "299 never-seen jobs left symbols in the process table"
    );
    // The benign addons have empty signatures and never read the
    // browser environment; the gallery's attacks read it and have
    // flows. After all those jobs, each gives what a plain run gives.
    for attack in corpus::attacks::attacks() {
        let scoped = job(attack.source);
        let plain = addon_sig::Pipeline::new()
            .config(config.clone())
            .run(attack.source)
            .expect("the attack analyzes");
        assert_eq!(scoped, plain.signature.to_json(), "{}", attack.name);
    }
}

//! The symbol scope `vet serve` runs each job in
//! (`jsdomains::job_scope`): its symbols may not outlive it, debug
//! builds stop a read of one that does, and a job that panics still
//! closes its scope, so the worker's next job starts from a fresh table.

use addon_sig::service_engine;
use jsanalysis::AnalysisConfig;
use jsdomains::{job_scope, Sym};
use sigtrace::{MetricsRegistry, Trace};

fn keylogger() -> &'static str {
    corpus::attacks::attacks()
        .into_iter()
        .find(|a| a.name == "keylogger")
        .expect("gallery has the keylogger")
        .source
}

/// The signature `vet serve`'s engine gives `source`.
fn serve(source: &str) -> String {
    let config = AnalysisConfig::default().with_triage(true);
    match service_engine(source, &config, &MetricsRegistry::new(), Trace::Off) {
        sigserve::VetOutcome::Report { signature_json, .. } => signature_json,
        other => panic!("the job did not report: {other:?}"),
    }
}

#[test]
#[cfg(debug_assertions)]
fn reading_an_escaped_symbol_panics_naming_its_scope() {
    // SAFETY: deliberately broken, to show the debug check: the symbol
    // escapes its scope, and the check stops the read of its freed text.
    let escaped = unsafe { job_scope(|| Sym::intern("symbol-scope-test-escaped")) };
    let caught =
        std::panic::catch_unwind(|| escaped.to_string()).expect_err("the read went through");
    let message = caught
        .downcast_ref::<String>()
        .expect("a formatted message");
    let scope = message
        .split_once("of job scope ")
        .and_then(|(_, rest)| rest.split_once(' '))
        .map(|(number, _)| number);
    assert!(
        scope.is_some_and(|n| n.parse::<u32>().is_ok_and(|n| n > 0))
            && message.contains("read outside that scope"),
        "{message}"
    );
}

#[test]
fn a_panicking_job_leaves_the_next_job_a_fresh_table() {
    let before = serve(keylogger());
    let caught = std::panic::catch_unwind(|| {
        // SAFETY: nothing leaves the scope but the panic's message.
        unsafe {
            job_scope(|| {
                addon_sig::analyze_addon(keylogger()).expect("analyzes");
                panic!("the job failed after its analysis");
            })
        }
    });
    assert!(caught.is_err());
    // Had the panicking job's scope stayed open, this job's scope would
    // not open: scopes do not nest.
    assert_eq!(serve(keylogger()), before);
}

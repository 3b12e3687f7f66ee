//! The browser environment is built once per thread, and every base
//! analysis run on that thread starts from a copy of it
//! (`jsanalysis::natives::setup`). This checks that no run can change
//! what a later run starts from: on one thread, input A, then an input
//! B that overwrites the host objects and natives A reads, then A
//! again, each give the same result, `heap_cow_clones` included, as
//! on a thread of their own; and repeating A interns no new symbol.
//!
//! The template outlives every job's symbol scope, so it interns into
//! the process table even when a daemon job builds it: on a thread
//! whose first run is a `service_engine` job, later plain and scoped
//! runs give the same result as a fresh thread, and repeated scoped
//! runs leave the process table as they found it.
//!
//! One test in its own binary, so no other test interns symbols while
//! it counts them.

#[path = "support/analysis_text.rs"]
#[allow(dead_code)] // the golden's digests go unused here
mod analysis_text;

use jsanalysis::AnalysisConfig;
use jsdomains::Sym;
use sigtrace::{MetricsRegistry, Trace};

/// Rebinds and mutates what the keylogger reads: the event object, the
/// listener natives, `XMLHttpRequest`, and the document and location
/// host objects, and registers handlers of its own.
const OVERWRITER: &str = r#"
window.addEventListener = function (t, h) { h({ keyCode: "forged" }); };
XMLHttpRequest = function () { this.open = 1; };
document.title = "changed";
document.cookie = document.cookie + "x";
content.location.href = "http://b.example/";
gBrowser.currentURI.spec = "http://b.example/";
function onKey(event) { event.keyCode = "forged"; event.target.value = 2; }
document.addEventListener("keypress", onKey, false);
setInterval(function () { window.extra = new XMLHttpRequest(); }, 10);
"#;

/// The canonical text of one run's `AnalysisResult`, counters included.
fn vet(source: &str) -> String {
    let ast = jsparser::parse(source).expect("parses");
    let lowered = jsir::lower(&ast);
    let result = jsanalysis::analyze(&lowered, &AnalysisConfig::default());
    analysis_text::render(&result, &[])
}

/// `vet` inside a job scope of its own, as a daemon job runs.
fn vet_scoped(source: &str) -> String {
    // SAFETY: only the rendered text leaves the scope.
    unsafe { jsdomains::job_scope(|| vet(source)) }
}

/// The signature `vet serve`'s engine gives `source`.
fn serve(source: &str) -> String {
    let config = AnalysisConfig::default();
    match addon_sig::service_engine(source, &config, &MetricsRegistry::new(), Trace::Off) {
        sigserve::VetOutcome::Report { signature_json, .. } => signature_json,
        other => panic!("the job did not report: {other:?}"),
    }
}

/// `vet` on a thread of its own, whose template no run has used.
fn vet_on_a_fresh_thread(source: &'static str) -> String {
    std::thread::spawn(move || vet(source))
        .join()
        .expect("fresh thread")
}

/// What a thread whose first run is a daemon job sees, in order: two
/// scoped runs of `source`, then a plain run and a scoped run.
struct FirstRunInAJob {
    scoped: [String; 2],
    plain: String,
    scoped_after_plain: String,
}

/// Runs `source` on a fresh thread whose template a daemon job builds,
/// inside the job's scope.
fn first_run_in_a_job(source: &'static str) -> FirstRunInAJob {
    std::thread::spawn(move || {
        let signature = serve(source);
        let interned = Sym::interner_len();
        let scoped = [vet_scoped(source), vet_scoped(source)];
        assert_eq!(serve(source), signature, "a second job differs");
        assert_eq!(
            Sym::interner_len(),
            interned,
            "repeated scoped runs interned into the process table"
        );
        let plain = vet(source);
        FirstRunInAJob {
            scoped,
            plain,
            scoped_after_plain: vet_scoped(source),
        }
    })
    .join()
    .expect("thread whose first run is a job")
}

#[test]
fn no_run_changes_what_the_next_run_starts_from() {
    let keylogger = corpus::attacks::attacks()
        .into_iter()
        .find(|a| a.name == "keylogger")
        .expect("gallery has the keylogger")
        .source;
    // First, so that the process's first template, and its first use
    // of the empty symbol, fall inside a job scope.
    let in_a_job = first_run_in_a_job(keylogger);
    let fresh_a = vet_on_a_fresh_thread(keylogger);
    let fresh_b = vet_on_a_fresh_thread(OVERWRITER);
    assert_ne!(fresh_a, fresh_b);
    for (run, seen) in [
        ("first scoped run", &in_a_job.scoped[0]),
        ("second scoped run", &in_a_job.scoped[1]),
        ("plain run", &in_a_job.plain),
        ("scoped run after a plain one", &in_a_job.scoped_after_plain),
    ] {
        assert_eq!(
            seen, &fresh_a,
            "after a job built the template, the {run} of A differs"
        );
    }

    // A, B, then A again, on one thread.
    assert_eq!(
        vet(keylogger),
        fresh_a,
        "A differs from A on a fresh thread"
    );
    let interned = Sym::interner_len();
    assert_eq!(vet(keylogger), fresh_a, "a second run of A differs");
    assert_eq!(
        Sym::interner_len(),
        interned,
        "a repeated run of A interned"
    );
    assert_eq!(vet(OVERWRITER), fresh_b, "B after A differs");
    let interned = Sym::interner_len();
    assert_eq!(vet(keylogger), fresh_a, "A after B differs");
    assert_eq!(Sym::interner_len(), interned, "A after B interned");
}

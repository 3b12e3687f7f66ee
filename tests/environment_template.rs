//! The browser environment is built once per thread, and every base
//! analysis run on that thread starts from a copy of it
//! (`jsanalysis::natives::setup`). This checks that no run can change
//! what a later run starts from: on one thread, input A, then an input
//! B that overwrites the host objects and natives A reads, then A
//! again, each give the same result, `heap_cow_clones` included, as
//! on a thread of their own; and repeating A interns no new symbol.
//!
//! One test in its own binary, so no other test interns symbols while
//! it counts them.

#[path = "support/analysis_text.rs"]
#[allow(dead_code)] // the golden's digests go unused here
mod analysis_text;

use jsanalysis::AnalysisConfig;
use jsdomains::Sym;

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

/// `vet` on a thread of its own, whose template no run has used.
fn vet_on_a_fresh_thread(source: &'static str) -> String {
    std::thread::spawn(move || vet(source))
        .join()
        .expect("fresh thread")
}

#[test]
fn no_run_changes_what_the_next_run_starts_from() {
    let keylogger = corpus::attacks::attacks()
        .into_iter()
        .find(|a| a.name == "keylogger")
        .expect("gallery has the keylogger")
        .source;
    let fresh_a = vet_on_a_fresh_thread(keylogger);
    let fresh_b = vet_on_a_fresh_thread(OVERWRITER);
    assert_ne!(fresh_a, fresh_b);

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

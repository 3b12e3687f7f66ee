//! A call whose callee may be a native or an addon function: the native
//! result is written at the `Call`, the addon's return value at the
//! `CallResult`. The `CallResult` write must be weak, so the `Call`'s
//! definition of the result still reaches its use. (`var x = f("a")`
//! lowers to the call writing a temporary and a copy of that temporary
//! into `x`; the copy is the use.)

use jsanalysis::Strength;
use jsir::{IrStmtKind, StmtId};

const SOURCE: &str = "\
function helper(v) { return v; }
var f = helper;
if (Math.random() < 0.5) { f = escape; }
var x = f(\"a\");
var y = x;
";

/// The one statement of `kind` on source line `line`.
fn stmt_on_line(
    report: &addon_sig::Report,
    line: u32,
    kind: impl Fn(&IrStmtKind) -> bool,
) -> StmtId {
    let found: Vec<StmtId> = report
        .lowered
        .program
        .stmts
        .iter()
        .filter(|s| s.span.line == line && kind(&s.kind))
        .map(|s| s.id)
        .collect();
    assert_eq!(found.len(), 1, "line {line}: {found:?}");
    found[0]
}

#[test]
fn mixed_native_and_addon_callee_keeps_the_calls_definition_alive() {
    let report = addon_sig::analyze_addon(SOURCE).expect("analyzes");
    let call = stmt_on_line(&report, 4, |k| matches!(k, IrStmtKind::Call { .. }));
    let result = stmt_on_line(&report, 4, |k| matches!(k, IrStmtKind::CallResult { .. }));
    let use_of_result = stmt_on_line(&report, 4, |k| matches!(k, IrStmtKind::Copy { .. }));

    let writes: Vec<Strength> = report.analysis.rw[&result]
        .writes
        .iter()
        .map(|(_, strength)| strength)
        .collect();
    assert_eq!(
        writes,
        [Strength::Weak],
        "the CallResult's write of the result"
    );

    assert!(
        report
            .pdg
            .succs(call)
            .iter()
            .any(|e| e.to == use_of_result && e.ann.is_data()),
        "no data edge from the Call to the copy of its result into x; the Call's edges: {:?}",
        report.pdg.succs(call)
    );
}

//! Staged construction of the annotated control-dependence graph
//! (Section 3.3 of the paper).
//!
//! Four stages over successively pruned CFGs:
//!
//! 1. local-only CFG -> `CDG1`, annotated `local`;
//! 2. local + explicit non-local CFG -> `CDG2 - CDG1`, annotated
//!    `nonlocexp`;
//! 3. full CFG (minus uncaught-exception edges, which the paper omits) ->
//!    `CDG3 - CDG2 - CDG1`, annotated `nonlocimp`;
//! 4. edges whose source lies on a CFG cycle are promoted to `ctrl^amp`.
//!
//! Interprocedural control dependence is SDG-style: every callee entry is
//! control dependent on its call sites (a call executes its callee exactly
//! when the call itself executes, so these edges are annotated `local`);
//! statements unconditionally executed within the callee inherit the
//! dependence transitively through the callee's entry.

use crate::annotation::{Annotation, CtrlKind};
use crate::postdom::{postdominators, FuncGraph};
use crate::supergraph::SuperGraph;
use jsanalysis::AnalysisResult;
use jsir::{EdgeKind, Lowered, StmtId};

/// A control-dependence edge with its annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CtrlDep {
    /// The controlling statement (branch, throw source, call site, ...).
    pub from: StmtId,
    /// The controlled statement.
    pub to: StmtId,
    /// Which control kind produced the edge.
    pub kind: CtrlKind,
    /// Amplified (source on a CFG cycle)?
    pub amp: bool,
}

impl CtrlDep {
    /// The PDG annotation of this edge.
    pub fn annotation(&self) -> Annotation {
        Annotation::Ctrl {
            kind: self.kind,
            amp: self.amp,
        }
    }
}

/// Builds the annotated CDG: per function, one [`FuncGraph`] filtered
/// once per stage; each `(u, w)` takes the kind of the first stage that
/// makes `w` control dependent on `u`, and is amplified when `u` is one
/// of the analysis's `cyclic_stmts`. The edges come sorted, without
/// duplicates.
pub fn build_cdg(lowered: &Lowered, analysis: &AnalysisResult, sg: &SuperGraph) -> Vec<CtrlDep> {
    let funcs = &lowered.program.funcs;
    // Each statement's position in its own function: the node numbering
    // of every `FuncGraph`.
    let mut local = vec![0; lowered.program.stmts.len()];
    for func in funcs {
        for (i, s) in func.stmts.iter().enumerate() {
            local[s.0 as usize] = i;
        }
    }
    let mut out = Vec::new();
    for func in funcs {
        let mut g = FuncGraph::of(sg, func, &local);
        // The virtual entry -> exit edge makes unconditionally-executed
        // statements control dependent on the function entry (and,
        // through the call dependence below, on its call sites).
        g.add_edge(
            local[func.entry.0 as usize],
            local[func.exit.0 as usize],
            EdgeKind::Virtual,
        );
        let stages = [
            // Stage 1: local control flow only.
            (CtrlKind::Local, postdominators(&g, EdgeKind::is_local)),
            // Stage 2: + explicit non-local edges.
            (
                CtrlKind::NonLocExp,
                postdominators(&g, |k| k.is_local() || k.is_nonlocal_explicit()),
            ),
            // Stage 3: everything except uncaught exceptions.
            (
                CtrlKind::NonLocImp,
                postdominators(&g, |k| k != EdgeKind::Uncaught),
            ),
        ];
        // `last[w]` is the latest `u` that `w` was made dependent on.
        let mut last = vec![usize::MAX; func.stmts.len()];
        for (u, &from) in func.stmts.iter().enumerate() {
            // Stage 4: amplification -- the source lies on a cycle of the
            // analysis's context-qualified transition graph, so a function
            // merely called from two sites is not cyclic.
            let amp = analysis.cyclic_stmts.contains(&from);
            for (kind, pd) in &stages {
                pd.dependents(u, |w| {
                    if last[w] != u {
                        last[w] = u;
                        out.push(CtrlDep {
                            from,
                            to: func.stmts[w],
                            kind: *kind,
                            amp,
                        });
                    }
                });
            }
        }
    }

    // SDG-style call dependence: callee entry depends on the call site.
    for (call, targets) in analysis.call_targets.iter() {
        let amp = analysis.cyclic_stmts.contains(&call);
        for &f in targets {
            let to = lowered.program.func(f).entry;
            out.push(CtrlDep {
                from: call,
                to,
                kind: CtrlKind::Local,
                amp,
            });
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsanalysis::{analyze, AnalysisConfig};
    use jsir::{IrStmtKind, Lowered, Operand};

    fn run(src: &str) -> (Lowered, Vec<CtrlDep>) {
        let ast = jsparser::parse(src).unwrap();
        let lowered = jsir::lower_with_options(&ast, &jsir::LowerOptions { event_loop: false });
        let analysis = analyze(&lowered, &AnalysisConfig::default());
        let sg = SuperGraph::build(&lowered, &analysis);
        let cdg = build_cdg(&lowered, &analysis, &sg);
        (lowered, cdg)
    }

    fn stmts(lowered: &Lowered, pred: impl Fn(&IrStmtKind) -> bool) -> Vec<StmtId> {
        lowered
            .program
            .stmts
            .iter()
            .filter(|s| pred(&s.kind))
            .map(|s| s.id)
            .collect()
    }

    #[test]
    fn if_branch_local_dependence() {
        let (lowered, cdg) = run("if (Math.random() < 0.5) { mark_global = 1; }");
        let branch = stmts(&lowered, |k| matches!(k, IrStmtKind::Branch { .. }))[0];
        let store = stmts(
            &lowered,
            |k| matches!(k, IrStmtKind::Copy { dst: jsir::Place::Global(g), .. } if g == "mark_global"),
        )[0];
        let e = cdg
            .iter()
            .find(|e| e.from == branch && e.to == store)
            .expect("store control-dependent on branch");
        assert_eq!(e.kind, CtrlKind::Local);
        assert!(!e.amp);
    }

    #[test]
    fn loop_body_amplified() {
        let (lowered, cdg) = run("while (Math.random() < 0.9) { tick_global = 1; }");
        let store = stmts(
            &lowered,
            |k| matches!(k, IrStmtKind::Copy { dst: jsir::Place::Global(g), .. } if g == "tick_global"),
        )[0];
        let e = cdg
            .iter()
            .find(|e| e.to == store && e.kind == CtrlKind::Local)
            .expect("loop body control dependence");
        assert!(e.amp, "loop body edges are amplified");
    }

    #[test]
    fn throw_gives_nonlocexp() {
        // Paper Figure 1 lines 13-17: line 16 is control dependent on line
        // 14 through the explicit throw.
        let (lowered, cdg) = run(r#"
try {
  if (doc_global != "hush-hush.com")
    throw "irrelevant";
  send_global(null);
} catch (x) {}
"#);
        let branch = stmts(&lowered, |k| matches!(k, IrStmtKind::Branch { .. }))[0];
        let send_call = *stmts(&lowered, |k| {
            matches!(k, IrStmtKind::Call { callee: Operand::Place(jsir::Place::Global(g)), .. } if g == "send_global")
        })
        .first()
        .expect("send call");
        let e = cdg
            .iter()
            .find(|e| e.from == branch && e.to == send_call)
            .expect("send control dependent on branch via throw");
        assert_eq!(e.kind, CtrlKind::NonLocExp);
    }

    #[test]
    fn implicit_exception_gives_nonlocimp() {
        // Paper Figure 1 lines 18-23: obj may be null/undefined, so the
        // store may implicitly throw, making the following send control
        // dependent on the branch with a nonlocimp edge.
        let (lowered, cdg) = run(r#"
var obj;
if (Math.random() < 0.5) { obj = {}; }
try {
  if (doc_global != "mystic.com")
    obj.prop = 1;
  send_global(null);
} catch (x) {}
"#);
        let sends = stmts(
            &lowered,
            |k| matches!(k, IrStmtKind::Call { callee: Operand::Place(jsir::Place::Global(g)), .. } if g == "send_global"),
        );
        let send_call = sends[0];
        let has_imp = cdg
            .iter()
            .any(|e| e.to == send_call && e.kind == CtrlKind::NonLocImp);
        assert!(
            has_imp,
            "send must be nonlocimp-dependent on the store's implicit throw: {:?}",
            cdg.iter().filter(|e| e.to == send_call).collect::<Vec<_>>()
        );
    }

    #[test]
    fn call_dependence_is_local() {
        let (lowered, cdg) = run("function f() { inner_global = 1; } f();");
        let f = lowered
            .program
            .funcs
            .iter()
            .find(|f| f.name == "f")
            .unwrap();
        let call = stmts(&lowered, |k| matches!(k, IrStmtKind::Call { .. }))[0];
        let e = cdg
            .iter()
            .find(|e| e.from == call && e.to == f.entry)
            .expect("callee entry depends on call site");
        assert_eq!(e.kind, CtrlKind::Local);
    }

    #[test]
    fn straight_line_depends_only_on_entry() {
        let (lowered, cdg) = run("var a = 1; var b = a;");
        let entry = lowered.program.top_level().entry;
        let copies = stmts(&lowered, |k| matches!(k, IrStmtKind::Copy { .. }));
        for c in copies {
            let deps: Vec<_> = cdg.iter().filter(|e| e.to == c).collect();
            assert!(
                deps.iter().all(|e| e.from == entry),
                "straight-line code depends only on the function entry: {deps:?}"
            );
            assert!(!deps.is_empty(), "SDG entry dependence expected");
        }
    }
}

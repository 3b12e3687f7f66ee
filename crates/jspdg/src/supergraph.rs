//! The interprocedural supergraph: one kinded adjacency holding the
//! lowered CFG, the implicit-exception edges, call edges (call site to
//! callee entry, [`EdgeKind::Call`]) and return edges (callee exit back
//! to the call and its continuations, [`EdgeKind::CallReturn`]). The
//! DDG's reaching-definitions pass follows every edge but the `Uncaught`
//! ones, and the CDG reads each function's intraprocedural edges. Call
//! targets and cycles (the CDG's call dependence and amplified sources)
//! are read from the base analysis itself.

use jsanalysis::AnalysisResult;
use jsir::{EdgeKind, IrProgram, Lowered, StmtId};

/// The interprocedural supergraph.
#[derive(Debug)]
pub struct SuperGraph {
    /// Each statement's successors with their edge kinds, indexed by
    /// `StmtId`.
    succs: Vec<Vec<(StmtId, EdgeKind)>>,
}

impl SuperGraph {
    /// Builds the supergraph from lowering output and the base analysis.
    pub fn build(lowered: &Lowered, analysis: &AnalysisResult) -> SuperGraph {
        let program = &lowered.program;
        let mut succs: Vec<Vec<(StmtId, EdgeKind)>> = program
            .stmts
            .iter()
            .map(|s| lowered.cfg.succs(s.id).to_vec())
            .collect();
        add_implicit_throw_edges(program, &mut succs, analysis.may_throw.keys());
        // Call and return edges: call site to callee entry, and callee
        // exit back to the call's continuations and to the call statement
        // itself, because the call is where the return-value read is
        // recorded.
        for (call, targets) in analysis.call_targets.iter() {
            let continuations: Vec<StmtId> = succs[call.0 as usize]
                .iter()
                .filter(|(_, k)| *k != EdgeKind::Uncaught)
                .map(|(t, _)| *t)
                .collect();
            for fid in targets {
                let f = program.func(*fid);
                succs[call.0 as usize].push((f.entry, EdgeKind::Call));
                let exit = &mut succs[f.exit.0 as usize];
                exit.extend(continuations.iter().map(|&c| (c, EdgeKind::CallReturn)));
                exit.push((call, EdgeKind::CallReturn));
            }
        }
        SuperGraph { succs }
    }

    /// The successors of `s` with their edge kinds.
    pub fn succs(&self, s: StmtId) -> &[(StmtId, EdgeKind)] {
        self.succs.get(s.0 as usize).map_or(&[], Vec::as_slice)
    }
}

/// Adds the *implicit exception* edges: for every statement in
/// `may_throw` an edge to its innermost handler
/// ([`EdgeKind::ThrowImplicit`]) or, with no handler, to the function exit
/// ([`EdgeKind::Uncaught`], which every CDG stage ignores -- the paper
/// omits uncaught-exception control dependence).
///
/// `may_throw` is computed by the base analysis: statically a property
/// access may throw only when the base analysis says the object may be
/// `undefined`/`null`, and a call only when the callee may be a
/// non-function.
fn add_implicit_throw_edges(
    program: &IrProgram,
    succs: &mut [Vec<(StmtId, EdgeKind)>],
    may_throw: impl IntoIterator<Item = StmtId>,
) {
    for sid in may_throw {
        let stmt = program.stmt(sid);
        succs[sid.0 as usize].push(match stmt.handler {
            Some(h) => (h, EdgeKind::ThrowImplicit),
            None => (program.func(stmt.func).exit, EdgeKind::Uncaught),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsanalysis::{analyze, AnalysisConfig};
    use jsir::IrStmtKind;

    fn build(src: &str) -> (Lowered, AnalysisResult, SuperGraph) {
        let ast = jsparser::parse(src).unwrap();
        let lowered = jsir::lower(&ast);
        let analysis = analyze(&lowered, &AnalysisConfig::default());
        let sg = SuperGraph::build(&lowered, &analysis);
        (lowered, analysis, sg)
    }

    fn lowered(src: &str) -> Lowered {
        jsir::lower_with_options(
            &jsparser::parse(src).unwrap(),
            &jsir::LowerOptions { event_loop: false },
        )
    }

    /// The lowered CFG's adjacency, as `SuperGraph::build` copies it.
    fn adjacency(l: &Lowered) -> Vec<Vec<(StmtId, EdgeKind)>> {
        l.program
            .stmts
            .iter()
            .map(|s| l.cfg.succs(s.id).to_vec())
            .collect()
    }

    fn edge_count(succs: &[Vec<(StmtId, EdgeKind)>]) -> usize {
        succs.iter().map(Vec::len).sum()
    }

    fn has_kind(succs: &[Vec<(StmtId, EdgeKind)>], kind: EdgeKind) -> bool {
        succs.iter().flatten().any(|&(_, k)| k == kind)
    }

    #[test]
    fn call_edges_connect_functions() {
        let (lowered, analysis, sg) = build("function f() { return 1; } f();");
        let f = lowered
            .program
            .funcs
            .iter()
            .find(|f| f.name == "f")
            .unwrap();
        assert!(analysis
            .call_targets
            .keys()
            .any(|call| sg.succs(call).contains(&(f.entry, EdgeKind::Call))));
        // And the exit flows back to the caller's continuation.
        assert!(sg
            .succs(f.exit)
            .iter()
            .any(|&(_, k)| k == EdgeKind::CallReturn));
    }

    #[test]
    fn implicit_throw_edges_included() {
        let (_, _, sg) = build("try { maybe.prop = 1; } catch (e) { h(); }");
        assert!(has_kind(&sg.succs, EdgeKind::ThrowImplicit));
    }

    #[test]
    fn implicit_edges_added_to_handler() {
        let l = lowered("try { obj.prop = 1; } catch (x) { k(); }");
        let mut cfg = adjacency(&l);
        let store = l
            .program
            .stmts
            .iter()
            .find(|s| matches!(s.kind, IrStmtKind::StoreProp { .. }))
            .unwrap();
        let before = edge_count(&cfg);
        add_implicit_throw_edges(&l.program, &mut cfg, [store.id]);
        assert_eq!(edge_count(&cfg), before + 1);
        assert!(has_kind(&cfg, EdgeKind::ThrowImplicit));
    }

    #[test]
    fn implicit_edges_without_handler_are_uncaught() {
        let l = lowered("obj.prop = 1;");
        let mut cfg = adjacency(&l);
        let store = l
            .program
            .stmts
            .iter()
            .find(|s| matches!(s.kind, IrStmtKind::StoreProp { .. }))
            .unwrap();
        add_implicit_throw_edges(&l.program, &mut cfg, [store.id]);
        assert!(has_kind(&cfg, EdgeKind::Uncaught));
        assert!(!has_kind(&cfg, EdgeKind::ThrowImplicit));
    }
}

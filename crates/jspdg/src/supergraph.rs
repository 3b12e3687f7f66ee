//! The interprocedural supergraph: the CFG augmented with implicit-throw
//! edges, call edges (call site to callee entry), and return edges (callee
//! exit back to the call's continuations). The DDG's reaching-definitions
//! pass runs over it, and the CDG over `cfg`. Call targets and cycles
//! (the CDG's call dependence and amplified sources) are read from the
//! base analysis itself.

use jsanalysis::AnalysisResult;
use jsir::{Cfg, EdgeKind, Lowered, StmtId};
use std::collections::BTreeMap;

/// The interprocedural supergraph.
#[derive(Debug)]
pub struct SuperGraph {
    /// The intraprocedural CFG including implicit-throw edges.
    pub cfg: Cfg,
    /// Flattened forward adjacency (data can flow along these edges);
    /// excludes `Uncaught` edges (termination). Includes an extra
    /// callee-exit -> call-site edge so that return-value reads recorded
    /// on the call statement see definitions made inside the callee.
    succs: BTreeMap<StmtId, Vec<StmtId>>,
}

impl SuperGraph {
    /// Builds the supergraph from lowering output and the base analysis.
    pub fn build(lowered: &Lowered, analysis: &AnalysisResult) -> SuperGraph {
        let mut cfg = lowered.cfg.clone();
        jsir::add_implicit_throw_edges(&lowered.program, &mut cfg, &analysis.may_throw);

        fn add(map: &mut BTreeMap<StmtId, Vec<StmtId>>, from: StmtId, to: StmtId) {
            let list = map.entry(from).or_default();
            if !list.contains(&to) {
                list.push(to);
            }
        }
        let mut succs: BTreeMap<StmtId, Vec<StmtId>> = BTreeMap::new();
        for e in cfg.edges() {
            if e.kind != EdgeKind::Uncaught {
                add(&mut succs, e.from, e.to);
            }
        }
        // Call and return edges: call site to callee entry, and callee
        // exit back to the call's continuations and to the call statement
        // itself, because the call is where the return-value read is
        // recorded.
        for (&call, targets) in &analysis.call_targets {
            let continuations: Vec<StmtId> = cfg
                .succs(call)
                .iter()
                .filter(|(_, k)| *k != EdgeKind::Uncaught)
                .map(|(t, _)| *t)
                .collect();
            for fid in targets {
                let f: &jsir::IrFunc = lowered.program.func(*fid);
                add(&mut succs, call, f.entry);
                for &c in &continuations {
                    add(&mut succs, f.exit, c);
                }
                add(&mut succs, f.exit, call);
            }
        }
        SuperGraph { cfg, succs }
    }

    /// Successors along which data can flow.
    pub fn succs(&self, s: StmtId) -> &[StmtId] {
        self.succs.get(&s).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsanalysis::{analyze, AnalysisConfig};

    fn build(src: &str) -> (Lowered, AnalysisResult, SuperGraph) {
        let ast = jsparser::parse(src).unwrap();
        let lowered = jsir::lower(&ast);
        let analysis = analyze(&lowered, &AnalysisConfig::default());
        let sg = SuperGraph::build(&lowered, &analysis);
        (lowered, analysis, sg)
    }

    #[test]
    fn call_edges_connect_functions() {
        let (lowered, analysis, sg) = build("function f() { return 1; } f();");
        let f = lowered.program.funcs.iter().find(|f| f.name == "f").unwrap();
        assert!(analysis
            .call_targets
            .keys()
            .any(|&call| sg.succs(call).contains(&f.entry)));
        // And the exit flows back to the caller's continuation.
        assert!(!sg.succs(f.exit).is_empty());
    }

    #[test]
    fn implicit_throw_edges_included() {
        let (_, _, sg) = build("try { maybe.prop = 1; } catch (e) { h(); }");
        assert!(sg
            .cfg
            .edges()
            .any(|e| e.kind == EdgeKind::ThrowImplicit));
    }
}

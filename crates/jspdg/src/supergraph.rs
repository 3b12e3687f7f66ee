//! The interprocedural supergraph: the CFG augmented with implicit-throw
//! edges, call edges (call site to callee entry), and return edges (callee
//! exit back to the call's continuations). The DDG's reaching-definitions
//! pass runs over it; the statements it reports on a cycle (the CDG's
//! amplified sources) come from the base analysis.

use jsanalysis::AnalysisResult;
use jsir::{Cfg, EdgeKind, IrFuncId, Lowered, StmtId};
use std::collections::{BTreeMap, BTreeSet};

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
    /// Call edges: call statement -> callee entry.
    pub call_edges: BTreeSet<(StmtId, StmtId)>,
    /// Statements lying on an (interprocedural) cycle: the analysis's
    /// `cyclic_stmts`.
    cycles: BTreeSet<StmtId>,
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
        let mut call_edges = BTreeSet::new();
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
                call_edges.insert((call, f.entry));
                for &c in &continuations {
                    add(&mut succs, f.exit, c);
                }
                add(&mut succs, f.exit, call);
            }
        }

        // Amplification cycles come from the base analysis's
        // context-qualified transition graph, which avoids the spurious
        // cycles a context-insensitive return edge would create when one
        // function is called from two sites.
        let cycles = analysis.cyclic_stmts.clone();

        SuperGraph {
            cfg,
            succs,
            call_edges,
            cycles,
        }
    }

    /// Successors along which data can flow.
    pub fn succs(&self, s: StmtId) -> &[StmtId] {
        self.succs.get(&s).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True if the statement lies on an interprocedural cycle (loops,
    /// recursion, or the event loop). These are the paper's *amplified*
    /// control-edge sources.
    pub fn in_cycle(&self, s: StmtId) -> bool {
        self.cycles.contains(&s)
    }

    /// All nodes that appear in the graph.
    pub fn nodes(&self) -> impl Iterator<Item = StmtId> + '_ {
        self.succs.keys().copied()
    }

    /// The per-function node/entry/exit view used by CDG construction.
    pub fn func_graph(lowered: &Lowered, func: IrFuncId) -> crate::postdom::FuncGraph {
        let f = lowered.program.func(func);
        crate::postdom::FuncGraph {
            nodes: f.stmts.clone(),
            entry: f.entry,
            exit: f.exit,
        }
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
        let (lowered, _, sg) = build("function f() { return 1; } f();");
        let f = lowered.program.funcs.iter().find(|f| f.name == "f").unwrap();
        assert!(sg.call_edges.iter().any(|(_, e)| *e == f.entry));
        // And the exit flows back to the caller's continuation.
        assert!(!sg.succs(f.exit).is_empty());
    }

    #[test]
    fn event_loop_makes_handlers_cyclic() {
        let (lowered, _, sg) = build(
            "function h() { tick = 1; } window.addEventListener('load', h, false);",
        );
        let h = lowered.program.funcs.iter().find(|f| f.name == "h").unwrap();
        assert!(
            sg.in_cycle(h.entry),
            "event handlers run inside the dispatch loop"
        );
    }

    #[test]
    fn recursion_is_cyclic() {
        let (lowered, _, sg) = build("function r(n) { if (n) r(n - 1); } r(3);");
        let r = lowered.program.funcs.iter().find(|f| f.name == "r").unwrap();
        assert!(sg.in_cycle(r.entry));
    }

    #[test]
    fn straight_line_not_cyclic() {
        let ast = jsparser::parse("var a = 1; var b = a;").unwrap();
        let lowered = jsir::lower_with_options(
            &ast,
            &jsir::LowerOptions { event_loop: false },
        );
        let analysis = analyze(&lowered, &AnalysisConfig::default());
        let sg = SuperGraph::build(&lowered, &analysis);
        for s in &lowered.program.top_level().stmts {
            assert!(!sg.in_cycle(*s));
        }
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

//! The control-flow graph over IR statements, with *kinded* edges.
//!
//! The paper's staged CDG construction (Section 3.3) prunes the CFG by
//! edge provenance: first all non-local edges are removed, then only the
//! implicit-exception edges. We therefore record for every edge whether it
//! arises from structured local control flow, an explicit jump
//! (`break`/`continue`/`return`/`throw`), an implicit exception, or (in
//! the PDG's interprocedural supergraph only) a call or a return.

use crate::ir::StmtId;
use std::collections::BTreeSet;

/// Provenance of a CFG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Sequential fall-through.
    Seq,
    /// True branch of a conditional.
    BranchTrue,
    /// False branch of a conditional.
    BranchFalse,
    /// Explicit non-local jump: `break` / `continue`.
    Jump,
    /// `return` to the function exit.
    Return,
    /// `throw` to the innermost handler (explicit non-local).
    ThrowExplicit,
    /// Implicit exception (possible `undefined` dereference, call of a
    /// non-function, ...) to the innermost handler. These edges are added
    /// *after* the base analysis has decided which statements may throw.
    ThrowImplicit,
    /// An exception with no handler in the function: flows to the function
    /// exit but is excluded from every CDG stage (the paper omits
    /// uncaught-exception edges; such exceptions terminate the addon).
    Uncaught,
    /// A virtual entry-to-exit edge added only during CDG construction
    /// (the classic augmentation making unconditionally-executed
    /// statements control dependent on the function entry, which carries
    /// interprocedural control dependence through call sites).
    Virtual,
    /// Call site to callee entry (supergraph only).
    Call,
    /// Callee exit back to the call and its continuations (supergraph
    /// only).
    CallReturn,
}

impl EdgeKind {
    /// True for edges arising from structured local control flow.
    pub fn is_local(self) -> bool {
        matches!(
            self,
            EdgeKind::Seq | EdgeKind::BranchTrue | EdgeKind::BranchFalse | EdgeKind::Virtual
        )
    }

    /// True for explicit non-local edges.
    pub fn is_nonlocal_explicit(self) -> bool {
        matches!(
            self,
            EdgeKind::Jump | EdgeKind::Return | EdgeKind::ThrowExplicit
        )
    }

    /// True for call and return edges, which leave their function.
    pub fn is_interprocedural(self) -> bool {
        matches!(self, EdgeKind::Call | EdgeKind::CallReturn)
    }
}

/// A directed edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    /// Source statement.
    pub from: StmtId,
    /// Target statement.
    pub to: StmtId,
    /// Edge provenance.
    pub kind: EdgeKind,
}

/// The control-flow graph: adjacency over the global statement pool.
#[derive(Debug, Clone, Default)]
pub struct Cfg {
    succs: Vec<Vec<(StmtId, EdgeKind)>>,
    preds: Vec<Vec<(StmtId, EdgeKind)>>,
    edge_count: usize,
}

impl Cfg {
    /// An empty CFG sized for `n` statements.
    pub fn with_capacity(n: usize) -> Cfg {
        Cfg {
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Grows the node tables to cover statement ids up to `n - 1`.
    pub fn ensure_nodes(&mut self, n: usize) {
        if self.succs.len() < n {
            self.succs.resize(n, Vec::new());
            self.preds.resize(n, Vec::new());
        }
    }

    /// Adds an edge (idempotent: a statement has a handful of
    /// successors, so this scans them).
    pub fn add_edge(&mut self, from: StmtId, to: StmtId, kind: EdgeKind) {
        self.ensure_nodes((from.0.max(to.0) + 1) as usize);
        let succs = &mut self.succs[from.0 as usize];
        if !succs.contains(&(to, kind)) {
            succs.push((to, kind));
            self.preds[to.0 as usize].push((from, kind));
            self.edge_count += 1;
        }
    }

    /// All edges, by source statement and then in the order they were
    /// added.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.succs.iter().enumerate().flat_map(|(i, succs)| {
            let from = StmtId(i as u32);
            succs.iter().map(move |&(to, kind)| Edge { from, to, kind })
        })
    }

    /// Successors of a statement with edge kinds.
    pub fn succs(&self, s: StmtId) -> &[(StmtId, EdgeKind)] {
        self.succs
            .get(s.0 as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Predecessors of a statement with edge kinds.
    pub fn preds(&self, s: StmtId) -> &[(StmtId, EdgeKind)] {
        self.preds
            .get(s.0 as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of node slots.
    pub fn node_count(&self) -> usize {
        self.succs.len()
    }

    /// The set of statements reachable from `start` in this graph.
    pub fn reachable_from(&self, start: StmtId) -> BTreeSet<StmtId> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![start];
        while let Some(s) = stack.pop() {
            if seen.insert(s) {
                for (t, _) in self.succs(s) {
                    stack.push(*t);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u32) -> StmtId {
        StmtId(n)
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = Cfg::with_capacity(3);
        g.add_edge(s(0), s(1), EdgeKind::Seq);
        g.add_edge(s(1), s(2), EdgeKind::BranchTrue);
        g.add_edge(s(1), s(0), EdgeKind::BranchFalse);
        g.add_edge(s(1), s(2), EdgeKind::BranchTrue); // duplicate
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.succs(s(1)).len(), 2);
        assert_eq!(g.preds(s(0)).len(), 1);
        assert!(g.succs(s(99)).is_empty());
    }

    #[test]
    fn reachability() {
        let mut g = Cfg::with_capacity(5);
        g.add_edge(s(0), s(1), EdgeKind::Seq);
        g.add_edge(s(1), s(2), EdgeKind::Seq);
        g.add_edge(s(3), s(4), EdgeKind::Seq);
        let r = g.reachable_from(s(0));
        assert!(r.contains(&s(2)));
        assert!(!r.contains(&s(3)));
    }

    #[test]
    fn edge_kind_classification() {
        assert!(EdgeKind::Seq.is_local());
        assert!(EdgeKind::BranchTrue.is_local());
        assert!(EdgeKind::Jump.is_nonlocal_explicit());
        assert!(EdgeKind::Return.is_nonlocal_explicit());
        assert!(EdgeKind::ThrowExplicit.is_nonlocal_explicit());
        assert!(!EdgeKind::Uncaught.is_local());
        assert!(!EdgeKind::Uncaught.is_nonlocal_explicit());
    }
}

//! Postdominator trees and Ferrante-Ottenstein-Warren control dependence.
//!
//! Used by the staged CDG construction of Section 3.3. A [`FuncGraph`] is
//! one function's CFG, numbered by position in the function's statement
//! list. Each stage filters it once by edge kind into a
//! [`PostDominators`], whose successor lists and postdominator tree answer
//! both postdominance queries and the FOW walk.

use crate::ddg::Lists;
use crate::supergraph::SuperGraph;
use jsir::{EdgeKind, IrFunc, StmtId};

/// No node: the immediate postdominator of the exit, and of every node
/// that cannot reach it.
const NONE: usize = usize::MAX;

/// One function's CFG over local nodes `0..len`.
#[derive(Debug, Clone)]
pub struct FuncGraph {
    len: usize,
    exit: usize,
    edges: Vec<(usize, usize, EdgeKind)>,
}

impl FuncGraph {
    /// A graph of `len` nodes and no edges whose exit is `exit`.
    pub fn new(len: usize, exit: usize) -> FuncGraph {
        FuncGraph {
            len,
            exit,
            edges: Vec::new(),
        }
    }

    /// `func`'s part of `sg`: node `i` is `func.stmts[i]`, and the edges
    /// are the intraprocedural ones between its statements. `local[s]` is
    /// statement `s`'s position in its own function's `stmts`.
    pub fn of(sg: &SuperGraph, func: &IrFunc, local: &[usize]) -> FuncGraph {
        let at = |s: StmtId| local[s.0 as usize];
        let mut g = FuncGraph::new(func.stmts.len(), at(func.exit));
        for (i, &s) in func.stmts.iter().enumerate() {
            for &(t, kind) in sg.succs(s) {
                if !kind.is_interprocedural() && func.stmts.get(at(t)) == Some(&t) {
                    g.add_edge(i, at(t), kind);
                }
            }
        }
        g
    }

    /// Adds the edge `from -> to`.
    pub fn add_edge(&mut self, from: usize, to: usize, kind: EdgeKind) {
        self.edges.push((from, to, kind));
    }
}

/// One stage of a [`FuncGraph`]: its kept successors and the
/// immediate-postdominator tree of the nodes that can reach the exit.
#[derive(Debug, Clone)]
pub struct PostDominators {
    succs: Lists<usize>,
    /// `NONE` for the exit and for the nodes that cannot reach it.
    ipdom: Vec<usize>,
    exit: usize,
}

/// Filters `g` to the edges `keep` accepts and computes its postdominators
/// with the iterative Cooper-Harvey-Kennedy algorithm on the reverse
/// graph.
///
/// Nodes that cannot reach the exit under `keep` (dead ends created by
/// pruning -- e.g. a `throw` whose outgoing edge was pruned -- or
/// genuinely infinite loops) have no postdominators; paths through them
/// never reach the exit and therefore do not constrain postdominance.
/// This is what makes the staged construction work: in the local-only
/// CFG a pruned `throw` terminates its path, so statements after the
/// `try` are *not* control dependent on a guard whose only escaping path
/// is the throw.
pub fn postdominators(g: &FuncGraph, keep: impl Fn(EdgeKind) -> bool) -> PostDominators {
    let kept = g.edges.iter().filter(|e| keep(e.2));
    let succs = Lists::group(g.len, kept.clone().map(|&(u, v, _)| (u, v)));
    let preds = Lists::group(g.len, kept.map(|&(u, v, _)| (v, u)));

    // One DFS from the exit over reverse edges: it reaches exactly the
    // nodes that can reach the exit, and numbers them in postorder.
    let mut postorder = Vec::with_capacity(g.len);
    let mut number = vec![NONE; g.len];
    let mut seen = vec![false; g.len];
    seen[g.exit] = true;
    let mut stack = vec![(g.exit, 0)];
    while let Some((n, i)) = stack.last_mut() {
        if let Some(&p) = preds.of(*n).get(*i) {
            *i += 1;
            if !seen[p] {
                seen[p] = true;
                stack.push((p, 0));
            }
        } else {
            number[*n] = postorder.len();
            postorder.push(*n);
            stack.pop();
        }
    }

    // Cooper-Harvey-Kennedy in reverse postorder; the exit comes first
    // and is its own root while the tree is built.
    let mut ipdom = vec![NONE; g.len];
    ipdom[g.exit] = g.exit;
    let mut changed = true;
    while changed {
        changed = false;
        for &n in postorder.iter().rev().skip(1) {
            let mut new = NONE;
            for &s in succs.of(n) {
                if ipdom[s] != NONE {
                    new = if new == NONE {
                        s
                    } else {
                        intersect(&ipdom, &number, new, s)
                    };
                }
            }
            if new != ipdom[n] {
                ipdom[n] = new;
                changed = true;
            }
        }
    }
    ipdom[g.exit] = NONE;
    PostDominators {
        succs,
        ipdom,
        exit: g.exit,
    }
}

/// The nearest common ancestor of `a` and `b` in the partial tree: walk
/// the one with the lower postorder number (farther from the exit) up.
fn intersect(ipdom: &[usize], number: &[usize], mut a: usize, mut b: usize) -> usize {
    while a != b {
        while number[a] < number[b] {
            a = ipdom[a];
        }
        while number[b] < number[a] {
            b = ipdom[b];
        }
    }
    a
}

impl PostDominators {
    /// Immediate postdominator of `n` (`None` for the exit itself or for
    /// nodes with no path to the exit).
    pub fn ipdom(&self, n: usize) -> Option<usize> {
        Some(self.ipdom[n]).filter(|&p| p != NONE)
    }

    /// True if `a` postdominates `b` (reflexive).
    pub fn postdominates(&self, a: usize, b: usize) -> bool {
        let mut cur = Some(b);
        while let Some(n) = cur {
            if n == a {
                return true;
            }
            cur = self.ipdom(n);
        }
        false
    }

    fn reaches_exit(&self, n: usize) -> bool {
        n == self.exit || self.ipdom[n] != NONE
    }

    /// Calls `emit(w)` for every `w` control dependent on `u` in this
    /// stage, possibly more than once. For each kept edge `(u, v)` where
    /// `v` reaches the exit (FOW), that is every node from `v` up the
    /// postdominator tree to -- but excluding -- `u`'s immediate
    /// postdominator; for `v == ipdom(u)` it is nothing.
    pub fn dependents(&self, u: usize, mut emit: impl FnMut(usize)) {
        let stop = self.ipdom[u];
        let mut trapped = Vec::new();
        for &v in self.succs.of(u) {
            if !self.reaches_exit(v) {
                trapped.push(v);
                continue;
            }
            let mut n = v;
            while n != stop {
                emit(n);
                n = self.ipdom[n];
            }
        }
        if trapped.is_empty() {
            return;
        }
        // The trapped-region rule (see ROADMAP.md, "The trapped-region
        // rule"): a successor `v` that cannot reach the exit makes
        // everything reachable from `v` control dependent on `u`, except
        // `u` itself. Nothing reachable from `v` reaches the exit either.
        let mut seen = vec![false; self.ipdom.len()];
        while let Some(n) = trapped.pop() {
            if !std::mem::replace(&mut seen[n], true) {
                if n != u {
                    emit(n);
                }
                trapped.extend_from_slice(self.succs.of(n));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every `(u, w)` pair of one stage's control dependence.
    pub(super) fn control_dependence(
        g: &FuncGraph,
        keep: impl Fn(EdgeKind) -> bool,
    ) -> BTreeSet<(usize, usize)> {
        let pd = postdominators(g, keep);
        let mut out = BTreeSet::new();
        for u in 0..g.len {
            pd.dependents(u, |w| {
                out.insert((u, w));
            });
        }
        out
    }

    /// Diamond: 0 -> 1 -> {2,3} -> 4 -> 5(exit)
    fn diamond() -> FuncGraph {
        let mut g = FuncGraph::new(6, 5);
        g.add_edge(0, 1, EdgeKind::Seq);
        g.add_edge(1, 2, EdgeKind::BranchTrue);
        g.add_edge(1, 3, EdgeKind::BranchFalse);
        g.add_edge(2, 4, EdgeKind::Seq);
        g.add_edge(3, 4, EdgeKind::Seq);
        g.add_edge(4, 5, EdgeKind::Seq);
        g
    }

    #[test]
    fn diamond_postdominators() {
        let g = diamond();
        let pd = postdominators(&g, |_| true);
        assert_eq!(pd.ipdom(2), Some(4));
        assert_eq!(pd.ipdom(3), Some(4));
        assert_eq!(pd.ipdom(1), Some(4));
        assert_eq!(pd.ipdom(4), Some(5));
        assert!(pd.postdominates(4, 1));
        assert!(!pd.postdominates(2, 1));
        assert!(pd.postdominates(5, 0));
    }

    #[test]
    fn diamond_control_dependence() {
        let g = diamond();
        let cd = control_dependence(&g, |_| true);
        assert!(cd.contains(&(1, 2)));
        assert!(cd.contains(&(1, 3)));
        assert!(!cd.contains(&(1, 4)), "join point not dependent");
        assert!(!cd.contains(&(0, 1)), "straight line not dependent");
    }

    #[test]
    fn loop_control_dependence() {
        // 0 -> 1(branch) -T-> 2 -> 1 ; 1 -F-> 3(exit)
        let mut g = FuncGraph::new(4, 3);
        g.add_edge(0, 1, EdgeKind::Seq);
        g.add_edge(1, 2, EdgeKind::BranchTrue);
        g.add_edge(2, 1, EdgeKind::Seq);
        g.add_edge(1, 3, EdgeKind::BranchFalse);
        let cd = control_dependence(&g, |_| true);
        assert!(cd.contains(&(1, 2)), "body depends on loop test");
        assert!(cd.contains(&(1, 1)), "loop test depends on itself");
    }

    #[test]
    fn infinite_loop_has_no_postdominators_but_terminates() {
        // 0 -> 1 -> 2 -> 1, exit 3 disconnected: the whole region is
        // trapped; postdominance is undefined there but computation must
        // terminate and control dependence must still cover the region.
        let mut g = FuncGraph::new(4, 3);
        g.add_edge(0, 1, EdgeKind::Seq);
        g.add_edge(1, 2, EdgeKind::Seq);
        g.add_edge(2, 1, EdgeKind::Seq);
        let pd = postdominators(&g, |_| true);
        assert!(!pd.postdominates(3, 0), "exit is unreachable");
        // Trapped nodes become control dependent on their entry edge.
        let cd = control_dependence(&g, |_| true);
        assert!(cd.contains(&(0, 1)));
        assert!(cd.contains(&(0, 2)));
    }

    #[test]
    fn pruned_graph_control_dependence_changes() {
        // try { if (c) throw; x; } pruned vs full:
        // 0 -> 1(branch) -T-> 2(throw) ; 1 -F-> 3(x) -> 4(exit)
        // full: 2 -> 5(catch) -> 4 ; pruned(local only): 2 dead-ends.
        let mut g = FuncGraph::new(6, 4);
        g.add_edge(0, 1, EdgeKind::Seq);
        g.add_edge(1, 2, EdgeKind::BranchTrue);
        g.add_edge(1, 3, EdgeKind::BranchFalse);
        g.add_edge(2, 5, EdgeKind::ThrowExplicit);
        g.add_edge(5, 4, EdgeKind::Seq);
        g.add_edge(3, 4, EdgeKind::Seq);
        let local_only = control_dependence(&g, |k| k.is_local());
        let with_explicit = control_dependence(&g, |k| k.is_local() || k.is_nonlocal_explicit());
        // With the throw edge, x (node 3) is control dependent on the
        // branch; statements after the throw landing differ between the
        // two stages.
        assert!(with_explicit.contains(&(1, 3)));
        // The difference set is what stage 2 annotates nonlocexp.
        let diff: Vec<_> = with_explicit.difference(&local_only).collect();
        assert!(!diff.is_empty());
    }
}

#[cfg(all(test, feature = "fuzz"))]
mod proptests {
    use super::tests::control_dependence;
    use super::*;
    use minicheck::Gen;

    /// Random small graphs over nodes 0..n with designated entry 0 and
    /// exit n-1.
    fn arb_graph(g: &mut Gen) -> FuncGraph {
        let n = 3 + g.below(6);
        let mut f = FuncGraph::new(n, n - 1);
        // A spine so the exit is usually reachable.
        for i in 0..n - 1 {
            f.add_edge(i, i + 1, EdgeKind::Seq);
        }
        for _ in 0..g.below(n * 2) {
            let (a, b) = (g.below(n), g.below(n));
            if a != b {
                f.add_edge(a, b, EdgeKind::Seq);
            }
        }
        f
    }

    fn succs(f: &FuncGraph, x: usize) -> impl Iterator<Item = usize> + '_ {
        f.edges.iter().filter(move |e| e.0 == x).map(|e| e.1)
    }

    /// Brute force: does every path from `from` to the exit pass through
    /// `through`? (Checked by deleting `through` and testing
    /// reachability.)
    fn postdominates_brute(f: &FuncGraph, through: usize, from: usize) -> bool {
        if through == from {
            return true;
        }
        // Can `from` reach exit at all? If not, postdominance is vacuous
        // and our implementation leaves such nodes out; skip via caller.
        let mut seen = std::collections::BTreeSet::new();
        let mut stack = vec![from];
        let mut reached_exit_avoiding = false;
        while let Some(x) = stack.pop() {
            if x == through {
                continue; // deleted node
            }
            if !seen.insert(x) {
                continue;
            }
            if x == f.exit {
                reached_exit_avoiding = true;
                break;
            }
            stack.extend(succs(f, x));
        }
        !reached_exit_avoiding
    }

    /// Exit-reachability for the brute-force comparison.
    fn reaches_exit(f: &FuncGraph, from: usize) -> bool {
        let mut seen = std::collections::BTreeSet::new();
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            if !seen.insert(x) {
                continue;
            }
            if x == f.exit {
                return true;
            }
            stack.extend(succs(f, x));
        }
        false
    }

    #[test]
    fn ipdom_agrees_with_brute_force() {
        minicheck::check("ipdom_agrees_with_brute_force", 256, |gen| {
            let f = arb_graph(gen);
            let pd = postdominators(&f, |_| true);
            for n in 0..f.len {
                if !reaches_exit(&f, n) {
                    continue;
                }
                for m in 0..f.len {
                    if !reaches_exit(&f, m) {
                        continue;
                    }
                    let ours = pd.postdominates(m, n);
                    let truth = postdominates_brute(&f, m, n);
                    assert_eq!(ours, truth, "postdominates({m:?}, {n:?}) mismatch");
                }
            }
        });
    }

    #[test]
    fn control_dependence_terminates_and_is_within_nodes() {
        minicheck::check(
            "control_dependence_terminates_and_is_within_nodes",
            256,
            |gen| {
                let f = arb_graph(gen);
                for filter in [true, false] {
                    let cd = control_dependence(&f, move |k: EdgeKind| filter || k.is_local());
                    for (u, w) in cd {
                        assert!(u < f.len);
                        assert!(w < f.len);
                    }
                }
            },
        );
    }

    /// Between nodes that reach the exit, the FOW walk yields exactly the
    /// textbook definition: `w` is control dependent on `u` iff `w`
    /// postdominates (reflexively) some exit-reaching successor of `u`
    /// and does not strictly postdominate `u`.
    #[test]
    fn control_dependence_matches_its_definition() {
        minicheck::check("control_dependence_matches_its_definition", 512, |gen| {
            let f = arb_graph(gen);
            let cd = control_dependence(&f, |_| true);
            let live: Vec<usize> = (0..f.len).filter(|&n| reaches_exit(&f, n)).collect();
            for &u in &live {
                for &w in &live {
                    let truth = succs(&f, u)
                        .any(|v| reaches_exit(&f, v) && postdominates_brute(&f, w, v))
                        && !(w != u && postdominates_brute(&f, w, u));
                    assert_eq!(cd.contains(&(u, w)), truth, "({u}, {w}) in {cd:?}");
                }
            }
        });
    }
}

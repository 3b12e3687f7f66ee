//! The ordered-map CDG pass, kept out of the library as a test oracle for
//! `jspdg::build_cdg`.
//!
//! This is the library's earlier construction: it copies the
//! supergraph's intraprocedural edges into a `Cfg` and adds one virtual
//! entry -> exit edge per function, then, per function and per stage,
//! rebuilds the filtered adjacency and its exit-reaching set in
//! `BTreeMap`s keyed by `StmtId`, computes the postdominator tree, walks
//! Ferrante-Ottenstein-Warren control dependence, and annotates each
//! stage's edges by set difference with the earlier stages. Call
//! dependence and amplification read the analysis's `call_targets` and
//! `cyclic_stmts`, the values the supergraph used to copy. The library
//! pass must produce exactly its `BTreeSet<CtrlDep>`. Test crates include
//! it with `#[path = "support/full_cdg.rs"] mod full_cdg;`.

use jsanalysis::AnalysisResult;
use jsir::{Cfg, EdgeKind, Lowered, StmtId};
use jspdg::{CtrlDep, CtrlKind, SuperGraph};
use std::collections::{BTreeMap, BTreeSet};

/// A per-function view: the function's statements and its exit node.
struct FuncGraph {
    nodes: Vec<StmtId>,
    exit: StmtId,
}

/// The immediate-postdominator tree of one function's CFG.
struct PostDominators {
    ipdom: BTreeMap<StmtId, StmtId>,
    exit: StmtId,
}

impl PostDominators {
    fn ipdom(&self, n: StmtId) -> Option<StmtId> {
        if n == self.exit {
            None
        } else {
            self.ipdom.get(&n).copied()
        }
    }

    fn postdominates(&self, a: StmtId, b: StmtId) -> bool {
        let mut cur = Some(b);
        while let Some(n) = cur {
            if n == a {
                return true;
            }
            cur = self.ipdom(n);
        }
        false
    }
}

/// Cooper-Harvey-Kennedy over the reverse of the function subgraph of
/// `cfg` restricted to edges `keep` and to exit-reaching nodes.
fn postdominators(cfg: &Cfg, func: &FuncGraph, keep: impl Fn(EdgeKind) -> bool) -> PostDominators {
    let in_func: BTreeSet<StmtId> = func.nodes.iter().copied().collect();
    let mut succs: BTreeMap<StmtId, Vec<StmtId>> = BTreeMap::new();
    for &n in &func.nodes {
        let list: Vec<StmtId> = cfg
            .succs(n)
            .iter()
            .filter(|(t, k)| keep(*k) && in_func.contains(t))
            .map(|(t, _)| *t)
            .collect();
        succs.insert(n, list);
    }
    let reaches = exit_reaching(&succs, func.exit);
    for (_, list) in succs.iter_mut() {
        list.retain(|t| reaches.contains(t));
    }
    succs.retain(|n, _| reaches.contains(n));

    let mut preds: BTreeMap<StmtId, Vec<StmtId>> = BTreeMap::new();
    for (&n, list) in &succs {
        for &t in list {
            preds.entry(t).or_default().push(n);
        }
    }
    let mut order: Vec<StmtId> = Vec::new();
    let mut seen: BTreeSet<StmtId> = BTreeSet::new();
    let mut stack: Vec<(StmtId, usize)> = vec![(func.exit, 0)];
    seen.insert(func.exit);
    while let Some((n, i)) = stack.pop() {
        let ps = preds.get(&n).cloned().unwrap_or_default();
        if i < ps.len() {
            stack.push((n, i + 1));
            let p = ps[i];
            if seen.insert(p) {
                stack.push((p, 0));
            }
        } else {
            order.push(n);
        }
    }
    order.reverse();

    let index: BTreeMap<StmtId, usize> = order.iter().enumerate().map(|(i, &n)| (n, i)).collect();

    let mut ipdom: BTreeMap<StmtId, StmtId> = BTreeMap::new();
    ipdom.insert(func.exit, func.exit);
    let mut changed = true;
    while changed {
        changed = false;
        for &n in order.iter().skip(1) {
            let mut new_idom: Option<StmtId> = None;
            for &s in succs.get(&n).into_iter().flatten() {
                if ipdom.contains_key(&s) {
                    new_idom = Some(match new_idom {
                        None => s,
                        Some(cur) => intersect(&ipdom, &index, cur, s),
                    });
                }
            }
            if let Some(nd) = new_idom {
                if ipdom.get(&n) != Some(&nd) {
                    ipdom.insert(n, nd);
                    changed = true;
                }
            }
        }
    }
    ipdom.remove(&func.exit);
    PostDominators {
        ipdom,
        exit: func.exit,
    }
}

/// Nodes with a path to `exit` in the given adjacency.
fn exit_reaching(succs: &BTreeMap<StmtId, Vec<StmtId>>, exit: StmtId) -> BTreeSet<StmtId> {
    let mut preds: BTreeMap<StmtId, Vec<StmtId>> = BTreeMap::new();
    for (&n, list) in succs {
        for &t in list {
            preds.entry(t).or_default().push(n);
        }
    }
    let mut reaches = BTreeSet::new();
    let mut stack = vec![exit];
    while let Some(n) = stack.pop() {
        if reaches.insert(n) {
            if let Some(ps) = preds.get(&n) {
                stack.extend(ps.iter().copied());
            }
        }
    }
    reaches
}

fn intersect(
    ipdom: &BTreeMap<StmtId, StmtId>,
    index: &BTreeMap<StmtId, usize>,
    mut a: StmtId,
    mut b: StmtId,
) -> StmtId {
    while a != b {
        let (ia, ib) = (index[&a], index[&b]);
        if ia > ib {
            a = ipdom[&a];
        } else {
            b = ipdom[&b];
        }
    }
    a
}

/// FOW control dependence of one function under `keep`, with the
/// trapped-region rule for nodes that cannot reach the exit.
fn control_dependence(
    cfg: &Cfg,
    func: &FuncGraph,
    keep: impl Fn(EdgeKind) -> bool + Copy,
) -> BTreeSet<(StmtId, StmtId)> {
    let pd = postdominators(cfg, func, keep);
    let in_func: BTreeSet<StmtId> = func.nodes.iter().copied().collect();
    let mut succs: BTreeMap<StmtId, Vec<StmtId>> = BTreeMap::new();
    for &n in &func.nodes {
        let list: Vec<StmtId> = cfg
            .succs(n)
            .iter()
            .filter(|(t, k)| keep(*k) && in_func.contains(t))
            .map(|(t, _)| *t)
            .collect();
        succs.insert(n, list);
    }
    let reaches = exit_reaching(&succs, func.exit);

    let mut out = BTreeSet::new();
    for &u in &func.nodes {
        for (v, k) in cfg.succs(u) {
            if !keep(*k) || !in_func.contains(v) {
                continue;
            }
            if !reaches.contains(v) {
                let mut stack = vec![*v];
                let mut seen = BTreeSet::new();
                while let Some(n) = stack.pop() {
                    if !seen.insert(n) || reaches.contains(&n) {
                        continue;
                    }
                    if n != u {
                        out.insert((u, n));
                    }
                    stack.extend(succs.get(&n).into_iter().flatten().copied());
                }
                continue;
            }
            if pd.postdominates(*v, u) && *v != u {
                continue;
            }
            let stop = pd.ipdom(u);
            let mut cur = Some(*v);
            while let Some(n) = cur {
                if Some(n) == stop {
                    break;
                }
                out.insert((u, n));
                cur = pd.ipdom(n);
                if cur == Some(n) {
                    break;
                }
            }
        }
    }
    out
}

/// Builds the annotated CDG the way the library used to.
pub fn build_cdg(
    lowered: &Lowered,
    analysis: &AnalysisResult,
    sg: &SuperGraph,
) -> BTreeSet<CtrlDep> {
    let mut out = BTreeSet::new();
    let mut cfg = Cfg::default();
    for s in &lowered.program.stmts {
        for &(t, k) in sg.succs(s.id) {
            if !k.is_interprocedural() {
                cfg.add_edge(s.id, t, k);
            }
        }
    }
    for func in &lowered.program.funcs {
        cfg.add_edge(func.entry, func.exit, EdgeKind::Virtual);
    }
    let cfg = &cfg;

    for func in &lowered.program.funcs {
        let fg = FuncGraph {
            nodes: func.stmts.clone(),
            exit: func.exit,
        };
        let cdg1 = control_dependence(cfg, &fg, |k: EdgeKind| k.is_local());
        let cdg2 = control_dependence(cfg, &fg, |k: EdgeKind| {
            k.is_local() || k.is_nonlocal_explicit()
        });
        let cdg3 = control_dependence(cfg, &fg, |k: EdgeKind| k != EdgeKind::Uncaught);

        for &(u, w) in &cdg1 {
            out.insert(CtrlDep {
                from: u,
                to: w,
                kind: CtrlKind::Local,
                amp: false,
            });
        }
        for &(u, w) in cdg2.difference(&cdg1) {
            out.insert(CtrlDep {
                from: u,
                to: w,
                kind: CtrlKind::NonLocExp,
                amp: false,
            });
        }
        let stage12: BTreeSet<(StmtId, StmtId)> = cdg1.union(&cdg2).copied().collect();
        for &(u, w) in cdg3.difference(&stage12) {
            out.insert(CtrlDep {
                from: u,
                to: w,
                kind: CtrlKind::NonLocImp,
                amp: false,
            });
        }
    }

    let call_edges: BTreeSet<(StmtId, StmtId)> = analysis
        .call_targets
        .iter()
        .flat_map(|(call, targets)| {
            targets
                .iter()
                .map(move |f| (call, lowered.program.func(*f).entry))
        })
        .collect();
    for &(call, entry) in &call_edges {
        out.insert(CtrlDep {
            from: call,
            to: entry,
            kind: CtrlKind::Local,
            amp: false,
        });
    }

    out.into_iter()
        .map(|mut e| {
            e.amp = analysis.cyclic_stmts.contains(&e.from);
            e
        })
        .collect()
}

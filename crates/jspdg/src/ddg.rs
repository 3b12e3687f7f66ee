//! Annotated data-dependence graph construction (Section 3.2).
//!
//! A reaching-definitions pass over the interprocedural supergraph
//! computes, for each statement, which definitions may reach it. From
//! this the paper's two conditions fall out:
//!
//! - `datastrong v1 -> v2`: `v2` definitely reads the single concrete
//!   location `v1` definitely writes (both strong, identical location),
//!   `v1`'s definition is the only reaching one that overlaps the read,
//!   and on **no** path between them is the location possibly
//!   overwritten;
//! - `dataweak v1 -> v2`: the write/read sets overlap (under the
//!   `e`-intersection on abstract property names), the definition
//!   survives on at least one path (strong overwrites kill per-path), and
//!   the edge is not strong.
//!
//! The "no possible overwrite" clause needs no state of its own: the
//! uniqueness clause already implies it. A write that could overwrite
//! definition D at location Y writes an overlapping location X, and so
//! generates a definition at X. A later kill of that definition comes
//! from a strong write to exactly X, which generates a definition at X
//! in turn. So wherever D reaches a read of Y after a possible
//! overwrite, some definition at X reaches it too, and the read has no
//! unique definition. The dense oracle (`tests/support/dense_ddg.rs`)
//! keeps the paper's condition verbatim, with a *tainted* fact per
//! definition, and produces the same edges.
//!
//! The pass is sparse:
//!
//! - **Def ids.** Every (statement, written location) pair is one
//!   definition, numbered densely in statement order, so a statement's
//!   own definitions form one contiguous id range. Locations are the
//!   analysis's own ids ([`jsanalysis::LocTable`]), read as recorded.
//! - **Location index.** A location's group is its allocation site and
//!   that site's recency twin (aliasing maps a most-recent site to its
//!   aged twin). Two locations overlap when they are the same location,
//!   or share a group and the meet of their property names is not
//!   bottom. Each read location, and only a read one, is met with every
//!   name of its group and lists the definitions at the overlapping
//!   locations, so kills and read matches touch only those definitions.
//! - **One bitset per node** over def ids, the *reaching* definitions,
//!   joined by OR. A statement's transfer is two precomputed word-mask
//!   lists: kill (other statements' definitions at exactly the location
//!   of one of its strong writes) and gen (its own definitions).
//! - **Reverse postorder.** Nodes are numbered in reverse postorder of a
//!   DFS over the supergraph's successors from the reachable statements,
//!   and the worklist is a dirty bitset swept in that order. A visit
//!   copies the node's bitset into a reused buffer, applies the masks
//!   and ORs the result into its successors; it allocates nothing.
//!
//! The transfer is monotone, so the fixpoint does not depend on the
//! visit order. Only the reachable statements start dirty: any other
//! node is visited once a definition reaches it. The edges are sorted
//! and merged per statement pair at the end.

use crate::supergraph::SuperGraph;
use jsanalysis::{AnalysisResult, StmtMap, Strength};
use jsdomains::{MeetLattice, Pre};
use jsir::{EdgeKind, StmtId};
use std::collections::BTreeMap;
use std::ops::Range;

/// A data-dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DataDep {
    /// The defining statement.
    pub from: StmtId,
    /// The reading statement.
    pub to: StmtId,
    /// True for `datastrong`.
    pub strong: bool,
}

/// One definition: a statement's write of one location.
#[derive(Clone, Copy)]
struct Def {
    stmt: StmtId,
    loc: u32,
    strong: bool,
}

/// One list per index, stored back to back in two vectors (compressed
/// rows): list `i` is `items[start[i]..start[i + 1]]`.
#[derive(Debug, Clone)]
pub(crate) struct Lists<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T> Lists<T> {
    fn new() -> Lists<T> {
        Lists {
            start: vec![0],
            items: Vec::new(),
        }
    }

    /// Ends the next list: the items pushed since the last `close`.
    fn close(&mut self) {
        self.start.push(self.items.len() as u32);
    }

    pub(crate) fn of(&self, i: usize) -> &[T] {
        &self.items[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

impl<T: Copy + Default> Lists<T> {
    /// `n` lists of the `pairs`' items grouped by index: list `i` holds
    /// the items paired with `i`, in the order the pairs come.
    pub(crate) fn group<P>(n: usize, pairs: P) -> Lists<T>
    where
        P: IntoIterator<Item = (usize, T)>,
        P::IntoIter: Clone,
    {
        let pairs = pairs.into_iter();
        // Count list `i` at `start[i + 2]`: after the running sums,
        // `start[i + 1]` is where list `i` begins, and placing its items
        // moves it to where the list ends, which is where `i + 1` begins.
        let mut start = vec![0u32; n + 2];
        for (i, _) in pairs.clone() {
            start[i + 2] += 1;
        }
        for i in 2..start.len() {
            start[i] += start[i - 1];
        }
        let mut items = vec![T::default(); start[n + 1] as usize];
        for (i, item) in pairs {
            items[start[i + 1] as usize] = item;
            start[i + 1] += 1;
        }
        start.pop();
        Lists { start, items }
    }
}

/// The program's definitions over the analysis's location ids.
struct DefIndex {
    defs: Vec<Def>,
    /// `first[s]` is statement `s`'s first def id; its definitions run
    /// to the next statement's first, or to the end.
    first: Vec<u32>,
    /// Per location: the definitions at exactly that location.
    at: Lists<u32>,
    /// Per read location: the definitions at every overlapping location.
    overlapping: Lists<u32>,
}

impl DefIndex {
    fn build(analysis: &AnalysisResult) -> DefIndex {
        let locs = &analysis.locs;
        let mut defs = Vec::new();
        let mut first = Vec::new();
        let mut read = vec![false; locs.len()];
        for (stmt, rw) in analysis.rw.iter() {
            first.resize(stmt.0 as usize + 1, defs.len() as u32);
            defs.extend(rw.writes.iter().map(|(loc, s)| Def {
                stmt,
                loc: loc.0,
                strong: s == Strength::Strong,
            }));
            for (loc, _) in rw.reads.iter() {
                read[loc.0 as usize] = true;
            }
        }

        let at = Lists::group(
            locs.len(),
            (0..).zip(&defs).map(|(d, def)| (def.loc as usize, d)),
        );

        // Each site's group: the site and its recency twin.
        let mut twin = BTreeMap::new();
        for (&mru, &aged) in &analysis.site_aliases {
            twin.insert(mru, aged);
            twin.insert(aged, mru);
        }
        let mut overlapping = Lists::new();
        for (l, loc) in locs.iter() {
            if !read[l.0 as usize] {
                overlapping.close();
                continue;
            }
            for site in std::iter::once(loc.site).chain(twin.get(&loc.site).copied()) {
                for (p, &w) in locs.at_site(site) {
                    if w == l || !matches!(loc.prop.meet(p), Pre::Bot) {
                        overlapping.items.extend_from_slice(at.of(w.0 as usize));
                    }
                }
            }
            overlapping.close();
        }
        DefIndex {
            defs,
            first,
            at,
            overlapping,
        }
    }

    /// The def ids of statement `s`'s own definitions.
    fn own(&self, s: StmtId) -> Range<u32> {
        let end = self.defs.len() as u32;
        let at = |i: usize| self.first.get(i).copied().unwrap_or(end);
        at(s.0 as usize)..at(s.0 as usize + 1)
    }
}

/// Marks a statement absent from the node numbering.
const ABSENT: u32 = u32::MAX;

/// The supergraph nodes reachable from the analysis's reachable
/// statements along non-`Uncaught` edges (no data flows along an
/// uncaught exception), numbered in reverse postorder.
struct Rpo {
    /// The statement at each node number.
    stmts: Vec<StmtId>,
    /// The node number of each statement, indexed by `StmtId`.
    node: Vec<u32>,
    /// Each node's successor node numbers.
    succs: Lists<u32>,
}

impl Rpo {
    fn build(sg: &SuperGraph, roots: &StmtMap<()>) -> Rpo {
        // Marks `s` seen, returning whether it was new.
        fn mark(node: &mut Vec<u32>, s: StmtId) -> bool {
            let i = s.0 as usize;
            if i >= node.len() {
                node.resize(i + 1, ABSENT);
            }
            let new = node[i] == ABSENT;
            node[i] = 0;
            new
        }
        let mut node = Vec::new();
        let mut post = Vec::new();
        let mut stack: Vec<(StmtId, usize)> = Vec::new();
        for root in roots.keys() {
            if !mark(&mut node, root) {
                continue;
            }
            stack.push((root, 0));
            while let Some(&(s, next)) = stack.last() {
                if let Some(&(t, kind)) = sg.succs(s).get(next) {
                    let top = stack.len() - 1;
                    stack[top].1 += 1;
                    if kind != EdgeKind::Uncaught && mark(&mut node, t) {
                        stack.push((t, 0));
                    }
                } else {
                    stack.pop();
                    post.push(s);
                }
            }
        }
        post.reverse();
        for (i, s) in post.iter().enumerate() {
            node[s.0 as usize] = i as u32;
        }
        let numbered = &node;
        let succs = Lists::group(
            post.len(),
            post.iter().enumerate().flat_map(|(i, &s)| {
                sg.succs(s)
                    .iter()
                    .filter(|(_, k)| *k != EdgeKind::Uncaught)
                    .map(move |(t, _)| (i, numbered[t.0 as usize]))
            }),
        );
        Rpo {
            stmts: post,
            node,
            succs,
        }
    }

    fn of(&self, s: StmtId) -> Option<usize> {
        match self.node.get(s.0 as usize) {
            Some(&i) if i != ABSENT => Some(i as usize),
            _ => None,
        }
    }
}

/// One list of (word, mask) pairs over def ids per node.
type Masks = Lists<(u32, u64)>;

impl Masks {
    /// Appends the next node's list; `ids` must be ascending.
    fn push(&mut self, ids: impl IntoIterator<Item = u32>) {
        let first = self.items.len();
        for d in ids {
            let (w, bit) = (d / 64, 1u64 << (d % 64));
            match self.items[first..].last_mut() {
                Some((last, mask)) if *last == w => *mask |= bit,
                _ => self.items.push((w, bit)),
            }
        }
        self.close();
    }
}

fn has(bits: &[u64], d: u32) -> bool {
    bits[(d / 64) as usize] >> (d % 64) & 1 == 1
}

/// The first set bit at or after `from`.
fn next_set(bits: &[u64], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut word = bits.get(w)? & (!0u64 << (from % 64));
    loop {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        w += 1;
        word = *bits.get(w)?;
    }
}

/// `dst |= src`, returning whether `dst` grew.
fn or_into(dst: &mut [u64], src: &[u64]) -> bool {
    let mut grew = 0;
    for (d, s) in dst.iter_mut().zip(src) {
        grew |= s & !*d;
        *d |= s;
    }
    grew != 0
}

/// Builds the data-dependence edges of the PDG, sorted, one per
/// statement pair.
pub fn build_ddg(sg: &SuperGraph, analysis: &AnalysisResult) -> Vec<DataDep> {
    let idx = DefIndex::build(analysis);
    if idx.defs.is_empty() || idx.overlapping.items.is_empty() {
        return Vec::new();
    }
    let rpo = Rpo::build(sg, &analysis.reachable);
    let n = rpo.stmts.len();

    // Each node's transfer as word masks.
    let (mut kill, mut gen) = (Masks::new(), Masks::new());
    let mut k = Vec::new();
    for &s in &rpo.stmts {
        let own = idx.own(s);
        k.clear();
        for d in own.clone() {
            let def = idx.defs[d as usize];
            if def.strong {
                let at = idx.at.of(def.loc as usize);
                k.extend(at.iter().filter(|e| !own.contains(*e)));
            }
        }
        k.sort_unstable();
        k.dedup();
        kill.push(k.iter().copied());
        gen.push(own);
    }

    // Reaching definitions to the fixpoint, sweeping dirty nodes in RPO.
    let w = idx.defs.len().div_ceil(64);
    let mut reach = vec![0u64; n * w];
    let mut dirty = vec![0u64; n.div_ceil(64)];
    for s in analysis.reachable.keys() {
        if let Some(i) = rpo.of(s) {
            dirty[i / 64] |= 1 << (i % 64);
        }
    }
    let mut r = vec![0u64; w];
    let mut from = 0;
    while let Some(i) = next_set(&dirty, from).or_else(|| next_set(&dirty, 0)) {
        dirty[i / 64] &= !(1 << (i % 64));
        r.copy_from_slice(&reach[i * w..(i + 1) * w]);
        for &(x, m) in kill.of(i) {
            r[x as usize] &= !m;
        }
        for &(x, m) in gen.of(i) {
            r[x as usize] |= m;
        }
        for &j in rpo.succs.of(i) {
            let j = j as usize;
            if or_into(&mut reach[j * w..(j + 1) * w], &r) {
                dirty[j / 64] |= 1 << (j % 64);
            }
        }
        from = i + 1;
    }

    // Emit edges.
    let mut edges = Vec::new();
    let mut hits: Vec<u32> = Vec::new();
    for (v2, rw) in analysis.rw.iter() {
        let Some(i) = rpo.of(v2) else { continue };
        let r = &reach[i * w..(i + 1) * w];
        for (l2, s2) in rw.reads.iter() {
            // Every reaching definition whose location overlaps this read.
            hits.clear();
            hits.extend(
                idx.overlapping
                    .of(l2.0 as usize)
                    .iter()
                    .filter(|&&d| has(r, d)),
            );
            // "The value read is definitely the value written by v1"
            // additionally requires v1's def to be the unique reaching
            // definition of the location, which also rules out a
            // possible overwrite on the way (see the module docs).
            let unique = hits.len() == 1;
            for &d in &hits {
                let def = idx.defs[d as usize];
                let strong = unique && def.loc == l2.0 && def.strong && s2 == Strength::Strong;
                edges.push(DataDep {
                    from: def.stmt,
                    to: v2,
                    strong,
                });
            }
        }
    }
    // One edge per pair, strong when any read made it so: after the sort
    // a pair's weak copies come first, and the kept one takes the rest.
    edges.sort_unstable();
    edges.dedup_by(|next, kept| {
        let same = (next.from, next.to) == (kept.from, kept.to);
        kept.strong |= same && next.strong;
        same
    });
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsanalysis::{analyze, AnalysisConfig};
    use jsir::{IrStmtKind, Lowered};

    fn run(src: &str) -> (Lowered, Vec<DataDep>) {
        let ast = jsparser::parse(src).unwrap();
        let lowered = jsir::lower_with_options(&ast, &jsir::LowerOptions { event_loop: false });
        let analysis = analyze(&lowered, &AnalysisConfig::default());
        let sg = SuperGraph::build(&lowered, &analysis);
        let ddg = build_ddg(&sg, &analysis);
        (lowered, ddg)
    }

    /// Find the statement assigning to (or storing) something recognizable.
    fn stmt_where(lowered: &Lowered, pred: impl Fn(&IrStmtKind) -> bool) -> Vec<StmtId> {
        lowered
            .program
            .stmts
            .iter()
            .filter(|s| pred(&s.kind))
            .map(|s| s.id)
            .collect()
    }

    #[test]
    fn straight_line_strong_dependence() {
        // var a = 1; var b = a;   -- copy-to-copy via `a` is strong.
        let (lowered, ddg) = run("var a = 1; var b = a;");
        let copies = stmt_where(&lowered, |k| matches!(k, IrStmtKind::Copy { .. }));
        assert_eq!(copies.len(), 2);
        let edge = ddg
            .iter()
            .find(|e| e.from == copies[0] && e.to == copies[1])
            .expect("a->b dependence");
        assert!(edge.strong, "single def, single read: datastrong");
    }

    #[test]
    fn intervening_strong_write_kills() {
        // a's first def cannot reach the read after re-assignment.
        let (lowered, ddg) = run("var a = 1; a = 2; var b = a;");
        let copies = stmt_where(&lowered, |k| matches!(k, IrStmtKind::Copy { .. }));
        assert_eq!(copies.len(), 3);
        assert!(
            !ddg.iter().any(|e| e.from == copies[0] && e.to == copies[2]),
            "killed def must not produce an edge"
        );
        assert!(ddg
            .iter()
            .any(|e| e.from == copies[1] && e.to == copies[2] && e.strong));
    }

    #[test]
    fn branch_writes_are_weak_at_merge() {
        // Both branch writes reach the read; neither is the definite one.
        let (lowered, ddg) =
            run("var a = 0; if (Math.random() < 0.5) { a = 1; } else { a = 2; } use_global = a;");
        let copies = stmt_where(&lowered, |k| matches!(k, IrStmtKind::Copy { .. }));
        // copies: a=0, a=1, a=2, use_global=a.
        let last = *copies.last().unwrap();
        let incoming: Vec<&DataDep> = ddg.iter().filter(|e| e.to == last).collect();
        assert!(incoming.len() >= 2, "both branch defs reach the use");
        assert!(
            incoming.iter().all(|e| !e.strong),
            "merged defs cannot be datastrong"
        );
    }

    #[test]
    fn object_property_strong_flow() {
        // Figure 1 lines 1-2: object literal property read back exactly.
        let (lowered, ddg) = run("var data = { url: input_global }; send_global(data.url);");
        let store = stmt_where(&lowered, |k| matches!(k, IrStmtKind::StoreProp { .. }))[0];
        let load = stmt_where(
            &lowered,
            |k| matches!(k, IrStmtKind::LoadProp { prop: jsir::Operand::Str(p), .. } if p == "url"),
        )[0];
        let edge = ddg
            .iter()
            .find(|e| e.from == store && e.to == load)
            .expect("store->load dependence");
        assert!(edge.strong, "exact singleton property: datastrong");
    }

    #[test]
    fn unknown_property_read_is_weak() {
        // Figure 1 line 3: data[getString()] with unknown string.
        let (lowered, ddg) =
            run("var data = { url: input_global }; var x = data[getString_global()];");
        let store = stmt_where(&lowered, |k| matches!(k, IrStmtKind::StoreProp { .. }))[0];
        let loads = stmt_where(&lowered, |k| matches!(k, IrStmtKind::LoadProp { .. }));
        let computed_load = *loads.last().unwrap();
        let edge = ddg
            .iter()
            .find(|e| e.from == store && e.to == computed_load)
            .expect("weak dependence through unknown property");
        assert!(!edge.strong);
    }

    #[test]
    fn weak_overwrite_taints_strength() {
        // A possible (conditional) overwrite of o.p downgrades the original
        // def to weak at the final read.
        let (lowered, ddg) =
            run("var o = {}; o.p = 1; if (Math.random() < 0.5) { o.p = 2; } var r = o.p;");
        let stores = stmt_where(
            &lowered,
            |k| matches!(k, IrStmtKind::StoreProp { prop: jsir::Operand::Str(p), .. } if p == "p"),
        );
        assert_eq!(stores.len(), 2);
        let load = *stmt_where(
            &lowered,
            |k| matches!(k, IrStmtKind::LoadProp { prop: jsir::Operand::Str(p), .. } if p == "p"),
        )
        .last()
        .unwrap();
        let first = ddg
            .iter()
            .find(|e| e.from == stores[0] && e.to == load)
            .expect("first store still reaches (else path)");
        // The conditional store is itself strong-on-singleton, but from the
        // first store's perspective there EXISTS a path with an overwrite.
        // Condition: strong kills apply per-path. The conditional store is a
        // strong write on a singleton object, so along the then-path the
        // first def is killed; along the else-path it survives pristine.
        // Survived on one path and killed on the other => the fact arrives
        // pristine, but not as the only def: both stores reach the load.
        let second = ddg
            .iter()
            .find(|e| e.from == stores[1] && e.to == load)
            .expect("second store reaches too");
        let _ = (first, second);
        assert!(
            !(first.strong && second.strong),
            "at most one def can be the definite one"
        );
    }

    #[test]
    fn interprocedural_argument_flow() {
        let (lowered, ddg) = run("function id(x) { return x; } var out = id(input_global);");
        // The call writes the parameter; the return reads it: an edge from
        // the call statement to the `return` statement must exist.
        let call = stmt_where(&lowered, |k| matches!(k, IrStmtKind::Call { .. }))[0];
        let result = stmt_where(&lowered, |k| matches!(k, IrStmtKind::CallResult { .. }))[0];
        let ret = stmt_where(&lowered, |k| matches!(k, IrStmtKind::Return { .. }))[0];
        assert!(
            ddg.iter().any(|e| e.from == call && e.to == ret),
            "param def at call must reach the return's read"
        );
        // The return's @ret write flows to the CallResult node (not the
        // call itself -- keeping argument and result flows separate).
        assert!(
            ddg.iter().any(|e| e.from == ret && e.to == result),
            "return value must flow to the call-result node"
        );
        assert!(
            !ddg.iter().any(|e| e.from == ret && e.to == call),
            "no conflated return-to-call edge"
        );
    }

    #[test]
    fn loop_carried_dependence() {
        let (lowered, ddg) =
            run("var count = 0; while (Math.random() < 0.9) { count = count + 1; } var r = count;");
        // count's increment BinOp depends on its own previous Copy (loop
        // carried) and the final read sees both defs weakly.
        let copies = stmt_where(&lowered, |k| matches!(k, IrStmtKind::Copy { .. }));
        let last_read = *copies.last().unwrap();
        let incoming = ddg.iter().filter(|e| e.to == last_read).count();
        assert!(incoming >= 2, "initial def and loop def both reach");
    }
}

//! Annotated data-dependence graph construction (Section 3.2).
//!
//! A reaching-definitions pass over the interprocedural supergraph
//! computes, for each statement, which definitions may reach it and
//! whether an overlapping write may have intervened since ("tainted"
//! facts). From this the paper's two conditions fall out directly:
//!
//! - `datastrong v1 -> v2`: `v2` definitely reads the single concrete
//!   location `v1` definitely writes (both strong, identical location),
//!   `v1`'s definition is the only reaching one that overlaps the read,
//!   and on **no** path between them is the location possibly
//!   overwritten (the fact is untainted on every path);
//! - `dataweak v1 -> v2`: the write/read sets overlap (under the
//!   `e`-intersection on abstract property names), the definition
//!   survives on at least one path (strong overwrites kill per-path), and
//!   the edge is not strong.
//!
//! The pass is sparse:
//!
//! - **Def ids.** Every (statement, written location) pair is one
//!   definition, numbered densely in statement order, so a statement's
//!   own definitions form one contiguous id range.
//! - **Location index.** Locations are interned and grouped by canonical
//!   allocation site (recency aliasing maps a most-recent site to its
//!   aged twin). Two locations overlap when they are the same location,
//!   or share a group and the meet of their property names is not
//!   bottom. Each location lists the definitions at overlapping
//!   locations, found by scanning only its own group, so kills, taints
//!   and read matches touch only those definitions.
//! - **Two bitsets per node** over def ids: *reaching* and *tainted*
//!   (tainted ⊆ reaching), both joined by OR. A statement's transfer is
//!   three precomputed word-mask lists: kill (other statements'
//!   definitions at exactly the location of one of its strong writes),
//!   taint (other statements' definitions overlapping one of its
//!   writes), and gen (its own definitions, which leave reaching and
//!   untainted).
//! - **Reverse postorder.** Nodes are numbered in reverse postorder of a
//!   DFS over the supergraph's successors from the reachable statements,
//!   and the worklist is a dirty bitset swept in that order. A visit
//!   copies the node's bitsets into two reused buffers, applies the
//!   masks and ORs the result into its successors; it allocates nothing.
//!
//! The transfer is monotone, so the fixpoint does not depend on the
//! visit order. Only the reachable statements start dirty: any other
//! node is visited once a definition reaches it.

use crate::supergraph::SuperGraph;
use jsanalysis::{AnalysisResult, Loc, Strength};
use jsdomains::{AllocSite, MeetLattice, Pre};
use jsir::StmtId;
use std::collections::{BTreeMap, BTreeSet, HashMap};
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

/// The program's definitions and reads over interned locations.
struct DefIndex {
    defs: Vec<Def>,
    /// Each writing statement's def-id range.
    own: HashMap<StmtId, Range<u32>>,
    /// Each reading statement's reads, as (location, strong).
    reads: Vec<(StmtId, Vec<(u32, bool)>)>,
    /// Per location: the definitions at exactly that location.
    at: Vec<Vec<u32>>,
    /// Per location: the definitions at every overlapping location.
    overlapping: Vec<Vec<u32>>,
}

impl DefIndex {
    fn build(analysis: &AnalysisResult) -> DefIndex {
        let mut locs: Vec<&Loc> = Vec::new();
        let mut ids: HashMap<&Loc, u32> = HashMap::new();
        let mut intern = |loc| {
            *ids.entry(loc).or_insert_with(|| {
                locs.push(loc);
                (locs.len() - 1) as u32
            })
        };
        let mut defs = Vec::new();
        let mut own = HashMap::new();
        let mut reads = Vec::new();
        for (&stmt, rw) in &analysis.rw {
            let first = defs.len() as u32;
            for (loc, s) in rw.writes.iter() {
                let loc = intern(loc);
                defs.push(Def {
                    stmt,
                    loc,
                    strong: s == Strength::Strong,
                });
            }
            if defs.len() as u32 > first {
                own.insert(stmt, first..defs.len() as u32);
            }
            let r: Vec<(u32, bool)> = rw
                .reads
                .iter()
                .map(|(loc, s)| (intern(loc), s == Strength::Strong))
                .collect();
            if !r.is_empty() {
                reads.push((stmt, r));
            }
        }

        let mut at = vec![Vec::new(); locs.len()];
        for (d, def) in defs.iter().enumerate() {
            at[def.loc as usize].push(d as u32);
        }
        let canonical = |site: AllocSite| analysis.site_aliases.get(&site).copied().unwrap_or(site);
        let mut written: HashMap<AllocSite, Vec<usize>> = HashMap::new();
        for (l, loc) in locs.iter().enumerate() {
            if !at[l].is_empty() {
                written.entry(canonical(loc.site)).or_default().push(l);
            }
        }
        let overlapping = locs
            .iter()
            .enumerate()
            .map(|(l, loc)| {
                let group = written
                    .get(&canonical(loc.site))
                    .map_or(&[][..], Vec::as_slice);
                let mut hits = Vec::new();
                for &w in group {
                    if w == l || !matches!(loc.prop.meet(&locs[w].prop), Pre::Bot) {
                        hits.extend_from_slice(&at[w]);
                    }
                }
                hits
            })
            .collect();
        DefIndex {
            defs,
            own,
            reads,
            at,
            overlapping,
        }
    }
}

/// Marks a statement absent from the node numbering.
const ABSENT: u32 = u32::MAX;

/// The supergraph nodes reachable from the analysis's reachable
/// statements, numbered in reverse postorder.
struct Rpo {
    /// The statement at each node number.
    stmts: Vec<StmtId>,
    /// The node number of each statement, indexed by `StmtId`.
    node: Vec<u32>,
    /// Successor node numbers, `succs[succ_start[i]..succ_start[i + 1]]`.
    succ_start: Vec<u32>,
    succs: Vec<u32>,
}

impl Rpo {
    fn build(sg: &SuperGraph, roots: &BTreeSet<StmtId>) -> Rpo {
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
        for &root in roots {
            if !mark(&mut node, root) {
                continue;
            }
            stack.push((root, 0));
            while let Some(&(s, next)) = stack.last() {
                if let Some(&t) = sg.succs(s).get(next) {
                    let top = stack.len() - 1;
                    stack[top].1 += 1;
                    if mark(&mut node, t) {
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
        let mut succ_start = Vec::with_capacity(post.len() + 1);
        let mut succs = Vec::new();
        for &s in &post {
            succ_start.push(succs.len() as u32);
            succs.extend(sg.succs(s).iter().map(|t| node[t.0 as usize]));
        }
        succ_start.push(succs.len() as u32);
        Rpo {
            stmts: post,
            node,
            succ_start,
            succs,
        }
    }

    fn of(&self, s: StmtId) -> Option<usize> {
        match self.node.get(s.0 as usize) {
            Some(&i) if i != ABSENT => Some(i as usize),
            _ => None,
        }
    }

    fn succs_of(&self, i: usize) -> &[u32] {
        &self.succs[self.succ_start[i] as usize..self.succ_start[i + 1] as usize]
    }
}

/// One list of (word, mask) pairs over def ids per node.
struct Masks {
    start: Vec<u32>,
    words: Vec<(u32, u64)>,
}

impl Masks {
    fn new() -> Masks {
        Masks {
            start: vec![0],
            words: Vec::new(),
        }
    }

    /// Appends the next node's list; `ids` must be ascending.
    fn push(&mut self, ids: impl IntoIterator<Item = u32>) {
        let first = self.words.len();
        for d in ids {
            let (w, bit) = (d / 64, 1u64 << (d % 64));
            match self.words[first..].last_mut() {
                Some((last, mask)) if *last == w => *mask |= bit,
                _ => self.words.push((w, bit)),
            }
        }
        self.start.push(self.words.len() as u32);
    }

    fn of(&self, i: usize) -> &[(u32, u64)] {
        &self.words[self.start[i] as usize..self.start[i + 1] as usize]
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

/// Builds the data-dependence edges of the PDG.
pub fn build_ddg(sg: &SuperGraph, analysis: &AnalysisResult) -> BTreeSet<DataDep> {
    let idx = DefIndex::build(analysis);
    if idx.defs.is_empty() || idx.reads.is_empty() {
        return BTreeSet::new();
    }
    let rpo = Rpo::build(sg, &analysis.reachable);
    let n = rpo.stmts.len();

    // Each node's transfer as word masks.
    let (mut kill, mut taint, mut gen) = (Masks::new(), Masks::new(), Masks::new());
    let (mut k, mut t) = (Vec::new(), Vec::new());
    for s in &rpo.stmts {
        let own = idx.own.get(s).cloned().unwrap_or(0..0);
        let foreign = |e: &&u32| !own.contains(*e);
        k.clear();
        t.clear();
        for d in own.clone() {
            let def = idx.defs[d as usize];
            if def.strong {
                k.extend(idx.at[def.loc as usize].iter().filter(foreign));
            }
            t.extend(idx.overlapping[def.loc as usize].iter().filter(foreign));
        }
        k.sort_unstable();
        k.dedup();
        t.sort_unstable();
        t.dedup();
        kill.push(k.iter().copied());
        taint.push(t.iter().copied());
        gen.push(own);
    }

    // Reaching definitions to the fixpoint, sweeping dirty nodes in RPO.
    let w = idx.defs.len().div_ceil(64);
    let mut reach = vec![0u64; n * w];
    let mut tainted = vec![0u64; n * w];
    let mut dirty = vec![0u64; n.div_ceil(64)];
    for &s in &analysis.reachable {
        if let Some(i) = rpo.of(s) {
            dirty[i / 64] |= 1 << (i % 64);
        }
    }
    let (mut r, mut t) = (vec![0u64; w], vec![0u64; w]);
    let mut from = 0;
    while let Some(i) = next_set(&dirty, from).or_else(|| next_set(&dirty, 0)) {
        dirty[i / 64] &= !(1 << (i % 64));
        r.copy_from_slice(&reach[i * w..(i + 1) * w]);
        t.copy_from_slice(&tainted[i * w..(i + 1) * w]);
        for &(x, m) in kill.of(i) {
            r[x as usize] &= !m;
            t[x as usize] &= !m;
        }
        // After the kills, so a killed definition is not re-tainted.
        for &(x, m) in taint.of(i) {
            t[x as usize] |= m & r[x as usize];
        }
        for &(x, m) in gen.of(i) {
            r[x as usize] |= m;
            t[x as usize] &= !m;
        }
        for &j in rpo.succs_of(i) {
            let j = j as usize;
            let grew = or_into(&mut reach[j * w..(j + 1) * w], &r)
                | or_into(&mut tainted[j * w..(j + 1) * w], &t);
            if grew {
                dirty[j / 64] |= 1 << (j % 64);
            }
        }
        from = i + 1;
    }

    // Emit edges.
    let mut best: BTreeMap<(StmtId, StmtId), bool> = BTreeMap::new();
    let mut hits: Vec<u32> = Vec::new();
    for (v2, rs) in &idx.reads {
        let Some(i) = rpo.of(*v2) else { continue };
        let (r, t) = (&reach[i * w..(i + 1) * w], &tainted[i * w..(i + 1) * w]);
        for &(l2, s2) in rs {
            // Every reaching definition whose location overlaps this read.
            hits.clear();
            hits.extend(idx.overlapping[l2 as usize].iter().filter(|&&d| has(r, d)));
            // "The value read is definitely the value written by v1"
            // additionally requires v1's def to be the unique reaching
            // definition of the location.
            let unique = hits.len() == 1;
            for &d in &hits {
                let def = idx.defs[d as usize];
                let strong = unique && !has(t, d) && def.loc == l2 && def.strong && s2;
                let e = best.entry((def.stmt, *v2)).or_insert(false);
                *e = *e || strong;
            }
        }
    }
    best.into_iter()
        .map(|((from, to), strong)| DataDep { from, to, strong })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsanalysis::{analyze, AnalysisConfig};
    use jsir::{IrStmtKind, Lowered};

    fn run(src: &str) -> (Lowered, BTreeSet<DataDep>) {
        let ast = jsparser::parse(src).unwrap();
        let lowered =
            jsir::lower_with_options(&ast, &jsir::LowerOptions { event_loop: false });
        let analysis = analyze(&lowered, &AnalysisConfig::default());
        let sg = SuperGraph::build(&lowered, &analysis);
        let ddg = build_ddg(&sg, &analysis);
        (lowered, ddg)
    }

    /// Find the statement assigning to (or storing) something recognizable.
    fn stmt_where(
        lowered: &Lowered,
        pred: impl Fn(&IrStmtKind) -> bool,
    ) -> Vec<StmtId> {
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
        let (lowered, ddg) = run(
            "var a = 0; if (Math.random() < 0.5) { a = 1; } else { a = 2; } use_global = a;",
        );
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
        let load = stmt_where(&lowered, |k| {
            matches!(k, IrStmtKind::LoadProp { prop: jsir::Operand::Str(p), .. } if p == "url")
        })[0];
        let edge = ddg
            .iter()
            .find(|e| e.from == store && e.to == load)
            .expect("store->load dependence");
        assert!(edge.strong, "exact singleton property: datastrong");
    }

    #[test]
    fn unknown_property_read_is_weak() {
        // Figure 1 line 3: data[getString()] with unknown string.
        let (lowered, ddg) = run(
            "var data = { url: input_global }; var x = data[getString_global()];",
        );
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
        let (lowered, ddg) = run(
            "var o = {}; o.p = 1; if (Math.random() < 0.5) { o.p = 2; } var r = o.p;",
        );
        let stores = stmt_where(&lowered, |k| {
            matches!(k, IrStmtKind::StoreProp { prop: jsir::Operand::Str(p), .. } if p == "p")
        });
        assert_eq!(stores.len(), 2);
        let load = *stmt_where(&lowered, |k| {
            matches!(k, IrStmtKind::LoadProp { prop: jsir::Operand::Str(p), .. } if p == "p")
        })
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
        let (lowered, ddg) = run(
            "var count = 0; while (Math.random() < 0.9) { count = count + 1; } var r = count;",
        );
        // count's increment BinOp depends on its own previous Copy (loop
        // carried) and the final read sees both defs weakly.
        let copies = stmt_where(&lowered, |k| matches!(k, IrStmtKind::Copy { .. }));
        let last_read = *copies.last().unwrap();
        let incoming = ddg.iter().filter(|e| e.to == last_read).count();
        assert!(incoming >= 2, "initial def and loop def both reach");
    }
}

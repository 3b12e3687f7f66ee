//! The dense reaching-definitions DDG pass, kept out of the library as a
//! test oracle for `jspdg::build_ddg`.
//!
//! This is the library's original pass, unchanged: a FIFO worklist over
//! the supergraph that keeps a `BTreeMap<(StmtId, loc), pristine>` per
//! node, clones it on every visit, and scans every reaching fact on each
//! write and each read. It is slow (cubic on the many-function shape) but
//! simple enough to read against Section 3.2, so the sparse pass must
//! produce exactly its `BTreeSet<DataDep>`. Test crates include it with
//! `#[path = "support/dense_ddg.rs"] mod dense_ddg;`.

use jsanalysis::{AnalysisResult, Loc, Strength};
use jsir::{EdgeKind, StmtId};
use jspdg::{DataDep, SuperGraph};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Dense interning of locations for the dataflow facts.
struct LocTable {
    locs: Vec<Loc>,
    index: HashMap<Loc, u32>,
    /// overlap cache
    overlap: HashMap<(u32, u32), bool>,
    /// Recency aliasing (mru site <-> aged twin): aliased sites denote
    /// instances of the same allocation site, so their locations overlap
    /// (weakly) for cross-instance flows.
    aliases: BTreeMap<jsdomains::AllocSite, jsdomains::AllocSite>,
}

impl LocTable {
    fn new(aliases: BTreeMap<jsdomains::AllocSite, jsdomains::AllocSite>) -> LocTable {
        LocTable {
            locs: Vec::new(),
            index: HashMap::new(),
            overlap: HashMap::new(),
            aliases,
        }
    }

    /// Canonical representative of a site under recency aliasing.
    fn canonical(&self, s: jsdomains::AllocSite) -> jsdomains::AllocSite {
        self.aliases.get(&s).copied().unwrap_or(s)
    }

    fn intern(&mut self, loc: &Loc) -> u32 {
        if let Some(&i) = self.index.get(loc) {
            return i;
        }
        let i = self.locs.len() as u32;
        self.locs.push(loc.clone());
        self.index.insert(loc.clone(), i);
        i
    }

    fn overlaps(&mut self, a: u32, b: u32) -> bool {
        if a == b {
            return true;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(&v) = self.overlap.get(&key) {
            return v;
        }
        let la = &self.locs[a as usize];
        let lb = &self.locs[b as usize];
        let v = la.overlaps(lb)
            || (self.canonical(la.site) == self.canonical(lb.site)
                && !matches!(
                    jsdomains::MeetLattice::meet(&la.prop, &lb.prop),
                    jsdomains::Pre::Bot
                ));
        self.overlap.insert(key, v);
        v
    }
}

/// The per-node dataflow fact: definition -> pristine?
/// `true` = no overlapping write seen on any path since the definition.
type Facts = BTreeMap<(StmtId, u32), bool>;

/// Builds the data-dependence edges of the PDG.
pub fn build_ddg(sg: &SuperGraph, analysis: &AnalysisResult) -> BTreeSet<DataDep> {
    let mut locs = LocTable::new(analysis.site_aliases.clone());

    // Pre-index each statement's writes and reads with interned locations.
    let mut writes: BTreeMap<StmtId, Vec<(u32, Strength)>> = BTreeMap::new();
    let mut reads: BTreeMap<StmtId, Vec<(u32, Strength)>> = BTreeMap::new();
    for (stmt, rw) in analysis.rw.iter() {
        let mut intern = |(l, s)| (locs.intern(&analysis.locs[l]), s);
        let w: Vec<(u32, Strength)> = rw.writes.iter().map(&mut intern).collect();
        if !w.is_empty() {
            writes.insert(stmt, w);
        }
        let r: Vec<(u32, Strength)> = rw.reads.iter().map(&mut intern).collect();
        if !r.is_empty() {
            reads.insert(stmt, r);
        }
    }

    // Worklist reaching-definitions over the supergraph.
    let mut in_facts: HashMap<StmtId, Facts> = HashMap::new();
    let mut queue: VecDeque<StmtId> = VecDeque::new();
    let mut queued: BTreeSet<StmtId> = BTreeSet::new();
    // Seed every statement that has writes (defs originate there).
    for s in analysis.reachable.keys() {
        queue.push_back(s);
        queued.insert(s);
    }

    let empty: Vec<(u32, Strength)> = Vec::new();
    while let Some(s) = queue.pop_front() {
        queued.remove(&s);
        let mut out: Facts = in_facts.get(&s).cloned().unwrap_or_default();
        // Kill / taint by this statement's writes.
        let my_writes = writes.get(&s).unwrap_or(&empty).clone();
        if !my_writes.is_empty() {
            let keys: Vec<(StmtId, u32)> = out.keys().copied().collect();
            for (def_stmt, def_loc) in keys {
                for (wl, ws) in &my_writes {
                    if def_stmt == s {
                        continue;
                    }
                    if *ws == Strength::Strong && *wl == def_loc {
                        out.remove(&(def_stmt, def_loc));
                        break;
                    } else if locs.overlaps(*wl, def_loc) {
                        out.insert((def_stmt, def_loc), false);
                    }
                }
            }
            // Generate this statement's own definitions (pristine).
            for (wl, _) in &my_writes {
                out.insert((s, *wl), true);
            }
        }
        // Propagate.
        for &(succ, _) in sg.succs(s).iter().filter(|(_, k)| *k != EdgeKind::Uncaught) {
            let entry = in_facts.entry(succ).or_default();
            let mut changed = false;
            for (k, &pristine) in &out {
                match entry.get_mut(k) {
                    Some(p) => {
                        if *p && !pristine {
                            *p = false;
                            changed = true;
                        }
                    }
                    None => {
                        entry.insert(*k, pristine);
                        changed = true;
                    }
                }
            }
            if changed && queued.insert(succ) {
                queue.push_back(succ);
            }
        }
    }

    // Emit edges.
    let mut best: BTreeMap<(StmtId, StmtId), bool> = BTreeMap::new();
    for (&v2, rs) in &reads {
        let facts = match in_facts.get(&v2) {
            Some(f) => f,
            None => continue,
        };
        for (l2, s2) in rs {
            // Every definition whose location overlaps this read.
            let overlapping: Vec<(StmtId, u32, bool)> = facts
                .iter()
                .filter(|&(&(_, l1), _)| locs.overlaps(l1, *l2))
                .map(|(&(v1, l1), &p)| (v1, l1, p))
                .collect();
            // "The value read is definitely the value written by v1"
            // additionally requires v1's def to be the unique reaching
            // definition of the location.
            let unique = overlapping.len() == 1;
            for (v1, l1, pristine) in overlapping {
                let def_strength = writes
                    .get(&v1)
                    .and_then(|ws| ws.iter().find(|(l, _)| *l == l1))
                    .map(|(_, s)| *s)
                    .unwrap_or(Strength::Weak);
                let strong = unique
                    && pristine
                    && l1 == *l2
                    && def_strength == Strength::Strong
                    && *s2 == Strength::Strong;
                let e = best.entry((v1, v2)).or_insert(false);
                *e = *e || strong;
            }
        }
    }
    best.into_iter()
        .map(|((from, to), strong)| DataDep { from, to, strong })
        .collect()
}

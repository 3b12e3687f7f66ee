//! Flow-type propagation over the annotated PDG (Section 4.2).
//!
//! For a set of source statements, computes for every PDG-reachable
//! statement the strongest set of flow types with which information from
//! the source can reach it:
//!
//! ```text
//! FlowType(v) = max( U_{v' --ann--> v} U_{t in FlowType(v')} extend(t, ann) )
//! ```
//!
//! computed as a fixpoint (the PDG has cycles). We accumulate every
//! achievable type monotonically and take `max` at read-out time, which
//! yields the same result as the paper's equation and terminates because
//! the type set is finite.

use crate::flowtype::{FlowLattice, FlowType};
use jsir::StmtId;
use jspdg::{Annotation, Pdg, PdgEdge};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One step of a provenance path: a statement, and the annotation of the
/// PDG edge the flow takes *out of* it (`None` at the path's end).
pub type PathStep = (StmtId, Option<Annotation>);

/// Flow types achievable at each statement from a given set of sources.
#[derive(Debug, Clone)]
pub struct FlowTypes {
    achievable: BTreeMap<StmtId, BTreeSet<FlowType>>,
    /// First-discovery parent pointers: the `(statement, flow type)`
    /// fact and edge annotation that first established each achievable
    /// fact. Source facts have no entry. Because a parent fact is always
    /// inserted strictly before its children, the pointers form a DAG
    /// and every chain ends at a source.
    parents: BTreeMap<(StmtId, FlowType), (StmtId, FlowType, Annotation)>,
    /// Propagation worklist iterations (order-independent: the FIFO over
    /// the PDG is fixed regardless of how phase 1 was scheduled).
    pub steps: u64,
    /// Distinct `(statement, flow type)` facts established.
    pub raises: u64,
}

impl FlowTypes {
    /// The strongest flow types with which the sources reach `stmt`
    /// (empty if unreachable in the PDG).
    pub fn at(&self, lattice: &FlowLattice, stmt: StmtId) -> BTreeSet<FlowType> {
        self.achievable
            .get(&stmt)
            .map(|s| lattice.max(s))
            .unwrap_or_default()
    }

    /// Statements reachable from the sources.
    pub fn reached(&self) -> impl Iterator<Item = StmtId> + '_ {
        self.achievable.keys().copied()
    }

    /// The PDG path that first established flow type `t` at `stmt`: a
    /// source-to-`stmt` statement sequence where each step carries the
    /// annotation of the edge the flow leaves it on (`None` on the final
    /// statement). `None` if `(stmt, t)` was never achieved.
    ///
    /// Deterministic: propagation visits the PDG in a fixed order, so
    /// the first discovery — and hence the path — is a pure function of
    /// the PDG and the sources.
    pub fn provenance(&self, stmt: StmtId, t: FlowType) -> Option<Vec<PathStep>> {
        if !self.achievable.get(&stmt).is_some_and(|s| s.contains(&t)) {
            return None;
        }
        let mut rev: Vec<PathStep> = vec![(stmt, None)];
        let mut cur = (stmt, t);
        while let Some(&(pstmt, ptype, ann)) = self.parents.get(&cur) {
            rev.push((pstmt, Some(ann)));
            cur = (pstmt, ptype);
            // Parent insertion order strictly decreases, so this cannot
            // cycle; the bound is sheer paranoia.
            if rev.len() > self.parents.len() + 2 {
                debug_assert!(false, "provenance chain longer than the parent table");
                return None;
            }
        }
        rev.reverse();
        Some(rev)
    }
}

/// Runs the propagation from `sources` over the PDG.
pub fn propagate(lattice: &FlowLattice, pdg: &Pdg, sources: &BTreeSet<StmtId>) -> FlowTypes {
    let mut achievable: BTreeMap<StmtId, BTreeSet<FlowType>> = BTreeMap::new();
    let mut parents: BTreeMap<(StmtId, FlowType), (StmtId, FlowType, Annotation)> = BTreeMap::new();
    let mut queue: VecDeque<StmtId> = VecDeque::new();
    let strongest = lattice.strongest();
    let mut raises: u64 = 0;
    for &s in sources {
        achievable.entry(s).or_default().insert(strongest);
        raises += 1;
        queue.push_back(s);
    }
    let mut queued: BTreeSet<StmtId> = sources.clone();

    let mut steps: u64 = 0;
    while let Some(v) = queue.pop_front() {
        queued.remove(&v);
        steps += 1;
        let types: Vec<FlowType> = achievable
            .get(&v)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        for &PdgEdge { to: succ, ann, .. } in pdg.succs(v) {
            let entry = achievable.entry(succ).or_default();
            let mut changed = false;
            for &t in &types {
                let ext = lattice.extend(t, ann);
                if entry.insert(ext) {
                    changed = true;
                    raises += 1;
                    parents.insert((succ, ext), (v, t, ann));
                }
            }
            if changed && queued.insert(succ) {
                queue.push_back(succ);
            }
        }
    }
    FlowTypes {
        achievable,
        parents,
        steps,
        raises,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jspdg::{Annotation, CtrlKind};

    fn s(n: u32) -> StmtId {
        StmtId(n)
    }

    fn t(n: u8) -> FlowType {
        FlowType(n - 1)
    }

    const L_AMP: Annotation = Annotation::Ctrl {
        kind: CtrlKind::Local,
        amp: true,
    };
    const NLE_AMP: Annotation = Annotation::Ctrl {
        kind: CtrlKind::NonLocExp,
        amp: true,
    };

    #[test]
    fn pure_strong_chain_stays_type1() {
        let mut pdg = Pdg::default();
        pdg.add(s(0), s(1), Annotation::DataStrong);
        pdg.add(s(1), s(2), Annotation::DataStrong);
        let l = FlowLattice::paper();
        let ft = propagate(&l, &pdg, &[s(0)].into_iter().collect());
        assert_eq!(ft.at(&l, s(2)), [t(1)].into_iter().collect());
    }

    #[test]
    fn weak_edge_degrades_to_type2() {
        let mut pdg = Pdg::default();
        pdg.add(s(0), s(1), Annotation::DataWeak);
        let l = FlowLattice::paper();
        let ft = propagate(&l, &pdg, &[s(0)].into_iter().collect());
        assert_eq!(ft.at(&l, s(1)), [t(2)].into_iter().collect());
    }

    #[test]
    fn paper_example_from_section_4_2() {
        // v1 --nle^amp--> v3, v2 --nle^amp--> v3, with
        // FlowType(v1) = {type4, type5}, FlowType(v2) = {type3}:
        // the paper computes FlowType(v3) = {type5}.
        // Build a PDG realizing those incoming sets:
        //   src --local--> v1 (type4); src --nle^amp--> v1 (type5);
        //   src --local^amp--> v2 (type3).
        let mut pdg = Pdg::default();
        let src = s(0);
        let v1 = s(1);
        let v2 = s(2);
        let v3 = s(3);
        pdg.add(
            src,
            v1,
            Annotation::Ctrl {
                kind: CtrlKind::Local,
                amp: false,
            },
        );
        pdg.add(src, v1, NLE_AMP);
        pdg.add(src, v2, L_AMP);
        pdg.add(v1, v3, NLE_AMP);
        pdg.add(v2, v3, NLE_AMP);
        let l = FlowLattice::paper();
        let ft = propagate(&l, &pdg, &[src].into_iter().collect());
        assert_eq!(ft.at(&l, v1), [t(4), t(5)].into_iter().collect());
        assert_eq!(ft.at(&l, v2), [t(3)].into_iter().collect());
        assert_eq!(
            ft.at(&l, v3),
            [t(5)].into_iter().collect(),
            "max(extend(type4,nle^amp)=type6, extend(type5,nle^amp)=type5, \
             extend(type3,nle^amp)=type5) = {{type5}}"
        );
    }

    #[test]
    fn cycles_terminate() {
        let mut pdg = Pdg::default();
        pdg.add(s(0), s(1), Annotation::DataWeak);
        pdg.add(s(1), s(2), L_AMP);
        pdg.add(s(2), s(1), Annotation::DataWeak);
        let l = FlowLattice::paper();
        let ft = propagate(&l, &pdg, &[s(0)].into_iter().collect());
        assert!(!ft.at(&l, s(2)).is_empty());
    }

    #[test]
    fn unreachable_statements_have_no_types() {
        let mut pdg = Pdg::default();
        pdg.add(s(0), s(1), Annotation::DataStrong);
        pdg.add(s(5), s(6), Annotation::DataStrong);
        let l = FlowLattice::paper();
        let ft = propagate(&l, &pdg, &[s(0)].into_iter().collect());
        assert!(ft.at(&l, s(6)).is_empty());
    }

    #[test]
    fn provenance_walks_back_to_a_source() {
        let mut pdg = Pdg::default();
        pdg.add(s(0), s(1), Annotation::DataStrong);
        pdg.add(s(1), s(2), Annotation::DataWeak);
        let l = FlowLattice::paper();
        let ft = propagate(&l, &pdg, &[s(0)].into_iter().collect());
        let sink_type = *ft.at(&l, s(2)).iter().next().unwrap();
        let path = ft
            .provenance(s(2), sink_type)
            .expect("achieved fact has a path");
        assert_eq!(
            path,
            vec![
                (s(0), Some(Annotation::DataStrong)),
                (s(1), Some(Annotation::DataWeak)),
                (s(2), None),
            ]
        );
        assert!(ft.provenance(s(7), sink_type).is_none(), "unreached stmt");
        assert!(ft.steps >= 3, "three statements visited");
        assert!(ft.raises >= 3, "three facts established");
    }

    #[test]
    fn provenance_is_deterministic_across_runs() {
        let mut pdg = Pdg::default();
        // Two competing routes to s(3) with the same resulting type.
        pdg.add(s(0), s(1), Annotation::DataWeak);
        pdg.add(s(0), s(2), Annotation::DataWeak);
        pdg.add(s(1), s(3), Annotation::DataWeak);
        pdg.add(s(2), s(3), Annotation::DataWeak);
        let l = FlowLattice::paper();
        let sources = [s(0)].into_iter().collect();
        let a = propagate(&l, &pdg, &sources);
        let b = propagate(&l, &pdg, &sources);
        let t = *a.at(&l, s(3)).iter().next().unwrap();
        assert_eq!(a.provenance(s(3), t), b.provenance(s(3), t));
    }

    #[test]
    fn multiple_sources_union() {
        let mut pdg = Pdg::default();
        pdg.add(s(0), s(2), Annotation::DataStrong);
        pdg.add(s(1), s(2), Annotation::DataWeak);
        let l = FlowLattice::paper();
        let ft = propagate(&l, &pdg, &[s(0), s(1)].into_iter().collect());
        // Strongest wins: type1 via s0.
        assert_eq!(ft.at(&l, s(2)), [t(1)].into_iter().collect());
    }
}

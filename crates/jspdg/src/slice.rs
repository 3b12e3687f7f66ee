//! Program slicing over the annotated PDG.
//!
//! The paper notes the annotated PDG "can be more generally useful, e.g.,
//! for program slicing, code obfuscation, code compression, and various
//! code optimizations" (Section 1.2). This module provides backward and
//! forward slicing with *annotation filters*: because edges carry their
//! provenance, a slice can be restricted to, say, data dependences only
//! (a taint slice) or to unamplified flows.

use crate::annotation::Annotation;
use crate::pdg::Pdg;
use jsir::StmtId;
use std::collections::{BTreeSet, VecDeque};

/// Which PDG edges a slice may traverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceFilter {
    /// Follow every dependence (the classic PDG slice).
    All,
    /// Follow only data dependences (a taint slice).
    DataOnly,
    /// Follow data dependences and local control (ignores exceptional
    /// control flow).
    DataAndLocalControl,
}

impl SliceFilter {
    /// True if the filter admits the annotation.
    pub fn admits(self, ann: Annotation) -> bool {
        match self {
            SliceFilter::All => true,
            SliceFilter::DataOnly => ann.is_data(),
            SliceFilter::DataAndLocalControl => {
                ann.is_data()
                    || matches!(
                        ann,
                        Annotation::Ctrl {
                            kind: crate::annotation::CtrlKind::Local,
                            ..
                        }
                    )
            }
        }
    }
}

/// The backward slice from `criterion`: every statement the criterion
/// (transitively) depends on, under the filter. Includes the criterion.
pub fn backward_slice(pdg: &Pdg, criterion: StmtId, filter: SliceFilter) -> BTreeSet<StmtId> {
    // Invert the admitted edges once, then slice forward over them.
    let mut inverse = Pdg::default();
    for e in pdg.edges().filter(|e| filter.admits(e.ann)) {
        inverse.add(e.to, e.from, e.ann);
    }
    forward_slice(&inverse, criterion, SliceFilter::All)
}

/// The forward slice from `criterion`: every statement (transitively)
/// affected by it, under the filter. Includes the criterion.
pub fn forward_slice(pdg: &Pdg, criterion: StmtId, filter: SliceFilter) -> BTreeSet<StmtId> {
    let mut seen = BTreeSet::new();
    let mut stack = vec![criterion];
    while let Some(s) = stack.pop() {
        if seen.insert(s) {
            stack.extend(
                pdg.succs(s)
                    .iter()
                    .filter(|e| filter.admits(e.ann))
                    .map(|e| e.to),
            );
        }
    }
    seen
}

/// A chop: statements on some dependence path from `source` to `sink`
/// (the intersection of `source`'s forward slice and `sink`'s backward
/// slice). This is what a vetter inspects to understand one signature
/// entry.
pub fn chop(pdg: &Pdg, source: StmtId, sink: StmtId, filter: SliceFilter) -> BTreeSet<StmtId> {
    let fwd = forward_slice(pdg, source, filter);
    let bwd = backward_slice(pdg, sink, filter);
    fwd.intersection(&bwd).copied().collect()
}

/// One shortest PDG path from `source` to `sink` under the filter, for
/// witness reporting. `None` if no path exists.
pub fn witness_path(
    pdg: &Pdg,
    source: StmtId,
    sink: StmtId,
    filter: SliceFilter,
) -> Option<Vec<(StmtId, Option<Annotation>)>> {
    // BFS recording the edge that discovered each node.
    let mut prev: std::collections::BTreeMap<StmtId, (StmtId, Annotation)> =
        std::collections::BTreeMap::new();
    let mut queue = VecDeque::new();
    queue.push_back(source);
    let mut seen = BTreeSet::new();
    seen.insert(source);
    while let Some(s) = queue.pop_front() {
        if s == sink {
            // Reconstruct.
            let mut path = vec![(sink, None)];
            let mut cur = sink;
            while cur != source {
                let (p, a) = prev[&cur];
                path.push((p, Some(a)));
                cur = p;
            }
            path.reverse();
            // Entry i now holds (node, annotation of the edge leaving it);
            // the sink carries `None`.
            return Some(path);
        }
        for e in pdg.succs(s) {
            if filter.admits(e.ann) && seen.insert(e.to) {
                prev.insert(e.to, (s, e.ann));
                queue.push_back(e.to);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::CtrlKind;

    fn s(n: u32) -> StmtId {
        StmtId(n)
    }

    const LOCAL: Annotation = Annotation::Ctrl {
        kind: CtrlKind::Local,
        amp: false,
    };
    const NLI: Annotation = Annotation::Ctrl {
        kind: CtrlKind::NonLocImp,
        amp: false,
    };

    fn sample_pdg() -> Pdg {
        // 0 --data--> 1 --data--> 3
        // 2 --local--> 3
        // 4 --nonlocimp--> 3
        // 3 --data--> 5
        let mut pdg = Pdg::default();
        pdg.add(s(0), s(1), Annotation::DataStrong);
        pdg.add(s(1), s(3), Annotation::DataWeak);
        pdg.add(s(2), s(3), LOCAL);
        pdg.add(s(4), s(3), NLI);
        pdg.add(s(3), s(5), Annotation::DataStrong);
        pdg
    }

    #[test]
    fn backward_slice_all() {
        let pdg = sample_pdg();
        let slice = backward_slice(&pdg, s(5), SliceFilter::All);
        assert_eq!(slice, [0, 1, 2, 3, 4, 5].map(s).into_iter().collect());
    }

    #[test]
    fn backward_slice_data_only_drops_control() {
        let pdg = sample_pdg();
        let slice = backward_slice(&pdg, s(5), SliceFilter::DataOnly);
        assert_eq!(slice, [0, 1, 3, 5].map(s).into_iter().collect());
    }

    #[test]
    fn backward_slice_local_control_keeps_local_drops_implicit() {
        let pdg = sample_pdg();
        let slice = backward_slice(&pdg, s(5), SliceFilter::DataAndLocalControl);
        assert!(slice.contains(&s(2)));
        assert!(!slice.contains(&s(4)));
    }

    #[test]
    fn forward_slice_works() {
        let pdg = sample_pdg();
        let slice = super::forward_slice(&pdg, s(0), SliceFilter::All);
        assert_eq!(slice, [0, 1, 3, 5].map(s).into_iter().collect());
    }

    #[test]
    fn chop_intersects() {
        let pdg = sample_pdg();
        let c = chop(&pdg, s(0), s(5), SliceFilter::All);
        assert_eq!(c, [0, 1, 3, 5].map(s).into_iter().collect());
        // Node 2 affects 5 but is not affected by 0.
        assert!(!c.contains(&s(2)));
    }

    #[test]
    fn witness_path_found_and_annotated() {
        let pdg = sample_pdg();
        let path = witness_path(&pdg, s(0), s(5), SliceFilter::All).expect("path");
        let nodes: Vec<StmtId> = path.iter().map(|(n, _)| *n).collect();
        assert_eq!(nodes, vec![s(0), s(1), s(3), s(5)]);
        // The first hop's annotation is the 0->1 edge.
        assert_eq!(path[0].1, Some(Annotation::DataStrong));
        assert_eq!(path[3].1, None, "sink has no outgoing hop");
    }

    #[test]
    fn witness_path_respects_filter() {
        let pdg = sample_pdg();
        assert!(witness_path(&pdg, s(2), s(5), SliceFilter::DataOnly).is_none());
        assert!(witness_path(&pdg, s(2), s(5), SliceFilter::All).is_some());
    }

    #[test]
    fn no_path_returns_none() {
        let pdg = sample_pdg();
        assert!(witness_path(&pdg, s(5), s(0), SliceFilter::All).is_none());
    }

    #[test]
    fn end_to_end_slice_on_real_program() {
        let ast = jsparser::parse(
            r#"
var secret = content.location.href;
var harmless = 42;
var msg = "u=" + secret;
var r = XHRWrapper("http://x.example/api");
r.send(msg);
use_global(harmless);
"#,
        )
        .unwrap();
        let lowered = jsir::lower(&ast);
        let analysis = jsanalysis::analyze(&lowered, &jsanalysis::AnalysisConfig::default());
        let pdg = Pdg::build(&lowered, &analysis);
        // Slice backward from the send call.
        let send = lowered
            .program
            .stmts
            .iter()
            .rfind(|st| matches!(&st.kind, jsir::IrStmtKind::Call { .. }) && st.span.line == 6)
            .expect("send call");
        let slice = backward_slice(&pdg, send.id, SliceFilter::DataOnly);
        let lines: BTreeSet<u32> = slice
            .iter()
            .map(|s| lowered.program.stmt(*s).span.line)
            .collect();
        assert!(lines.contains(&2), "secret def in slice");
        assert!(lines.contains(&4), "msg construction in slice");
        assert!(!lines.contains(&7), "unrelated statement not in slice");
    }
}

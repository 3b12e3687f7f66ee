//! The annotated Program Dependence Graph (Section 3): the union of the
//! annotated DDG and the staged, annotated CDG.

use crate::annotation::{Annotation, CtrlKind};
use crate::cdg::{build_cdg, CtrlDep};
use crate::ddg::{build_ddg, DataDep};
use crate::supergraph::SuperGraph;
use jsanalysis::AnalysisResult;
use jsir::{Lowered, StmtId};
use sigtrace::{Counter, Counters, Layer, Trace};
use std::collections::BTreeSet;

/// One annotated PDG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PdgEdge {
    /// Source statement.
    pub from: StmtId,
    /// Target statement.
    pub to: StmtId,
    /// The edge's annotation.
    pub ann: Annotation,
}

/// The annotated program dependence graph: each statement's outgoing
/// edges, indexed by `StmtId`, in the order they were added.
#[derive(Debug, Clone, Default)]
pub struct Pdg {
    succs: Vec<Vec<PdgEdge>>,
}

impl Pdg {
    /// Builds the annotated PDG for an analyzed program.
    pub fn build(lowered: &Lowered, analysis: &AnalysisResult) -> Pdg {
        Pdg::build_traced(lowered, analysis, &mut Trace::Off)
    }

    /// Builds the annotated PDG with an observability hook: `trace`
    /// receives one span per layer (supergraph, DDG, CDG, and the
    /// assembly that adds both edge sets) and the per-kind edge
    /// counters. With [`Trace::Off`] this is [`Pdg::build`].
    pub fn build_traced(
        lowered: &Lowered,
        analysis: &AnalysisResult,
        trace: &mut Trace<'_>,
    ) -> Pdg {
        let sg = trace.span(Layer::Supergraph, |_| SuperGraph::build(lowered, analysis));
        let ddg = trace.span(Layer::Ddg, |_| build_ddg(&sg, analysis));
        let cdg = trace.span(Layer::Cdg, |_| build_cdg(lowered, analysis, &sg));
        trace.span(Layer::Assemble, |trace| {
            // The edge sets are all that is left to use: free the
            // supergraph before the PDG's lists grow.
            drop(sg);
            let mut pdg = Pdg::default();
            for DataDep { from, to, strong } in ddg {
                let ann = if strong {
                    Annotation::DataStrong
                } else {
                    Annotation::DataWeak
                };
                pdg.add(from, to, ann);
            }
            for dep in cdg {
                let CtrlDep { from, to, .. } = dep;
                pdg.add(from, to, dep.annotation());
            }
            if trace.is_enabled() {
                trace.add_counters(&pdg.edge_kind_counters());
            }
            pdg
        })
    }

    /// Tallies the PDG's edges into the per-kind [`Counters`]. These
    /// counts measure the fixpoint's *output*, so they are identical
    /// across worklist orders (unlike the phase-1 step counters).
    pub fn edge_kind_counters(&self) -> Counters {
        let mut counters = Counters::new();
        for e in self.edges() {
            let c = match e.ann {
                Annotation::DataStrong => Counter::PdgDataStrongEdges,
                Annotation::DataWeak => Counter::PdgDataWeakEdges,
                Annotation::Ctrl {
                    kind: CtrlKind::Local,
                    ..
                } => Counter::PdgCtrlLocalEdges,
                Annotation::Ctrl {
                    kind: CtrlKind::NonLocExp,
                    ..
                } => Counter::PdgCtrlNonLocExpEdges,
                Annotation::Ctrl {
                    kind: CtrlKind::NonLocImp,
                    ..
                } => Counter::PdgCtrlNonLocImpEdges,
            };
            counters.add(c, 1);
            if matches!(e.ann, Annotation::Ctrl { amp: true, .. }) {
                counters.add(Counter::PdgCtrlAmplifiedEdges, 1);
            }
        }
        counters
    }

    /// Adds the edge `from -> to`. The caller adds each edge once: the
    /// PDG keeps every edge it is given, without looking for duplicates.
    pub fn add(&mut self, from: StmtId, to: StmtId, ann: Annotation) {
        let i = from.0 as usize;
        if i >= self.succs.len() {
            self.succs.resize_with(i + 1, Vec::new);
        }
        self.succs[i].push(PdgEdge { from, to, ann });
    }

    /// All edges, by source statement and then in the order they were
    /// added.
    pub fn edges(&self) -> impl Iterator<Item = &PdgEdge> {
        self.succs.iter().flatten()
    }

    /// Outgoing edges of a statement, in the order they were added.
    pub fn succs(&self, s: StmtId) -> &[PdgEdge] {
        self.succs.get(s.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// All statements participating in at least one edge.
    pub fn nodes(&self) -> BTreeSet<StmtId> {
        self.edges().flat_map(|e| [e.from, e.to]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::CtrlKind;
    use crate::slice::{backward_slice, witness_path, SliceFilter};
    use jsanalysis::{analyze, AnalysisConfig};

    fn build(src: &str) -> (Lowered, Pdg) {
        let ast = jsparser::parse(src).unwrap();
        let lowered = jsir::lower_with_options(&ast, &jsir::LowerOptions { event_loop: false });
        let analysis = analyze(&lowered, &AnalysisConfig::default());
        let pdg = Pdg::build(&lowered, &analysis);
        (lowered, pdg)
    }

    #[test]
    fn union_of_ddg_and_cdg() {
        let (_, pdg) = build("var a = input_global; if (Math.random() < 0.5) { out_global = a; }");
        assert!(pdg.edges().any(|e| e.ann.is_data()));
        assert!(pdg.edges().any(|e| !e.ann.is_data()));
        assert!(pdg.edge_count() > 2);
    }

    #[test]
    fn adjacency_is_consistent() {
        let (_, pdg) = build("var a = 1; var b = a; var c = b;");
        for e in pdg.edges() {
            assert!(pdg.succs(e.from).contains(e));
            assert!(backward_slice(&pdg, e.to, SliceFilter::All).contains(&e.from));
        }
    }

    #[test]
    fn reachability_via_mixed_edges() {
        // Implicit flow: source -> branch (data), branch -> sink (control).
        let (lowered, pdg) = build(
            r#"
var secret = input_global;
if (secret == "x") { leak_global = 1; }
"#,
        );
        let first_copy = lowered
            .program
            .stmts
            .iter()
            .find(|s| {
                matches!(
                    &s.kind,
                    jsir::IrStmtKind::Copy {
                        dst: jsir::Place::Var(_),
                        ..
                    }
                )
            })
            .unwrap()
            .id;
        let leak = lowered
            .program
            .stmts
            .iter()
            .find(|s| {
                matches!(&s.kind, jsir::IrStmtKind::Copy { dst: jsir::Place::Global(g), .. } if g == "leak_global")
            })
            .unwrap()
            .id;
        assert!(
            witness_path(&pdg, first_copy, leak, SliceFilter::All).is_some(),
            "implicit flow must be a PDG path"
        );
        // And at least one control edge participates.
        assert!(pdg.edges().any(|e| matches!(
            e.ann,
            Annotation::Ctrl {
                kind: CtrlKind::Local,
                ..
            }
        )));
    }
}

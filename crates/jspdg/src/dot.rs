//! Graphviz (DOT) export for annotated PDGs, for human inspection of
//! small addons (the vetter's visual aid; Figure 2 of the paper is
//! exactly such a rendering).

use crate::annotation::{Annotation, CtrlKind};
use crate::pdg::{Pdg, PdgEdge};
use jsir::{IrProgram, StmtId};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Style (color/shape) for one annotation.
fn edge_style(ann: Annotation) -> &'static str {
    match ann {
        Annotation::DataStrong => "color=black, penwidth=2",
        Annotation::DataWeak => "color=black, style=dashed",
        Annotation::Ctrl {
            kind: CtrlKind::Local,
            amp: false,
        } => "color=blue",
        Annotation::Ctrl {
            kind: CtrlKind::Local,
            amp: true,
        } => "color=blue, penwidth=2",
        Annotation::Ctrl {
            kind: CtrlKind::NonLocExp,
            amp: false,
        } => "color=orange",
        Annotation::Ctrl {
            kind: CtrlKind::NonLocExp,
            amp: true,
        } => "color=orange, penwidth=2",
        Annotation::Ctrl {
            kind: CtrlKind::NonLocImp,
            amp: false,
        } => "color=red, style=dotted",
        Annotation::Ctrl {
            kind: CtrlKind::NonLocImp,
            amp: true,
        } => "color=red, style=dotted, penwidth=2",
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders the PDG as a DOT digraph, nodes and edges in sorted order.
/// Node labels use the IR pretty-printer plus the source line.
pub fn pdg_to_dot(program: &IrProgram, pdg: &Pdg) -> String {
    let mut out = String::from("digraph pdg {\n  node [shape=box, fontsize=10];\n");
    let nodes: BTreeSet<StmtId> = pdg.nodes();
    for n in &nodes {
        let stmt = program.stmt(*n);
        let label = format!(
            "L{}: {}",
            stmt.span.line,
            jsir::pretty::stmt_to_string(program, *n)
        );
        let _ = writeln!(out, "  n{} [label=\"{}\"];", n.0, escape(&label));
    }
    let mut edges: Vec<&PdgEdge> = pdg.edges().collect();
    edges.sort_unstable();
    for e in edges {
        let _ = writeln!(
            out,
            "  n{} -> n{} [label=\"{}\", {}];",
            e.from.0,
            e.to.0,
            e.ann,
            edge_style(e.ann)
        );
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(src: &str) -> (jsir::Lowered, Pdg) {
        let ast = jsparser::parse(src).unwrap();
        let lowered = jsir::lower_with_options(&ast, &jsir::LowerOptions { event_loop: false });
        let analysis = jsanalysis::analyze(&lowered, &jsanalysis::AnalysisConfig::default());
        let pdg = Pdg::build(&lowered, &analysis);
        (lowered, pdg)
    }

    #[test]
    fn pdg_dot_well_formed() {
        let (lowered, pdg) = build("var a = input_global; if (a) { out_global = a; }");
        let dot = pdg_to_dot(&lowered.program, &pdg);
        assert!(dot.starts_with("digraph pdg {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("data_strong") || dot.contains("data_weak"));
        assert!(dot.contains("local"));
        // Every declared node id appears; braces balanced.
        assert_eq!(dot.matches("digraph").count(), 1);
    }

    #[test]
    fn quotes_escaped() {
        let (lowered, pdg) = build("var s = \"he said \\\"hi\\\"\";");
        let dot = pdg_to_dot(&lowered.program, &pdg);
        // Unescaped quotes must be balanced on every line, or DOT breaks.
        for line in dot.lines() {
            let bytes = line.as_bytes();
            let mut unescaped = 0;
            for (i, b) in bytes.iter().enumerate() {
                if *b == b'"' && (i == 0 || bytes[i - 1] != b'\\') {
                    unescaped += 1;
                }
            }
            assert!(unescaped % 2 == 0, "unbalanced quotes in: {line}");
        }
        assert!(dot.contains("\\\""), "inner quotes are escaped");
    }
}

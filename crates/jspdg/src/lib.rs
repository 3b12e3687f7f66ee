//! Annotated Program Dependence Graphs for JavaScript addons (Section 3
//! of the paper).
//!
//! The PDG is the union of:
//!
//! - an annotated **data-dependence graph** ([`ddg`]) built by reaching
//!   definitions over the interprocedural supergraph, classifying each
//!   edge `datastrong` or `dataweak` by the paper's definite-read /
//!   definite-write / no-intervening-overwrite conditions; and
//! - an annotated **control-dependence graph** ([`cdg`]) built in the
//!   paper's four stages over successively pruned CFGs (`local`,
//!   `nonlocexp`, `nonlocimp`), with edges whose source lies on an
//!   execution cycle amplified to `ctrl^amp`.
//!
//! # Examples
//!
//! ```
//! use jsanalysis::{analyze, AnalysisConfig};
//! use jspdg::Pdg;
//!
//! let ast = jsparser::parse("var a = 1; var b = a;")?;
//! let lowered = jsir::lower(&ast);
//! let analysis = analyze(&lowered, &AnalysisConfig::default());
//! let pdg = Pdg::build(&lowered, &analysis);
//! assert!(pdg.edges().any(|e| e.ann == jspdg::Annotation::DataStrong));
//! # Ok::<(), jsparser::ParseError>(())
//! ```

#![warn(missing_docs)]

mod annotation;
pub mod cdg;
pub mod ddg;
pub mod dot;
pub mod pdg;
pub mod postdom;
pub mod slice;
pub mod supergraph;

pub use annotation::{Annotation, CtrlKind};
pub use cdg::{build_cdg, CtrlDep};
pub use ddg::{build_ddg, DataDep};
pub use dot::{cfg_to_dot, pdg_to_dot};
pub use pdg::{Pdg, PdgEdge};
pub use slice::{backward_slice, chop, forward_slice, witness_path, SliceFilter};
pub use supergraph::SuperGraph;

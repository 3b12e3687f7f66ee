//! Security-signature inference for JavaScript-based browser addons
//! (Section 4 of the paper).
//!
//! A signature lists information flows from interesting sources (the
//! current URL, key presses, ...) to interesting sinks (network sends
//! annotated with the inferred domain, script injection, ...), each
//! classified with one of the eight flow types of Figure 4, plus
//! interesting-API usage. Signatures are inferred from the annotated PDG
//! by per-source flow-type propagation, and can be compared against
//! manually-written signatures to produce the pass/fail/leak verdicts of
//! Table 2.
//!
//! # Examples
//!
//! ```
//! use jsanalysis::{analyze, AnalysisConfig};
//! use jspdg::Pdg;
//! use jssig::{infer_signature, FlowLattice};
//!
//! let ast = jsparser::parse(
//!     "var u = content.location.href;\n\
//!      var req = XHRWrapper(\"http://rank.example.com/\");\n\
//!      req.send(u);",
//! )?;
//! let lowered = jsir::lower(&ast);
//! let analysis = analyze(&lowered, &AnalysisConfig::default());
//! let pdg = Pdg::build(&lowered, &analysis);
//! let sig = infer_signature(&lowered, &analysis, &pdg, &FlowLattice::paper());
//! assert!(sig.to_string().contains("url --type1--> send"));
//! # Ok::<(), jsparser::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod compare;
pub mod flowtype;
pub mod infer;
pub mod propagate;
pub mod signature;

pub use compare::{
    classify_flow_drift, compare, Comparison, DriftFlow, FlowDrift, ManualEntry, ManualSignature,
    MatchQuality, RetypedFlow, Verdict,
};
pub use flowtype::{FlowLattice, FlowType, FlowTypeSpec};
pub use infer::{flows_impossible, infer_signature, infer_signature_traced, Endpoints};
pub use propagate::{propagate, FlowTypes, PathStep};
pub use signature::{FlowEntry, ProvenanceStep, SigSink, Signature};

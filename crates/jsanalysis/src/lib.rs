//! The base analysis: a flow- and context-sensitive abstract interpreter
//! for the addon JavaScript subset (the role JSAI plays in the paper).
//!
//! Computes the reduced product of pointer analysis, prefix-string
//! analysis (Section 5) and control-flow analysis, and produces the
//! inputs PDG construction needs (Section 3):
//!
//! - per-statement read/write sets with strong/weak qualification, over
//!   a table of the locations the run recorded,
//! - the set of statements that may throw implicit exceptions,
//! - the call graph,
//! - sink records with inferred network domains, and interesting-API uses.
//!
//! # Examples
//!
//! ```
//! use jsanalysis::{analyze, AnalysisConfig};
//!
//! let ast = jsparser::parse(
//!     "var url = content.location.href;\n\
//!      var req = new XMLHttpRequest();\n\
//!      req.open('GET', 'http://api.example.com/rank?u=' + url);\n\
//!      req.send(null);",
//! )?;
//! let lowered = jsir::lower(&ast);
//! let result = analyze(&lowered, &AnalysisConfig::default());
//! // The network domain was inferred as a prefix:
//! let sink = &result.sinks[0];
//! assert!(sink.domain.known_text().unwrap().starts_with("http://api.example.com"));
//! # Ok::<(), jsparser::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod context;
mod interp;
pub mod natives;
pub mod rwsets;
pub mod store;

pub use config::{
    AnalysisConfig, BudgetExhausted, BudgetKind, SecurityConfig, SinkKind, SourceKind,
    StringDomain, WorklistOrder, DEADLINE_CHECK_INTERVAL,
};
pub use context::{Context, CtxId, CtxTable};
pub use interp::{analyze, analyze_traced, AnalysisResult, SinkRecord};
pub use natives::{Environment, NativeBehavior, NativeSpec};
pub use rwsets::{AccessSet, Loc, LocId, LocTable, RwSets, StmtMap, StmtSet, Strength};
pub use store::{SiteKey, SiteTable};

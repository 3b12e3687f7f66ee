//! A lexer and parser for the JavaScript subset used by browser addons.
//!
//! This crate is the front end of the `addon-sig` analysis pipeline, a
//! reproduction of *Security Signature Inference for JavaScript-based
//! Browser Addons* (Kashyap & Hardekopf, CGO 2014). It provides:
//!
//! - [`parse`]: source text to [`ast::Program`],
//! - [`count_nodes`]: the Rhino-style AST-node size metric the paper
//!   reports in Table 1,
//! - full span tracking for diagnostics.
//!
//! The accepted language is the ES5 statement/expression language that
//! pre-Jetpack Mozilla addons were written in. `with` is rejected at parse
//! time (it defeats static scoping); `eval` and other dynamic-code APIs
//! parse as ordinary calls and are flagged later by the security analysis,
//! exactly as in the paper's vetting model.
//!
//! # Examples
//!
//! ```
//! let program = jsparser::parse(
//!     "var data = { url: content.location.href };\n\
//!      send(data.url);",
//! )?;
//! assert_eq!(program.body.len(), 2);
//! assert!(jsparser::count_nodes(&program) > 10);
//! # Ok::<(), jsparser::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
mod count;
mod error;
mod lexer;
mod parser;
pub mod span;
pub mod token;

pub use count::count_nodes;
pub use error::{ParseError, ParseErrorKind};
pub use lexer::lex;
pub use parser::{parse, MAX_NESTING};
pub use span::Span;

/// Converts a JavaScript number to its canonical string form, the way
/// property keys and `toString` coerce numbers (`42` not `42.0`).
pub fn number_to_string(n: f64) -> String {
    if n.is_nan() {
        return "NaN".to_owned();
    }
    if n.is_infinite() {
        return if n > 0.0 { "Infinity" } else { "-Infinity" }.to_owned();
    }
    if n == n.trunc() && n.abs() < 1e21 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_to_string_integral() {
        assert_eq!(number_to_string(42.0), "42");
        assert_eq!(number_to_string(-3.0), "-3");
        assert_eq!(number_to_string(0.0), "0");
    }

    #[test]
    fn number_to_string_fractional() {
        assert_eq!(number_to_string(1.5), "1.5");
        assert_eq!(number_to_string(f64::NAN), "NaN");
        assert_eq!(number_to_string(f64::INFINITY), "Infinity");
        assert_eq!(number_to_string(f64::NEG_INFINITY), "-Infinity");
    }
}

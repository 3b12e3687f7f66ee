//! Parse errors.

use crate::span::Span;
use std::error::Error;
use std::fmt;

/// An error produced while lexing or parsing addon source.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub kind: ParseErrorKind,
    /// Where it went wrong.
    pub span: Span,
}

/// The specific failure that occurred.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseErrorKind {
    /// A string literal was not closed before end of line / input.
    UnterminatedString,
    /// A block comment was not closed before end of input.
    UnterminatedComment,
    /// A regex literal was not closed before end of line / input.
    UnterminatedRegex,
    /// A numeric literal could not be parsed.
    InvalidNumber,
    /// A string escape sequence was malformed.
    InvalidEscape,
    /// A character that cannot begin any token.
    UnexpectedChar(char),
    /// The parser found a token it did not expect.
    UnexpectedToken {
        /// Rendered form of the offending token.
        found: String,
        /// What the parser was looking for.
        expected: String,
    },
    /// An assignment whose left-hand side is not assignable.
    InvalidAssignTarget,
    /// `break`/`continue` label or similar construct was malformed.
    InvalidStatement(String),
    /// The program nests deeper than [`crate::MAX_NESTING`] levels.
    TooDeep,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ParseErrorKind::UnterminatedString => write!(f, "unterminated string literal"),
            ParseErrorKind::UnterminatedComment => write!(f, "unterminated block comment"),
            ParseErrorKind::UnterminatedRegex => write!(f, "unterminated regex literal"),
            ParseErrorKind::InvalidNumber => write!(f, "invalid numeric literal"),
            ParseErrorKind::InvalidEscape => write!(f, "invalid escape sequence"),
            ParseErrorKind::UnexpectedChar(c) => write!(f, "unexpected character `{c}`"),
            ParseErrorKind::UnexpectedToken { found, expected } => {
                write!(f, "unexpected {found}, expected {expected}")
            }
            ParseErrorKind::InvalidAssignTarget => {
                write!(f, "invalid assignment target")
            }
            ParseErrorKind::InvalidStatement(msg) => write!(f, "{msg}"),
            ParseErrorKind::TooDeep => {
                write!(f, "nesting deeper than {} levels", crate::MAX_NESTING)
            }
        }?;
        write!(f, " at {}", self.span)
    }
}

impl Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_line() {
        let e = ParseError {
            kind: ParseErrorKind::UnexpectedChar('#'),
            span: Span::new(0, 1, 3),
        };
        assert_eq!(e.to_string(), "unexpected character `#` at line 3");
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn Error> = Box::new(ParseError {
            kind: ParseErrorKind::InvalidNumber,
            span: Span::default(),
        });
        assert!(e.to_string().contains("invalid numeric literal"));
    }
}

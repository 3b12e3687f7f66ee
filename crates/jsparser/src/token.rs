//! Token definitions for the JavaScript lexer.

use crate::span::Span;
use std::fmt;

/// A lexed token: its kind plus the source span it covers and whether a
/// line terminator preceded it (needed for automatic semicolon insertion
/// and the restricted productions `return` / `throw` / `break` /
/// `continue`).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Source range of the token.
    pub span: Span,
    /// True if at least one newline appeared between the previous token
    /// and this one.
    pub newline_before: bool,
}

/// The different kinds of tokens produced by the lexer.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// An identifier that is not a reserved word, e.g. `foo`.
    Ident(String),
    /// A reserved word, e.g. `function`.
    Keyword(Keyword),
    /// A numeric literal, already converted to its value.
    Num(f64),
    /// A string literal with escapes resolved.
    Str(String),
    /// A regular expression literal, stored as written (`/pat/flags`).
    Regex(String),
    /// A punctuator such as `{` or `===`.
    Punct(Punct),
    /// End of input.
    Eof,
}

impl TokenKind {
    /// True if this token is the given punctuator.
    pub fn is_punct(&self, p: Punct) -> bool {
        matches!(self, TokenKind::Punct(q) if *q == p)
    }

    /// True if this token is the given keyword.
    pub fn is_keyword(&self, k: Keyword) -> bool {
        matches!(self, TokenKind::Keyword(q) if *q == k)
    }
}

/// JavaScript reserved words recognized by the lexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the keywords themselves
pub enum Keyword {
    Var,
    Function,
    Return,
    If,
    Else,
    While,
    Do,
    For,
    In,
    Break,
    Continue,
    New,
    Delete,
    Typeof,
    Instanceof,
    This,
    Null,
    True,
    False,
    Throw,
    Try,
    Catch,
    Finally,
    Switch,
    Case,
    Default,
    Void,
    With,
}

impl Keyword {
    /// Looks up a keyword from its source spelling.
    pub fn lookup(s: &str) -> Option<Keyword> {
        use Keyword::*;
        Some(match s {
            "var" => Var,
            "function" => Function,
            "return" => Return,
            "if" => If,
            "else" => Else,
            "while" => While,
            "do" => Do,
            "for" => For,
            "in" => In,
            "break" => Break,
            "continue" => Continue,
            "new" => New,
            "delete" => Delete,
            "typeof" => Typeof,
            "instanceof" => Instanceof,
            "this" => This,
            "null" => Null,
            "true" => True,
            "false" => False,
            "throw" => Throw,
            "try" => Try,
            "catch" => Catch,
            "finally" => Finally,
            "switch" => Switch,
            "case" => Case,
            "default" => Default,
            "void" => Void,
            "with" => With,
            _ => return None,
        })
    }

    /// The source spelling of the keyword.
    pub fn as_str(self) -> &'static str {
        use Keyword::*;
        match self {
            Var => "var",
            Function => "function",
            Return => "return",
            If => "if",
            Else => "else",
            While => "while",
            Do => "do",
            For => "for",
            In => "in",
            Break => "break",
            Continue => "continue",
            New => "new",
            Delete => "delete",
            Typeof => "typeof",
            Instanceof => "instanceof",
            This => "this",
            Null => "null",
            True => "true",
            False => "false",
            Throw => "throw",
            Try => "try",
            Catch => "catch",
            Finally => "finally",
            Switch => "switch",
            Case => "case",
            Default => "default",
            Void => "void",
            With => "with",
        }
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Punctuators and operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the punctuators themselves
pub enum Punct {
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Question,
    Colon,
    // Relational / equality.
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    NotEq,
    EqEqEq,
    NotEqEq,
    // Arithmetic.
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    // Update.
    PlusPlus,
    MinusMinus,
    // Bitwise / shift.
    Amp,
    Pipe,
    Caret,
    Tilde,
    Shl,
    Shr,
    UShr,
    // Logical.
    AmpAmp,
    PipePipe,
    Bang,
    // Assignment.
    Eq,
    PlusEq,
    MinusEq,
    StarEq,
    SlashEq,
    PercentEq,
    ShlEq,
    ShrEq,
    UShrEq,
    AmpEq,
    PipeEq,
    CaretEq,
}

impl Punct {
    /// The source spelling of the punctuator.
    pub fn as_str(self) -> &'static str {
        use Punct::*;
        match self {
            LBrace => "{",
            RBrace => "}",
            LParen => "(",
            RParen => ")",
            LBracket => "[",
            RBracket => "]",
            Semi => ";",
            Comma => ",",
            Dot => ".",
            Question => "?",
            Colon => ":",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            EqEq => "==",
            NotEq => "!=",
            EqEqEq => "===",
            NotEqEq => "!==",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Percent => "%",
            PlusPlus => "++",
            MinusMinus => "--",
            Amp => "&",
            Pipe => "|",
            Caret => "^",
            Tilde => "~",
            Shl => "<<",
            Shr => ">>",
            UShr => ">>>",
            AmpAmp => "&&",
            PipePipe => "||",
            Bang => "!",
            Eq => "=",
            PlusEq => "+=",
            MinusEq => "-=",
            StarEq => "*=",
            SlashEq => "/=",
            PercentEq => "%=",
            ShlEq => "<<=",
            ShrEq => ">>=",
            UShrEq => ">>>=",
            AmpEq => "&=",
            PipeEq => "|=",
            CaretEq => "^=",
        }
    }
}

impl fmt::Display for Punct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Keyword(k) => write!(f, "keyword `{k}`"),
            TokenKind::Num(n) => write!(f, "number `{n}`"),
            TokenKind::Str(s) => write!(f, "string {s:?}"),
            TokenKind::Regex(r) => write!(f, "regex `{r}`"),
            TokenKind::Punct(p) => write!(f, "`{p}`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trip() {
        for kw in [
            Keyword::Var,
            Keyword::Function,
            Keyword::Instanceof,
            Keyword::With,
        ] {
            assert_eq!(Keyword::lookup(kw.as_str()), Some(kw));
        }
        assert_eq!(Keyword::lookup("let"), None);
    }

    #[test]
    fn token_kind_queries() {
        let t = TokenKind::Punct(Punct::Semi);
        assert!(t.is_punct(Punct::Semi));
        assert!(!t.is_punct(Punct::Comma));
        let k = TokenKind::Keyword(Keyword::Var);
        assert!(k.is_keyword(Keyword::Var));
        assert!(!k.is_keyword(Keyword::If));
        assert!(!t.is_keyword(Keyword::Var));
    }

    #[test]
    fn display_forms() {
        assert_eq!(TokenKind::Punct(Punct::EqEqEq).to_string(), "`===`");
        assert_eq!(TokenKind::Ident("x".into()).to_string(), "identifier `x`");
        assert_eq!(TokenKind::Eof.to_string(), "end of input");
    }
}

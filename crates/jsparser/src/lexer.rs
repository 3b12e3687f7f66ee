//! A hand-written lexer for the JavaScript subset used by browser addons.
//!
//! The lexer is a straightforward single-pass scanner. The only subtle part
//! is distinguishing division from regular-expression literals: following
//! standard practice we decide based on the previous significant token
//! (after an identifier, literal, `)` or `]` a slash is division; in every
//! other position it begins a regex literal).

use crate::error::{ParseError, ParseErrorKind};
use crate::span::Span;
use crate::token::{Keyword, Punct, Token, TokenKind};

/// Lexes `src` into a vector of tokens terminated by [`TokenKind::Eof`].
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input: unterminated strings or
/// comments, invalid numeric literals, or characters outside the language.
pub fn lex(src: &str) -> Result<Vec<Token>, ParseError> {
    Lexer::new(src).run()
}

struct Lexer<'s> {
    src: &'s str,
    bytes: &'s [u8],
    pos: usize,
    line: u32,
    newline_before: bool,
    tokens: Vec<Token>,
}

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            newline_before: false,
            tokens: Vec::new(),
        }
    }

    fn run(mut self) -> Result<Vec<Token>, ParseError> {
        loop {
            self.skip_trivia()?;
            let start = self.pos;
            let line = self.line;
            if self.pos >= self.bytes.len() {
                self.push(TokenKind::Eof, start, line);
                return Ok(self.tokens);
            }
            let c = self.bytes[self.pos];
            let kind = match c {
                b'0'..=b'9' => self.number()?,
                b'"' | b'\'' => self.string(c)?,
                b'.' => {
                    if self.peek_at(1).is_some_and(|d| d.is_ascii_digit()) {
                        self.number()?
                    } else {
                        self.pos += 1;
                        TokenKind::Punct(Punct::Dot)
                    }
                }
                b'/' if self.regex_allowed() => self.regex()?,
                _ if is_ident_start(c) => self.ident(),
                _ => self.punct()?,
            };
            self.push(kind, start, line);
        }
    }

    fn push(&mut self, kind: TokenKind, start: usize, line: u32) {
        let span = Span::new(start as u32, self.pos as u32, line);
        let newline_before = std::mem::take(&mut self.newline_before);
        self.tokens.push(Token {
            kind,
            span,
            newline_before,
        });
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.bytes.get(self.pos + off).copied()
    }

    fn error(&self, kind: ParseErrorKind) -> ParseError {
        ParseError {
            kind,
            span: Span::new(self.pos as u32, self.pos as u32 + 1, self.line),
        }
    }

    fn skip_trivia(&mut self) -> Result<(), ParseError> {
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\n' => {
                    self.line += 1;
                    self.newline_before = true;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' | 0x0b | 0x0c => self.pos += 1,
                b'/' if self.peek_at(1) == Some(b'/') => {
                    while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                b'/' if self.peek_at(1) == Some(b'*') => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        if self.pos + 1 >= self.bytes.len() {
                            self.pos = start;
                            return Err(self.error(ParseErrorKind::UnterminatedComment));
                        }
                        if self.bytes[self.pos] == b'\n' {
                            self.line += 1;
                            self.newline_before = true;
                        }
                        if self.bytes[self.pos] == b'*' && self.bytes[self.pos + 1] == b'/' {
                            self.pos += 2;
                            break;
                        }
                        self.pos += 1;
                    }
                }
                c if c >= 0x80 => {
                    // Allow non-ASCII whitespace (e.g. NBSP) to pass as
                    // trivia only when it is actual Unicode whitespace.
                    let rest = &self.src[self.pos..];
                    let ch = rest.chars().next().expect("valid utf-8");
                    if ch.is_whitespace() {
                        self.pos += ch.len_utf8();
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        Ok(())
    }

    /// True if a `/` at the current position starts a regex literal rather
    /// than a division operator.
    fn regex_allowed(&self) -> bool {
        match self.tokens.last().map(|t| &t.kind) {
            None => true,
            Some(TokenKind::Ident(_))
            | Some(TokenKind::Num(_))
            | Some(TokenKind::Str(_))
            | Some(TokenKind::Regex(_)) => false,
            Some(TokenKind::Keyword(k)) => !matches!(k, Keyword::This),
            Some(TokenKind::Punct(p)) => !matches!(
                p,
                Punct::RParen | Punct::RBracket | Punct::PlusPlus | Punct::MinusMinus
            ),
            Some(TokenKind::Eof) => true,
        }
    }

    fn ident(&mut self) -> TokenKind {
        let start = self.pos;
        while self.pos < self.bytes.len() && is_ident_part(self.bytes[self.pos]) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        match Keyword::lookup(text) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(text.to_owned()),
        }
    }

    fn number(&mut self) -> Result<TokenKind, ParseError> {
        let start = self.pos;
        if self.bytes[self.pos] == b'0' && matches!(self.peek_at(1), Some(b'x') | Some(b'X')) {
            self.pos += 2;
            let digits = self.pos;
            while self.peek_at(0).is_some_and(|c| c.is_ascii_hexdigit()) {
                self.pos += 1;
            }
            if self.pos == digits {
                return Err(self.error(ParseErrorKind::InvalidNumber));
            }
            let val = u64::from_str_radix(&self.src[digits..self.pos], 16)
                .map_err(|_| self.error(ParseErrorKind::InvalidNumber))?;
            return Ok(TokenKind::Num(val as f64));
        }
        while self.peek_at(0).is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek_at(0) == Some(b'.') {
            self.pos += 1;
            while self.peek_at(0).is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek_at(0), Some(b'e') | Some(b'E')) {
            let mark = self.pos;
            self.pos += 1;
            if matches!(self.peek_at(0), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if self.peek_at(0).is_some_and(|c| c.is_ascii_digit()) {
                while self.peek_at(0).is_some_and(|c| c.is_ascii_digit()) {
                    self.pos += 1;
                }
            } else {
                self.pos = mark;
            }
        }
        let text = &self.src[start..self.pos];
        text.parse::<f64>()
            .map(TokenKind::Num)
            .map_err(|_| self.error(ParseErrorKind::InvalidNumber))
    }

    fn string(&mut self, quote: u8) -> Result<TokenKind, ParseError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            if self.pos >= self.bytes.len() {
                return Err(self.error(ParseErrorKind::UnterminatedString));
            }
            let c = self.bytes[self.pos];
            match c {
                _ if c == quote => {
                    self.pos += 1;
                    return Ok(TokenKind::Str(out));
                }
                b'\n' => return Err(self.error(ParseErrorKind::UnterminatedString)),
                b'\\' => {
                    self.pos += 1;
                    let esc = self
                        .peek_at(0)
                        .ok_or_else(|| self.error(ParseErrorKind::UnterminatedString))?;
                    self.pos += 1;
                    match esc {
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'v' => out.push('\u{b}'),
                        b'0' => out.push('\0'),
                        b'x' => {
                            let hex = self
                                .src
                                .get(self.pos..self.pos + 2)
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error(ParseErrorKind::InvalidEscape))?;
                            self.pos += 2;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| self.error(ParseErrorKind::InvalidEscape))?,
                            );
                        }
                        b'u' => {
                            let hex = self
                                .src
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error(ParseErrorKind::InvalidEscape))?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        b'\n' => {
                            self.line += 1; // line continuation
                        }
                        _ => {
                            // Identity escape: \' \" \\ and anything else.
                            let rest = &self.src[self.pos - 1..];
                            let ch = rest.chars().next().expect("valid utf-8");
                            out.push(ch);
                            self.pos = self.pos - 1 + ch.len_utf8();
                        }
                    }
                }
                _ if c < 0x80 => {
                    out.push(c as char);
                    self.pos += 1;
                }
                _ => {
                    let rest = &self.src[self.pos..];
                    let ch = rest.chars().next().expect("valid utf-8");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn regex(&mut self) -> Result<TokenKind, ParseError> {
        let start = self.pos;
        self.pos += 1; // opening slash
        let mut in_class = false;
        loop {
            if self.pos >= self.bytes.len() || self.bytes[self.pos] == b'\n' {
                return Err(self.error(ParseErrorKind::UnterminatedRegex));
            }
            match self.bytes[self.pos] {
                b'\\' => self.pos += 1,
                b'[' => in_class = true,
                b']' => in_class = false,
                b'/' if !in_class => {
                    self.pos += 1;
                    break;
                }
                _ => {}
            }
            self.pos += 1;
        }
        // Flags.
        while self.peek_at(0).is_some_and(is_ident_part) {
            self.pos += 1;
        }
        Ok(TokenKind::Regex(self.src[start..self.pos].to_owned()))
    }

    fn punct(&mut self) -> Result<TokenKind, ParseError> {
        use Punct::*;
        let rest = &self.bytes[self.pos..];
        let table: &[(&[u8], Punct)] = &[
            (b">>>=", UShrEq),
            (b"===", EqEqEq),
            (b"!==", NotEqEq),
            (b">>>", UShr),
            (b"<<=", ShlEq),
            (b">>=", ShrEq),
            (b"==", EqEq),
            (b"!=", NotEq),
            (b"<=", Le),
            (b">=", Ge),
            (b"&&", AmpAmp),
            (b"||", PipePipe),
            (b"++", PlusPlus),
            (b"--", MinusMinus),
            (b"+=", PlusEq),
            (b"-=", MinusEq),
            (b"*=", StarEq),
            (b"/=", SlashEq),
            (b"%=", PercentEq),
            (b"&=", AmpEq),
            (b"|=", PipeEq),
            (b"^=", CaretEq),
            (b"<<", Shl),
            (b">>", Shr),
            (b"{", LBrace),
            (b"}", RBrace),
            (b"(", LParen),
            (b")", RParen),
            (b"[", LBracket),
            (b"]", RBracket),
            (b";", Semi),
            (b",", Comma),
            (b"?", Question),
            (b":", Colon),
            (b"<", Lt),
            (b">", Gt),
            (b"+", Plus),
            (b"-", Minus),
            (b"*", Star),
            (b"/", Slash),
            (b"%", Percent),
            (b"&", Amp),
            (b"|", Pipe),
            (b"^", Caret),
            (b"~", Tilde),
            (b"!", Bang),
            (b"=", Eq),
        ];
        for (text, punct) in table {
            if rest.starts_with(text) {
                self.pos += text.len();
                return Ok(TokenKind::Punct(*punct));
            }
        }
        Err(self.error(ParseErrorKind::UnexpectedChar(
            self.src[self.pos..].chars().next().unwrap_or('\0'),
        )))
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c == b'$'
}

fn is_ident_part(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c == b'$'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .filter(|k| *k != TokenKind::Eof)
            .collect()
    }

    #[test]
    fn lex_idents_and_keywords() {
        assert_eq!(
            kinds("var foo_1 $bar"),
            vec![
                TokenKind::Keyword(Keyword::Var),
                TokenKind::Ident("foo_1".into()),
                TokenKind::Ident("$bar".into()),
            ]
        );
    }

    #[test]
    fn lex_numbers() {
        assert_eq!(
            kinds("0 42 2.75 .5 1e3 2.5e-2 0xFF"),
            vec![
                TokenKind::Num(0.0),
                TokenKind::Num(42.0),
                TokenKind::Num(2.75),
                TokenKind::Num(0.5),
                TokenKind::Num(1000.0),
                TokenKind::Num(0.025),
                TokenKind::Num(255.0),
            ]
        );
    }

    #[test]
    fn number_followed_by_dot_call() {
        // `1..toString` style is out of scope, but `x.5` must not lex `.5`
        // after an identifier-ish context incorrectly.
        assert_eq!(
            kinds("a.b"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Punct(Punct::Dot),
                TokenKind::Ident("b".into()),
            ]
        );
    }

    #[test]
    fn lex_strings_with_escapes() {
        assert_eq!(
            kinds(r#" "a\nb" 'it\'s' "uA" "#),
            vec![
                TokenKind::Str("a\nb".into()),
                TokenKind::Str("it's".into()),
                TokenKind::Str("uA".into()),
            ]
        );
    }

    #[test]
    fn lex_comments() {
        assert_eq!(
            kinds("a // line comment\n/* block\ncomment */ b"),
            vec![TokenKind::Ident("a".into()), TokenKind::Ident("b".into())]
        );
    }

    #[test]
    fn newline_before_flag() {
        let toks = lex("a\nb c").unwrap();
        assert!(!toks[0].newline_before);
        assert!(toks[1].newline_before);
        assert!(!toks[2].newline_before);
    }

    #[test]
    fn regex_vs_division() {
        assert_eq!(
            kinds("a / b"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Punct(Punct::Slash),
                TokenKind::Ident("b".into()),
            ]
        );
        assert_eq!(
            kinds("x = /ab[/]c/gi"),
            vec![
                TokenKind::Ident("x".into()),
                TokenKind::Punct(Punct::Eq),
                TokenKind::Regex("/ab[/]c/gi".into()),
            ]
        );
    }

    #[test]
    fn maximal_munch_punctuators() {
        assert_eq!(
            kinds("a>>>=b === c !== d >>> e"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Punct(Punct::UShrEq),
                TokenKind::Ident("b".into()),
                TokenKind::Punct(Punct::EqEqEq),
                TokenKind::Ident("c".into()),
                TokenKind::Punct(Punct::NotEqEq),
                TokenKind::Ident("d".into()),
                TokenKind::Punct(Punct::UShr),
                TokenKind::Ident("e".into()),
            ]
        );
    }

    #[test]
    fn error_unterminated_string() {
        assert!(lex("\"abc").is_err());
        assert!(lex("'abc\ndef'").is_err());
    }

    #[test]
    fn error_unterminated_comment() {
        assert!(lex("/* never ends").is_err());
    }

    #[test]
    fn error_bad_char() {
        assert!(lex("a # b").is_err());
    }

    #[test]
    fn line_numbers_tracked() {
        let toks = lex("a\nb\n\nc").unwrap();
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[2].span.line, 4);
    }

    #[test]
    fn hex_number_requires_digits() {
        assert!(lex("0x").is_err());
    }
}

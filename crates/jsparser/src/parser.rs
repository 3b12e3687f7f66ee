//! Recursive-descent parser with automatic semicolon insertion.
//!
//! The grammar is the ES5 statement/expression language that Mozilla-era
//! addons were written in (no getters/setters, no `eval`-style indirect
//! constructs in the grammar itself -- `eval` is an ordinary call and is
//! flagged later by the security analysis, exactly as in the paper).

use crate::ast::*;
use crate::error::{ParseError, ParseErrorKind};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Keyword, Punct, Token, TokenKind};

/// The deepest nesting [`parse`] accepts. A statement inside a
/// statement, an expression inside an expression (parentheses, array
/// and object literals, operands, arguments), a unary or `new` prefix,
/// and each link of an operator, member or call chain all count one
/// level. Every later stage of the pipeline walks the tree recursively,
/// so deeper input is refused with [`ParseErrorKind::TooDeep`] rather
/// than allowed to overflow the stack of the thread analyzing it.
pub const MAX_NESTING: usize = 500;

/// Parses a complete program.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
///
/// # Examples
///
/// ```
/// let program = jsparser::parse("var x = 1; send(x);")?;
/// assert_eq!(program.body.len(), 2);
/// # Ok::<(), jsparser::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        next_fun: 0,
        depth: 0,
    };
    let body = p.statements_until_eof()?;
    Ok(Program {
        body,
        fun_count: p.next_fun,
    })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_fun: u32,
    /// Nesting levels entered so far (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    /// Enters one more nesting level. Whoever entered restores `depth`
    /// on success; an error ends the whole parse, so error paths need
    /// not.
    fn deeper(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(ParseError {
                kind: ParseErrorKind::TooDeep,
                span: self.peek().span,
            });
        }
        Ok(())
    }

    /// Runs `parse` one nesting level deeper.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.deeper()?;
        let out = parse(self)?;
        self.depth -= 1;
        Ok(out)
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek2(&self) -> &Token {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)]
    }

    /// Consumes the current token and returns its span.
    fn bump(&mut self) -> Span {
        let span = self.peek().span;
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        span
    }

    /// Consumes the current token, an identifier, string or regex, and
    /// moves its text out: the parser never reads a consumed token again.
    fn bump_text(&mut self) -> String {
        let i = self.pos;
        self.bump();
        match &mut self.tokens[i].kind {
            TokenKind::Ident(text) | TokenKind::Str(text) | TokenKind::Regex(text) => {
                std::mem::take(text)
            }
            other => unreachable!("{other:?} carries no text"),
        }
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek().kind, TokenKind::Eof)
    }

    fn err_expected(&self, expected: &str) -> ParseError {
        ParseError {
            kind: ParseErrorKind::UnexpectedToken {
                found: self.peek().kind.to_string(),
                expected: expected.to_owned(),
            },
            span: self.peek().span,
        }
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek().kind.is_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<Span, ParseError> {
        if self.peek().kind.is_punct(p) {
            Ok(self.bump())
        } else {
            Err(self.err_expected(p.as_str()))
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.peek().kind.is_keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<Ident, ParseError> {
        if !matches!(self.peek().kind, TokenKind::Ident(_)) {
            return Err(self.err_expected("identifier"));
        }
        let span = self.peek().span;
        let name = self.bump_text();
        Ok(Ident { name, span })
    }

    /// Automatic semicolon insertion: consume `;`, or accept a newline
    /// before the current token, a `}`, or end of input.
    fn semicolon(&mut self) -> Result<(), ParseError> {
        if self.eat_punct(Punct::Semi) {
            return Ok(());
        }
        if self.peek().kind.is_punct(Punct::RBrace) || self.at_eof() || self.peek().newline_before {
            return Ok(());
        }
        Err(self.err_expected(";"))
    }

    fn statements_until_eof(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        while !self.at_eof() {
            out.push(self.statement()?);
        }
        Ok(out)
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_punct(Punct::LBrace)?;
        let mut out = Vec::new();
        while !self.peek().kind.is_punct(Punct::RBrace) {
            if self.at_eof() {
                return Err(self.err_expected("}"));
            }
            out.push(self.statement()?);
        }
        self.bump();
        Ok(out)
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Parser::statement_at_depth)
    }

    fn statement_at_depth(&mut self) -> Result<Stmt, ParseError> {
        let start = self.peek().span;
        match &self.peek().kind {
            TokenKind::Punct(Punct::LBrace) => {
                let body = self.block()?;
                Ok(Stmt {
                    kind: StmtKind::Block(body),
                    span: start,
                })
            }
            TokenKind::Punct(Punct::Semi) => {
                self.bump();
                Ok(Stmt {
                    kind: StmtKind::Empty,
                    span: start,
                })
            }
            TokenKind::Keyword(kw) => {
                let kw = *kw;
                match kw {
                    Keyword::Var => self.var_statement(),
                    Keyword::Function => {
                        self.bump();
                        let f = self.function_rest(start, true)?;
                        Ok(Stmt {
                            span: f.span,
                            kind: StmtKind::FunDecl(f),
                        })
                    }
                    Keyword::If => self.if_statement(),
                    Keyword::While => self.while_statement(),
                    Keyword::Do => self.do_while_statement(),
                    Keyword::For => self.for_statement(),
                    Keyword::Return => {
                        self.bump();
                        let arg = if self.stmt_terminated() {
                            None
                        } else {
                            Some(self.expression(true)?)
                        };
                        self.semicolon()?;
                        Ok(Stmt {
                            kind: StmtKind::Return(arg),
                            span: start,
                        })
                    }
                    Keyword::Break | Keyword::Continue => {
                        self.bump();
                        let label = if !self.stmt_terminated() {
                            match &self.peek().kind {
                                TokenKind::Ident(_) if !self.peek().newline_before => {
                                    Some(self.expect_ident()?)
                                }
                                _ => None,
                            }
                        } else {
                            None
                        };
                        self.semicolon()?;
                        let kind = if kw == Keyword::Break {
                            StmtKind::Break(label)
                        } else {
                            StmtKind::Continue(label)
                        };
                        Ok(Stmt { kind, span: start })
                    }
                    Keyword::Throw => {
                        self.bump();
                        if self.peek().newline_before {
                            return Err(ParseError {
                                kind: ParseErrorKind::InvalidStatement(
                                    "newline not allowed after `throw`".into(),
                                ),
                                span: self.peek().span,
                            });
                        }
                        let arg = self.expression(true)?;
                        self.semicolon()?;
                        Ok(Stmt {
                            kind: StmtKind::Throw(arg),
                            span: start,
                        })
                    }
                    Keyword::Try => self.try_statement(),
                    Keyword::Switch => self.switch_statement(),
                    Keyword::With => Err(ParseError {
                        kind: ParseErrorKind::InvalidStatement(
                            "`with` is not supported in the analyzed subset".into(),
                        ),
                        span: start,
                    }),
                    _ => self.expr_statement(),
                }
            }
            TokenKind::Ident(_) if self.peek2().kind.is_punct(Punct::Colon) => {
                let label = self.expect_ident()?;
                self.bump(); // colon
                let body = self.statement()?;
                Ok(Stmt {
                    kind: StmtKind::Labeled(label, Box::new(body)),
                    span: start,
                })
            }
            _ => self.expr_statement(),
        }
    }

    /// True if the statement being parsed ends here (for restricted
    /// productions).
    fn stmt_terminated(&self) -> bool {
        self.peek().kind.is_punct(Punct::Semi)
            || self.peek().kind.is_punct(Punct::RBrace)
            || self.at_eof()
            || self.peek().newline_before
    }

    fn expr_statement(&mut self) -> Result<Stmt, ParseError> {
        let start = self.peek().span;
        let e = self.expression(true)?;
        self.semicolon()?;
        Ok(Stmt {
            span: start.to(e.span),
            kind: StmtKind::Expr(e),
        })
    }

    fn var_statement(&mut self) -> Result<Stmt, ParseError> {
        let start = self.bump(); // `var`
        let decls = self.var_declarators(true)?;
        self.semicolon()?;
        Ok(Stmt {
            kind: StmtKind::VarDecl(decls),
            span: start,
        })
    }

    fn var_declarators(&mut self, allow_in: bool) -> Result<Vec<VarDeclarator>, ParseError> {
        let mut decls = Vec::new();
        loop {
            let name = self.expect_ident()?;
            let init = if self.eat_punct(Punct::Eq) {
                Some(self.assignment(allow_in)?)
            } else {
                None
            };
            decls.push(VarDeclarator { name, init });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        Ok(decls)
    }

    fn paren_expr(&mut self) -> Result<Expr, ParseError> {
        self.expect_punct(Punct::LParen)?;
        let e = self.expression(true)?;
        self.expect_punct(Punct::RParen)?;
        Ok(e)
    }

    fn if_statement(&mut self) -> Result<Stmt, ParseError> {
        let start = self.bump(); // `if`
        let cond = self.paren_expr()?;
        let cons = Box::new(self.statement()?);
        let alt = if self.eat_keyword(Keyword::Else) {
            Some(Box::new(self.statement()?))
        } else {
            None
        };
        Ok(Stmt {
            kind: StmtKind::If { cond, cons, alt },
            span: start,
        })
    }

    fn while_statement(&mut self) -> Result<Stmt, ParseError> {
        let start = self.bump();
        let cond = self.paren_expr()?;
        let body = Box::new(self.statement()?);
        Ok(Stmt {
            kind: StmtKind::While { cond, body },
            span: start,
        })
    }

    fn do_while_statement(&mut self) -> Result<Stmt, ParseError> {
        let start = self.bump();
        let body = Box::new(self.statement()?);
        if !self.eat_keyword(Keyword::While) {
            return Err(self.err_expected("while"));
        }
        let cond = self.paren_expr()?;
        // ASI is unconditional after do-while.
        self.eat_punct(Punct::Semi);
        Ok(Stmt {
            kind: StmtKind::DoWhile { body, cond },
            span: start,
        })
    }

    fn for_statement(&mut self) -> Result<Stmt, ParseError> {
        let start = self.bump();
        self.expect_punct(Punct::LParen)?;

        // for (;;), for (init; test; update), for (x in obj),
        // for (var x in obj).
        if self.peek().kind.is_keyword(Keyword::Var) {
            self.bump();
            let decls = self.var_declarators(false)?;
            if self.peek().kind.is_keyword(Keyword::In) {
                self.bump();
                if decls.len() != 1 || decls[0].init.is_some() {
                    return Err(ParseError {
                        kind: ParseErrorKind::InvalidStatement("invalid for-in declaration".into()),
                        span: start,
                    });
                }
                let name = decls.into_iter().next().expect("one decl").name;
                let target = Expr {
                    span: name.span,
                    kind: ExprKind::Ident(name.name),
                };
                let obj = self.expression(true)?;
                self.expect_punct(Punct::RParen)?;
                let body = Box::new(self.statement()?);
                return Ok(Stmt {
                    kind: StmtKind::ForIn {
                        decl: true,
                        target: Box::new(target),
                        obj,
                        body,
                    },
                    span: start,
                });
            }
            let init = Some(Box::new(Stmt {
                kind: StmtKind::VarDecl(decls),
                span: start,
            }));
            return self.for_classic_rest(start, init);
        }

        if self.eat_punct(Punct::Semi) {
            return self.for_classic_after_init(start, None);
        }

        let first = self.expression(false)?;
        if self.peek().kind.is_keyword(Keyword::In) {
            self.bump();
            if !first.is_assign_target() {
                return Err(ParseError {
                    kind: ParseErrorKind::InvalidAssignTarget,
                    span: first.span,
                });
            }
            let obj = self.expression(true)?;
            self.expect_punct(Punct::RParen)?;
            let body = Box::new(self.statement()?);
            return Ok(Stmt {
                kind: StmtKind::ForIn {
                    decl: false,
                    target: Box::new(first),
                    obj,
                    body,
                },
                span: start,
            });
        }
        let init = Some(Box::new(Stmt {
            span: first.span,
            kind: StmtKind::Expr(first),
        }));
        self.for_classic_rest(start, init)
    }

    fn for_classic_rest(
        &mut self,
        start: Span,
        init: Option<Box<Stmt>>,
    ) -> Result<Stmt, ParseError> {
        self.expect_punct(Punct::Semi)?;
        self.for_classic_after_init(start, init)
    }

    fn for_classic_after_init(
        &mut self,
        start: Span,
        init: Option<Box<Stmt>>,
    ) -> Result<Stmt, ParseError> {
        let test = if self.peek().kind.is_punct(Punct::Semi) {
            None
        } else {
            Some(self.expression(true)?)
        };
        self.expect_punct(Punct::Semi)?;
        let update = if self.peek().kind.is_punct(Punct::RParen) {
            None
        } else {
            Some(self.expression(true)?)
        };
        self.expect_punct(Punct::RParen)?;
        let body = Box::new(self.statement()?);
        Ok(Stmt {
            kind: StmtKind::For {
                init,
                test,
                update,
                body,
            },
            span: start,
        })
    }

    fn try_statement(&mut self) -> Result<Stmt, ParseError> {
        let start = self.bump();
        let block = self.block()?;
        let catch = if self.eat_keyword(Keyword::Catch) {
            self.expect_punct(Punct::LParen)?;
            let param = self.expect_ident()?;
            self.expect_punct(Punct::RParen)?;
            let body = self.block()?;
            Some((param, body))
        } else {
            None
        };
        let finally = if self.eat_keyword(Keyword::Finally) {
            Some(self.block()?)
        } else {
            None
        };
        if catch.is_none() && finally.is_none() {
            return Err(self.err_expected("catch or finally"));
        }
        Ok(Stmt {
            kind: StmtKind::Try {
                block,
                catch,
                finally,
            },
            span: start,
        })
    }

    fn switch_statement(&mut self) -> Result<Stmt, ParseError> {
        let start = self.bump();
        let disc = self.paren_expr()?;
        self.expect_punct(Punct::LBrace)?;
        let mut cases = Vec::new();
        let mut seen_default = false;
        while !self.peek().kind.is_punct(Punct::RBrace) {
            let test = if self.eat_keyword(Keyword::Case) {
                let e = self.expression(true)?;
                Some(e)
            } else if self.eat_keyword(Keyword::Default) {
                if seen_default {
                    return Err(ParseError {
                        kind: ParseErrorKind::InvalidStatement("multiple `default` clauses".into()),
                        span: self.peek().span,
                    });
                }
                seen_default = true;
                None
            } else {
                return Err(self.err_expected("case, default, or }"));
            };
            self.expect_punct(Punct::Colon)?;
            let mut body = Vec::new();
            while !self.peek().kind.is_punct(Punct::RBrace)
                && !self.peek().kind.is_keyword(Keyword::Case)
                && !self.peek().kind.is_keyword(Keyword::Default)
            {
                if self.at_eof() {
                    return Err(self.err_expected("}"));
                }
                body.push(self.statement()?);
            }
            cases.push(SwitchCase { test, body });
        }
        self.bump(); // `}`
        Ok(Stmt {
            kind: StmtKind::Switch { disc, cases },
            span: start,
        })
    }

    fn function_rest(&mut self, start: Span, require_name: bool) -> Result<Function, ParseError> {
        let name = match &self.peek().kind {
            TokenKind::Ident(_) => Some(self.expect_ident()?),
            _ if require_name => return Err(self.err_expected("function name")),
            _ => None,
        };
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.peek().kind.is_punct(Punct::RParen) {
            loop {
                params.push(self.expect_ident()?);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        self.expect_punct(Punct::RParen)?;
        let id = FunId(self.next_fun);
        self.next_fun += 1;
        let body = self.block()?;
        Ok(Function {
            id,
            name,
            params,
            body,
            span: start,
        })
    }

    // ----- Expressions ---------------------------------------------------

    fn expression(&mut self, allow_in: bool) -> Result<Expr, ParseError> {
        let first = self.assignment(allow_in)?;
        if !self.peek().kind.is_punct(Punct::Comma) {
            return Ok(first);
        }
        let span = first.span;
        let mut seq = vec![first];
        while self.eat_punct(Punct::Comma) {
            seq.push(self.assignment(allow_in)?);
        }
        Ok(Expr {
            kind: ExprKind::Seq(seq),
            span,
        })
    }

    fn assignment(&mut self, allow_in: bool) -> Result<Expr, ParseError> {
        self.nested(|p| p.assignment_at_depth(allow_in))
    }

    fn assignment_at_depth(&mut self, allow_in: bool) -> Result<Expr, ParseError> {
        let left = self.conditional(allow_in)?;
        let op = match &self.peek().kind {
            TokenKind::Punct(Punct::Eq) => None,
            TokenKind::Punct(p) => match assign_op(*p) {
                Some(op) => Some(op),
                None => return Ok(left),
            },
            _ => return Ok(left),
        };
        if !left.is_assign_target() {
            return Err(ParseError {
                kind: ParseErrorKind::InvalidAssignTarget,
                span: left.span,
            });
        }
        self.bump();
        let value = self.assignment(allow_in)?;
        let span = left.span.to(value.span);
        Ok(Expr {
            kind: ExprKind::Assign {
                op,
                target: Box::new(left),
                value: Box::new(value),
            },
            span,
        })
    }

    fn conditional(&mut self, allow_in: bool) -> Result<Expr, ParseError> {
        let test = self.binary(0, allow_in)?;
        if !self.eat_punct(Punct::Question) {
            return Ok(test);
        }
        let cons = self.assignment(true)?;
        self.expect_punct(Punct::Colon)?;
        let alt = self.assignment(allow_in)?;
        let span = test.span.to(alt.span);
        Ok(Expr {
            kind: ExprKind::Cond {
                test: Box::new(test),
                cons: Box::new(cons),
                alt: Box::new(alt),
            },
            span,
        })
    }

    /// Precedence-climbing parser for binary and logical operators.
    fn binary(&mut self, min_prec: u8, allow_in: bool) -> Result<Expr, ParseError> {
        let mut left = self.unary()?;
        let depth = self.depth;
        while let Some((prec, kind)) = self.binop_here(allow_in) {
            if prec < min_prec {
                break;
            }
            // Each operator nests the chain so far one level deeper.
            self.deeper()?;
            self.bump();
            let right = self.binary(prec + 1, allow_in)?;
            let span = left.span.to(right.span);
            left = Expr {
                kind: match kind {
                    BinOrLogical::Bin(op) => ExprKind::Binary {
                        op,
                        left: Box::new(left),
                        right: Box::new(right),
                    },
                    BinOrLogical::Logical(is_and) => ExprKind::Logical {
                        is_and,
                        left: Box::new(left),
                        right: Box::new(right),
                    },
                },
                span,
            };
        }
        self.depth = depth;
        Ok(left)
    }

    fn binop_here(&self, allow_in: bool) -> Option<(u8, BinOrLogical)> {
        use BinaryOp::*;
        use Punct as P;
        let (prec, kind) = match &self.peek().kind {
            TokenKind::Keyword(Keyword::In) if allow_in => (7, BinOrLogical::Bin(In)),
            TokenKind::Keyword(Keyword::Instanceof) => (7, BinOrLogical::Bin(Instanceof)),
            TokenKind::Punct(p) => match p {
                P::PipePipe => (1, BinOrLogical::Logical(false)),
                P::AmpAmp => (2, BinOrLogical::Logical(true)),
                P::Pipe => (3, BinOrLogical::Bin(BitOr)),
                P::Caret => (4, BinOrLogical::Bin(BitXor)),
                P::Amp => (5, BinOrLogical::Bin(BitAnd)),
                P::EqEq => (6, BinOrLogical::Bin(Eq)),
                P::NotEq => (6, BinOrLogical::Bin(NotEq)),
                P::EqEqEq => (6, BinOrLogical::Bin(StrictEq)),
                P::NotEqEq => (6, BinOrLogical::Bin(StrictNotEq)),
                P::Lt => (7, BinOrLogical::Bin(Lt)),
                P::Le => (7, BinOrLogical::Bin(Le)),
                P::Gt => (7, BinOrLogical::Bin(Gt)),
                P::Ge => (7, BinOrLogical::Bin(Ge)),
                P::Shl => (8, BinOrLogical::Bin(Shl)),
                P::Shr => (8, BinOrLogical::Bin(Shr)),
                P::UShr => (8, BinOrLogical::Bin(UShr)),
                P::Plus => (9, BinOrLogical::Bin(Add)),
                P::Minus => (9, BinOrLogical::Bin(Sub)),
                P::Star => (10, BinOrLogical::Bin(Mul)),
                P::Slash => (10, BinOrLogical::Bin(Div)),
                P::Percent => (10, BinOrLogical::Bin(Mod)),
                _ => return None,
            },
            _ => return None,
        };
        Some((prec, kind))
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let start = self.peek().span;
        let op = match &self.peek().kind {
            TokenKind::Punct(Punct::Minus) => Some(UnaryOp::Neg),
            TokenKind::Punct(Punct::Plus) => Some(UnaryOp::Pos),
            TokenKind::Punct(Punct::Bang) => Some(UnaryOp::Not),
            TokenKind::Punct(Punct::Tilde) => Some(UnaryOp::BitNot),
            TokenKind::Keyword(Keyword::Typeof) => Some(UnaryOp::Typeof),
            TokenKind::Keyword(Keyword::Void) => Some(UnaryOp::Void),
            TokenKind::Keyword(Keyword::Delete) => Some(UnaryOp::Delete),
            TokenKind::Punct(Punct::PlusPlus) | TokenKind::Punct(Punct::MinusMinus) => {
                let inc = self.peek().kind.is_punct(Punct::PlusPlus);
                self.bump();
                let arg = self.nested(Parser::unary)?;
                if !arg.is_assign_target() {
                    return Err(ParseError {
                        kind: ParseErrorKind::InvalidAssignTarget,
                        span: arg.span,
                    });
                }
                let span = start.to(arg.span);
                return Ok(Expr {
                    kind: ExprKind::Update {
                        inc,
                        prefix: true,
                        arg: Box::new(arg),
                    },
                    span,
                });
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let arg = self.nested(Parser::unary)?;
            let span = start.to(arg.span);
            return Ok(Expr {
                kind: ExprKind::Unary {
                    op,
                    arg: Box::new(arg),
                },
                span,
            });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let e = self.call_expr()?;
        // No newline allowed before postfix ++/--.
        if !self.peek().newline_before
            && (self.peek().kind.is_punct(Punct::PlusPlus)
                || self.peek().kind.is_punct(Punct::MinusMinus))
        {
            let inc = self.peek().kind.is_punct(Punct::PlusPlus);
            if !e.is_assign_target() {
                return Err(ParseError {
                    kind: ParseErrorKind::InvalidAssignTarget,
                    span: e.span,
                });
            }
            let end = self.bump();
            let span = e.span.to(end);
            return Ok(Expr {
                kind: ExprKind::Update {
                    inc,
                    prefix: false,
                    arg: Box::new(e),
                },
                span,
            });
        }
        Ok(e)
    }

    /// Parses `new` expressions, member accesses, and calls.
    fn call_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = if self.peek().kind.is_keyword(Keyword::New) {
            self.new_expr()?
        } else {
            self.primary()?
        };
        let depth = self.depth;
        while self.chain_link_here(true) {
            // Each link nests the chain so far one level deeper.
            self.deeper()?;
            e = if self.peek().kind.is_punct(Punct::LParen) {
                let args = self.arguments()?;
                Expr {
                    span: e.span,
                    kind: ExprKind::Call {
                        callee: Box::new(e),
                        args,
                    },
                }
            } else {
                self.member(e)?
            };
        }
        self.depth = depth;
        Ok(e)
    }

    /// Whether a member access (or, with `calls`, a call) continues the
    /// chain at the current token.
    fn chain_link_here(&self, calls: bool) -> bool {
        match self.peek().kind {
            TokenKind::Punct(Punct::Dot | Punct::LBracket) => true,
            TokenKind::Punct(Punct::LParen) => calls,
            _ => false,
        }
    }

    /// Parses the member access of `obj` that starts at the current `.`
    /// or `[`. Member names after `.` may be keywords (`obj.delete`).
    fn member(&mut self, obj: Expr) -> Result<Expr, ParseError> {
        let dot = self.peek().kind.is_punct(Punct::Dot);
        self.bump();
        let (prop, end) = if dot {
            let end = self.peek().span;
            let name = match &self.peek().kind {
                TokenKind::Ident(_) => self.bump_text(),
                TokenKind::Keyword(kw) => {
                    let name = kw.as_str().to_owned();
                    self.bump();
                    name
                }
                _ => return Err(self.err_expected("property name")),
            };
            (MemberProp::Static(name), end)
        } else {
            let idx = self.expression(true)?;
            let end = self.expect_punct(Punct::RBracket)?;
            (MemberProp::Computed(Box::new(idx)), end)
        };
        Ok(Expr {
            span: obj.span.to(end),
            kind: ExprKind::Member {
                obj: Box::new(obj),
                prop,
            },
        })
    }

    fn new_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.bump(); // `new`
        let mut callee = if self.peek().kind.is_keyword(Keyword::New) {
            self.nested(Parser::new_expr)?
        } else {
            self.primary()?
        };
        // Member accesses bind tighter than the `new` arguments.
        let depth = self.depth;
        while self.chain_link_here(false) {
            self.deeper()?;
            callee = self.member(callee)?;
        }
        self.depth = depth;
        let args = if self.peek().kind.is_punct(Punct::LParen) {
            self.arguments()?
        } else {
            Vec::new()
        };
        Ok(Expr {
            span: start.to(callee.span),
            kind: ExprKind::New {
                callee: Box::new(callee),
                args,
            },
        })
    }

    fn arguments(&mut self) -> Result<Vec<Expr>, ParseError> {
        self.expect_punct(Punct::LParen)?;
        let mut args = Vec::new();
        if !self.peek().kind.is_punct(Punct::RParen) {
            loop {
                args.push(self.assignment(true)?);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        self.expect_punct(Punct::RParen)?;
        Ok(args)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek().span;
        let kind = match &self.peek().kind {
            TokenKind::Num(n) => {
                let n = *n;
                self.bump();
                ExprKind::Num(n)
            }
            TokenKind::Str(_) => ExprKind::Str(self.bump_text()),
            TokenKind::Regex(_) => ExprKind::Regex(self.bump_text()),
            TokenKind::Ident(_) => ExprKind::Ident(self.bump_text()),
            TokenKind::Keyword(Keyword::True) => {
                self.bump();
                ExprKind::Bool(true)
            }
            TokenKind::Keyword(Keyword::False) => {
                self.bump();
                ExprKind::Bool(false)
            }
            TokenKind::Keyword(Keyword::Null) => {
                self.bump();
                ExprKind::Null
            }
            TokenKind::Keyword(Keyword::This) => {
                self.bump();
                ExprKind::This
            }
            TokenKind::Keyword(Keyword::Function) => {
                self.bump();
                let f = self.function_rest(span, false)?;
                ExprKind::Function(Box::new(f))
            }
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                let e = self.expression(true)?;
                self.expect_punct(Punct::RParen)?;
                return Ok(e);
            }
            TokenKind::Punct(Punct::LBracket) => return self.array_literal(),
            TokenKind::Punct(Punct::LBrace) => return self.object_literal(),
            _ => return Err(self.err_expected("expression")),
        };
        Ok(Expr { kind, span })
    }

    fn array_literal(&mut self) -> Result<Expr, ParseError> {
        let start = self.bump(); // `[`
        let mut elems = Vec::new();
        loop {
            if self.peek().kind.is_punct(Punct::RBracket) {
                break;
            }
            if self.eat_punct(Punct::Comma) {
                elems.push(None); // elision
                continue;
            }
            elems.push(Some(self.assignment(true)?));
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        let end = self.expect_punct(Punct::RBracket)?;
        Ok(Expr {
            kind: ExprKind::Array(elems),
            span: start.to(end),
        })
    }

    fn object_literal(&mut self) -> Result<Expr, ParseError> {
        let start = self.bump(); // `{`
        let mut props = Vec::new();
        loop {
            if self.peek().kind.is_punct(Punct::RBrace) {
                break;
            }
            let key = match &self.peek().kind {
                TokenKind::Ident(_) | TokenKind::Str(_) => PropKey::Ident(self.bump_text()),
                TokenKind::Num(n) => {
                    let k = PropKey::Num(*n);
                    self.bump();
                    k
                }
                TokenKind::Keyword(kw) => {
                    let k = PropKey::Ident(kw.as_str().to_owned());
                    self.bump();
                    k
                }
                _ => return Err(self.err_expected("property key")),
            };
            self.expect_punct(Punct::Colon)?;
            let value = self.assignment(true)?;
            props.push((key, value));
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        let end = self.expect_punct(Punct::RBrace)?;
        Ok(Expr {
            kind: ExprKind::Object(props),
            span: start.to(end),
        })
    }
}

enum BinOrLogical {
    Bin(BinaryOp),
    Logical(bool),
}

fn assign_op(p: Punct) -> Option<BinaryOp> {
    use BinaryOp::*;
    Some(match p {
        Punct::PlusEq => Add,
        Punct::MinusEq => Sub,
        Punct::StarEq => Mul,
        Punct::SlashEq => Div,
        Punct::PercentEq => Mod,
        Punct::ShlEq => Shl,
        Punct::ShrEq => Shr,
        Punct::UShrEq => UShr,
        Punct::AmpEq => BitAnd,
        Punct::PipeEq => BitOr,
        Punct::CaretEq => BitXor,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(src: &str) -> Program {
        parse(src).unwrap_or_else(|e| panic!("parse failed: {e}\nsource: {src}"))
    }

    fn first_expr(src: &str) -> Expr {
        match p(src).body.into_iter().next().expect("one stmt").kind {
            StmtKind::Expr(e) => e,
            other => panic!("expected expr stmt, got {other:?}"),
        }
    }

    #[test]
    fn parses_var_decls() {
        let prog = p("var a = 1, b, c = 'x';");
        match &prog.body[0].kind {
            StmtKind::VarDecl(ds) => {
                assert_eq!(ds.len(), 3);
                assert_eq!(ds[0].name.name, "a");
                assert!(ds[1].init.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence() {
        let e = first_expr("1 + 2 * 3;");
        match e.kind {
            ExprKind::Binary {
                op: BinaryOp::Add,
                right,
                ..
            } => {
                assert!(matches!(
                    right.kind,
                    ExprKind::Binary {
                        op: BinaryOp::Mul,
                        ..
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn logical_and_binds_tighter_than_or() {
        let e = first_expr("a || b && c;");
        match e.kind {
            ExprKind::Logical {
                is_and: false,
                right,
                ..
            } => {
                assert!(matches!(right.kind, ExprKind::Logical { is_and: true, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn assignment_right_associative() {
        let e = first_expr("a = b = 1;");
        match e.kind {
            ExprKind::Assign { value, .. } => {
                assert!(matches!(value.kind, ExprKind::Assign { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn compound_assignment() {
        let e = first_expr("url += 'name';");
        assert!(matches!(
            e.kind,
            ExprKind::Assign {
                op: Some(BinaryOp::Add),
                ..
            }
        ));
    }

    #[test]
    fn member_chains_and_calls() {
        let e = first_expr("content.location.href;");
        match e.kind {
            ExprKind::Member { obj, prop } => {
                assert!(matches!(prop, MemberProp::Static(ref s) if s == "href"));
                assert!(matches!(obj.kind, ExprKind::Member { .. }));
            }
            other => panic!("{other:?}"),
        }
        let e = first_expr("a.b(1)(2)[c];");
        assert!(matches!(e.kind, ExprKind::Member { .. }));
    }

    #[test]
    fn keyword_member_names() {
        let e = first_expr("x.delete;");
        assert!(
            matches!(e.kind, ExprKind::Member { prop: MemberProp::Static(ref s), .. } if s == "delete")
        );
    }

    #[test]
    fn new_expressions() {
        let e = first_expr("new XMLHttpRequest();");
        assert!(matches!(e.kind, ExprKind::New { .. }));
        // new with member callee and no parens
        let e = first_expr("new foo.Bar;");
        match e.kind {
            ExprKind::New { callee, args } => {
                assert!(args.is_empty());
                assert!(matches!(callee.kind, ExprKind::Member { .. }));
            }
            other => panic!("{other:?}"),
        }
        // `new a.B().c` — call result member access
        let e = first_expr("new a.B().c;");
        assert!(matches!(e.kind, ExprKind::Member { .. }));
    }

    #[test]
    fn object_and_array_literals() {
        let e = first_expr("x = { data: content, 'k2': 1, 3: [1,,2] };");
        match e.kind {
            ExprKind::Assign { value, .. } => match value.kind {
                ExprKind::Object(props) => {
                    assert_eq!(props.len(), 3);
                    assert_eq!(props[0].0.as_string(), "data");
                    assert_eq!(props[1].0.as_string(), "k2");
                    assert_eq!(props[2].0.as_string(), "3");
                    match &props[2].1.kind {
                        ExprKind::Array(elems) => {
                            assert_eq!(elems.len(), 3);
                            assert!(elems[1].is_none());
                        }
                        other => panic!("{other:?}"),
                    }
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trailing_comma_in_object() {
        p("x = { a: 1, b: 2, };");
    }

    #[test]
    fn functions_get_dense_ids() {
        let prog = p("function f() { function g() {} } var h = function() {};");
        assert_eq!(prog.fun_count, 3);
    }

    #[test]
    fn if_else_chains() {
        let prog = p("if (a) b(); else if (c) d(); else e();");
        match &prog.body[0].kind {
            StmtKind::If { alt: Some(alt), .. } => {
                assert!(matches!(alt.kind, StmtKind::If { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn loops() {
        p("while (x) { x--; }");
        p("do { x++; } while (x < 10);");
        p("for (var i = 0; i < 10; i++) f(i);");
        p("for (;;) { break; }");
        p("for (var k in obj) { use(k); }");
        p("for (k in obj) use(k);");
    }

    #[test]
    fn try_catch_finally() {
        let prog = p("try { f(); } catch (e) { g(e); } finally { h(); }");
        match &prog.body[0].kind {
            StmtKind::Try {
                catch: Some((param, _)),
                finally: Some(_),
                ..
            } => assert_eq!(param.name, "e"),
            other => panic!("{other:?}"),
        }
        assert!(parse("try { f(); }").is_err());
    }

    #[test]
    fn switch_statement() {
        let prog = p("switch (x) { case 1: a(); break; default: b(); }");
        match &prog.body[0].kind {
            StmtKind::Switch { cases, .. } => {
                assert_eq!(cases.len(), 2);
                assert!(cases[0].test.is_some());
                assert!(cases[1].test.is_none());
            }
            other => panic!("{other:?}"),
        }
        assert!(parse("switch (x) { default: a(); default: b(); }").is_err());
    }

    #[test]
    fn labeled_break_continue() {
        p("outer: for (;;) { for (;;) { break outer; } }");
        p("loop: while (x) { continue loop; }");
    }

    #[test]
    fn asi_basic() {
        let prog = p("var a = 1\nvar b = 2\nf()");
        assert_eq!(prog.body.len(), 3);
    }

    #[test]
    fn asi_restricted_return() {
        // `return\nx` parses as `return; x;`
        let prog = p("function f() { return\n1 }");
        match &prog.body[0].kind {
            StmtKind::FunDecl(f) => {
                assert_eq!(f.body.len(), 2);
                assert!(matches!(f.body[0].kind, StmtKind::Return(None)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn throw_requires_same_line() {
        assert!(parse("throw\n1;").is_err());
        p("throw 'irrelevant';");
    }

    #[test]
    fn conditional_expr() {
        let e = first_expr("a ? b : c ? d : e;");
        match e.kind {
            ExprKind::Cond { alt, .. } => {
                assert!(matches!(alt.kind, ExprKind::Cond { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unary_and_update() {
        p("x = -a + +b;");
        p("delete obj.prop;");
        p("typeof x === 'undefined';");
        let e = first_expr("i++;");
        assert!(matches!(
            e.kind,
            ExprKind::Update {
                inc: true,
                prefix: false,
                ..
            }
        ));
        assert!(parse("1++;").is_err());
    }

    #[test]
    fn in_operator_allowed_outside_for_init() {
        p("if ('k' in obj) f();");
    }

    #[test]
    fn sequence_expression() {
        let e = first_expr("a, b, c;");
        assert!(matches!(e.kind, ExprKind::Seq(ref v) if v.len() == 3));
    }

    #[test]
    fn paper_figure1_program_parses() {
        // The running example from Figure 1 of the paper.
        let src = r#"
var data = { url: doc.loc };
send(data.url);
send(data[getString()]);
func();
if (doc.loc == "secret.com")
  send(null);
var arr = ["covert.com", "priv.com"];
var i = 0, count = 0;
while (arr[i] && doc.loc != arr[i]) {
  i++;
  count++;
}
send(count);
try {
  if (doc.loc != "hush-hush.com")
    throw "irrelevant";
  send(null);
} catch (x) {};
try {
  if (doc.loc != "mystic.com")
    obj.prop = 1;
  send(null);
} catch (x) {}
"#;
        let prog = p(src);
        assert!(prog.body.len() >= 10);
    }

    #[test]
    fn error_messages_carry_location() {
        let err = parse("var = 3;").unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn nesting_limit_is_exact_and_typed() {
        let blocks = |n: usize| format!("{}{}", "{".repeat(n), "}".repeat(n));
        assert!(parse(&blocks(MAX_NESTING)).is_ok());
        let err = parse(&blocks(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep);
        assert!(err
            .to_string()
            .starts_with("nesting deeper than 500 levels"));
        // A chain's links count too: `a.b.b…` nests like parentheses
        // (below the statement and the expression holding it).
        let chain = |n: usize| format!("a{};", ".b".repeat(n));
        assert!(parse(&chain(MAX_NESTING - 2)).is_ok());
        assert!(parse(&chain(MAX_NESTING - 1)).is_err());
    }

    #[test]
    fn with_is_rejected() {
        assert!(parse("with (o) { f(); }").is_err());
    }
}

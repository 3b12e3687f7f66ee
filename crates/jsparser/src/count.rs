//! AST node counting, Rhino-style.
//!
//! The paper reports addon sizes as "the number of AST nodes parsed by
//! Rhino, a more accurate representation than number of lines of code"
//! (Table 1). We reproduce the metric by counting every node of our AST:
//! each statement, expression, declarator, switch case, function, and
//! identifier position counts as one node.

use crate::ast::*;

/// Counts the AST nodes of a whole program.
///
/// # Examples
///
/// ```
/// let prog = jsparser::parse("var x = 1;")?;
/// assert!(jsparser::count_nodes(&prog) >= 3); // decl + declarator + literal
/// # Ok::<(), jsparser::ParseError>(())
/// ```
pub fn count_nodes(program: &Program) -> usize {
    1 + program.body.iter().map(count_stmt).sum::<usize>()
}

fn count_stmt(stmt: &Stmt) -> usize {
    1 + match &stmt.kind {
        StmtKind::Expr(e) => count_expr(e),
        StmtKind::VarDecl(ds) => ds
            .iter()
            .map(|d| 2 + d.init.as_ref().map_or(0, count_expr))
            .sum(),
        StmtKind::FunDecl(f) => count_fun(f),
        StmtKind::If { cond, cons, alt } => {
            count_expr(cond) + count_stmt(cons) + alt.as_deref().map_or(0, count_stmt)
        }
        StmtKind::While { cond, body } => count_expr(cond) + count_stmt(body),
        StmtKind::DoWhile { body, cond } => count_stmt(body) + count_expr(cond),
        StmtKind::For {
            init,
            test,
            update,
            body,
        } => {
            init.as_deref().map_or(0, count_stmt)
                + test.as_ref().map_or(0, count_expr)
                + update.as_ref().map_or(0, count_expr)
                + count_stmt(body)
        }
        StmtKind::ForIn {
            target, obj, body, ..
        } => count_expr(target) + count_expr(obj) + count_stmt(body),
        StmtKind::Return(e) => e.as_ref().map_or(0, count_expr),
        StmtKind::Break(l) | StmtKind::Continue(l) => usize::from(l.is_some()),
        StmtKind::Throw(e) => count_expr(e),
        StmtKind::Try {
            block,
            catch,
            finally,
        } => {
            block.iter().map(count_stmt).sum::<usize>()
                + catch
                    .as_ref()
                    .map_or(0, |(_, b)| 2 + b.iter().map(count_stmt).sum::<usize>())
                + finally
                    .as_ref()
                    .map_or(0, |b| 1 + b.iter().map(count_stmt).sum::<usize>())
        }
        StmtKind::Switch { disc, cases } => {
            count_expr(disc)
                + cases
                    .iter()
                    .map(|c| {
                        1 + c.test.as_ref().map_or(0, count_expr)
                            + c.body.iter().map(count_stmt).sum::<usize>()
                    })
                    .sum::<usize>()
        }
        StmtKind::Block(body) => body.iter().map(count_stmt).sum(),
        StmtKind::Empty => 0,
        StmtKind::Labeled(_, body) => 1 + count_stmt(body),
    }
}

fn count_fun(f: &Function) -> usize {
    1 + usize::from(f.name.is_some())
        + f.params.len()
        + f.body.iter().map(count_stmt).sum::<usize>()
}

fn count_expr(expr: &Expr) -> usize {
    1 + match &expr.kind {
        ExprKind::Ident(_)
        | ExprKind::Num(_)
        | ExprKind::Str(_)
        | ExprKind::Bool(_)
        | ExprKind::Null
        | ExprKind::This
        | ExprKind::Regex(_) => 0,
        ExprKind::Array(elems) => elems.iter().map(|e| e.as_ref().map_or(1, count_expr)).sum(),
        ExprKind::Object(props) => props.iter().map(|(_, v)| 1 + count_expr(v)).sum(),
        ExprKind::Function(f) => count_fun(f),
        ExprKind::Unary { arg, .. } => count_expr(arg),
        ExprKind::Binary { left, right, .. } | ExprKind::Logical { left, right, .. } => {
            count_expr(left) + count_expr(right)
        }
        ExprKind::Assign { target, value, .. } => count_expr(target) + count_expr(value),
        ExprKind::Update { arg, .. } => count_expr(arg),
        ExprKind::Cond { test, cons, alt } => count_expr(test) + count_expr(cons) + count_expr(alt),
        ExprKind::Call { callee, args } | ExprKind::New { callee, args } => {
            count_expr(callee) + args.iter().map(count_expr).sum::<usize>()
        }
        ExprKind::Member { obj, prop } => {
            count_expr(obj)
                + match prop {
                    MemberProp::Static(_) => 1,
                    MemberProp::Computed(e) => count_expr(e),
                }
        }
        ExprKind::Seq(es) => es.iter().map(count_expr).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn counts_grow_with_program() {
        let small = count_nodes(&parse("x;").unwrap());
        let large = count_nodes(&parse("x; y; z = a + b * c;").unwrap());
        assert!(large > small);
    }

    #[test]
    fn empty_program_counts_one() {
        assert_eq!(count_nodes(&parse("").unwrap()), 1);
    }

    #[test]
    fn function_params_counted() {
        let a = count_nodes(&parse("function f() {}").unwrap());
        let b = count_nodes(&parse("function f(x, y) {}").unwrap());
        assert_eq!(b, a + 2);
    }

    #[test]
    fn realistic_snippet_in_plausible_range() {
        let src = r#"
function ajax(params) {
  var data = params["data"];
  var request = XHRWrapper(publicServer);
  request.send("url is: " + data);
}
ajax({ data: content.location.href });
"#;
        let n = count_nodes(&parse(src).unwrap());
        // Sanity band: a ~7 line snippet should be tens of nodes.
        assert!((25..80).contains(&n), "unexpected count {n}");
    }
}

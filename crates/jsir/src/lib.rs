//! Flat intermediate representation and control-flow graphs for addon-sig.
//!
//! Lowers the `jsparser` AST into a statement-level IR in which every
//! statement performs at most one variable or property write (mirroring
//! JSAI's notJS form), together with a CFG whose edges are *kinded* by
//! provenance -- sequential/branch (local control), `break`/`continue`/
//! `return`/`throw` (non-local explicit), and implicit exceptions
//! (non-local implicit). The kinds drive the staged control-dependence
//! construction of Section 3.3 of the paper.
//!
//! # Examples
//!
//! ```
//! use jsir::{lower_with_options, LowerOptions};
//!
//! let ast = jsparser::parse("var x = 1; if (x) { x = 2; }")?;
//! let lowered = lower_with_options(&ast, &LowerOptions { event_loop: false });
//! assert!(lowered.program.stmt_count() > 4);
//! assert!(lowered.cfg.edge_count() > 3);
//! # Ok::<(), jsparser::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod cfg;
pub mod ir;
mod lower;
pub mod pretty;

pub use cfg::{Cfg, Edge, EdgeKind};
pub use ir::{
    IrFunc, IrFuncId, IrProgram, IrStmt, IrStmtKind, Operand, Place, StmtId, VarId, VarInfo,
};
pub use lower::{lower, lower_with_options, LowerOptions, Lowered};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::LowerOptions;
    use std::collections::BTreeSet;

    fn lowered(src: &str) -> Lowered {
        lower_with_options(
            &jsparser::parse(src).unwrap(),
            &LowerOptions { event_loop: false },
        )
    }

    fn lowered_with_events(src: &str) -> Lowered {
        lower(&jsparser::parse(src).unwrap())
    }

    /// Statements on a cycle of the CFG: those reachable from one of
    /// their own successors.
    fn cyclic(cfg: &Cfg) -> BTreeSet<StmtId> {
        (0..cfg.node_count() as u32)
            .map(StmtId)
            .filter(|&s| {
                cfg.succs(s)
                    .iter()
                    .any(|&(t, _)| cfg.reachable_from(t).contains(&s))
            })
            .collect()
    }

    /// Statements of the top level reachable from its entry.
    fn reachable_kinds(l: &Lowered) -> Vec<String> {
        let top = l.program.top_level();
        let reach = l.cfg.reachable_from(top.entry);
        top.stmts
            .iter()
            .filter(|s| reach.contains(s))
            .map(|s| format!("{:?}", l.program.stmt(*s).kind))
            .collect()
    }

    #[test]
    fn straight_line_chain() {
        let l = lowered("var a = 1; var b = a;");
        let top = l.program.top_level();
        // enter -> copy -> copy -> exit, connected.
        let reach = l.cfg.reachable_from(top.entry);
        assert!(reach.contains(&top.exit));
        assert_eq!(top.stmts.len(), 4);
    }

    #[test]
    fn if_produces_branch_edges() {
        let l = lowered("if (x) { y = 1; } else { y = 2; }");
        let branches: Vec<_> = l
            .cfg
            .edges()
            .filter(|e| matches!(e.kind, EdgeKind::BranchTrue | EdgeKind::BranchFalse))
            .collect();
        assert_eq!(branches.len(), 2);
    }

    #[test]
    fn while_loop_has_cycle() {
        let l = lowered("while (c) { x = x + 1; }");
        assert!(!cyclic(&l.cfg).is_empty());
    }

    #[test]
    fn break_leaves_loop_with_jump_edge() {
        let l = lowered("while (c) { break; } after();");
        assert!(l.cfg.edges().any(|e| e.kind == EdgeKind::Jump));
        // The statement after the loop is reachable.
        let top = l.program.top_level();
        let reach = l.cfg.reachable_from(top.entry);
        assert!(reach.contains(&top.exit));
    }

    #[test]
    fn continue_jumps_to_header() {
        let l = lowered("while (c) { if (d) continue; work(); }");
        let jumps: Vec<_> = l.cfg.edges().filter(|e| e.kind == EdgeKind::Jump).collect();
        assert_eq!(jumps.len(), 1);
        // Target must be the while-header nop.
        let target = l.program.stmt(jumps[0].to);
        assert!(matches!(target.kind, IrStmtKind::Nop("while-header")));
    }

    #[test]
    fn labeled_break_escapes_outer_loop() {
        let l = lowered("outer: while (a) { while (b) { break outer; } } after();");
        let top = l.program.top_level();
        let reach = l.cfg.reachable_from(top.entry);
        assert!(reach.contains(&top.exit));
        assert!(l.cfg.edges().any(|e| e.kind == EdgeKind::Jump));
    }

    #[test]
    fn labeled_continue_on_for_loop() {
        let l = lowered("outer: for (i = 0; i < 3; i++) { for (;;) { continue outer; } }");
        // continue outer must reach the for's update, keeping exit reachable.
        let top = l.program.top_level();
        let reach = l.cfg.reachable_from(top.entry);
        assert!(reach.contains(&top.exit));
    }

    #[test]
    fn do_while_continue_reaches_condition() {
        let l = lowered("do { if (x) continue; f(); } while (c);");
        let top = l.program.top_level();
        let reach = l.cfg.reachable_from(top.entry);
        assert!(reach.contains(&top.exit));
        assert!(!cyclic(&l.cfg).is_empty());
    }

    #[test]
    fn return_produces_return_edge() {
        let l = lowered("function f() { return 1; } f();");
        assert!(l.cfg.edges().any(|e| e.kind == EdgeKind::Return));
        // The return edge targets f's exit.
        let f = l.program.funcs.iter().find(|f| f.name == "f").unwrap();
        let ret_edge = l.cfg.edges().find(|e| e.kind == EdgeKind::Return).unwrap();
        assert_eq!(ret_edge.to, f.exit);
    }

    #[test]
    fn throw_with_catch_gets_explicit_edge() {
        let l = lowered("try { throw 'x'; } catch (e) { handle(e); }");
        let explicit: Vec<_> = l
            .cfg
            .edges()
            .filter(|e| e.kind == EdgeKind::ThrowExplicit)
            .collect();
        assert_eq!(explicit.len(), 1);
        let target = l.program.stmt(explicit[0].to);
        assert!(matches!(target.kind, IrStmtKind::CatchBind { .. }));
    }

    #[test]
    fn uncaught_throw_gets_uncaught_edge() {
        let l = lowered("throw 'boom';");
        assert!(l.cfg.edges().any(|e| e.kind == EdgeKind::Uncaught));
    }

    #[test]
    fn try_statements_record_handler() {
        let l = lowered("try { f(); } catch (e) { g(); } h();");
        let prog = &l.program;
        let with = prog
            .stmts
            .iter()
            .filter(|s| matches!(s.kind, IrStmtKind::Call { .. }) && s.handler.is_some());
        let without = prog
            .stmts
            .iter()
            .filter(|s| matches!(s.kind, IrStmtKind::Call { .. }) && s.handler.is_none());
        assert!(with.count() >= 1);
        assert!(without.count() >= 2, "g() in catch and h() have no handler");
    }

    #[test]
    fn finally_without_catch_duplicates_block() {
        let l = lowered("try { f(); } finally { fin(); } after();");
        // fin() is called twice (normal + exceptional path).
        let fin_calls = l
            .program
            .stmts
            .iter()
            .filter(|s| match &s.kind {
                IrStmtKind::Call { callee, .. } => {
                    matches!(callee, Operand::Place(Place::Global(g)) if g == "fin")
                }
                _ => false,
            })
            .count();
        assert_eq!(fin_calls, 2);
    }

    #[test]
    fn switch_with_fallthrough_and_default() {
        let l = lowered("switch (x) { case 1: a(); case 2: b(); break; default: c(); } after();");
        let top = l.program.top_level();
        let reach = l.cfg.reachable_from(top.entry);
        assert!(reach.contains(&top.exit));
        // Fallthrough: a() body flows into b() body; there is a Jump (break).
        assert!(l.cfg.edges().any(|e| e.kind == EdgeKind::Jump));
    }

    #[test]
    fn logical_and_short_circuits() {
        let l = lowered("var r = a && b;");
        assert!(l.cfg.edges().any(|e| e.kind == EdgeKind::BranchTrue));
        assert!(l.cfg.edges().any(|e| e.kind == EdgeKind::BranchFalse));
    }

    #[test]
    fn closures_resolve_outer_variables() {
        let l = lowered("function outer() { var x = 1; function inner() { return x; } }");
        let inner = l.program.funcs.iter().find(|f| f.name == "inner").unwrap();
        let outer = l.program.funcs.iter().find(|f| f.name == "outer").unwrap();
        // inner's return reads outer's x.
        let ret = inner
            .stmts
            .iter()
            .map(|s| l.program.stmt(*s))
            .find(|s| matches!(s.kind, IrStmtKind::Return { .. }))
            .unwrap();
        match &ret.kind {
            IrStmtKind::Return {
                value: Operand::Place(Place::Var(v)),
            } => {
                assert_eq!(v.func, outer.id, "x resolves to outer's frame");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unresolved_names_are_globals() {
        let l = lowered("send(payload);");
        let call = l
            .program
            .stmts
            .iter()
            .find(|s| matches!(s.kind, IrStmtKind::Call { .. }))
            .unwrap();
        match &call.kind {
            IrStmtKind::Call { callee, args, .. } => {
                assert!(matches!(callee, Operand::Place(Place::Global(g)) if g == "send"));
                assert!(matches!(&args[0], Operand::Place(Place::Global(g)) if g == "payload"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn var_hoisting_within_function() {
        // `x` assigned before its `var` is still function-local.
        let l = lowered("function f() { x = 1; var x; }");
        let f = l.program.funcs.iter().find(|f| f.name == "f").unwrap();
        let copy = f
            .stmts
            .iter()
            .map(|s| l.program.stmt(*s))
            .find(|s| matches!(s.kind, IrStmtKind::Copy { .. }))
            .unwrap();
        match &copy.kind {
            IrStmtKind::Copy {
                dst: Place::Var(v), ..
            } => assert_eq!(v.func, f.id),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn function_decls_hoisted_to_entry() {
        let l = lowered("g(); function g() {}");
        let top = l.program.top_level();
        // Lambda must come before the call in statement order.
        let order: Vec<_> = top.stmts.iter().map(|s| &l.program.stmt(*s).kind).collect();
        let lambda_pos = order
            .iter()
            .position(|k| matches!(k, IrStmtKind::Lambda { .. }))
            .unwrap();
        let call_pos = order
            .iter()
            .position(|k| matches!(k, IrStmtKind::Call { .. }))
            .unwrap();
        assert!(lambda_pos < call_pos);
    }

    #[test]
    fn event_loop_appended() {
        let l = lowered_with_events("var x = 1;");
        assert!(l.event_dispatch.is_some());
        let d = l.event_dispatch.unwrap();
        // The dispatch statement is on a cycle.
        assert!(cyclic(&l.cfg).contains(&d));
        let text = reachable_kinds(&l).join("\n");
        assert!(text.contains("EventDispatch"));
    }

    #[test]
    fn no_event_loop_without_option() {
        let l = lowered("var x = 1;");
        assert!(l.event_dispatch.is_none());
    }

    #[test]
    fn for_in_lowering() {
        let l = lowered("for (var k in obj) { use(k); }");
        assert!(l
            .program
            .stmts
            .iter()
            .any(|s| matches!(s.kind, IrStmtKind::ForInNext { .. })));
        assert!(!cyclic(&l.cfg).is_empty());
    }

    #[test]
    fn object_literal_stores_props() {
        let l = lowered("var o = { url: u, n: 1 };");
        let stores = l
            .program
            .stmts
            .iter()
            .filter(|s| matches!(s.kind, IrStmtKind::StoreProp { .. }))
            .count();
        assert_eq!(stores, 2);
    }

    #[test]
    fn array_literal_stores_elements_and_length() {
        let l = lowered("var a = [x, y];");
        let stores = l
            .program
            .stmts
            .iter()
            .filter(|s| matches!(s.kind, IrStmtKind::StoreProp { .. }))
            .count();
        assert_eq!(stores, 3); // "0", "1", "length"
    }

    #[test]
    fn method_call_has_receiver() {
        let l = lowered("request.send(data);");
        let call = l
            .program
            .stmts
            .iter()
            .find(|s| matches!(s.kind, IrStmtKind::Call { .. }))
            .unwrap();
        match &call.kind {
            IrStmtKind::Call { this: Some(_), .. } => {}
            other => panic!("method call should carry this: {other:?}"),
        }
    }

    #[test]
    fn compound_member_assignment_loads_then_stores() {
        let l = lowered("o.count += 1;");
        assert!(l
            .program
            .stmts
            .iter()
            .any(|s| matches!(s.kind, IrStmtKind::LoadProp { .. })));
        assert!(l
            .program
            .stmts
            .iter()
            .any(|s| matches!(s.kind, IrStmtKind::StoreProp { .. })));
    }

    #[test]
    fn update_expression_value() {
        let l = lowered("var j = i++;");
        let has_add = l.program.stmts.iter().any(|s| {
            matches!(
                s.kind,
                IrStmtKind::BinOp {
                    op: jsparser::ast::BinaryOp::Add,
                    ..
                }
            )
        });
        assert!(has_add);
    }

    #[test]
    fn delete_lowered() {
        let l = lowered("delete obj.p;");
        assert!(l
            .program
            .stmts
            .iter()
            .any(|s| matches!(s.kind, IrStmtKind::DeleteProp { .. })));
    }

    #[test]
    fn typeof_uses_dedicated_statement() {
        let l = lowered("var t = typeof maybeUndeclared;");
        assert!(l
            .program
            .stmts
            .iter()
            .any(|s| matches!(s.kind, IrStmtKind::Typeof { .. })));
    }

    #[test]
    fn named_function_expression_self_reference() {
        let l = lowered("var f = function rec(n) { return rec(n); };");
        let rec = l.program.funcs.iter().find(|f| f.name == "rec").unwrap();
        // `rec` inside the body resolves to rec's own frame, not global.
        let call = rec
            .stmts
            .iter()
            .map(|s| l.program.stmt(*s))
            .find(|s| matches!(s.kind, IrStmtKind::Call { .. }))
            .unwrap();
        match &call.kind {
            IrStmtKind::Call {
                callee: Operand::Place(Place::Var(v)),
                ..
            } => {
                assert_eq!(v.func, rec.id);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn figure1_lowering_smoke() {
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
        let l = lowered(src);
        let top = l.program.top_level();
        let reach = l.cfg.reachable_from(top.entry);
        assert!(reach.contains(&top.exit));
        assert!(l.cfg.edges().any(|e| e.kind == EdgeKind::ThrowExplicit));
        assert!(!cyclic(&l.cfg).is_empty());
    }
}

//! Lowering from the AST to the flat IR + CFG.
//!
//! Every function (and the top level) is lowered into a statement list
//! with an explicit [`Cfg`]. Expressions are flattened into temporaries;
//! short-circuit operators, conditionals, loops, `switch`, labeled
//! break/continue, and `try`/`catch`/`finally` are all expanded into
//! branches and kinded edges.
//!
//! Exception edges: `throw` statements get [`EdgeKind::ThrowExplicit`]
//! edges to the innermost handler (or [`EdgeKind::Uncaught`] to the
//! function exit -- the paper omits uncaught-exception control dependence
//! because uncaught exceptions terminate the addon). *Implicit* exception
//! edges are added later by `jspdg::SuperGraph::build`, once the base
//! analysis knows which statements may actually throw.

use crate::cfg::{Cfg, EdgeKind};
use crate::ir::*;
use jsparser::ast;
use jsparser::span::Span;
use std::collections::HashMap;

/// Options controlling lowering.
#[derive(Debug, Clone)]
pub struct LowerOptions {
    /// Append the non-deterministic addon event loop after the top-level
    /// code (Section 6.1 of the paper). On by default.
    pub event_loop: bool,
}

impl Default for LowerOptions {
    fn default() -> Self {
        LowerOptions { event_loop: true }
    }
}

/// The result of lowering: the IR program and its (intraprocedural) CFG.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// The IR program.
    pub program: IrProgram,
    /// The control-flow graph (per-function subgraphs over global ids).
    pub cfg: Cfg,
    /// The statement that dispatches event handlers, when the event loop
    /// was appended.
    pub event_dispatch: Option<StmtId>,
}

/// Lowers a parsed program with default options.
pub fn lower(ast: &ast::Program) -> Lowered {
    lower_with_options(ast, &LowerOptions::default())
}

/// Lowers a parsed program.
pub fn lower_with_options(ast: &ast::Program, opts: &LowerOptions) -> Lowered {
    let mut lw = Lowerer {
        funcs: Vec::new(),
        stmts: Vec::new(),
        cfg: Cfg::default(),
        symtabs: Vec::new(),
        fun_map: vec![None; ast.fun_count as usize],
        queue: Vec::new(),
        event_dispatch: None,
    };

    // Top-level pseudo-function.
    let top = lw.new_func("<top-level>", &[], None);
    debug_assert_eq!(top, IrFuncId::TOP_LEVEL);
    lw.lower_function_body(top, &ast.body, opts.event_loop);

    // Lower queued (nested) functions until done.
    while let Some((ir_id, fun)) = lw.queue.pop() {
        lw.lower_function_body(ir_id, &fun.body, false);
    }

    lw.cfg.ensure_nodes(lw.stmts.len());
    Lowered {
        program: IrProgram {
            funcs: lw.funcs,
            stmts: lw.stmts,
        },
        cfg: lw.cfg,
        event_dispatch: lw.event_dispatch,
    }
}

/// Collects the names hoisted to function scope: `var` names, function
/// declaration names, catch parameters, and for-in declaration targets.
/// Does not descend into nested function literals. Also returns the
/// function declarations themselves (for hoisted initialization).
fn hoisted_names(body: &[ast::Stmt]) -> (Vec<String>, Vec<&ast::Function>) {
    let mut names = Vec::new();
    let mut decls = Vec::new();
    fn go<'a>(body: &'a [ast::Stmt], names: &mut Vec<String>, decls: &mut Vec<&'a ast::Function>) {
        use ast::StmtKind::*;
        for s in body {
            match &s.kind {
                VarDecl(ds) => names.extend(ds.iter().map(|d| d.name.name.clone())),
                FunDecl(f) => {
                    if let Some(n) = &f.name {
                        names.push(n.name.clone());
                    }
                    decls.push(f);
                }
                If { cons, alt, .. } => {
                    go(std::slice::from_ref(cons), names, decls);
                    if let Some(a) = alt {
                        go(std::slice::from_ref(a), names, decls);
                    }
                }
                While { body, .. } | DoWhile { body, .. } => {
                    go(std::slice::from_ref(body), names, decls)
                }
                For { init, body, .. } => {
                    if let Some(i) = init {
                        go(std::slice::from_ref(i), names, decls);
                    }
                    go(std::slice::from_ref(body), names, decls);
                }
                ForIn {
                    decl, target, body, ..
                } => {
                    if *decl {
                        if let ast::ExprKind::Ident(n) = &target.kind {
                            names.push(n.clone());
                        }
                    }
                    go(std::slice::from_ref(body), names, decls);
                }
                Try {
                    block,
                    catch,
                    finally,
                } => {
                    go(block, names, decls);
                    if let Some((param, b)) = catch {
                        names.push(param.name.clone());
                        go(b, names, decls);
                    }
                    if let Some(b) = finally {
                        go(b, names, decls);
                    }
                }
                Switch { cases, .. } => {
                    for c in cases {
                        go(&c.body, names, decls);
                    }
                }
                Block(b) => go(b, names, decls),
                Labeled(_, s) => go(std::slice::from_ref(s), names, decls),
                _ => {}
            }
        }
    }
    go(body, &mut names, &mut decls);
    (names, decls)
}

/// A pending edge waiting for its target statement.
type Pending = Vec<(StmtId, EdgeKind)>;

/// Where `continue` edges of a loop go.
enum ContinueSink {
    /// Jump straight to an existing header statement.
    Target(StmtId),
    /// Collect; the loop resolves them later (for `for`/`do-while`, whose
    /// continue point does not exist while the body is lowered).
    Collect(Pending),
}

/// Per-construct context for `break` and `continue` resolution.
struct LoopCtx {
    /// Labels naming this construct (a statement can carry several).
    labels: Vec<String>,
    /// Break edges to resolve when the construct ends.
    breaks: Pending,
    /// Continue handling; `None` for switch / labeled blocks.
    continues: Option<ContinueSink>,
    /// True for constructs an unlabeled `break` can target.
    is_breakable: bool,
}

/// What an assignment or an update writes: a variable, or the property
/// `prop` of the object `obj`.
enum Target {
    Var(Place),
    Prop { obj: Operand, prop: Operand },
}

struct Lowerer<'a> {
    funcs: Vec<IrFunc>,
    stmts: Vec<IrStmt>,
    cfg: Cfg,
    /// Symbol table per function: name -> slot.
    symtabs: Vec<HashMap<String, u32>>,
    /// IR function of each AST function met so far, indexed by `FunId`.
    fun_map: Vec<Option<IrFuncId>>,
    /// Functions whose bodies still need lowering.
    queue: Vec<(IrFuncId, &'a ast::Function)>,
    /// The statement that dispatches event handlers, once emitted.
    event_dispatch: Option<StmtId>,
}

/// Per-function lowering state. A body is lowered whole before the next
/// one starts, so the edges to its exit wait here.
struct FnCtx {
    func: IrFuncId,
    pending: Pending,
    loops: Vec<LoopCtx>,
    handlers: Vec<StmtId>,
    /// Labels seen on the way down to the next loop/switch statement.
    pending_labels: Vec<String>,
    /// `return` statements awaiting an edge to the exit.
    returns: Vec<StmtId>,
    /// Uncaught `throw` statements awaiting an Uncaught edge to the exit.
    uncaught: Vec<StmtId>,
}

impl<'a> Lowerer<'a> {
    fn new_func(
        &mut self,
        name: &str,
        params: &[ast::Ident],
        parent: Option<IrFuncId>,
    ) -> IrFuncId {
        let id = IrFuncId(self.funcs.len() as u32);
        let mut vars: Vec<VarInfo> = params
            .iter()
            .map(|p| VarInfo {
                name: Some(p.name.clone()),
                is_param: true,
            })
            .collect();
        let mut symtab = HashMap::new();
        for (i, p) in params.iter().enumerate() {
            symtab.insert(p.name.clone(), i as u32);
        }
        // Self-binding for named function expressions / recursion.
        if parent.is_some() && !name.is_empty() && !symtab.contains_key(name) {
            symtab.insert(name.to_owned(), vars.len() as u32);
            vars.push(VarInfo {
                name: Some(name.to_owned()),
                is_param: false,
            });
        }
        self.funcs.push(IrFunc {
            id,
            name: name.to_owned(),
            param_count: params.len() as u32,
            vars,
            entry: StmtId(0), // fixed up in lower_function_body
            exit: StmtId(0),
            stmts: Vec::new(),
            parent,
        });
        self.symtabs.push(symtab);
        id
    }

    /// Gets or creates the IR id for an AST function, queueing its body.
    fn ir_id_for(&mut self, fun: &'a ast::Function, parent: IrFuncId) -> IrFuncId {
        if let Some(id) = self.fun_map[fun.id.0 as usize] {
            return id;
        }
        let name = fun.name.as_ref().map(|n| n.name.as_str()).unwrap_or("");
        let id = self.new_func(name, &fun.params, Some(parent));
        self.fun_map[fun.id.0 as usize] = Some(id);
        self.queue.push((id, fun));
        id
    }

    /// Allocates a fresh temp in `func`.
    fn temp(&mut self, func: IrFuncId) -> Place {
        let f = &mut self.funcs[func.0 as usize];
        let index = f.vars.len() as u32;
        f.vars.push(VarInfo {
            name: None,
            is_param: false,
        });
        Place::Var(VarId { func, index })
    }

    /// Ensures `name` has a slot in `func` (used during hoisting).
    fn declare(&mut self, func: IrFuncId, name: &str) -> u32 {
        if let Some(&i) = self.symtabs[func.0 as usize].get(name) {
            return i;
        }
        let f = &mut self.funcs[func.0 as usize];
        let index = f.vars.len() as u32;
        f.vars.push(VarInfo {
            name: Some(name.to_owned()),
            is_param: false,
        });
        self.symtabs[func.0 as usize].insert(name.to_owned(), index);
        index
    }

    /// Resolves a name against the static scope chain.
    fn resolve(&self, mut func: IrFuncId, name: &str) -> Place {
        loop {
            if let Some(&index) = self.symtabs[func.0 as usize].get(name) {
                return Place::Var(VarId { func, index });
            }
            match self.funcs[func.0 as usize].parent {
                Some(p) => func = p,
                None => return Place::Global(name.to_owned()),
            }
        }
    }

    /// Emits a statement, wiring all pending edges to it and leaving a
    /// sequential pending edge out of it.
    fn emit(&mut self, cx: &mut FnCtx, kind: IrStmtKind, span: Span) -> StmtId {
        let id = StmtId(self.stmts.len() as u32);
        let handler = cx.handlers.last().copied();
        self.stmts.push(IrStmt {
            id,
            func: cx.func,
            kind,
            span,
            handler,
        });
        self.funcs[cx.func.0 as usize].stmts.push(id);
        self.cfg.ensure_nodes(self.stmts.len());
        for (from, kind) in cx.pending.drain(..) {
            self.cfg.add_edge(from, id, kind);
        }
        cx.pending.push((id, EdgeKind::Seq));
        id
    }

    /// Emits a statement that no pending edge reaches and that leaves
    /// none, such as a handler's landing pad.
    fn emit_detached(&mut self, cx: &mut FnCtx, kind: IrStmtKind, span: Span) -> StmtId {
        let pending = std::mem::take(&mut cx.pending);
        let id = self.emit(cx, kind, span);
        cx.pending = pending;
        id
    }

    /// Emits `kind(t)`, the statement defining a fresh temporary `t`, and
    /// returns `t`.
    fn define(
        &mut self,
        cx: &mut FnCtx,
        span: Span,
        kind: impl FnOnce(Place) -> IrStmtKind,
    ) -> Place {
        let dst = self.temp(cx.func);
        self.emit(cx, kind(dst.clone()), span);
        dst
    }

    /// Emits a branch on `cond`, leaving only its `first` edge pending.
    fn branch(&mut self, cx: &mut FnCtx, cond: Operand, span: Span, first: EdgeKind) -> StmtId {
        let br = self.emit(cx, IrStmtKind::Branch { cond }, span);
        cx.pending.clear();
        cx.pending.push((br, first));
        br
    }

    /// Emits a loop header that goes either way, `h = havoc; branch h`,
    /// leaving the true edge pending. Returns the header and the branch.
    fn havoc_branch(&mut self, cx: &mut FnCtx, span: Span) -> (StmtId, StmtId) {
        let hv = self.temp(cx.func);
        let header = self.emit(cx, IrStmtKind::Havoc { dst: hv.clone() }, span);
        let br = self.branch(cx, Operand::Place(hv), span, EdgeKind::BranchTrue);
        (header, br)
    }

    /// Wires every pending edge to `to`, a statement emitted earlier.
    fn jump_pending(&mut self, cx: &mut FnCtx, to: StmtId) {
        for (from, kind) in cx.pending.drain(..) {
            self.cfg.add_edge(from, to, kind);
        }
    }

    /// Emits `throw value`, with an edge to the innermost handler, or an
    /// Uncaught edge to the function's exit once that exists.
    fn throw(&mut self, cx: &mut FnCtx, value: Operand, span: Span) {
        let t = self.emit(cx, IrStmtKind::Throw { value }, span);
        cx.pending.clear();
        match cx.handlers.last() {
            Some(&h) => self.cfg.add_edge(t, h, EdgeKind::ThrowExplicit),
            None => cx.uncaught.push(t),
        }
    }

    /// Lowers `body` in the context of a loop, `switch` or labeled
    /// statement named by the pending labels, and returns that context
    /// with the `break` and `continue` edges it collected.
    fn breakable(
        &mut self,
        cx: &mut FnCtx,
        continues: Option<ContinueSink>,
        is_breakable: bool,
        body: impl FnOnce(&mut Self, &mut FnCtx),
    ) -> LoopCtx {
        cx.loops.push(LoopCtx {
            labels: std::mem::take(&mut cx.pending_labels),
            breaks: Vec::new(),
            continues,
            is_breakable,
        });
        body(self, cx);
        cx.loops.pop().expect("pushed above")
    }

    /// Lowers a loop body whose `continue` edges are collected, leaves
    /// them pending together with the body's fallthrough, and returns the
    /// body's `break` edges.
    fn collecting_body(&mut self, cx: &mut FnCtx, body: &'a ast::Stmt) -> Pending {
        let ctx = self.breakable(
            cx,
            Some(ContinueSink::Collect(Vec::new())),
            true,
            |lw, cx| lw.lower_stmt(cx, body),
        );
        if let Some(ContinueSink::Collect(edges)) = ctx.continues {
            cx.pending.extend(edges);
        }
        ctx.breaks
    }

    /// Lowers a function body into IR statements.
    fn lower_function_body(&mut self, func: IrFuncId, body: &'a [ast::Stmt], event_loop: bool) {
        // Hoist declarations.
        let (names, fun_decls) = hoisted_names(body);
        for n in &names {
            self.declare(func, n);
        }
        let mut cx = FnCtx {
            func,
            pending: Vec::new(),
            loops: Vec::new(),
            handlers: Vec::new(),
            pending_labels: Vec::new(),
            returns: Vec::new(),
            uncaught: Vec::new(),
        };
        let entry = self.emit(&mut cx, IrStmtKind::Enter, Span::default());
        // Hoisted function declarations initialize their names at entry.
        for f in fun_decls {
            let ir = self.ir_id_for(f, func);
            let name = f.name.as_ref().expect("fun decls are named");
            let dst = self.resolve(func, &name.name);
            self.emit(&mut cx, IrStmtKind::Lambda { dst, func: ir }, f.span);
        }
        self.lower_stmts(&mut cx, body);

        if event_loop {
            // header: h = havoc; branch h { true -> dispatch -> header }
            let (header, br) = self.havoc_branch(&mut cx, Span::default());
            let d = self.emit(&mut cx, IrStmtKind::EventDispatch, Span::default());
            self.event_dispatch = Some(d);
            self.jump_pending(&mut cx, header);
            cx.pending.push((br, EdgeKind::BranchFalse));
        }

        let exit = self.emit(&mut cx, IrStmtKind::Exit, Span::default());
        for r in cx.returns {
            self.cfg.add_edge(r, exit, EdgeKind::Return);
        }
        for t in cx.uncaught {
            self.cfg.add_edge(t, exit, EdgeKind::Uncaught);
        }
        let f = &mut self.funcs[func.0 as usize];
        f.entry = entry;
        f.exit = exit;
    }

    fn lower_stmts(&mut self, cx: &mut FnCtx, body: &'a [ast::Stmt]) {
        for s in body {
            self.lower_stmt(cx, s);
        }
    }

    fn lower_stmt(&mut self, cx: &mut FnCtx, stmt: &'a ast::Stmt) {
        use ast::StmtKind::*;
        let span = stmt.span;
        match &stmt.kind {
            Expr(e) => {
                self.lower_expr(cx, e);
            }
            VarDecl(ds) => {
                for d in ds {
                    if let Some(init) = &d.init {
                        let v = self.lower_expr(cx, init);
                        let dst = self.resolve(cx.func, &d.name.name);
                        self.emit(cx, IrStmtKind::Copy { dst, src: v }, d.name.span);
                    }
                }
            }
            FunDecl(_) => {
                // Hoisted at function entry; nothing to do in place.
            }
            If { cond, cons, alt } => {
                let c = self.lower_expr(cx, cond);
                let br = self.branch(cx, c, span, EdgeKind::BranchTrue);
                self.lower_stmt(cx, cons);
                let after_cons = std::mem::take(&mut cx.pending);
                cx.pending.push((br, EdgeKind::BranchFalse));
                if let Some(alt) = alt {
                    self.lower_stmt(cx, alt);
                }
                cx.pending.extend(after_cons);
            }
            While { cond, body } => {
                let header = self.emit(cx, IrStmtKind::Nop("while-header"), span);
                let c = self.lower_expr(cx, cond);
                let br = self.branch(cx, c, span, EdgeKind::BranchTrue);
                let ctx = self.breakable(cx, Some(ContinueSink::Target(header)), true, |lw, cx| {
                    lw.lower_stmt(cx, body)
                });
                self.jump_pending(cx, header);
                cx.pending.push((br, EdgeKind::BranchFalse));
                cx.pending.extend(ctx.breaks);
            }
            DoWhile { body, cond } => {
                let header = self.emit(cx, IrStmtKind::Nop("do-header"), span);
                // `continue` lands at the condition evaluation.
                let breaks = self.collecting_body(cx, body);
                let c = self.lower_expr(cx, cond);
                let br = self.branch(cx, c, span, EdgeKind::BranchFalse);
                self.cfg.add_edge(br, header, EdgeKind::BranchTrue);
                cx.pending.extend(breaks);
            }
            For {
                init,
                test,
                update,
                body,
            } => {
                if let Some(init) = init {
                    self.lower_stmt(cx, init);
                }
                let header = self.emit(cx, IrStmtKind::Nop("for-header"), span);
                let br = test.as_ref().map(|t| {
                    let c = self.lower_expr(cx, t);
                    self.branch(cx, c, span, EdgeKind::BranchTrue)
                });
                // `continue` lands at the update expression.
                let breaks = self.collecting_body(cx, body);
                if let Some(update) = update {
                    self.lower_expr(cx, update);
                }
                self.jump_pending(cx, header);
                if let Some(br) = br {
                    cx.pending.push((br, EdgeKind::BranchFalse));
                }
                cx.pending.extend(breaks);
            }
            ForIn {
                target, obj, body, ..
            } => {
                let o = self.lower_expr(cx, obj);
                let (header, br) = self.havoc_branch(cx, span);
                // Bind the key.
                if let ast::ExprKind::Ident(name) = &target.kind {
                    let dst = self.resolve(cx.func, name);
                    self.emit(cx, IrStmtKind::ForInNext { dst, obj: o }, span);
                } else {
                    let key = self.define(cx, span, |dst| IrStmtKind::ForInNext { dst, obj: o });
                    // Parser guarantees assign targets only.
                    if let Some(t) = self.target(cx, target) {
                        self.write(cx, t, Operand::Place(key), span);
                    }
                }
                let ctx = self.breakable(cx, Some(ContinueSink::Target(header)), true, |lw, cx| {
                    lw.lower_stmt(cx, body)
                });
                self.jump_pending(cx, header);
                cx.pending.push((br, EdgeKind::BranchFalse));
                cx.pending.extend(ctx.breaks);
            }
            Return(e) => {
                let v = match e {
                    Some(e) => self.lower_expr(cx, e),
                    None => Operand::Undefined,
                };
                let r = self.emit(cx, IrStmtKind::Return { value: v }, span);
                cx.pending.clear();
                // The function exit node doesn't exist yet; defer the edge.
                cx.returns.push(r);
            }
            Break(label) => {
                let b = self.emit(cx, IrStmtKind::Nop("break"), span);
                cx.pending.clear();
                let target = match label {
                    Some(l) => cx
                        .loops
                        .iter_mut()
                        .rev()
                        .find(|c| c.labels.iter().any(|x| x == &l.name)),
                    None => cx.loops.iter_mut().rev().find(|c| c.is_breakable),
                };
                if let Some(ctx) = target {
                    ctx.breaks.push((b, EdgeKind::Jump));
                }
                // Unresolved break (malformed program): falls off; no edge.
            }
            Continue(label) => {
                let c = self.emit(cx, IrStmtKind::Nop("continue"), span);
                cx.pending.clear();
                let target = match label {
                    Some(l) => cx.loops.iter_mut().rev().find(|ctx| {
                        ctx.continues.is_some() && ctx.labels.iter().any(|x| x == &l.name)
                    }),
                    None => cx
                        .loops
                        .iter_mut()
                        .rev()
                        .find(|ctx| ctx.continues.is_some()),
                };
                if let Some(ctx) = target {
                    match ctx.continues.as_mut().expect("filtered above") {
                        ContinueSink::Target(h) => {
                            let h = *h;
                            self.cfg.add_edge(c, h, EdgeKind::Jump);
                        }
                        ContinueSink::Collect(edges) => edges.push((c, EdgeKind::Jump)),
                    }
                }
            }
            Throw(e) => {
                let v = self.lower_expr(cx, e);
                self.throw(cx, v, span);
            }
            Try {
                block,
                catch,
                finally,
            } => self.lower_try(cx, block, catch, finally, span),
            Switch { disc, cases } => self.lower_switch(cx, disc, cases, span),
            Block(body) => self.lower_stmts(cx, body),
            Empty => {}
            Labeled(label, body) => {
                // A loop or switch takes the labels naming it into its own
                // context, so `continue label` works; any other statement
                // gets a context that only a labeled `break` targets.
                cx.pending_labels.push(label.name.clone());
                if matches!(
                    body.kind,
                    While { .. }
                        | DoWhile { .. }
                        | For { .. }
                        | ForIn { .. }
                        | Switch { .. }
                        | Labeled(..)
                ) {
                    self.lower_stmt(cx, body);
                } else {
                    let ctx = self.breakable(cx, None, false, |lw, cx| lw.lower_stmt(cx, body));
                    cx.pending.extend(ctx.breaks);
                }
            }
        }
    }

    fn lower_try(
        &mut self,
        cx: &mut FnCtx,
        block: &'a [ast::Stmt],
        catch: &'a Option<(ast::Ident, Vec<ast::Stmt>)>,
        finally: &'a Option<Vec<ast::Stmt>>,
        span: Span,
    ) {
        // The landing pad comes first, so that the try-block statements
        // can name it as their handler.
        let pad = match catch {
            Some((param, _)) => {
                let dst = self.resolve(cx.func, &param.name);
                self.emit_detached(cx, IrStmtKind::CatchBind { dst }, param.span)
            }
            None => self.emit_detached(cx, IrStmtKind::Nop("finally-pad"), span),
        };
        cx.handlers.push(pad);
        self.lower_stmts(cx, block);
        cx.handlers.pop();
        let normal_exit = std::mem::take(&mut cx.pending);
        cx.pending.push((pad, EdgeKind::Seq));
        match catch {
            Some((_, catch_body)) => {
                self.lower_stmts(cx, catch_body);
                cx.pending.extend(normal_exit);
                if let Some(fin) = finally {
                    self.lower_stmts(cx, fin);
                }
            }
            None => {
                // try/finally without catch: exceptions run the finally
                // then propagate. We lower the finally twice: once on the
                // exceptional path, then rethrow, and once on the normal
                // path.
                let fin = finally.as_ref().expect("parser enforces catch|finally");
                self.lower_stmts(cx, fin);
                self.throw(cx, Operand::Undefined, span);
                cx.pending = normal_exit;
                self.lower_stmts(cx, fin);
            }
        }
    }

    fn lower_switch(
        &mut self,
        cx: &mut FnCtx,
        disc: &'a ast::Expr,
        cases: &'a [ast::SwitchCase],
        span: Span,
    ) {
        let d = self.lower_expr(cx, disc);
        // Chain of tests; collect the branch-true edge per case.
        let mut case_entries: Vec<(usize, Pending)> = Vec::new();
        for (i, case) in cases.iter().enumerate() {
            if let Some(test) = &case.test {
                let t = self.lower_expr(cx, test);
                let cmp = self.define(cx, span, |dst| IrStmtKind::BinOp {
                    dst,
                    op: BinaryOp::StrictEq,
                    left: d.clone(),
                    right: t,
                });
                let br = self.branch(cx, Operand::Place(cmp), span, EdgeKind::BranchFalse);
                case_entries.push((i, vec![(br, EdgeKind::BranchTrue)]));
            }
        }
        // All tests failed: go to default if present, else past the switch.
        let no_match = std::mem::take(&mut cx.pending);
        let fallthrough_tail = match cases.iter().position(|c| c.test.is_none()) {
            Some(default) => {
                case_entries.push((default, no_match));
                Vec::new()
            }
            None => no_match,
        };

        let ctx = self.breakable(cx, None, true, |lw, cx| {
            // Bodies in source order; fallthrough connects them.
            for (i, case) in cases.iter().enumerate() {
                // Incoming: previous body fallthrough (already in pending)
                // plus any matching test edges.
                for (ci, edges) in &case_entries {
                    if *ci == i {
                        cx.pending.extend(edges.iter().copied());
                    }
                }
                if cx.pending.is_empty() && case.body.is_empty() {
                    continue;
                }
                lw.emit(cx, IrStmtKind::Nop("case"), span);
                lw.lower_stmts(cx, &case.body);
            }
        });
        cx.pending.extend(ctx.breaks);
        cx.pending.extend(fallthrough_tail);
    }

    /// Lowers a member access's object, then its property.
    fn member(
        &mut self,
        cx: &mut FnCtx,
        obj: &'a ast::Expr,
        prop: &'a ast::MemberProp,
    ) -> (Operand, Operand) {
        let obj = self.lower_expr(cx, obj);
        let prop = match prop {
            ast::MemberProp::Static(name) => Operand::Str(name.clone()),
            ast::MemberProp::Computed(e) => self.lower_expr(cx, e),
        };
        (obj, prop)
    }

    /// Lowers what an assignment target names, the object and then the
    /// property of a member target; `None` for any other expression.
    fn target(&mut self, cx: &mut FnCtx, e: &'a ast::Expr) -> Option<Target> {
        match &e.kind {
            ast::ExprKind::Ident(name) => Some(Target::Var(self.resolve(cx.func, name))),
            ast::ExprKind::Member { obj, prop } => {
                let (obj, prop) = self.member(cx, obj, prop);
                Some(Target::Prop { obj, prop })
            }
            _ => None,
        }
    }

    /// The current value of a target; a property is loaded first.
    fn read(&mut self, cx: &mut FnCtx, t: &Target, span: Span) -> Operand {
        match t {
            Target::Var(place) => Operand::Place(place.clone()),
            Target::Prop { obj, prop } => {
                Operand::Place(self.define(cx, span, |dst| IrStmtKind::LoadProp {
                    dst,
                    obj: obj.clone(),
                    prop: prop.clone(),
                }))
            }
        }
    }

    /// Emits the write of `value` to a target.
    fn write(&mut self, cx: &mut FnCtx, t: Target, value: Operand, span: Span) {
        let kind = match t {
            Target::Var(dst) => IrStmtKind::Copy { dst, src: value },
            Target::Prop { obj, prop } => IrStmtKind::StoreProp { obj, prop, value },
        };
        self.emit(cx, kind, span);
    }

    /// Lowers the arguments, then emits the call (a construction, with
    /// `is_new`) and its `CallResult`, and returns the result.
    fn call(
        &mut self,
        cx: &mut FnCtx,
        callee: Operand,
        this: Option<Operand>,
        args: &'a [ast::Expr],
        is_new: bool,
        span: Span,
    ) -> Operand {
        let args: Vec<Operand> = args.iter().map(|a| self.lower_expr(cx, a)).collect();
        let dst = self.define(cx, span, |dst| IrStmtKind::Call {
            dst,
            callee,
            this,
            args,
            is_new,
        });
        self.emit(cx, IrStmtKind::CallResult { dst: dst.clone() }, span);
        Operand::Place(dst)
    }

    /// Lowers an expression, returning the operand holding its value.
    fn lower_expr(&mut self, cx: &mut FnCtx, expr: &'a ast::Expr) -> Operand {
        use ast::ExprKind::*;
        let span = expr.span;
        match &expr.kind {
            Num(n) => Operand::Num(*n),
            Str(s) => Operand::Str(s.clone()),
            Bool(b) => Operand::Bool(*b),
            Null => Operand::Null,
            This => Operand::This,
            Ident(name) => {
                if name == "undefined" {
                    return Operand::Undefined;
                }
                Operand::Place(self.resolve(cx.func, name))
            }
            Regex(pat) => Operand::Place(self.define(cx, span, |dst| IrStmtKind::NewRegex {
                dst,
                pattern: pat.clone(),
            })),
            Array(elems) => {
                let dst = self.define(cx, span, |dst| IrStmtKind::NewArray { dst });
                for (i, e) in elems.iter().enumerate() {
                    if let Some(e) = e {
                        let v = self.lower_expr(cx, e);
                        self.emit(
                            cx,
                            IrStmtKind::StoreProp {
                                obj: Operand::Place(dst.clone()),
                                prop: Operand::Str(i.to_string()),
                                value: v,
                            },
                            span,
                        );
                    }
                }
                // length
                self.emit(
                    cx,
                    IrStmtKind::StoreProp {
                        obj: Operand::Place(dst.clone()),
                        prop: Operand::Str("length".into()),
                        value: Operand::Num(elems.len() as f64),
                    },
                    span,
                );
                Operand::Place(dst)
            }
            Object(props) => {
                let dst = self.define(cx, span, |dst| IrStmtKind::NewObject { dst });
                for (key, value) in props {
                    let v = self.lower_expr(cx, value);
                    self.emit(
                        cx,
                        IrStmtKind::StoreProp {
                            obj: Operand::Place(dst.clone()),
                            prop: Operand::Str(key.as_string()),
                            value: v,
                        },
                        span,
                    );
                }
                Operand::Place(dst)
            }
            Function(f) => {
                let ir = self.ir_id_for(f, cx.func);
                Operand::Place(self.define(cx, span, |dst| IrStmtKind::Lambda { dst, func: ir }))
            }
            Unary {
                op: ast::UnaryOp::Delete,
                arg,
            } => {
                if let Member { obj, prop } = &arg.kind {
                    let (obj, prop) = self.member(cx, obj, prop);
                    self.emit(cx, IrStmtKind::DeleteProp { obj, prop }, span);
                }
                Operand::Bool(true)
            }
            Unary { op, arg } => {
                let src = self.lower_expr(cx, arg);
                Operand::Place(self.define(cx, span, |dst| match op {
                    ast::UnaryOp::Typeof => IrStmtKind::Typeof { dst, src },
                    _ => IrStmtKind::UnOp { dst, op: *op, src },
                }))
            }
            Binary { op, left, right } => {
                let l = self.lower_expr(cx, left);
                let r = self.lower_expr(cx, right);
                Operand::Place(self.define(cx, span, |dst| IrStmtKind::BinOp {
                    dst,
                    op: *op,
                    left: l,
                    right: r,
                }))
            }
            Logical {
                is_and,
                left,
                right,
            } => {
                // r = left; branch r { taken: r = right }
                let l = self.lower_expr(cx, left);
                let r = self.define(cx, span, |dst| IrStmtKind::Copy { dst, src: l });
                let (eval_edge, skip_edge) = if *is_and {
                    (EdgeKind::BranchTrue, EdgeKind::BranchFalse)
                } else {
                    (EdgeKind::BranchFalse, EdgeKind::BranchTrue)
                };
                let br = self.branch(cx, Operand::Place(r.clone()), span, eval_edge);
                let rv = self.lower_expr(cx, right);
                self.emit(
                    cx,
                    IrStmtKind::Copy {
                        dst: r.clone(),
                        src: rv,
                    },
                    span,
                );
                cx.pending.push((br, skip_edge));
                Operand::Place(r)
            }
            Assign { op, target, value } => {
                let Some(t) = self.target(cx, target) else {
                    return Operand::Undefined;
                };
                let rhs = match op {
                    None => self.lower_expr(cx, value),
                    Some(op) => {
                        let cur = self.read(cx, &t, span);
                        let v = self.lower_expr(cx, value);
                        Operand::Place(self.define(cx, span, |dst| IrStmtKind::BinOp {
                            dst,
                            op: *op,
                            left: cur,
                            right: v,
                        }))
                    }
                };
                // A variable assignment's value is the variable; a
                // property assignment's is the assigned value.
                let result = match &t {
                    Target::Var(place) => Operand::Place(place.clone()),
                    Target::Prop { .. } => rhs.clone(),
                };
                self.write(cx, t, rhs, span);
                result
            }
            Update { inc, prefix, arg } => {
                let Some(t) = self.target(cx, arg) else {
                    return Operand::Undefined;
                };
                // old = +x (numeric coercion); new = old ± 1; x = new
                let cur = self.read(cx, &t, span);
                let old = self.define(cx, span, |dst| IrStmtKind::UnOp {
                    dst,
                    op: ast::UnaryOp::Pos,
                    src: cur,
                });
                let op = if *inc { BinaryOp::Add } else { BinaryOp::Sub };
                let new = self.define(cx, span, |dst| IrStmtKind::BinOp {
                    dst,
                    op,
                    left: Operand::Place(old.clone()),
                    right: Operand::Num(1.0),
                });
                self.write(cx, t, Operand::Place(new.clone()), span);
                Operand::Place(if *prefix { new } else { old })
            }
            Cond { test, cons, alt } => {
                let c = self.lower_expr(cx, test);
                let br = self.branch(cx, c, span, EdgeKind::BranchTrue);
                let r = self.temp(cx.func);
                let cv = self.lower_expr(cx, cons);
                self.emit(
                    cx,
                    IrStmtKind::Copy {
                        dst: r.clone(),
                        src: cv,
                    },
                    span,
                );
                let after_cons = std::mem::take(&mut cx.pending);
                cx.pending.push((br, EdgeKind::BranchFalse));
                let av = self.lower_expr(cx, alt);
                self.emit(
                    cx,
                    IrStmtKind::Copy {
                        dst: r.clone(),
                        src: av,
                    },
                    span,
                );
                cx.pending.extend(after_cons);
                Operand::Place(r)
            }
            Call { callee, args } => match &callee.kind {
                Member { obj, prop } => {
                    let (obj, prop) = self.member(cx, obj, prop);
                    let f = self.define(cx, span, |dst| IrStmtKind::LoadProp {
                        dst,
                        obj: obj.clone(),
                        prop,
                    });
                    self.call(cx, Operand::Place(f), Some(obj), args, false, span)
                }
                _ => {
                    let f = self.lower_expr(cx, callee);
                    self.call(cx, f, None, args, false, span)
                }
            },
            New { callee, args } => {
                let f = self.lower_expr(cx, callee);
                self.call(cx, f, None, args, true, span)
            }
            Member { obj, prop } => {
                let (obj, prop) = self.member(cx, obj, prop);
                Operand::Place(self.define(cx, span, |dst| IrStmtKind::LoadProp { dst, obj, prop }))
            }
            Seq(es) => {
                let mut last = Operand::Undefined;
                for e in es {
                    last = self.lower_expr(cx, e);
                }
                last
            }
        }
    }
}

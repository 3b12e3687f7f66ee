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
use jsparser::ast::{self, FunId};
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
        fun_map: HashMap::new(),
        ast_funs: HashMap::new(),
        queue: Vec::new(),
        deferred_returns: Vec::new(),
        deferred_uncaught: Vec::new(),
    };
    collect_ast_funs(&ast.body, &mut lw.ast_funs);

    // Top-level pseudo-function.
    let top = lw.new_func(None, "<top-level>", &[], None);
    debug_assert_eq!(top, IrFuncId::TOP_LEVEL);
    lw.lower_function_body(top, &ast.body, opts.event_loop);

    // Lower queued (nested) functions until done.
    while let Some((ir_id, fun_id)) = lw.queue.pop() {
        let fun = lw.ast_funs[&fun_id];
        lw.lower_function_body(ir_id, &fun.body, false);
    }

    let event_dispatch = lw
        .stmts
        .iter()
        .find(|s| matches!(s.kind, IrStmtKind::EventDispatch))
        .map(|s| s.id);
    lw.cfg.ensure_nodes(lw.stmts.len());
    Lowered {
        program: IrProgram {
            funcs: lw.funcs,
            stmts: lw.stmts,
        },
        cfg: lw.cfg,
        event_dispatch,
    }
}

/// Collects every function literal in the AST, keyed by [`FunId`].
fn collect_ast_funs<'a>(body: &'a [ast::Stmt], out: &mut HashMap<FunId, &'a ast::Function>) {
    struct V<'a, 'b> {
        out: &'b mut HashMap<FunId, &'a ast::Function>,
    }
    impl<'a> V<'a, '_> {
        fn fun(&mut self, f: &'a ast::Function) {
            self.out.insert(f.id, f);
            self.stmts(&f.body);
        }
        fn stmts(&mut self, body: &'a [ast::Stmt]) {
            for s in body {
                self.stmt(s);
            }
        }
        fn stmt(&mut self, s: &'a ast::Stmt) {
            use ast::StmtKind::*;
            match &s.kind {
                Expr(e) => self.expr(e),
                VarDecl(ds) => {
                    for d in ds {
                        if let Some(e) = &d.init {
                            self.expr(e);
                        }
                    }
                }
                FunDecl(f) => self.fun(f),
                If { cond, cons, alt } => {
                    self.expr(cond);
                    self.stmt(cons);
                    if let Some(a) = alt {
                        self.stmt(a);
                    }
                }
                While { cond, body } => {
                    self.expr(cond);
                    self.stmt(body);
                }
                DoWhile { body, cond } => {
                    self.stmt(body);
                    self.expr(cond);
                }
                For {
                    init,
                    test,
                    update,
                    body,
                } => {
                    if let Some(i) = init {
                        self.stmt(i);
                    }
                    if let Some(t) = test {
                        self.expr(t);
                    }
                    if let Some(u) = update {
                        self.expr(u);
                    }
                    self.stmt(body);
                }
                ForIn {
                    target, obj, body, ..
                } => {
                    self.expr(target);
                    self.expr(obj);
                    self.stmt(body);
                }
                Return(e) => {
                    if let Some(e) = e {
                        self.expr(e);
                    }
                }
                Throw(e) => self.expr(e),
                Try {
                    block,
                    catch,
                    finally,
                } => {
                    self.stmts(block);
                    if let Some((_, b)) = catch {
                        self.stmts(b);
                    }
                    if let Some(b) = finally {
                        self.stmts(b);
                    }
                }
                Switch { disc, cases } => {
                    self.expr(disc);
                    for c in cases {
                        if let Some(t) = &c.test {
                            self.expr(t);
                        }
                        self.stmts(&c.body);
                    }
                }
                Block(b) => self.stmts(b),
                Labeled(_, s) => self.stmt(s),
                Break(_) | Continue(_) | Empty => {}
            }
        }
        fn expr(&mut self, e: &'a ast::Expr) {
            use ast::ExprKind::*;
            match &e.kind {
                Function(f) => self.fun(f),
                Array(es) => {
                    for e in es.iter().flatten() {
                        self.expr(e);
                    }
                }
                Object(ps) => {
                    for (_, v) in ps {
                        self.expr(v);
                    }
                }
                Unary { arg, .. } | Update { arg, .. } => self.expr(arg),
                Binary { left, right, .. } | Logical { left, right, .. } => {
                    self.expr(left);
                    self.expr(right);
                }
                Assign { target, value, .. } => {
                    self.expr(target);
                    self.expr(value);
                }
                Cond { test, cons, alt } => {
                    self.expr(test);
                    self.expr(cons);
                    self.expr(alt);
                }
                Call { callee, args } | New { callee, args } => {
                    self.expr(callee);
                    for a in args {
                        self.expr(a);
                    }
                }
                Member { obj, prop } => {
                    self.expr(obj);
                    if let ast::MemberProp::Computed(p) = prop {
                        self.expr(p);
                    }
                }
                Seq(es) => {
                    for e in es {
                        self.expr(e);
                    }
                }
                Ident(_) | Num(_) | Str(_) | Bool(_) | Null | This | Regex(_) => {}
            }
        }
    }
    V { out }.stmts(body);
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

struct Lowerer<'a> {
    funcs: Vec<IrFunc>,
    stmts: Vec<IrStmt>,
    cfg: Cfg,
    /// Symbol table per function: name -> slot.
    symtabs: Vec<HashMap<String, u32>>,
    /// AST FunId -> IR function id.
    fun_map: HashMap<FunId, IrFuncId>,
    /// AST FunId -> AST node.
    ast_funs: HashMap<FunId, &'a ast::Function>,
    /// Functions whose bodies still need lowering.
    queue: Vec<(IrFuncId, FunId)>,
    /// `return` statements awaiting an edge to their function's exit.
    deferred_returns: Vec<(IrFuncId, StmtId)>,
    /// Uncaught `throw` statements awaiting an Uncaught edge to the exit.
    deferred_uncaught: Vec<(IrFuncId, StmtId)>,
}

/// Per-function lowering state.
struct FnCtx {
    func: IrFuncId,
    pending: Pending,
    loops: Vec<LoopCtx>,
    handlers: Vec<StmtId>,
    /// Labels seen on the way down to the next loop/switch statement.
    pending_labels: Vec<String>,
}

impl<'a> Lowerer<'a> {
    fn new_func(
        &mut self,
        ast_id: Option<FunId>,
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
        if ast_id.is_some() && !name.is_empty() && !symtab.contains_key(name) {
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

    /// Gets or creates the IR id for an AST function, enqueueing its body.
    fn ir_id_for(&mut self, fun_id: FunId, parent: IrFuncId) -> IrFuncId {
        if let Some(id) = self.fun_map.get(&fun_id) {
            return *id;
        }
        let fun = self.ast_funs[&fun_id];
        let name = fun.name.as_ref().map(|n| n.name.as_str()).unwrap_or("");
        let id = self.new_func(Some(fun_id), name, &fun.params, Some(parent));
        self.fun_map.insert(fun_id, id);
        self.queue.push((id, fun_id));
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
        };
        let entry = self.emit(&mut cx, IrStmtKind::Enter, Span::default());
        // Hoisted function declarations initialize their names at entry.
        for f in fun_decls {
            let ir = self.ir_id_for(f.id, func);
            let name = f.name.as_ref().expect("fun decls are named");
            let dst = self.resolve(func, &name.name);
            self.emit(&mut cx, IrStmtKind::Lambda { dst, func: ir }, f.span);
        }
        for s in body {
            self.lower_stmt(&mut cx, s);
        }

        let mut dispatch = None;
        if event_loop {
            // header: h = havoc; branch h { true -> dispatch -> header }
            let hv = self.temp(func);
            let header = self.emit(
                &mut cx,
                IrStmtKind::Havoc { dst: hv.clone() },
                Span::default(),
            );
            let br = self.emit(
                &mut cx,
                IrStmtKind::Branch {
                    cond: Operand::Place(hv),
                },
                Span::default(),
            );
            cx.pending.clear();
            cx.pending.push((br, EdgeKind::BranchTrue));
            let d = self.emit(&mut cx, IrStmtKind::EventDispatch, Span::default());
            dispatch = Some(d);
            // Loop back.
            for (from, kind) in cx.pending.drain(..) {
                self.cfg.add_edge(from, header, kind);
            }
            cx.pending.push((br, EdgeKind::BranchFalse));
        }

        let exit = self.emit(&mut cx, IrStmtKind::Exit, Span::default());
        cx.pending.clear();
        // Resolve deferred return / uncaught-throw edges for this function.
        for (f, s) in std::mem::take(&mut self.deferred_returns) {
            if f == func {
                self.cfg.add_edge(s, exit, EdgeKind::Return);
            } else {
                self.deferred_returns.push((f, s));
            }
        }
        for (f, s) in std::mem::take(&mut self.deferred_uncaught) {
            if f == func {
                self.cfg.add_edge(s, exit, EdgeKind::Uncaught);
            } else {
                self.deferred_uncaught.push((f, s));
            }
        }
        let f = &mut self.funcs[func.0 as usize];
        f.entry = entry;
        f.exit = exit;
        let _ = dispatch;
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
                let br = self.emit(cx, IrStmtKind::Branch { cond: c }, span);
                cx.pending.clear();
                cx.pending.push((br, EdgeKind::BranchTrue));
                self.lower_stmt(cx, cons);
                let after_cons = std::mem::take(&mut cx.pending);
                cx.pending.push((br, EdgeKind::BranchFalse));
                if let Some(alt) = alt {
                    self.lower_stmt(cx, alt);
                }
                cx.pending.extend(after_cons);
            }
            While { cond, body } => {
                let labels = std::mem::take(&mut cx.pending_labels);
                let header = self.emit(cx, IrStmtKind::Nop("while-header"), span);
                let c = self.lower_expr(cx, cond);
                let br = self.emit(cx, IrStmtKind::Branch { cond: c }, span);
                cx.pending.clear();
                cx.pending.push((br, EdgeKind::BranchTrue));
                cx.loops.push(LoopCtx {
                    labels,
                    breaks: Vec::new(),
                    continues: Some(ContinueSink::Target(header)),
                    is_breakable: true,
                });
                self.lower_stmt(cx, body);
                // Back edge.
                for (from, kind) in cx.pending.drain(..) {
                    self.cfg.add_edge(from, header, kind);
                }
                let ctx = cx.loops.pop().expect("loop ctx");
                cx.pending.push((br, EdgeKind::BranchFalse));
                cx.pending.extend(ctx.breaks);
            }
            DoWhile { body, cond } => {
                let labels = std::mem::take(&mut cx.pending_labels);
                let header = self.emit(cx, IrStmtKind::Nop("do-header"), span);
                cx.loops.push(LoopCtx {
                    labels,
                    breaks: Vec::new(),
                    continues: Some(ContinueSink::Collect(Vec::new())),
                    is_breakable: true,
                });
                self.lower_stmt(cx, body);
                // `continue` lands at the condition evaluation.
                let idx = cx.loops.len() - 1;
                if let Some(ContinueSink::Collect(edges)) = cx.loops[idx].continues.take() {
                    cx.pending.extend(edges);
                }
                let c = self.lower_expr(cx, cond);
                let br = self.emit(cx, IrStmtKind::Branch { cond: c }, span);
                cx.pending.clear();
                self.cfg.add_edge(br, header, EdgeKind::BranchTrue);
                let ctx = cx.loops.pop().expect("loop ctx");
                cx.pending.push((br, EdgeKind::BranchFalse));
                cx.pending.extend(ctx.breaks);
            }
            For {
                init,
                test,
                update,
                body,
            } => {
                let labels = std::mem::take(&mut cx.pending_labels);
                if let Some(init) = init {
                    self.lower_stmt(cx, init);
                }
                let header = self.emit(cx, IrStmtKind::Nop("for-header"), span);
                let br = test.as_ref().map(|t| {
                    let c = self.lower_expr(cx, t);
                    let br = self.emit(cx, IrStmtKind::Branch { cond: c }, span);
                    cx.pending.clear();
                    cx.pending.push((br, EdgeKind::BranchTrue));
                    br
                });
                cx.loops.push(LoopCtx {
                    labels,
                    breaks: Vec::new(),
                    continues: Some(ContinueSink::Collect(Vec::new())),
                    is_breakable: true,
                });
                self.lower_stmt(cx, body);
                // `continue` lands at the update expression.
                let idx = cx.loops.len() - 1;
                if let Some(ContinueSink::Collect(edges)) = cx.loops[idx].continues.take() {
                    cx.pending.extend(edges);
                }
                if let Some(update) = update {
                    self.lower_expr(cx, update);
                }
                for (from, kind) in cx.pending.drain(..) {
                    self.cfg.add_edge(from, header, kind);
                }
                let ctx = cx.loops.pop().expect("loop ctx");
                if let Some(br) = br {
                    cx.pending.push((br, EdgeKind::BranchFalse));
                }
                cx.pending.extend(ctx.breaks);
            }
            ForIn {
                target, obj, body, ..
            } => {
                let labels = std::mem::take(&mut cx.pending_labels);
                let o = self.lower_expr(cx, obj);
                let hv = self.temp(cx.func);
                let header = self.emit(cx, IrStmtKind::Havoc { dst: hv.clone() }, span);
                let br = self.emit(
                    cx,
                    IrStmtKind::Branch {
                        cond: Operand::Place(hv),
                    },
                    span,
                );
                cx.pending.clear();
                cx.pending.push((br, EdgeKind::BranchTrue));
                // Bind the key.
                match &target.kind {
                    ast::ExprKind::Ident(name) => {
                        let dst = self.resolve(cx.func, name);
                        self.emit(
                            cx,
                            IrStmtKind::ForInNext {
                                dst,
                                obj: o.clone(),
                            },
                            span,
                        );
                    }
                    ast::ExprKind::Member { obj: mo, prop } => {
                        let key = self.temp(cx.func);
                        self.emit(
                            cx,
                            IrStmtKind::ForInNext {
                                dst: key.clone(),
                                obj: o.clone(),
                            },
                            span,
                        );
                        let mo = self.lower_expr(cx, mo);
                        let p = self.lower_member_prop(cx, prop);
                        self.emit(
                            cx,
                            IrStmtKind::StoreProp {
                                obj: mo,
                                prop: p,
                                value: Operand::Place(match &key {
                                    Place::Var(v) => Place::Var(*v),
                                    Place::Global(g) => Place::Global(g.clone()),
                                }),
                            },
                            span,
                        );
                    }
                    _ => {
                        // Parser guarantees assign targets only.
                        let dst = self.temp(cx.func);
                        self.emit(
                            cx,
                            IrStmtKind::ForInNext {
                                dst,
                                obj: o.clone(),
                            },
                            span,
                        );
                    }
                }
                cx.loops.push(LoopCtx {
                    labels,
                    breaks: Vec::new(),
                    continues: Some(ContinueSink::Target(header)),
                    is_breakable: true,
                });
                self.lower_stmt(cx, body);
                for (from, kind) in cx.pending.drain(..) {
                    self.cfg.add_edge(from, header, kind);
                }
                let ctx = cx.loops.pop().expect("loop ctx");
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
                self.deferred_returns.push((cx.func, r));
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
                let t = self.emit(cx, IrStmtKind::Throw { value: v }, span);
                cx.pending.clear();
                match cx.handlers.last() {
                    Some(h) => self.cfg.add_edge(t, *h, EdgeKind::ThrowExplicit),
                    None => self.deferred_uncaught.push((cx.func, t)),
                }
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
                let is_loop_or_switch = matches!(
                    body.kind,
                    While { .. }
                        | DoWhile { .. }
                        | For { .. }
                        | ForIn { .. }
                        | Switch { .. }
                        | Labeled(..)
                );
                if is_loop_or_switch {
                    // The loop/switch consumes the accumulated labels into
                    // its own context, so `continue label` works.
                    cx.pending_labels.push(label.name.clone());
                    self.lower_stmt(cx, body);
                    cx.pending_labels.clear();
                } else {
                    let mut labels = std::mem::take(&mut cx.pending_labels);
                    labels.push(label.name.clone());
                    cx.loops.push(LoopCtx {
                        labels,
                        breaks: Vec::new(),
                        continues: None,
                        is_breakable: false,
                    });
                    self.lower_stmt(cx, body);
                    let ctx = cx.loops.pop().expect("label ctx");
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
        match catch {
            Some((param, catch_body)) => {
                // Emit the catch landing pad first (disconnected) so the
                // try-block statements can reference it as their handler.
                let saved_pending = std::mem::take(&mut cx.pending);
                let dst = self.resolve(cx.func, &param.name);
                let pad = self.emit(cx, IrStmtKind::CatchBind { dst }, param.span);
                // The pad emission left a pending edge; stash it.
                cx.pending.clear();
                cx.pending = saved_pending;

                cx.handlers.push(pad);
                self.lower_stmts(cx, block);
                cx.handlers.pop();
                let normal_exit = std::mem::take(&mut cx.pending);

                // Lower the catch body starting from the pad.
                cx.pending.push((pad, EdgeKind::Seq));
                self.lower_stmts(cx, catch_body);
                cx.pending.extend(normal_exit);

                if let Some(fin) = finally {
                    self.lower_stmts(cx, fin);
                }
                let _ = span;
            }
            None => {
                // try/finally without catch: exceptions run the finally
                // then propagate. We lower the finally twice: once on the
                // normal path, once on the exceptional path.
                let fin = finally.as_ref().expect("parser enforces catch|finally");
                let saved_pending = std::mem::take(&mut cx.pending);
                let pad = self.emit(cx, IrStmtKind::Nop("finally-pad"), span);
                cx.pending.clear();
                cx.pending = saved_pending;

                cx.handlers.push(pad);
                self.lower_stmts(cx, block);
                cx.handlers.pop();
                let normal_exit = std::mem::take(&mut cx.pending);

                // Exceptional copy of the finally, then rethrow.
                cx.pending.push((pad, EdgeKind::Seq));
                self.lower_stmts(cx, fin);
                let rethrow = self.emit(
                    cx,
                    IrStmtKind::Throw {
                        value: Operand::Undefined,
                    },
                    span,
                );
                cx.pending.clear();
                match cx.handlers.last() {
                    Some(h) => self.cfg.add_edge(rethrow, *h, EdgeKind::ThrowExplicit),
                    None => self.deferred_uncaught.push((cx.func, rethrow)),
                }

                // Normal copy.
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
        let labels = std::mem::take(&mut cx.pending_labels);
        let d = self.lower_expr(cx, disc);
        // Chain of tests; collect the branch-true edge per case.
        let mut case_entries: Vec<(usize, Pending)> = Vec::new();
        for (i, case) in cases.iter().enumerate() {
            if let Some(test) = &case.test {
                let t = self.lower_expr(cx, test);
                let cmp = self.temp(cx.func);
                self.emit(
                    cx,
                    IrStmtKind::BinOp {
                        dst: cmp.clone(),
                        op: BinaryOp::StrictEq,
                        left: d.clone(),
                        right: t,
                    },
                    span,
                );
                let br = self.emit(
                    cx,
                    IrStmtKind::Branch {
                        cond: Operand::Place(cmp),
                    },
                    span,
                );
                cx.pending.clear();
                case_entries.push((i, vec![(br, EdgeKind::BranchTrue)]));
                cx.pending.push((br, EdgeKind::BranchFalse));
            }
        }
        // All tests failed: go to default if present, else past the switch.
        let default_idx = cases.iter().position(|c| c.test.is_none());
        let no_match_pending = std::mem::take(&mut cx.pending);
        if let Some(di) = default_idx {
            case_entries.push((di, no_match_pending));
        } else {
            cx.pending = no_match_pending; // falls past the switch
        }
        let fallthrough_tail = std::mem::take(&mut cx.pending);

        cx.loops.push(LoopCtx {
            labels,
            breaks: Vec::new(),
            continues: None,
            is_breakable: true,
        });
        // Bodies in source order; fallthrough connects them.
        for (i, case) in cases.iter().enumerate() {
            // Incoming: previous body fallthrough (already in pending) plus
            // any matching test edges.
            for (ci, edges) in &case_entries {
                if *ci == i {
                    cx.pending.extend(edges.iter().copied());
                }
            }
            if cx.pending.is_empty() && case.body.is_empty() {
                continue;
            }
            self.emit(cx, IrStmtKind::Nop("case"), span);
            self.lower_stmts(cx, &case.body);
        }
        let ctx = cx.loops.pop().expect("switch ctx");
        cx.pending.extend(ctx.breaks);
        cx.pending.extend(fallthrough_tail);
    }

    fn lower_member_prop(&mut self, cx: &mut FnCtx, prop: &'a ast::MemberProp) -> Operand {
        match prop {
            ast::MemberProp::Static(name) => Operand::Str(name.clone()),
            ast::MemberProp::Computed(e) => self.lower_expr(cx, e),
        }
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
            Regex(pat) => {
                let dst = self.temp(cx.func);
                self.emit(
                    cx,
                    IrStmtKind::NewRegex {
                        dst: dst.clone(),
                        pattern: pat.clone(),
                    },
                    span,
                );
                Operand::Place(dst)
            }
            Array(elems) => {
                let dst = self.temp(cx.func);
                self.emit(cx, IrStmtKind::NewArray { dst: dst.clone() }, span);
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
                let dst = self.temp(cx.func);
                self.emit(cx, IrStmtKind::NewObject { dst: dst.clone() }, span);
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
                let ir = self.ir_id_for(f.id, cx.func);
                let dst = self.temp(cx.func);
                self.emit(
                    cx,
                    IrStmtKind::Lambda {
                        dst: dst.clone(),
                        func: ir,
                    },
                    span,
                );
                Operand::Place(dst)
            }
            Unary { op, arg } => match op {
                ast::UnaryOp::Delete => {
                    if let Member { obj, prop } = &arg.kind {
                        let o = self.lower_expr(cx, obj);
                        let p = self.lower_member_prop(cx, prop);
                        self.emit(cx, IrStmtKind::DeleteProp { obj: o, prop: p }, span);
                    }
                    Operand::Bool(true)
                }
                ast::UnaryOp::Typeof => {
                    let v = self.lower_expr(cx, arg);
                    let dst = self.temp(cx.func);
                    self.emit(
                        cx,
                        IrStmtKind::Typeof {
                            dst: dst.clone(),
                            src: v,
                        },
                        span,
                    );
                    Operand::Place(dst)
                }
                _ => {
                    let v = self.lower_expr(cx, arg);
                    let dst = self.temp(cx.func);
                    self.emit(
                        cx,
                        IrStmtKind::UnOp {
                            dst: dst.clone(),
                            op: *op,
                            src: v,
                        },
                        span,
                    );
                    Operand::Place(dst)
                }
            },
            Binary { op, left, right } => {
                let l = self.lower_expr(cx, left);
                let r = self.lower_expr(cx, right);
                let dst = self.temp(cx.func);
                self.emit(
                    cx,
                    IrStmtKind::BinOp {
                        dst: dst.clone(),
                        op: *op,
                        left: l,
                        right: r,
                    },
                    span,
                );
                Operand::Place(dst)
            }
            Logical {
                is_and,
                left,
                right,
            } => {
                // r = left; branch r { taken: r = right }
                let l = self.lower_expr(cx, left);
                let r = self.temp(cx.func);
                self.emit(
                    cx,
                    IrStmtKind::Copy {
                        dst: r.clone(),
                        src: l,
                    },
                    span,
                );
                let br = self.emit(
                    cx,
                    IrStmtKind::Branch {
                        cond: Operand::Place(r.clone()),
                    },
                    span,
                );
                cx.pending.clear();
                let (eval_edge, skip_edge) = if *is_and {
                    (EdgeKind::BranchTrue, EdgeKind::BranchFalse)
                } else {
                    (EdgeKind::BranchFalse, EdgeKind::BranchTrue)
                };
                cx.pending.push((br, eval_edge));
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
            Assign { op, target, value } => self.lower_assign(cx, op, target, value, span),
            Update { inc, prefix, arg } => {
                let op = if *inc { BinaryOp::Add } else { BinaryOp::Sub };
                match &arg.kind {
                    Ident(name) => {
                        let place = self.resolve(cx.func, name);
                        let old = self.temp(cx.func);
                        // old = +x (numeric coercion)
                        self.emit(
                            cx,
                            IrStmtKind::UnOp {
                                dst: old.clone(),
                                op: ast::UnaryOp::Pos,
                                src: Operand::Place(place.clone()),
                            },
                            span,
                        );
                        let new = self.temp(cx.func);
                        self.emit(
                            cx,
                            IrStmtKind::BinOp {
                                dst: new.clone(),
                                op,
                                left: Operand::Place(old.clone()),
                                right: Operand::Num(1.0),
                            },
                            span,
                        );
                        self.emit(
                            cx,
                            IrStmtKind::Copy {
                                dst: place,
                                src: Operand::Place(new.clone()),
                            },
                            span,
                        );
                        Operand::Place(if *prefix { new } else { old })
                    }
                    Member { obj, prop } => {
                        let o = self.lower_expr(cx, obj);
                        let p = self.lower_member_prop(cx, prop);
                        let loaded = self.temp(cx.func);
                        self.emit(
                            cx,
                            IrStmtKind::LoadProp {
                                dst: loaded.clone(),
                                obj: o.clone(),
                                prop: p.clone(),
                            },
                            span,
                        );
                        let old = self.temp(cx.func);
                        self.emit(
                            cx,
                            IrStmtKind::UnOp {
                                dst: old.clone(),
                                op: ast::UnaryOp::Pos,
                                src: Operand::Place(loaded),
                            },
                            span,
                        );
                        let new = self.temp(cx.func);
                        self.emit(
                            cx,
                            IrStmtKind::BinOp {
                                dst: new.clone(),
                                op,
                                left: Operand::Place(old.clone()),
                                right: Operand::Num(1.0),
                            },
                            span,
                        );
                        self.emit(
                            cx,
                            IrStmtKind::StoreProp {
                                obj: o,
                                prop: p,
                                value: Operand::Place(new.clone()),
                            },
                            span,
                        );
                        Operand::Place(if *prefix { new } else { old })
                    }
                    _ => Operand::Undefined,
                }
            }
            Cond { test, cons, alt } => {
                let c = self.lower_expr(cx, test);
                let br = self.emit(cx, IrStmtKind::Branch { cond: c }, span);
                cx.pending.clear();
                let r = self.temp(cx.func);
                cx.pending.push((br, EdgeKind::BranchTrue));
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
            Call { callee, args } => {
                let (f, this) = match &callee.kind {
                    Member { obj, prop } => {
                        let o = self.lower_expr(cx, obj);
                        let p = self.lower_member_prop(cx, prop);
                        let f = self.temp(cx.func);
                        self.emit(
                            cx,
                            IrStmtKind::LoadProp {
                                dst: f.clone(),
                                obj: o.clone(),
                                prop: p,
                            },
                            span,
                        );
                        (Operand::Place(f), Some(o))
                    }
                    _ => (self.lower_expr(cx, callee), None),
                };
                let args: Vec<Operand> = args.iter().map(|a| self.lower_expr(cx, a)).collect();
                let dst = self.temp(cx.func);
                self.emit(
                    cx,
                    IrStmtKind::Call {
                        dst: dst.clone(),
                        callee: f,
                        this,
                        args,
                        is_new: false,
                    },
                    span,
                );
                self.emit(cx, IrStmtKind::CallResult { dst: dst.clone() }, span);
                Operand::Place(dst)
            }
            New { callee, args } => {
                let f = self.lower_expr(cx, callee);
                let args: Vec<Operand> = args.iter().map(|a| self.lower_expr(cx, a)).collect();
                let dst = self.temp(cx.func);
                self.emit(
                    cx,
                    IrStmtKind::Call {
                        dst: dst.clone(),
                        callee: f,
                        this: None,
                        args,
                        is_new: true,
                    },
                    span,
                );
                self.emit(cx, IrStmtKind::CallResult { dst: dst.clone() }, span);
                Operand::Place(dst)
            }
            Member { obj, prop } => {
                let o = self.lower_expr(cx, obj);
                let p = self.lower_member_prop(cx, prop);
                let dst = self.temp(cx.func);
                self.emit(
                    cx,
                    IrStmtKind::LoadProp {
                        dst: dst.clone(),
                        obj: o,
                        prop: p,
                    },
                    span,
                );
                Operand::Place(dst)
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

    fn lower_assign(
        &mut self,
        cx: &mut FnCtx,
        op: &Option<BinaryOp>,
        target: &'a ast::Expr,
        value: &'a ast::Expr,
        span: Span,
    ) -> Operand {
        use ast::ExprKind::*;
        match &target.kind {
            Ident(name) => {
                let place = self.resolve(cx.func, name);
                let rhs = match op {
                    None => self.lower_expr(cx, value),
                    Some(op) => {
                        let cur = Operand::Place(place.clone());
                        let v = self.lower_expr(cx, value);
                        let t = self.temp(cx.func);
                        self.emit(
                            cx,
                            IrStmtKind::BinOp {
                                dst: t.clone(),
                                op: *op,
                                left: cur,
                                right: v,
                            },
                            span,
                        );
                        Operand::Place(t)
                    }
                };
                self.emit(
                    cx,
                    IrStmtKind::Copy {
                        dst: place.clone(),
                        src: rhs,
                    },
                    span,
                );
                Operand::Place(place)
            }
            Member { obj, prop } => {
                let o = self.lower_expr(cx, obj);
                let p = self.lower_member_prop(cx, prop);
                let rhs = match op {
                    None => self.lower_expr(cx, value),
                    Some(op) => {
                        let cur = self.temp(cx.func);
                        self.emit(
                            cx,
                            IrStmtKind::LoadProp {
                                dst: cur.clone(),
                                obj: o.clone(),
                                prop: p.clone(),
                            },
                            span,
                        );
                        let v = self.lower_expr(cx, value);
                        let t = self.temp(cx.func);
                        self.emit(
                            cx,
                            IrStmtKind::BinOp {
                                dst: t.clone(),
                                op: *op,
                                left: Operand::Place(cur),
                                right: v,
                            },
                            span,
                        );
                        Operand::Place(t)
                    }
                };
                self.emit(
                    cx,
                    IrStmtKind::StoreProp {
                        obj: o,
                        prop: p,
                        value: rhs.clone(),
                    },
                    span,
                );
                rhs
            }
            _ => Operand::Undefined,
        }
    }
}

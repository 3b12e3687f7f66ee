//! The flat intermediate representation.
//!
//! The AST is lowered to a statement-level IR in which every statement
//! performs at most one variable write or one property write, and reads a
//! bounded set of operands. This mirrors JSAI's notJS intermediate form
//! and is what makes the read/write sets of Section 3 well-defined per
//! statement.

use jsparser::span::Span;
use std::fmt;

/// Identifies a statement globally within an [`IrProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identifies a function within an [`IrProgram`]; id 0 is the top level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IrFuncId(pub u32);

impl IrFuncId {
    /// The top-level pseudo-function.
    pub const TOP_LEVEL: IrFuncId = IrFuncId(0);
}

impl fmt::Display for IrFuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Identifies a variable slot (parameter, named local, or compiler temp)
/// within a specific function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId {
    /// The function owning the slot.
    pub func: IrFuncId,
    /// The slot index within that function's variable table.
    pub index: u32,
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:v{}", self.func, self.index)
    }
}

/// A storage location that a statement can read or write directly.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Place {
    /// A function-scoped variable (possibly captured from an enclosing
    /// function -- compare `var.func` with the statement's function).
    Var(VarId),
    /// A global: a property of the global object.
    Global(String),
}

impl fmt::Display for Place {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Place::Var(v) => write!(f, "{v}"),
            Place::Global(g) => write!(f, "global.{g}"),
        }
    }
}

/// An operand: a place to read from, a literal, or `this`.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// Read a variable or global.
    Place(Place),
    /// Numeric literal.
    Num(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// `null`.
    Null,
    /// `undefined` (also used for elisions and missing values).
    Undefined,
    /// The current `this` binding.
    This,
}

impl Operand {
    /// The place read by this operand, if any.
    pub fn place(&self) -> Option<&Place> {
        match self {
            Operand::Place(p) => Some(p),
            _ => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Place(p) => write!(f, "{p}"),
            Operand::Num(n) => write!(f, "{n}"),
            Operand::Str(s) => write!(f, "{s:?}"),
            Operand::Bool(b) => write!(f, "{b}"),
            Operand::Null => write!(f, "null"),
            Operand::Undefined => write!(f, "undefined"),
            Operand::This => write!(f, "this"),
        }
    }
}

/// Unary operators at the IR level (AST operators minus `delete`, which
/// lowers to [`IrStmtKind::DeleteProp`]).
pub use jsparser::ast::{BinaryOp, UnaryOp};

/// One IR statement.
#[derive(Debug, Clone, PartialEq)]
pub struct IrStmt {
    /// Global id.
    pub id: StmtId,
    /// Owning function.
    pub func: IrFuncId,
    /// Payload.
    pub kind: IrStmtKind,
    /// Source span of the originating AST node.
    pub span: Span,
    /// The innermost enclosing catch-entry statement, if this statement is
    /// inside a `try` block (exceptions jump there).
    pub handler: Option<StmtId>,
}

/// Statement payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum IrStmtKind {
    /// `dst = src`
    Copy {
        /// Destination place.
        dst: Place,
        /// Source operand.
        src: Operand,
    },
    /// `dst = op src`
    UnOp {
        /// Destination place.
        dst: Place,
        /// Operator.
        op: UnaryOp,
        /// Operand.
        src: Operand,
    },
    /// `dst = left op right`
    BinOp {
        /// Destination place.
        dst: Place,
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Operand,
        /// Right operand.
        right: Operand,
    },
    /// `dst = typeof place-or-value` -- distinguished from [`IrStmtKind::UnOp`]
    /// because `typeof x` on an undeclared global must not throw.
    Typeof {
        /// Destination place.
        dst: Place,
        /// Operand.
        src: Operand,
    },
    /// `dst = {}` (allocation site)
    NewObject {
        /// Destination place.
        dst: Place,
    },
    /// `dst = []` (allocation site)
    NewArray {
        /// Destination place.
        dst: Place,
    },
    /// `dst = /pat/` (allocation site)
    NewRegex {
        /// Destination place.
        dst: Place,
        /// The literal text.
        pattern: String,
    },
    /// `dst = function .. {}` -- closure creation (allocation site).
    Lambda {
        /// Destination place.
        dst: Place,
        /// The function being closed over.
        func: IrFuncId,
    },
    /// `dst = obj[prop]`
    LoadProp {
        /// Destination place.
        dst: Place,
        /// The object operand.
        obj: Operand,
        /// The property-name operand.
        prop: Operand,
    },
    /// `obj[prop] = value`
    StoreProp {
        /// The object operand.
        obj: Operand,
        /// The property-name operand.
        prop: Operand,
        /// The stored value.
        value: Operand,
    },
    /// `delete obj[prop]`
    DeleteProp {
        /// The object operand.
        obj: Operand,
        /// The property-name operand.
        prop: Operand,
    },
    /// `dst = callee.call(this, args)` or `dst = new callee(args)`.
    Call {
        /// Destination place for the return value.
        dst: Place,
        /// The callee operand.
        callee: Operand,
        /// Receiver (`None` means global / undefined `this`).
        this: Option<Operand>,
        /// Argument operands.
        args: Vec<Operand>,
        /// True for `new` expressions.
        is_new: bool,
    },
    /// Receives the return value of the immediately preceding
    /// [`IrStmtKind::Call`]. Splitting the call into two PDG nodes keeps
    /// argument data dependences (into the call) separate from
    /// return-value data dependences (out of it), avoiding spurious
    /// arg-to-result flows through a single conflated node.
    CallResult {
        /// Destination place for the return value.
        dst: Place,
    },
    /// Two-way branch on an operand; successors carry
    /// [`EdgeKind::BranchTrue`](crate::cfg::EdgeKind::BranchTrue) /
    /// [`EdgeKind::BranchFalse`](crate::cfg::EdgeKind::BranchFalse) edges.
    Branch {
        /// The condition operand.
        cond: Operand,
    },
    /// `dst = <nondeterministic boolean>`; used for loops whose exit the
    /// analysis cannot decide (for-in, the event loop).
    Havoc {
        /// Destination place.
        dst: Place,
    },
    /// `return value` -- successor edge (to function exit) is non-local
    /// explicit.
    Return {
        /// The returned operand (`undefined` when absent).
        value: Operand,
    },
    /// `throw value` -- successor edge (to handler or uncaught) is
    /// non-local explicit.
    Throw {
        /// The thrown operand.
        value: Operand,
    },
    /// First statement of a catch block; binds the in-flight exception.
    CatchBind {
        /// The catch parameter.
        dst: Place,
    },
    /// `dst = <next enumerated key of obj>` for `for-in` loops.
    ForInNext {
        /// The loop variable.
        dst: Place,
        /// The enumerated object.
        obj: Operand,
    },
    /// Function entry marker.
    Enter,
    /// Function exit marker (join of all returns).
    Exit,
    /// A no-op join/label point; the string describes its role.
    Nop(&'static str),
    /// Synthesized dispatch point of the addon event loop: abstractly
    /// invokes every registered event handler (Section 6.1).
    EventDispatch,
}

/// A variable slot's metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct VarInfo {
    /// Source name; `None` for compiler temporaries.
    pub name: Option<String>,
    /// True for formal parameters.
    pub is_param: bool,
}

/// One lowered function.
#[derive(Debug, Clone)]
pub struct IrFunc {
    /// This function's id.
    pub id: IrFuncId,
    /// Function name for diagnostics.
    pub name: String,
    /// Number of formal parameters (slots `0..param_count`).
    pub param_count: u32,
    /// Variable table: params, then named locals, then temps.
    pub vars: Vec<VarInfo>,
    /// Entry statement ([`IrStmtKind::Enter`]).
    pub entry: StmtId,
    /// Exit statement ([`IrStmtKind::Exit`]).
    pub exit: StmtId,
    /// All statements belonging to this function, in creation order.
    pub stmts: Vec<StmtId>,
    /// The statically enclosing function (`None` for the top level).
    pub parent: Option<IrFuncId>,
}

impl IrFunc {
    /// Looks up a named variable slot.
    pub fn lookup_var(&self, name: &str) -> Option<u32> {
        self.vars
            .iter()
            .position(|v| v.name.as_deref() == Some(name))
            .map(|i| i as u32)
    }
}

/// A whole lowered program: function table plus a global statement pool.
#[derive(Debug, Clone)]
pub struct IrProgram {
    /// All functions; index 0 is the top level.
    pub funcs: Vec<IrFunc>,
    /// All statements, indexed by [`StmtId`].
    pub stmts: Vec<IrStmt>,
}

impl IrProgram {
    /// The statement with the given id.
    pub fn stmt(&self, id: StmtId) -> &IrStmt {
        &self.stmts[id.0 as usize]
    }

    /// The function with the given id.
    pub fn func(&self, id: IrFuncId) -> &IrFunc {
        &self.funcs[id.0 as usize]
    }

    /// The top-level pseudo-function.
    pub fn top_level(&self) -> &IrFunc {
        &self.funcs[0]
    }

    /// Number of statements.
    pub fn stmt_count(&self) -> usize {
        self.stmts.len()
    }

    /// Display name of a variable for diagnostics.
    pub fn var_name(&self, v: VarId) -> String {
        let info = &self.func(v.func).vars[v.index as usize];
        match &info.name {
            Some(n) => n.clone(),
            None => format!("%t{}", v.index),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_impls() {
        let v = VarId {
            func: IrFuncId(2),
            index: 3,
        };
        assert_eq!(v.to_string(), "f2:v3");
        assert_eq!(Place::Global("x".into()).to_string(), "global.x");
        assert_eq!(Operand::Str("a".into()).to_string(), "\"a\"");
        assert_eq!(StmtId(7).to_string(), "s7");
    }
}

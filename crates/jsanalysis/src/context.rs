//! Call-string contexts for context sensitivity.

use jsir::StmtId;
use std::collections::HashMap;
use std::fmt;

/// A k-limited call-string context: the most recent `k` call sites on the
/// abstract call stack. `k` is configurable
/// ([`AnalysisConfig::context_depth`](crate::AnalysisConfig)); the paper's
/// base analysis (JSAI) is context-sensitive in the same style.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Context(Vec<StmtId>);

impl Context {
    /// The empty (top-level) context.
    pub fn root() -> Context {
        Context(Vec::new())
    }

    /// Pushes a call site, truncating to the most recent `k` sites.
    pub fn push(&self, site: StmtId, k: usize) -> Context {
        if k == 0 {
            return Context::root();
        }
        let mut v = self.0.clone();
        v.push(site);
        let start = v.len().saturating_sub(k);
        Context(v.split_off(start))
    }

    /// The call sites, most recent last.
    pub fn sites(&self) -> &[StmtId] {
        &self.0
    }

    /// Depth of the retained call string.
    pub fn depth(&self) -> usize {
        self.0.len()
    }
}

impl fmt::Display for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, s) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "]")
    }
}

/// Dense id of an interned [`Context`]. The interpreter keys everything
/// context-qualified -- worklist entries, abstract states, allocation-site
/// keys, return links, transition edges -- by this `Copy` id instead of
/// cloning call-string vectors, so those keys hash and compare in O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CtxId(pub u32);

impl CtxId {
    /// The id of the root (top-level) context; pre-interned by
    /// [`CtxTable::new`].
    pub const ROOT: CtxId = CtxId(0);
}

impl fmt::Display for CtxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Interner mapping [`Context`]s to dense [`CtxId`]s. One table per
/// analysis run; id 0 is always the root context.
#[derive(Debug)]
pub struct CtxTable {
    map: HashMap<Context, CtxId>,
    ctxs: Vec<Context>,
}

impl CtxTable {
    /// A fresh table with the root context pre-interned as [`CtxId::ROOT`].
    pub fn new() -> CtxTable {
        let mut t = CtxTable {
            map: HashMap::new(),
            ctxs: Vec::new(),
        };
        let root = t.intern(Context::root());
        debug_assert_eq!(root, CtxId::ROOT);
        t
    }

    /// Interns a context.
    pub fn intern(&mut self, ctx: Context) -> CtxId {
        if let Some(&id) = self.map.get(&ctx) {
            return id;
        }
        let id = CtxId(u32::try_from(self.ctxs.len()).expect("context overflow"));
        self.ctxs.push(ctx.clone());
        self.map.insert(ctx, id);
        id
    }

    /// The k-limited push of a call site onto an interned context.
    pub fn push(&mut self, base: CtxId, site: StmtId, k: usize) -> CtxId {
        let ctx = self.get(base).push(site, k);
        self.intern(ctx)
    }

    /// The context behind an id.
    pub fn get(&self, id: CtxId) -> &Context {
        &self.ctxs[id.0 as usize]
    }
}

impl Default for CtxTable {
    fn default() -> Self {
        CtxTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_truncates_to_k() {
        let c = Context::root();
        let c1 = c.push(StmtId(1), 2);
        let c2 = c1.push(StmtId(2), 2);
        let c3 = c2.push(StmtId(3), 2);
        assert_eq!(c3.sites(), &[StmtId(2), StmtId(3)]);
        assert_eq!(c3.depth(), 2);
    }

    #[test]
    fn k_zero_is_context_insensitive() {
        let c = Context::root().push(StmtId(7), 0);
        assert_eq!(c, Context::root());
    }

    #[test]
    fn distinct_call_sites_distinct_contexts() {
        let a = Context::root().push(StmtId(1), 1);
        let b = Context::root().push(StmtId(2), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn display() {
        let c = Context::root().push(StmtId(1), 3).push(StmtId(2), 3);
        assert_eq!(c.to_string(), "[s1,s2]");
    }

    #[test]
    fn table_interns_root_as_zero() {
        let mut t = CtxTable::new();
        assert_eq!(t.intern(Context::root()), CtxId::ROOT);
        assert_eq!(t.get(CtxId::ROOT), &Context::root());
        assert_eq!(t.ctxs.len(), 1);
    }

    #[test]
    fn table_push_is_k_limited_and_canonical() {
        let mut t = CtxTable::new();
        let a = t.push(CtxId::ROOT, StmtId(1), 1);
        let b = t.push(a, StmtId(2), 1);
        // k = 1 keeps only the most recent site, so pushing 2 from any
        // base lands on the same interned context.
        let b2 = t.push(CtxId::ROOT, StmtId(2), 1);
        assert_eq!(b, b2);
        assert_ne!(a, b);
        assert_eq!(t.get(b).sites(), &[StmtId(2)]);
    }
}

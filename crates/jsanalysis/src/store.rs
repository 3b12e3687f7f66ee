//! Allocation-site interning and the internal slots of abstract objects.
//!
//! The abstract machine state at a program point is a [`Heap`], and
//! everything addressable lives in it: ordinary objects, activation
//! frames (making closures sound by construction), the global object,
//! and host objects for the browser environment. Each gets an
//! [`AllocSite`] interned from a structural key, so re-analysis of the
//! same statement in the same context reuses the same abstract address.

use crate::context::CtxId;
use jsdomains::{AValue, AllocSite, Heap, Lattice};
use jsir::{IrFuncId, StmtId};
use std::collections::HashMap;

/// Structural identity of an allocation site. Contexts appear as interned
/// [`CtxId`]s, making the whole key `Copy` and its hash/compare O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SiteKey {
    /// The global object.
    Global,
    /// An activation frame of `func` in a context.
    Frame(IrFuncId, CtxId),
    /// An object allocated by a statement in a context.
    Stmt(StmtId, CtxId),
    /// A host (browser-environment) object, by name.
    Host(&'static str),
    /// An object allocated internally by a native function at a call site.
    NativeAlloc(StmtId, CtxId, &'static str),
    /// The aged (summary) twin of a rotating allocation site: holds the
    /// older instances under recency abstraction. The payload is the
    /// most-recent site's index.
    Aged(u32),
}

/// Interner mapping [`SiteKey`]s to dense [`AllocSite`]s.
#[derive(Debug, Default, Clone)]
pub struct SiteTable {
    map: HashMap<SiteKey, AllocSite>,
    origins: Vec<SiteKey>,
}

impl SiteTable {
    /// An empty table.
    pub fn new() -> SiteTable {
        SiteTable::default()
    }

    /// Interns a key.
    pub fn intern(&mut self, key: SiteKey) -> AllocSite {
        if let Some(&s) = self.map.get(&key) {
            return s;
        }
        let site = AllocSite(self.origins.len() as u32);
        self.origins.push(key);
        self.map.insert(key, site);
        site
    }

    /// The key a site was interned from.
    pub fn origin(&self, site: AllocSite) -> &SiteKey {
        &self.origins[site.0 as usize]
    }

    /// Looks up an existing site without interning.
    pub fn get(&self, key: &SiteKey) -> Option<AllocSite> {
        self.map.get(key).copied()
    }

    /// True if the site is an activation frame of `func` (any context),
    /// following recency aging.
    pub fn is_frame_of(&self, site: AllocSite, func: IrFuncId) -> bool {
        let mut key = self.origin(site);
        loop {
            match key {
                SiteKey::Frame(f, _) => return *f == func,
                SiteKey::Aged(inner) => key = self.origin(AllocSite(*inner)),
                _ => return false,
            }
        }
    }
}

/// Internal slot names used by the analysis.
pub mod slots {
    /// Ancestor frames visible to an activation (its static scope chain).
    pub const CHAIN: &str = "@chain";
    /// Scope chain captured by a closure at its `Lambda` site.
    pub const SCOPE: &str = "@scope";
    /// The `this` binding of an activation.
    pub const THIS: &str = "@this";
    /// Accumulated return value of an activation.
    pub const RET: &str = "@ret";
    /// The in-flight exception value of an activation.
    pub const EXC: &str = "@exc";
    /// The URL a network-request object will communicate with.
    pub const URL: &str = "@url";
    /// Registered event handlers (on the event-registry host object).
    pub const HANDLERS: &str = "@handlers";
}

/// Reads an internal slot of the object at `site` (bottom when the site
/// holds no object or the slot is unset).
pub fn read_slot(heap: &Heap, site: AllocSite, slot: &'static str) -> AValue {
    heap.get(site)
        .map_or_else(AValue::bottom, |o| o.internal_slot(slot))
}

/// Writes an internal slot of the object at `site`: a strong update on a
/// singleton, a join otherwise.
pub fn write_slot(heap: &mut Heap, site: AllocSite, slot: &'static str, value: AValue) {
    if let Some(o) = heap.get_mut(site) {
        o.set_internal_slot(slot, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsdomains::ObjKind;

    #[test]
    fn interning_is_stable() {
        let mut t = SiteTable::new();
        let a = t.intern(SiteKey::Global);
        let b = t.intern(SiteKey::Host("xhr"));
        let a2 = t.intern(SiteKey::Global);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.origin(b), &SiteKey::Host("xhr"));
        assert_eq!(t.origins.len(), 2);
    }

    #[test]
    fn frame_sites_distinguish_contexts() {
        use crate::context::{Context, CtxTable};
        let mut ctxs = CtxTable::new();
        let mut t = SiteTable::new();
        let f = IrFuncId(1);
        let c1 = ctxs.intern(Context::root().push(StmtId(5), 1));
        let c2 = ctxs.intern(Context::root().push(StmtId(9), 1));
        let s1 = t.intern(SiteKey::Frame(f, c1));
        let s2 = t.intern(SiteKey::Frame(f, c2));
        assert_ne!(s1, s2);
        assert!(t.is_frame_of(s1, f));
        assert!(!t.is_frame_of(s1, IrFuncId(2)));
    }

    #[test]
    fn heap_slots() {
        let mut t = SiteTable::new();
        let s = t.intern(SiteKey::Host("frame"));
        let mut heap = Heap::new();
        heap.alloc(s, ObjKind::Host("frame"));
        write_slot(&mut heap, s, slots::RET, AValue::num(1.0));
        assert_eq!(read_slot(&heap, s, slots::RET), AValue::num(1.0));
        assert_eq!(
            read_slot(&heap, s, slots::EXC),
            jsdomains::Lattice::bottom()
        );
    }

    #[test]
    fn heap_join() {
        let mut t = SiteTable::new();
        let s = t.intern(SiteKey::Host("o"));
        let mut a = Heap::new();
        a.alloc(s, ObjKind::Plain);
        let mut b = a.clone();
        write_slot(&mut b, s, slots::RET, AValue::num(2.0));
        assert!(a.join_in_place(&b));
        assert!(!a.join_in_place(&b));
    }
}

//! Abstract objects and the abstract heap.
//!
//! Objects are summarized per allocation site. Property maps keep exact
//! property names separate from an "unknown-key" summary field, which is
//! what lets the analysis produce *strong* (exact) property read/write
//! sets when the property-name string is exact and the site is a
//! singleton -- the precondition for the paper's `datastrong` edges.
//!
//! The heap holds one shared object per site in a dense site-indexed
//! vector. Joining heaps is the base analysis's hot loop, and at a
//! fixpoint most object joins change nothing, so [`Heap::join_in_place`]
//! asks [`AObject::join_would_change`] first and copies a shared object
//! only for a join that changes it. An object's two maps are each one
//! sorted vector ([`SortedMap`]), so that copy is one allocation per map
//! and both the test and the join are one walk over two vectors.

use crate::lattice::Lattice;
use crate::prefix::Pre;
use crate::sorted_map::SortedMap;
use crate::sym::Sym;
use crate::value::{AValue, AllocSite};
use std::fmt;
use std::rc::Rc;

/// Index of an analyzed (addon) function, assigned by the analysis layer.
/// This is deliberately opaque to the domains crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncIndex(pub u32);

impl fmt::Display for FuncIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

/// Identifies a native (browser-provided) function in the analysis's
/// native table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NativeId(pub u32);

/// What kind of object an allocation site produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjKind {
    /// A plain object literal / `new Object()`.
    Plain,
    /// An array literal.
    Array,
    /// A closure over the addon function with the given id.
    Function(FuncIndex),
    /// A browser-native function (e.g. `XMLHttpRequest`, `addEventListener`).
    Native(NativeId),
    /// An `arguments`-like or host container object.
    Host(&'static str),
    /// A regex literal.
    Regex,
}

impl ObjKind {
    /// True if calling this object can run code.
    pub fn is_callable(&self) -> bool {
        matches!(self, ObjKind::Function(_) | ObjKind::Native(_))
    }
}

/// An abstract object: property map plus internal slots.
#[derive(Debug, Clone, PartialEq)]
pub struct AObject {
    /// What the object is.
    pub kind: ObjKind,
    /// Properties under exactly-known (interned) names, in text order.
    pub props: SortedMap<Sym, AValue>,
    /// Join of all values written under non-exact names; `AValue::bottom()`
    /// if no such write happened.
    pub unknown_props: AValue,
    /// Internal slots used by the analysis (scope chains, XHR URLs, ...).
    /// Names are crate-conventions like `"@scope"`.
    pub internal: SortedMap<&'static str, AValue>,
    /// True while the allocation site is known to have produced at most
    /// one concrete object; required for strong property writes.
    pub singleton: bool,
}

impl AObject {
    /// A fresh object of the given kind. Fresh objects are singletons
    /// until the analysis observes re-execution of their allocation site.
    pub fn new(kind: ObjKind) -> AObject {
        AObject {
            kind,
            props: SortedMap::new(),
            unknown_props: AValue::bottom(),
            internal: SortedMap::new(),
            singleton: true,
        }
    }

    /// Reads a property under an abstract name. Returns the value joined
    /// over every property the name may denote; includes `undefined` when
    /// the property may be absent.
    pub fn read_prop(&self, name: &Pre) -> AValue {
        match name {
            Pre::Bot => AValue::bottom(),
            Pre::Exact(k) => {
                let mut v = self
                    .props
                    .get(k)
                    .cloned()
                    .unwrap_or_else(AValue::undef);
                if self.props.contains_key(k) && !self.singleton {
                    // A non-singleton site may also hold values from other
                    // instances; reads stay may-reads.
                    v = v.join(&AValue::undef());
                }
                v.join(&self.unknown_props)
            }
            Pre::Prefix(p) => {
                let mut v = AValue::undef();
                for (k, pv) in self.props.iter() {
                    if k.starts_with(p.as_str()) {
                        v = v.join(pv);
                    }
                }
                v.join(&self.unknown_props)
            }
        }
    }

    /// Writes a property under an abstract name. `strong` requests a
    /// strong update (caller must have verified the site is a singleton
    /// and the name exact); weak writes join.
    pub fn write_prop(&mut self, name: &Pre, value: &AValue, strong: bool) {
        match name {
            Pre::Bot => {}
            Pre::Exact(k) => {
                if strong && self.singleton {
                    self.props.insert(*k, value.clone());
                } else {
                    let slot = self.props.get_or_insert_with(*k, AValue::undef);
                    *slot = slot.join(value);
                }
            }
            Pre::Prefix(_) => {
                // Unknown name: weakly update the summary field and weaken
                // every matching exact property.
                self.unknown_props = self.unknown_props.join(value);
            }
        }
    }

    /// Deletes a property (abstractly: the property may now be absent).
    pub fn delete_prop(&mut self, name: &Pre) {
        if let Pre::Exact(k) = name {
            if self.singleton {
                self.props.remove(k);
                return;
            }
        }
        // Non-exact or non-singleton delete: values may or may not
        // survive; join undefined into possibly-matching slots.
        for (k, v) in self.props.iter_mut() {
            if name.may_be(k) {
                *v = v.join(&AValue::undef());
            }
        }
    }

    /// Marks the object as a summary of multiple concrete objects
    /// (allocation site re-executed). Strong updates stop applying.
    pub fn demote_to_summary(&mut self) {
        self.singleton = false;
    }

    /// Reads an internal slot.
    pub fn internal_slot(&self, name: &'static str) -> AValue {
        self.internal
            .get(&name)
            .cloned()
            .unwrap_or_else(AValue::bottom)
    }

    /// Writes an internal slot (strong on singletons, weak otherwise).
    pub fn set_internal_slot(&mut self, name: &'static str, value: AValue) {
        if self.singleton {
            self.internal.insert(name, value);
        } else {
            let slot = self.internal.get_or_insert_with(name, AValue::bottom);
            *slot = slot.join(&value);
        }
    }

    /// Joins another abstract object into this one (same allocation site,
    /// merging control-flow paths), in one walk over each pair of maps.
    pub fn join_in_place(&mut self, other: &AObject) -> bool {
        debug_assert_eq!(self.kind, other.kind, "same alloc site, same kind");
        let undef = AValue::undef();
        // A prop present on one path only may be absent.
        let mut changed = self.props.merge(
            &other.props,
            AValue::join_in_place,
            |mine| mine.join_in_place(&undef),
            |theirs| theirs.join(&undef),
        );
        changed |= self.unknown_props.join_in_place(&other.unknown_props);
        // Internal slots only here are left alone.
        changed |= self.internal.merge(
            &other.internal,
            AValue::join_in_place,
            |_| false,
            AValue::clone,
        );
        if self.singleton && !other.singleton {
            self.singleton = false;
            changed = true;
        }
        changed
    }

    /// True exactly when [`AObject::join_in_place`] with `other` would
    /// change this object (and so return true). A pure, allocation-free
    /// test, so a caller holding a shared object copies it only for a
    /// join that changes something; at a fixpoint most joins do not.
    pub fn join_would_change(&self, other: &AObject) -> bool {
        (self.singleton && !other.singleton)
            || !other.unknown_props.leq(&self.unknown_props)
            // Props only here may be absent there: they gain `undefined`.
            || map_join_would_change(&self.props, &other.props, |v| !v.undef)
            // Internal slots only here are left alone.
            || map_join_would_change(&self.internal, &other.internal, |_| false)
    }
}

/// Whether joining the map `theirs` into `mine` would change `mine`, by
/// one walk over both key-ordered maps: a key only in `theirs` is
/// inserted, a shared key changes unless `theirs`' value is below
/// `mine`'s, and a key only in `mine` changes when `mine_only` says so.
fn map_join_would_change<K: Ord + Copy>(
    mine: &SortedMap<K, AValue>,
    theirs: &SortedMap<K, AValue>,
    mine_only: impl Fn(&AValue) -> bool,
) -> bool {
    let (mut mine, mut theirs) = (mine.iter(), theirs.iter());
    let (mut m, mut t) = (mine.next(), theirs.next());
    loop {
        match (m, t) {
            (None, None) => return false,
            (None, Some(_)) => return true,
            (Some((_, mv)), None) => {
                if mine_only(mv) {
                    return true;
                }
                m = mine.next();
            }
            (Some((mk, mv)), Some((tk, tv))) => match mk.cmp(tk) {
                std::cmp::Ordering::Less => {
                    if mine_only(mv) {
                        return true;
                    }
                    m = mine.next();
                }
                std::cmp::Ordering::Greater => return true,
                std::cmp::Ordering::Equal => {
                    if !tv.leq(mv) {
                        return true;
                    }
                    m = mine.next();
                    t = theirs.next();
                }
            },
        }
    }
}

impl fmt::Display for AObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}{{", self.kind)?;
        for (i, (k, v)) in self.props.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        write!(f, "}}")?;
        if !self.singleton {
            write!(f, "*")?;
        }
        Ok(())
    }
}

/// The abstract heap: one [`AObject`] per allocation site.
///
/// A dense vector indexed by the run's [`AllocSite`] numbers (the base
/// analysis interns sites densely from 0), `None` where a site has no
/// object in this heap. Objects sit behind [`Rc`]s, so cloning a heap
/// (which the flow-sensitive analysis does at every program point) is
/// one vector copy, and joining two heaps is a zip with no per-site
/// lookups. A heap never leaves the thread of the run that built it,
/// so its counts need no atomics. Mutation goes through
/// [`Rc::make_mut`], copying only the
/// object it touches (copy-on-write); a join first asks
/// [`AObject::join_would_change`] and copies nothing when the answer is
/// no. Iteration is in site order, and equality and `Debug` look only at
/// allocated sites, so trailing empty slots are invisible.
#[derive(Clone, Default)]
pub struct Heap {
    objects: Vec<Option<Rc<AObject>>>,
}

thread_local! {
    /// Objects copied by copy-on-write before a mutation, on this thread.
    /// A thread-local (not a `Heap` field) because the count is a
    /// whole-analysis observability metric: one base-analysis run clones
    /// heaps across thousands of program points, and each `analyze()`
    /// call runs on a single thread. Read it with [`cow_clone_count`].
    static COW_CLONES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Monotonic per-thread count of abstract objects copied by
/// copy-on-write (an `Rc::make_mut` that found its object shared).
/// Callers measure a region by differencing two reads.
pub fn cow_clone_count() -> u64 {
    COW_CLONES.with(|c| c.get())
}

/// Bumps the CoW counter if `make_mut` on this object is about to copy.
fn note_cow(obj: &Rc<AObject>) {
    if Rc::strong_count(obj) > 1 {
        COW_CLONES.with(|c| c.set(c.get() + 1));
    }
}

/// Joins `other` into the shared object `mine`, copying it only when the
/// join changes it. Returns true on change.
fn join_shared(mine: &mut Rc<AObject>, other: &AObject) -> bool {
    if !mine.join_would_change(other) {
        return false;
    }
    note_cow(mine);
    let changed = Rc::make_mut(mine).join_in_place(other);
    debug_assert!(changed, "join_would_change disagrees with join_in_place");
    changed
}

impl Heap {
    /// An empty heap.
    pub fn new() -> Heap {
        Heap::default()
    }

    /// The slot for `site`, growing the vector to hold it.
    fn slot_mut(&mut self, site: AllocSite) -> &mut Option<Rc<AObject>> {
        let i = site.0 as usize;
        if i >= self.objects.len() {
            self.objects.resize(i + 1, None);
        }
        &mut self.objects[i]
    }

    /// Allocates or re-visits an allocation site. On re-visit the existing
    /// object is demoted to a summary and joined with a fresh object.
    pub fn alloc(&mut self, site: AllocSite, kind: ObjKind) -> AllocSite {
        let slot = self.slot_mut(site);
        match slot {
            Some(existing) => {
                // Fresh instance has no props: all existing props may be
                // absent in the new instance. Joining a non-singleton
                // also demotes the existing object to a summary.
                let fresh = AObject {
                    singleton: false,
                    ..AObject::new(existing.kind.clone())
                };
                join_shared(existing, &fresh);
            }
            None => *slot = Some(Rc::new(AObject::new(kind))),
        }
        site
    }

    /// Looks up an object.
    pub fn get(&self, site: AllocSite) -> Option<&AObject> {
        self.objects.get(site.0 as usize)?.as_deref()
    }

    /// Looks up an object mutably (copy-on-write).
    pub fn get_mut(&mut self, site: AllocSite) -> Option<&mut AObject> {
        self.objects.get_mut(site.0 as usize)?.as_mut().map(|obj| {
            note_cow(obj);
            Rc::make_mut(obj)
        })
    }

    /// Iterates over all objects in site order.
    pub fn iter(&self) -> impl Iterator<Item = (AllocSite, &AObject)> {
        self.objects
            .iter()
            .enumerate()
            .filter_map(|(i, obj)| Some((AllocSite(i as u32), &**obj.as_ref()?)))
    }

    /// Number of live abstract objects.
    pub fn len(&self) -> usize {
        self.objects.iter().flatten().count()
    }

    /// True if no object has been allocated.
    pub fn is_empty(&self) -> bool {
        self.objects.iter().all(Option::is_none)
    }

    /// Joins another heap into this one. Returns true if anything changed.
    pub fn join_in_place(&mut self, other: &Heap) -> bool {
        if self.objects.len() < other.objects.len() {
            self.objects.resize(other.objects.len(), None);
        }
        let mut changed = false;
        for (mine, theirs) in self.objects.iter_mut().zip(&other.objects) {
            let Some(theirs) = theirs else { continue };
            match mine {
                // An identical shared object: a no-op join.
                Some(mine) if Rc::ptr_eq(mine, theirs) => {}
                Some(mine) => changed |= join_shared(mine, theirs),
                None => {
                    *mine = Some(Rc::clone(theirs));
                    changed = true;
                }
            }
        }
        changed
    }

    /// Recency aging: moves the object at `from` to `to` (merging into any
    /// existing summary there, demoted to non-singleton) and rewrites every
    /// reference to `from` anywhere in the heap into `to`. Afterwards
    /// `from` is unallocated and may be re-bound to a fresh instance.
    pub fn rename_site(&mut self, from: AllocSite, to: AllocSite) {
        if let Some(mut old) = self.objects.get_mut(from.0 as usize).and_then(Option::take) {
            if old.singleton {
                note_cow(&old);
                Rc::make_mut(&mut old).demote_to_summary();
            }
            match self.slot_mut(to) {
                Some(summary) => {
                    join_shared(summary, &old);
                }
                slot @ None => *slot = Some(old),
            }
        }
        for obj in self.objects.iter_mut().flatten() {
            // Only copy objects that actually hold a reference to `from`.
            let holds = obj.props.values().any(|v| v.objs.contains(&from))
                || obj.unknown_props.objs.contains(&from)
                || obj.internal.values().any(|v| v.objs.contains(&from));
            if !holds {
                continue;
            }
            note_cow(obj);
            let obj = Rc::make_mut(obj);
            for v in obj.props.values_mut() {
                v.rename_site(from, to);
            }
            obj.unknown_props.rename_site(from, to);
            for v in obj.internal.values_mut() {
                v.rename_site(from, to);
            }
        }
    }

    /// Partial-order check against another heap.
    pub fn leq(&self, other: &Heap) -> bool {
        self.iter().all(|(site, mine)| {
            other
                .get(site)
                .is_some_and(|theirs| std::ptr::eq(mine, theirs) || !theirs.join_would_change(mine))
        })
    }
}

impl PartialEq for Heap {
    fn eq(&self, other: &Heap) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Heap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(n: u32) -> AllocSite {
        AllocSite(n)
    }

    #[test]
    fn exact_prop_round_trip() {
        let mut o = AObject::new(ObjKind::Plain);
        o.write_prop(&Pre::exact("url"), &AValue::str("x"), true);
        let v = o.read_prop(&Pre::exact("url"));
        assert_eq!(v, AValue::str("x"));
    }

    #[test]
    fn absent_prop_reads_undefined() {
        let o = AObject::new(ObjKind::Plain);
        assert_eq!(o.read_prop(&Pre::exact("nope")), AValue::undef());
    }

    #[test]
    fn prefix_read_joins_matching_props() {
        let mut o = AObject::new(ObjKind::Plain);
        o.write_prop(&Pre::exact("aa"), &AValue::num(1.0), true);
        o.write_prop(&Pre::exact("ab"), &AValue::num(2.0), true);
        o.write_prop(&Pre::exact("zz"), &AValue::num(9.0), true);
        let v = o.read_prop(&Pre::prefix("a"));
        // May be absent (some string starting with 'a' that isn't a key).
        assert!(v.undef);
        assert_eq!(v.nums, crate::consts::NumDom::Top); // 1.0 join 2.0
        let all = o.read_prop(&Pre::any());
        assert_eq!(all.nums, crate::consts::NumDom::Top);
    }

    #[test]
    fn weak_write_joins() {
        let mut o = AObject::new(ObjKind::Plain);
        o.write_prop(&Pre::exact("p"), &AValue::num(1.0), true);
        o.write_prop(&Pre::exact("p"), &AValue::num(2.0), false);
        let v = o.read_prop(&Pre::exact("p"));
        assert_eq!(v.nums, crate::consts::NumDom::Top);
    }

    #[test]
    fn strong_write_on_summary_degrades_to_weak() {
        let mut o = AObject::new(ObjKind::Plain);
        o.write_prop(&Pre::exact("p"), &AValue::num(1.0), true);
        o.demote_to_summary();
        o.write_prop(&Pre::exact("p"), &AValue::num(2.0), true);
        let v = o.read_prop(&Pre::exact("p"));
        assert_eq!(v.nums, crate::consts::NumDom::Top, "no strong update on summaries");
    }

    #[test]
    fn unknown_name_write_pollutes_reads() {
        let mut o = AObject::new(ObjKind::Plain);
        o.write_prop(&Pre::any(), &AValue::str("secret"), false);
        let v = o.read_prop(&Pre::exact("whatever"));
        assert!(v.may_be_string());
    }

    #[test]
    fn delete_on_singleton_removes() {
        let mut o = AObject::new(ObjKind::Plain);
        o.write_prop(&Pre::exact("p"), &AValue::num(1.0), true);
        o.delete_prop(&Pre::exact("p"));
        assert_eq!(o.read_prop(&Pre::exact("p")), AValue::undef());
    }

    #[test]
    fn delete_on_summary_weakens() {
        let mut o = AObject::new(ObjKind::Plain);
        o.write_prop(&Pre::exact("p"), &AValue::num(1.0), true);
        o.demote_to_summary();
        o.delete_prop(&Pre::exact("p"));
        let v = o.read_prop(&Pre::exact("p"));
        assert!(v.undef && v.nums != crate::consts::NumDom::Bot);
    }

    #[test]
    fn heap_realloc_demotes() {
        let mut h = Heap::new();
        h.alloc(site(0), ObjKind::Plain);
        h.get_mut(site(0))
            .unwrap()
            .write_prop(&Pre::exact("p"), &AValue::num(1.0), true);
        assert!(h.get(site(0)).unwrap().singleton);
        h.alloc(site(0), ObjKind::Plain);
        let o = h.get(site(0)).unwrap();
        assert!(!o.singleton);
        // Old prop may be absent on the fresh instance.
        assert!(o.read_prop(&Pre::exact("p")).undef);
    }

    #[test]
    fn heap_join() {
        let mut a = Heap::new();
        a.alloc(site(0), ObjKind::Plain);
        a.get_mut(site(0))
            .unwrap()
            .write_prop(&Pre::exact("p"), &AValue::num(1.0), true);
        let mut b = Heap::new();
        b.alloc(site(0), ObjKind::Plain);
        b.get_mut(site(0))
            .unwrap()
            .write_prop(&Pre::exact("q"), &AValue::num(2.0), true);
        let mut j = a.clone();
        assert!(j.join_in_place(&b));
        assert!(!j.join_in_place(&b), "idempotent");
        let o = j.get(site(0)).unwrap();
        // p present in a only: may be absent.
        assert!(o.read_prop(&Pre::exact("p")).undef);
        assert!(o.read_prop(&Pre::exact("q")).undef);
        assert!(a.leq(&j) && b.leq(&j));
        assert!(!j.leq(&a));
    }

    #[test]
    fn object_join_prop_sets_differ() {
        let mut a = AObject::new(ObjKind::Plain);
        a.write_prop(&Pre::exact("x"), &AValue::num(1.0), true);
        let b = AObject::new(ObjKind::Plain);
        let mut j = a.clone();
        assert!(j.join_in_place(&b));
        assert!(j.read_prop(&Pre::exact("x")).undef);
    }

    #[test]
    fn internal_slots() {
        let mut o = AObject::new(ObjKind::Host("xhr"));
        o.set_internal_slot("@url", AValue::str("http://a.com"));
        assert_eq!(o.internal_slot("@url"), AValue::str("http://a.com"));
        assert_eq!(o.internal_slot("@missing"), AValue::bottom());
        o.demote_to_summary();
        o.set_internal_slot("@url", AValue::str("http://b.com"));
        let v = o.internal_slot("@url");
        assert_eq!(v.strs, Pre::prefix("http://"));
    }

    #[test]
    fn callable_kinds() {
        assert!(ObjKind::Function(FuncIndex(0)).is_callable());
        assert!(ObjKind::Native(NativeId(0)).is_callable());
        assert!(!ObjKind::Plain.is_callable());
        assert!(!ObjKind::Array.is_callable());
    }

    #[test]
    fn equal_heaps_join_without_copying() {
        // Two heaps built the same way hold equal objects in distinct
        // `Rc`s; `a`'s are also shared with a snapshot, as a fixpoint's
        // stored states share theirs, so a copy-first join would clone.
        let build = || {
            let mut h = Heap::new();
            h.alloc(site(0), ObjKind::Plain);
            h.alloc(site(3), ObjKind::Array);
            h.get_mut(site(0))
                .unwrap()
                .write_prop(&Pre::exact("p"), &AValue::num(1.0), true);
            h
        };
        let (mut a, b) = (build(), build());
        let snapshot = a.clone();
        let before = cow_clone_count();
        assert!(!a.join_in_place(&b));
        assert_eq!(cow_clone_count(), before, "a no-op join copies nothing");
        assert_eq!(a, snapshot);
    }

    #[test]
    fn trailing_empty_slots_are_invisible() {
        let mut a = Heap::new();
        a.alloc(site(0), ObjKind::Plain);
        let mut b = a.clone();
        b.alloc(site(5), ObjKind::Plain);
        b.rename_site(site(5), site(1));
        assert_ne!(a, b);
        a.alloc(site(1), ObjKind::Plain);
        a.get_mut(site(1)).unwrap().demote_to_summary();
        assert_eq!(a, b, "b's empty slots 2..=5 do not count");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn debug_prints_what_the_btree_maps_printed() {
        // The text a `BTreeMap`/`BTreeSet` layout printed for the same
        // object: maps in key order, site sets ascending, three sites
        // (past the inline capacity) included.
        let mut o = AObject::new(ObjKind::Plain);
        let sites = [site(7), site(2), site(5)];
        o.write_prop(&Pre::exact("zeta"), &AValue::objects(sites), true);
        o.write_prop(&Pre::exact("alpha"), &AValue::num(1.0), true);
        o.set_internal_slot("@url", AValue::str("http://a.example/"));
        o.set_internal_slot("@chain", AValue::obj(site(3)));
        let mut h = Heap::new();
        h.alloc(site(2), ObjKind::Plain);
        *h.get_mut(site(2)).unwrap() = o.clone();
        h.alloc(site(0), ObjKind::Array);
        h.get_mut(site(0))
            .unwrap()
            .write_prop(&Pre::prefix("k"), &AValue::undef(), false);
        let bot = "undef: false, null: false, bools: Bot";
        let obj = format!(
            "AObject {{ kind: Plain, props: {{\
             \"alpha\": AValue {{ {bot}, nums: Const(1.0), strs: Bot, objs: {{}} }}, \
             \"zeta\": AValue {{ {bot}, nums: Bot, strs: Bot, \
             objs: {{AllocSite(2), AllocSite(5), AllocSite(7)}} }}}}, \
             unknown_props: AValue {{ {bot}, nums: Bot, strs: Bot, objs: {{}} }}, \
             internal: {{\
             \"@chain\": AValue {{ {bot}, nums: Bot, strs: Bot, objs: {{AllocSite(3)}} }}, \
             \"@url\": AValue {{ {bot}, nums: Bot, strs: Exact(\"http://a.example/\"), \
             objs: {{}} }}}}, singleton: true }}"
        );
        assert_eq!(format!("{o:?}"), obj);
        let array = "AObject { kind: Array, props: {}, unknown_props: AValue { \
                     undef: true, null: false, bools: Bot, nums: Bot, strs: Bot, objs: {} }, \
                     internal: {}, singleton: true }";
        assert_eq!(
            format!("{h:?}"),
            format!("{{AllocSite(0): {array}, AllocSite(2): {obj}}}")
        );
    }

    mod oracle {
        //! `join_would_change` and the dense `Heap::join_in_place`
        //! against the copy-then-join definitions they replace.
        use super::*;
        use crate::consts::{BoolDom, NumDom};
        use minicheck::Gen;

        /// More cases under `--features fuzz`.
        const CASES: u64 = if cfg!(feature = "fuzz") { 8192 } else { 512 };

        fn arb_value(g: &mut Gen) -> AValue {
            // Small alphabets, so that generated values are often
            // comparable and joins often change nothing.
            let strs = match g.below(4) {
                0 => Pre::Bot,
                1 => Pre::exact(*g.pick(&["a", "ab"])),
                2 => Pre::prefix(*g.pick(&["", "a"])),
                _ => Pre::exact("b"),
            };
            AValue {
                undef: g.bool(),
                null: g.below(4) == 0,
                bools: *g.pick(&[BoolDom::Bot, BoolDom::True, BoolDom::Top]),
                nums: *g.pick(&[NumDom::Bot, NumDom::Const(1.0), NumDom::Top]),
                strs,
                // Up to five draws of four sites: past the inline capacity
                // often enough that joins meet spilled sets.
                objs: (0..g.below(6)).map(|_| site(g.below(4) as u32)).collect(),
            }
        }

        fn arb_object(g: &mut Gen, kind: ObjKind) -> AObject {
            let mut o = AObject::new(kind);
            for _ in 0..g.below(4) {
                let name = *g.pick(&["a", "b", "c"]);
                o.props.insert(Sym::intern(name), arb_value(g));
            }
            if g.bool() {
                o.unknown_props = arb_value(g);
            }
            for _ in 0..g.below(3) {
                o.internal
                    .insert(*g.pick(&["@ret", "@scope"]), arb_value(g));
            }
            o.singleton = g.bool();
            o
        }

        /// A second object for the same site: unrelated, already
        /// absorbed into `a` (so the join is a no-op), `a` itself, or
        /// `a` missing some props (a change only where `a`'s value
        /// excludes `undefined`).
        fn arb_pair(g: &mut Gen) -> (AObject, AObject) {
            let mut a = arb_object(g, ObjKind::Plain);
            let b = match g.below(4) {
                0 => arb_object(g, ObjKind::Plain),
                1 => {
                    let b = arb_object(g, ObjKind::Plain);
                    a.join_in_place(&b);
                    b
                }
                2 => a.clone(),
                _ => {
                    let mut b = a.clone();
                    for k in a.props.keys().filter(|_| g.bool()) {
                        b.props.remove(k);
                    }
                    b
                }
            };
            (a, b)
        }

        fn kind_of(i: usize) -> ObjKind {
            if i.is_multiple_of(2) {
                ObjKind::Plain
            } else {
                ObjKind::Array
            }
        }

        /// A heap over sites `0..5` and one related to it: sharing some of
        /// its `Rc`s, holding absorbed or unrelated objects elsewhere.
        fn arb_heaps(g: &mut Gen) -> (Heap, Heap) {
            let mut a = Heap::new();
            for i in 0..g.below(6) {
                if g.below(4) > 0 {
                    *a.slot_mut(site(i as u32)) = Some(Rc::new(arb_object(g, kind_of(i))));
                }
            }
            let mut b = a.clone();
            for i in 0..g.below(6) {
                let s = site(i as u32);
                match g.below(4) {
                    0 => {} // keep the shared object (or hole)
                    1 => *b.slot_mut(s) = None,
                    2 => *b.slot_mut(s) = Some(Rc::new(arb_object(g, kind_of(i)))),
                    _ => {
                        // `a` has already absorbed `b`'s object here.
                        let absorbed = arb_object(g, kind_of(i));
                        if let Some(obj) = a.get_mut(s) {
                            obj.join_in_place(&absorbed);
                            *b.slot_mut(s) = Some(Rc::new(absorbed));
                        }
                    }
                }
            }
            (a, b)
        }

        /// The heap join as defined before check-before-copy: every
        /// object present in both heaps is copied and joined.
        fn reference_join(mine: &Heap, theirs: &Heap) -> (Heap, bool) {
            let mut out = Heap::new();
            let mut changed = false;
            let sites = mine.objects.len().max(theirs.objects.len()) as u32;
            for s in (0..sites).map(site) {
                let joined = match (mine.get(s), theirs.get(s)) {
                    (Some(m), Some(t)) => {
                        let mut m = m.clone();
                        changed |= m.join_in_place(t);
                        m
                    }
                    (Some(m), None) => m.clone(),
                    (None, Some(t)) => {
                        changed = true;
                        t.clone()
                    }
                    (None, None) => continue,
                };
                *out.slot_mut(s) = Some(Rc::new(joined));
            }
            (out, changed)
        }

        #[test]
        fn join_would_change_matches_join_in_place() {
            minicheck::check("object_join_would_change", CASES, |g| {
                let (a, b) = arb_pair(g);
                let mut joined = a.clone();
                let changed = joined.join_in_place(&b);
                assert_eq!(a.join_would_change(&b), changed, "{a:?} <- {b:?}");
            });
        }

        #[test]
        fn heap_join_matches_the_object_by_object_reference() {
            minicheck::check("heap_join_reference", CASES, |g| {
                let (a, b) = arb_heaps(g);
                let (expected, expected_changed) = reference_join(&a, &b);
                let mut joined = a.clone();
                let changed = joined.join_in_place(&b);
                assert_eq!(changed, expected_changed);
                assert_eq!(joined, expected);
                assert_eq!(b.leq(&a), !changed, "leq agrees with the join");
            });
        }
    }
}

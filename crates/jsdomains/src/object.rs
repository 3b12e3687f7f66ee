//! Abstract objects and the abstract heap.
//!
//! Objects are summarized per allocation site. Property maps keep exact
//! property names separate from an "unknown-key" summary field, which is
//! what lets the analysis produce *strong* (exact) property read/write
//! sets when the property-name string is exact and the site is a
//! singleton -- the precondition for the paper's `datastrong` edges.
//!
//! The heap holds one shared object per site, in shared chunks of 16
//! sites indexed by site number. Joining heaps is the base analysis's
//! hot loop. At a fixpoint most object joins change nothing, and most
//! that do change the stored object end at the incoming one, so
//! [`Heap::join_in_place`] asks [`AObject::join_would_change`] both ways
//! first: it keeps the stored object, takes the incoming object's `Rc`,
//! or copies a shared object only for a join whose result is neither.
//! An object's two maps are each one sorted vector ([`SortedMap`]), so
//! that copy is one allocation per map and both the test and the join
//! are one walk over two vectors.

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
                let mut v = self.props.get(k).cloned().unwrap_or_else(AValue::undef);
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
/// Sites are the run's dense [`AllocSite`] numbers (the base analysis
/// interns them from 0). The heap is a vector of shared chunks of 16
/// consecutive sites, each site's slot a shared object or `None` where
/// the site has no object in this heap. The flow-sensitive analysis
/// clones a heap at every program point, and a clone copies one
/// pointer per chunk. Mutation is copy-on-write at both levels:
/// [`Heap::get_mut`] un-shares the one chunk, then the one object, it
/// touches. A heap never leaves the thread of the run that built it,
/// so its counts need no atomics.
///
/// [`Heap::join_in_place`] skips chunks that are pointer-equal, and
/// decides each site's join before it copies anything, by two
/// allocation-free [`AObject::join_would_change`] tests: a site keeps
/// its object when the incoming one is below it, takes the incoming
/// object's `Rc` when its own is below that (the join *is* the
/// incoming object), and is copied and merged only otherwise. A chunk
/// is copied only when a site in it changes, and becomes the incoming
/// chunk when every site ends up holding the incoming object.
/// Iteration is in site order, and equality and `Debug` look only at
/// allocated sites, so trailing empty slots are invisible.
#[derive(Clone, Default)]
pub struct Heap {
    chunks: Vec<Rc<Chunk>>,
}

/// Sites per chunk of a [`Heap`].
const CHUNK: usize = 16;

/// The objects of `CHUNK` consecutive sites.
type Chunk = [Option<Rc<AObject>>; CHUNK];

/// The chunk holding `site`, and its slot in that chunk.
fn locate(site: AllocSite) -> (usize, usize) {
    let i = site.0 as usize;
    (i / CHUNK, i % CHUNK)
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
/// copy-on-write (an `Rc::make_mut` that found its object shared); the
/// copies of a heap's chunks of pointers are not counted. Callers
/// measure a region by differencing two reads.
pub fn cow_clone_count() -> u64 {
    COW_CLONES.with(|c| c.get())
}

/// Bumps the CoW counter if `make_mut` on this object is about to copy.
fn note_cow(obj: &Rc<AObject>) {
    if Rc::strong_count(obj) > 1 {
        COW_CLONES.with(|c| c.set(c.get() + 1));
    }
}

/// How one site's join goes, decided before either object is touched.
#[derive(Clone, Copy)]
enum Join {
    /// Both slots hold the same `Rc`, or neither holds an object.
    Same,
    /// The stored object already is the join (`theirs ≤ mine`).
    Keep,
    /// The incoming object is the join (`mine ≤ theirs`, or no stored
    /// object): the slot takes its `Rc`.
    Adopt,
    /// Neither is the join: the stored object is copied if shared, then
    /// merged.
    Merge,
}

impl Join {
    /// Decides the join of `theirs` into `mine` by two allocation-free
    /// tests, so only a join whose result is neither object copies one.
    fn decide(mine: &Option<Rc<AObject>>, theirs: &Option<Rc<AObject>>) -> Join {
        match (mine, theirs) {
            (None, None) => Join::Same,
            (Some(_), None) => Join::Keep,
            (None, Some(_)) => Join::Adopt,
            (Some(m), Some(t)) if Rc::ptr_eq(m, t) => Join::Same,
            (Some(m), Some(t)) if !m.join_would_change(t) => Join::Keep,
            (Some(m), Some(t)) if !t.join_would_change(m) => Join::Adopt,
            (Some(_), Some(_)) => Join::Merge,
        }
    }

    /// Carries the decision out on `mine`. Returns true on change.
    fn apply(self, mine: &mut Option<Rc<AObject>>, theirs: &Option<Rc<AObject>>) -> bool {
        match self {
            Join::Same | Join::Keep => false,
            Join::Adopt => {
                mine.clone_from(theirs);
                true
            }
            Join::Merge => {
                let (Some(mine), Some(theirs)) = (mine, theirs) else {
                    unreachable!("a merge joins two objects")
                };
                note_cow(mine);
                let changed = Rc::make_mut(mine).join_in_place(theirs);
                debug_assert!(changed, "join_would_change disagrees with join_in_place");
                changed
            }
        }
    }
}

/// Joins the object `theirs` into the slot `mine`: the heap's one object
/// join. Returns true on change.
fn join_slot(mine: &mut Option<Rc<AObject>>, theirs: &Option<Rc<AObject>>) -> bool {
    Join::decide(mine, theirs).apply(mine, theirs)
}

/// Joins the chunk `theirs` into `mine`, deciding every site's join
/// before it copies anything: a chunk whose join changes nothing stays
/// shared, and one whose every site ends up holding `theirs`' object
/// becomes `theirs`' chunk. Returns true on change.
fn join_chunk(mine: &mut Rc<Chunk>, theirs: &Rc<Chunk>) -> bool {
    let joins: [Join; CHUNK] = std::array::from_fn(|i| Join::decide(&mine[i], &theirs[i]));
    if joins.iter().all(|j| matches!(j, Join::Same | Join::Keep)) {
        return false;
    }
    if joins.iter().all(|j| matches!(j, Join::Same | Join::Adopt)) {
        *mine = Rc::clone(theirs);
        return true;
    }
    let slots = Rc::make_mut(mine).iter_mut().zip(theirs.iter());
    for ((slot, theirs), join) in slots.zip(joins) {
        join.apply(slot, theirs);
    }
    true
}

impl Heap {
    /// An empty heap.
    pub fn new() -> Heap {
        Heap::default()
    }

    /// The slot for `site`, growing the heap to hold it and un-sharing
    /// its chunk.
    fn slot_mut(&mut self, site: AllocSite) -> &mut Option<Rc<AObject>> {
        let (c, i) = locate(site);
        if c >= self.chunks.len() {
            self.chunks.resize_with(c + 1, Default::default);
        }
        &mut Rc::make_mut(&mut self.chunks[c])[i]
    }

    /// Allocates or re-visits an allocation site. On re-visit the existing
    /// object is demoted to a summary and joined with a fresh object.
    pub fn alloc(&mut self, site: AllocSite, kind: ObjKind) -> AllocSite {
        let slot = self.slot_mut(site);
        let fresh = match slot {
            // Fresh instance has no props: all existing props may be
            // absent in the new instance. Joining a non-singleton also
            // demotes the existing object to a summary.
            Some(existing) => AObject {
                singleton: false,
                ..AObject::new(existing.kind.clone())
            },
            None => AObject::new(kind),
        };
        join_slot(slot, &Some(Rc::new(fresh)));
        site
    }

    /// Looks up an object.
    pub fn get(&self, site: AllocSite) -> Option<&AObject> {
        let (c, i) = locate(site);
        self.chunks.get(c)?[i].as_deref()
    }

    /// Looks up an object mutably (copy-on-write: un-shares its chunk,
    /// then the object).
    pub fn get_mut(&mut self, site: AllocSite) -> Option<&mut AObject> {
        let (c, i) = locate(site);
        let chunk = self.chunks.get_mut(c)?;
        // A hole has nothing to write: leave its chunk shared.
        chunk[i].as_ref()?;
        let obj = Rc::make_mut(chunk)[i].as_mut()?;
        note_cow(obj);
        Some(Rc::make_mut(obj))
    }

    /// Iterates over all objects in site order.
    pub fn iter(&self) -> impl Iterator<Item = (AllocSite, &AObject)> {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.iter())
            .enumerate()
            .filter_map(|(i, obj)| Some((AllocSite(i as u32), &**obj.as_ref()?)))
    }

    /// Number of live abstract objects.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// True if no object has been allocated.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Joins another heap into this one. Returns true if anything changed.
    pub fn join_in_place(&mut self, other: &Heap) -> bool {
        let mut changed = false;
        for (mine, theirs) in self.chunks.iter_mut().zip(&other.chunks) {
            if !Rc::ptr_eq(mine, theirs) {
                changed |= join_chunk(mine, theirs);
            }
        }
        // This heap holds no objects past its end: it takes `other`'s
        // chunks there.
        let past_end = other.chunks.get(self.chunks.len()..).unwrap_or_default();
        changed |= past_end
            .iter()
            .any(|chunk| chunk.iter().any(Option::is_some));
        self.chunks.extend_from_slice(past_end);
        changed
    }

    /// Recency aging: moves the object at `from` to `to` (merging into any
    /// existing summary there, demoted to non-singleton) and rewrites every
    /// reference to `from` anywhere in the heap into `to`. Afterwards
    /// `from` is unallocated and may be re-bound to a fresh instance.
    pub fn rename_site(&mut self, from: AllocSite, to: AllocSite) {
        let (c, i) = locate(from);
        let old = match self.chunks.get_mut(c) {
            Some(chunk) if chunk[i].is_some() => Rc::make_mut(chunk)[i].take(),
            _ => None,
        };
        if let Some(mut old) = old {
            if old.singleton {
                note_cow(&old);
                Rc::make_mut(&mut old).demote_to_summary();
            }
            join_slot(self.slot_mut(to), &Some(old));
        }
        // Only copy chunks and objects that actually hold a reference to
        // `from`.
        let holds = |obj: &AObject| {
            obj.props.values().any(|v| v.objs.contains(&from))
                || obj.unknown_props.objs.contains(&from)
                || obj.internal.values().any(|v| v.objs.contains(&from))
        };
        for chunk in &mut self.chunks {
            if !chunk.iter().flatten().any(|obj| holds(obj)) {
                continue;
            }
            for obj in Rc::make_mut(chunk).iter_mut().flatten() {
                if !holds(obj) {
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
        assert_eq!(
            v.nums,
            crate::consts::NumDom::Top,
            "no strong update on summaries"
        );
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
    fn aging_into_a_smaller_summary_adopts_the_aged_object() {
        use crate::consts::NumDom;
        // The summary at site 1 is below the object aged out of site 0,
        // so their join is the aged object itself, which the summary's
        // site takes without a copy. The heap shares its objects with a
        // snapshot, as a fixpoint's stored states do, so a copy would
        // count.
        let mut h = Heap::new();
        h.alloc(site(1), ObjKind::Plain);
        let summary = h.get_mut(site(1)).unwrap();
        summary.write_prop(&Pre::exact("p"), &AValue::num(1.0), true);
        summary.demote_to_summary();
        h.alloc(site(0), ObjKind::Plain);
        let fresh = h.get_mut(site(0)).unwrap();
        fresh.write_prop(&Pre::exact("p"), &AValue::num(1.0), true);
        fresh.write_prop(&Pre::exact("p"), &AValue::num(2.0), false);
        let snapshot = h.clone();
        let before = cow_clone_count();
        h.rename_site(site(0), site(1));
        assert_eq!(cow_clone_count() - before, 1, "only the demotion copies");
        assert!(h.get(site(0)).is_none());
        let aged = h.get(site(1)).unwrap();
        assert!(!aged.singleton);
        assert_eq!(aged.read_prop(&Pre::exact("p")).nums, NumDom::Top);
        let kept = snapshot.get(site(1)).unwrap();
        assert_eq!(kept.read_prop(&Pre::exact("p")).nums, NumDom::Const(1.0));
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
        /// absorbed into `a` (so the join is a no-op), `a` itself, `a`
        /// missing some props (a change only where `a`'s value excludes
        /// `undefined`), or `a` grown by a join (so the join is `b`).
        fn arb_pair(g: &mut Gen) -> (AObject, AObject) {
            let mut a = arb_object(g, ObjKind::Plain);
            let b = match g.below(5) {
                0 => arb_object(g, ObjKind::Plain),
                1 => {
                    let b = arb_object(g, ObjKind::Plain);
                    a.join_in_place(&b);
                    b
                }
                2 => a.clone(),
                3 => {
                    let mut b = a.clone();
                    for k in a.props.keys().filter(|_| g.bool()) {
                        b.props.remove(k);
                    }
                    b
                }
                _ => grown(g, &a),
            };
            (a, b)
        }

        /// `a` joined with an arbitrary object: above `a`, often equal.
        fn grown(g: &mut Gen, a: &AObject) -> AObject {
            let mut b = a.clone();
            b.join_in_place(&arb_object(g, a.kind.clone()));
            b
        }

        fn kind_of(i: usize) -> ObjKind {
            if i.is_multiple_of(2) {
                ObjKind::Plain
            } else {
                ObjKind::Array
            }
        }

        /// The `Rc` a heap holds at `site`.
        fn rc(h: &Heap, site: AllocSite) -> Option<&Rc<AObject>> {
            let (c, i) = locate(site);
            h.chunks.get(c)?[i].as_ref()
        }

        /// A heap over up to three chunks of sites and one related to it.
        /// Each chunk of the second is the first's very chunk, a per-site
        /// mix (the shared object or hole, a hole, an unrelated object, an
        /// object the first has already absorbed, an equal copy, a grown
        /// object), or grown at every site, so that the whole chunk is
        /// the join. One in four pairs comes swapped.
        fn arb_heaps(g: &mut Gen) -> (Heap, Heap) {
            let mut a = Heap::new();
            for i in 0..g.below(3 * CHUNK + 1) {
                if g.below(4) > 0 {
                    *a.slot_mut(site(i as u32)) = Some(Rc::new(arb_object(g, kind_of(i))));
                }
            }
            let mut b = a.clone();
            for c in 0..3 {
                let mode = g.below(3);
                for i in c * CHUNK..(c + 1) * CHUNK {
                    let s = site(i as u32);
                    let op = match mode {
                        0 => break,
                        1 => g.below(6),
                        _ => 5,
                    };
                    let kind = kind_of(i);
                    match (op, a.get(s).cloned()) {
                        (0, _) => {}
                        (1, _) => *b.slot_mut(s) = None,
                        (2, _) | (_, None) => {
                            *b.slot_mut(s) = Some(Rc::new(arb_object(g, kind)));
                        }
                        (3, Some(_)) => {
                            let absorbed = arb_object(g, kind);
                            a.get_mut(s).expect("allocated").join_in_place(&absorbed);
                            *b.slot_mut(s) = Some(Rc::new(absorbed));
                        }
                        (4, Some(obj)) => *b.slot_mut(s) = Some(Rc::new(obj)),
                        (_, Some(obj)) => *b.slot_mut(s) = Some(Rc::new(grown(g, &obj))),
                    }
                }
            }
            if g.below(4) == 0 {
                (b, a)
            } else {
                (a, b)
            }
        }

        /// The heap join as defined before check-before-copy: every
        /// object present in both heaps is copied and joined.
        fn reference_join(mine: &Heap, theirs: &Heap) -> (Heap, bool) {
            let mut out = Heap::new();
            let mut changed = false;
            let sites = (mine.chunks.len().max(theirs.chunks.len()) * CHUNK) as u32;
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
                assert_eq!(
                    !b.join_would_change(&a),
                    joined == b,
                    "the join is `b` exactly when `a` is below it: {a:?} <- {b:?}"
                );
            });
        }

        #[test]
        fn heap_join_matches_the_object_by_object_reference() {
            minicheck::check("heap_join_reference", CASES, |g| {
                let (a, b) = arb_heaps(g);
                let (expected, expected_changed) = reference_join(&a, &b);
                let (a_text, b_text) = (format!("{a:?}"), format!("{b:?}"));
                let mut joined = a.clone();
                let before = cow_clone_count();
                let changed = joined.join_in_place(&b);
                let copies = cow_clone_count() - before;
                assert_eq!(changed, expected_changed);
                assert_eq!(joined, expected);
                assert_eq!(b.leq(&a), !changed, "leq agrees with the join");

                // A site keeps `a`'s object when that is the join, else
                // takes `b`'s very `Rc` when that is the join, else merges.
                // Only a merge copies: `joined` shares every object with `a`.
                let mut merges = 0;
                for (s, result) in expected.iter() {
                    let held = rc(&joined, s).expect("the join holds every site");
                    match (rc(&a, s), rc(&b, s)) {
                        (Some(mine), _) if **mine == *result => {
                            assert!(Rc::ptr_eq(held, mine), "{s:?} keeps a's object");
                        }
                        (_, Some(theirs)) if **theirs == *result => {
                            assert!(Rc::ptr_eq(held, theirs), "{s:?} adopts b's object");
                        }
                        _ => merges += 1,
                    }
                }
                assert_eq!(copies, merges, "adopting and keeping copy nothing");

                // Writing through a clone changes neither the join nor
                // the heaps it shares chunks and objects with.
                let mut copy = joined.clone();
                for (s, _) in expected.iter() {
                    let obj = copy.get_mut(s).expect("allocated");
                    obj.write_prop(&Pre::exact("written"), &AValue::num(1.0), true);
                    obj.demote_to_summary();
                }
                assert_eq!(joined, expected);
                assert_eq!(format!("{a:?}"), a_text);
                assert_eq!(format!("{b:?}"), b_text);
            });
        }
    }
}

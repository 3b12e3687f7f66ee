//! Read/write sets, the interface between the base analysis and PDG
//! construction (Section 3 of the paper).
//!
//! Variables and object properties are represented uniformly as abstract
//! *locations* `(allocation site, abstract property name)` -- activation
//! frames make variables properties of frame objects, and globals are
//! properties of the global object. Property names are elements of the
//! prefix string domain, "abstract strings representing potentially
//! multiple possible concrete property names" exactly as in the paper.
//!
//! Each element carries a strength qualifier: **strong** means the
//! abstract location is guaranteed to be a single concrete memory location
//! with an exactly-known name (the paper's "definite read/write"), which
//! requires the site to be a singleton and the name exact.
//!
//! A run records each location once, into its [`LocTable`], and the sets
//! name locations by [`LocId`]. Per-statement records are indexed by
//! `StmtId` ([`StmtMap`], [`StmtSet`]) and iterate in `StmtId` order.

use jsdomains::{AllocSite, MeetLattice, Pre};
use jsir::StmtId;
use std::fmt;
use std::ops::Index;

/// An abstract memory location.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Loc {
    /// The object (or frame, or global object) holding the slot.
    pub site: AllocSite,
    /// The abstract property name.
    pub prop: Pre,
}

impl Loc {
    /// A location with an exactly-known name.
    pub fn exact(site: AllocSite, prop: impl AsRef<str>) -> Loc {
        Loc {
            site,
            prop: Pre::exact(prop),
        }
    }

    /// The paper's overlap test between two locations, using the
    /// `e`-intersection on abstract property names: locations overlap if
    /// they are on the same site and the meet of their names is non-bottom.
    pub fn overlaps(&self, other: &Loc) -> bool {
        self.site == other.site && !matches!(self.prop.meet(&other.prop), Pre::Bot)
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.site, self.prop)
    }
}

/// A location's dense id in its run's [`LocTable`], numbered in the
/// order the run first recorded each location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocId(pub u32);

/// The locations one run recorded, each once. Interning goes through a
/// per-site list of names kept sorted, so it needs no hashing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LocTable {
    locs: Vec<Loc>,
    /// Each site's recorded names with their ids, sorted by name and
    /// indexed by site number.
    by_site: Vec<Vec<(Pre, LocId)>>,
}

impl LocTable {
    /// The id of `(site, prop)`, interning it on first sight.
    pub(crate) fn intern(&mut self, site: AllocSite, prop: Pre) -> LocId {
        let i = site.0 as usize;
        if i >= self.by_site.len() {
            self.by_site.resize_with(i + 1, Vec::new);
        }
        let names = &mut self.by_site[i];
        match names.binary_search_by(|(p, _)| p.cmp(&prop)) {
            Ok(j) => names[j].1,
            Err(j) => {
                let id = LocId(self.locs.len() as u32);
                self.locs.push(Loc { site, prop });
                names.insert(j, (prop, id));
                id
            }
        }
    }

    /// The recorded locations on `site`, sorted by name.
    pub fn at_site(&self, site: AllocSite) -> &[(Pre, LocId)] {
        self.by_site.get(site.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// Number of locations.
    pub fn len(&self) -> usize {
        self.locs.len()
    }

    /// True if the run recorded no location.
    pub fn is_empty(&self) -> bool {
        self.locs.is_empty()
    }

    /// Every location with its id, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (LocId, &Loc)> {
        (0u32..).map(LocId).zip(&self.locs)
    }
}

impl Index<LocId> for LocTable {
    type Output = Loc;

    fn index(&self, id: LocId) -> &Loc {
        &self.locs[id.0 as usize]
    }
}

/// Strength qualifier for a read/write-set element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Strength {
    /// Possible read/write of the location.
    Weak,
    /// Definite read/write of a single concrete location.
    Strong,
}

impl Strength {
    /// Weakest of two strengths.
    pub fn min(self, other: Strength) -> Strength {
        if self == Strength::Strong && other == Strength::Strong {
            Strength::Strong
        } else {
            Strength::Weak
        }
    }
}

/// A qualified set of locations: the ReadVar/ReadProp/WriteVar/WriteProp
/// sets of the paper, merged into one uniform representation. Entries
/// are sorted by [`LocId`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AccessSet {
    entries: Vec<(LocId, Strength)>,
}

impl AccessSet {
    /// Adds an access, keeping the weaker qualifier on duplicates.
    pub fn add(&mut self, loc: LocId, strength: Strength) {
        match self.entries.binary_search_by_key(&loc, |e| e.0) {
            Ok(i) => self.entries[i].1 = self.entries[i].1.min(strength),
            Err(i) => self.entries.insert(i, (loc, strength)),
        }
    }

    /// Iterates entries, by location id.
    pub fn iter(&self) -> impl Iterator<Item = (LocId, Strength)> + '_ {
        self.entries.iter().copied()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Read and write sets for one statement (merged over contexts).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RwSets {
    /// Locations the statement may/must read.
    pub reads: AccessSet,
    /// Locations the statement may/must write.
    pub writes: AccessSet,
}

/// A set of statements: one bit per `StmtId`, iterated in `StmtId`
/// order.
#[derive(Clone, Default)]
pub struct StmtSet {
    words: Vec<u64>,
    len: usize,
}

impl StmtSet {
    /// The empty set.
    pub fn new() -> StmtSet {
        StmtSet::default()
    }

    /// Adds `s`, returning whether it was new.
    pub(crate) fn insert(&mut self, s: StmtId) -> bool {
        let (w, bit) = (s.0 as usize / 64, 1u64 << (s.0 % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let new = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.len += usize::from(new);
        new
    }

    /// Whether `s` is in the set.
    pub fn contains(&self, s: &StmtId) -> bool {
        self.words
            .get(s.0 as usize / 64)
            .is_some_and(|w| w >> (s.0 % 64) & 1 == 1)
    }

    /// Number of statements in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The statements, in `StmtId` order.
    pub fn iter(&self) -> impl Iterator<Item = StmtId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    StmtId(i as u32 * 64 + bit)
                })
            })
        })
    }
}

impl PartialEq for StmtSet {
    fn eq(&self, other: &StmtSet) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for StmtSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A map from statements to `T`, indexed by `StmtId` and iterated in
/// `StmtId` order.
#[derive(Clone)]
pub struct StmtMap<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for StmtMap<T> {
    fn default() -> StmtMap<T> {
        StmtMap {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<T> StmtMap<T> {
    /// The value of `s`, inserting `T::default()` first if absent.
    pub(crate) fn entry(&mut self, s: StmtId) -> &mut T
    where
        T: Default,
    {
        let i = s.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let slot = &mut self.slots[i];
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert_with(T::default)
    }

    /// The value of `s`, if any.
    pub fn get(&self, s: &StmtId) -> Option<&T> {
        self.slots.get(s.0 as usize)?.as_ref()
    }

    /// Number of statements with a value.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no statement has a value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The statements with a value and their values, in `StmtId` order.
    pub fn iter(&self) -> impl Iterator<Item = (StmtId, &T)> {
        (0u32..)
            .map(StmtId)
            .zip(&self.slots)
            .filter_map(|(s, v)| Some((s, v.as_ref()?)))
    }

    /// The statements with a value, in `StmtId` order.
    pub fn keys(&self) -> impl Iterator<Item = StmtId> + '_ {
        self.iter().map(|(s, _)| s)
    }

    /// The values, in `StmtId` order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }
}

impl<T> Index<&StmtId> for StmtMap<T> {
    type Output = T;

    fn index(&self, s: &StmtId) -> &T {
        self.get(s).expect("no entry for statement")
    }
}

impl<T: PartialEq> PartialEq for StmtMap<T> {
    fn eq(&self, other: &StmtMap<T>) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: fmt::Debug> fmt::Debug for StmtMap<T> {
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
    fn overlap_uses_prefix_meet() {
        let a = Loc::exact(site(0), "url");
        let b = Loc {
            site: site(0),
            prop: Pre::prefix("u"),
        };
        let c = Loc::exact(site(0), "key");
        let d = Loc::exact(site(1), "url");
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(!a.overlaps(&d));
        let any = Loc {
            site: site(0),
            prop: Pre::any(),
        };
        assert!(any.overlaps(&a) && any.overlaps(&c));
    }

    #[test]
    fn add_keeps_weaker() {
        let mut s = AccessSet::default();
        let l = LocId(3);
        let strength_of = |s: &AccessSet| s.iter().find(|(x, _)| *x == l).map(|(_, st)| st);
        s.add(l, Strength::Strong);
        assert_eq!(strength_of(&s), Some(Strength::Strong));
        s.add(LocId(1), Strength::Strong);
        s.add(l, Strength::Weak);
        assert_eq!(strength_of(&s), Some(Strength::Weak));
        let ids: Vec<LocId> = s.iter().map(|(x, _)| x).collect();
        assert_eq!(ids, [LocId(1), l], "entries stay sorted by id");
    }

    #[test]
    fn table_interns_each_location_once_and_sorts_each_site() {
        let mut t = LocTable::default();
        let names = ["v1", "url", "v0"];
        let ids: Vec<LocId> = names
            .iter()
            .map(|n| t.intern(site(2), Pre::exact(n)))
            .collect();
        assert_eq!(ids, [LocId(0), LocId(1), LocId(2)]);
        let any = t.intern(site(2), Pre::any());
        assert_eq!(t.intern(site(2), Pre::exact("url")), LocId(1));
        assert_eq!(t.intern(site(0), Pre::exact("url")), LocId(4));
        assert_eq!(t.len(), 5);
        assert_eq!(t[LocId(1)], Loc::exact(site(2), "url"));
        let order: Vec<LocId> = t.at_site(site(2)).iter().map(|(_, id)| *id).collect();
        assert_eq!(order, [LocId(1), LocId(2), LocId(0), any]);
        assert!(t.at_site(site(1)).is_empty() && t.at_site(site(9)).is_empty());
    }

    #[test]
    fn stmt_set_counts_and_iterates_in_order() {
        let mut set = StmtSet::new();
        let new: Vec<bool> = [130, 3, 64, 3, 0]
            .into_iter()
            .map(|s| set.insert(StmtId(s)))
            .collect();
        assert_eq!(new, [true, true, true, false, true]);
        assert_eq!(set.len(), 4);
        assert!(set.contains(&StmtId(64)) && !set.contains(&StmtId(65)));
        assert!(!set.contains(&StmtId(1_000)));
        let order: Vec<u32> = set.iter().map(|s| s.0).collect();
        assert_eq!(order, [0, 3, 64, 130]);
        let mut grown = StmtSet::new();
        for s in [0, 3, 64, 130] {
            grown.insert(StmtId(s));
        }
        grown.insert(StmtId(500));
        assert_ne!(set, grown);
    }

    #[test]
    fn stmt_map_keeps_present_entries_in_order() {
        let mut m: StmtMap<Vec<u32>> = StmtMap::default();
        m.entry(StmtId(9)).push(1);
        m.entry(StmtId(2)).push(2);
        m.entry(StmtId(9)).push(3);
        assert_eq!(m.len(), 2);
        assert_eq!(m[&StmtId(9)], [1, 3]);
        assert!(m.get(&StmtId(3)).is_none() && m.get(&StmtId(90)).is_none());
        assert_eq!(m.keys().collect::<Vec<_>>(), [StmtId(2), StmtId(9)]);
    }
}

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
//! `StmtId` ([`StmtMap`]; a `StmtMap<()>` is a set of statements) and
//! iterate in `StmtId` order.

use jsdomains::{AllocSite, MeetLattice, Pre, SortedMap};
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
/// per-site map of names, so it needs no hashing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LocTable {
    locs: Vec<Loc>,
    /// Each site's recorded names with their ids, indexed by site number.
    by_site: Vec<SortedMap<Pre, LocId>>,
}

impl LocTable {
    /// The id of `(site, prop)`, interning it on first sight.
    pub(crate) fn intern(&mut self, site: AllocSite, prop: Pre) -> LocId {
        let i = site.0 as usize;
        if i >= self.by_site.len() {
            self.by_site.resize_with(i + 1, SortedMap::new);
        }
        let locs = &mut self.locs;
        *self.by_site[i].get_or_insert_with(prop, || {
            locs.push(Loc { site, prop });
            LocId(locs.len() as u32 - 1)
        })
    }

    /// The recorded locations on `site` with their ids, sorted by name.
    pub fn at_site(&self, site: AllocSite) -> impl Iterator<Item = (&Pre, &LocId)> {
        self.by_site
            .get(site.0 as usize)
            .into_iter()
            .flat_map(SortedMap::iter)
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

/// Strength qualifier for a read/write-set element. `Weak` orders first,
/// so the weaker of two strengths is their `min`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Strength {
    /// Possible read/write of the location.
    Weak,
    /// Definite read/write of a single concrete location.
    Strong,
}

/// A qualified set of locations: the ReadVar/ReadProp/WriteVar/WriteProp
/// sets of the paper, merged into one uniform representation. Entries
/// are sorted by [`LocId`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AccessSet {
    entries: SortedMap<LocId, Strength>,
}

impl AccessSet {
    /// Adds an access, keeping the weaker qualifier on duplicates.
    pub fn add(&mut self, loc: LocId, strength: Strength) {
        let kept = self.entries.get_or_insert_with(loc, || strength);
        *kept = (*kept).min(strength);
    }

    /// Iterates entries, by location id.
    pub fn iter(&self) -> impl Iterator<Item = (LocId, Strength)> + '_ {
        self.entries.iter().map(|(&loc, &strength)| (loc, strength))
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.keys().next().is_none()
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

/// A map from statements to `T`, indexed by `StmtId` and iterated in
/// `StmtId` order. A `StmtMap<()>` is a set of statements.
#[derive(Clone)]
pub struct StmtMap<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> StmtMap<T> {
    /// An empty map with a slot for each statement below `n`: inserting
    /// any of them never reallocates.
    pub(crate) fn new(n: usize) -> StmtMap<T> {
        StmtMap {
            slots: (0..n).map(|_| None).collect(),
            len: 0,
        }
    }

    /// Sets the value of `s`, returning the value it replaced.
    pub(crate) fn insert(&mut self, s: StmtId, value: T) -> Option<T> {
        let i = s.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(value);
        self.len += usize::from(old.is_none());
        old
    }

    /// The value of `s`, inserting `T::default()` first if absent.
    pub(crate) fn entry(&mut self, s: StmtId) -> &mut T
    where
        T: Default,
    {
        if !self.contains(&s) {
            self.insert(s, T::default());
        }
        self.slots[s.0 as usize].as_mut().expect("inserted above")
    }

    /// The value of `s`, if any.
    pub fn get(&self, s: &StmtId) -> Option<&T> {
        self.slots.get(s.0 as usize)?.as_ref()
    }

    /// Whether `s` has a value (for a set: is in it).
    pub fn contains(&self, s: &StmtId) -> bool {
        self.get(s).is_some()
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
    use std::collections::{BTreeMap, BTreeSet};

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
        let order: Vec<LocId> = t.at_site(site(2)).map(|(_, id)| *id).collect();
        assert_eq!(order, [LocId(1), LocId(2), LocId(0), any]);
        assert!(t.at_site(site(1)).next().is_none() && t.at_site(site(9)).next().is_none());
    }

    /// Random `entry`, `insert` and lookup sequences against `BTreeMap`,
    /// and the set form against `BTreeSet`, over ids that run past the
    /// slots the table was made with.
    #[test]
    fn stmt_map_matches_btreemap() {
        minicheck::check("stmt_map_matches_btreemap", 256, |g| {
            let n = g.below(8);
            let id = |g: &mut minicheck::Gen| StmtId(g.below(2 * n + 8) as u32);
            let (mut map, mut model) = (StmtMap::new(n), BTreeMap::new());
            let (mut set, mut set_model) = (StmtMap::new(n), BTreeSet::new());
            for _ in 0..g.below(32) {
                let (s, v) = (id(g), g.below(8) as u32);
                match g.below(3) {
                    0 => assert_eq!(map.insert(s, v), model.insert(s, v)),
                    1 => {
                        *map.entry(s) += v;
                        *model.entry(s).or_default() += v;
                    }
                    _ => assert_eq!(set.insert(s, ()).is_none(), set_model.insert(s)),
                }
                let probe = id(g);
                assert_eq!(map.get(&probe), model.get(&probe));
                if let Some(v) = model.get(&probe) {
                    assert_eq!(&map[&probe], v);
                }
                assert_eq!(map.contains(&probe), model.contains_key(&probe));
                assert_eq!(set.contains(&probe), set_model.contains(&probe));
                assert_eq!((map.len(), map.is_empty()), (model.len(), model.is_empty()));
                assert_eq!(set.len(), set_model.len());
                assert!(map.iter().eq(model.iter().map(|(s, v)| (*s, v))));
                assert!(map.keys().eq(model.keys().copied()));
                assert!(set.keys().eq(set_model.iter().copied()));
                assert_eq!(format!("{map:?}"), format!("{model:?}"));
            }
            // Equal contents compare equal, whatever their slot counts.
            let mut copy = StmtMap::new(0);
            for (s, v) in &model {
                copy.insert(*s, *v);
            }
            assert_eq!(map, copy);
        });
    }
}

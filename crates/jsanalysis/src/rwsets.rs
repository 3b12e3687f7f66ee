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

use jsdomains::{AllocSite, MeetLattice, Pre};
use std::collections::BTreeMap;
use std::fmt;

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
/// sets of the paper, merged into one uniform representation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AccessSet {
    entries: BTreeMap<Loc, Strength>,
}

impl AccessSet {
    /// The empty set.
    pub fn new() -> AccessSet {
        AccessSet::default()
    }

    /// Adds an access, keeping the weaker qualifier on duplicates.
    pub fn add(&mut self, loc: Loc, strength: Strength) {
        self.entries
            .entry(loc)
            .and_modify(|s| *s = (*s).min(strength))
            .or_insert(strength);
    }

    /// Iterates entries.
    pub fn iter(&self) -> impl Iterator<Item = (&Loc, Strength)> {
        self.entries.iter().map(|(l, s)| (l, *s))
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

impl RwSets {
    /// Empty sets.
    pub fn new() -> RwSets {
        RwSets::default()
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
        let mut s = AccessSet::new();
        let l = Loc::exact(site(0), "x");
        let strength_of = |s: &AccessSet| s.iter().find(|(x, _)| *x == &l).map(|(_, st)| st);
        s.add(l.clone(), Strength::Strong);
        assert_eq!(strength_of(&s), Some(Strength::Strong));
        s.add(l.clone(), Strength::Weak);
        assert_eq!(strength_of(&s), Some(Strength::Weak));
    }
}

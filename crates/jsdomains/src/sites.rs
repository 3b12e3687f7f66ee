//! The set of allocation sites an abstract value may point to.
//!
//! Phase 1 copies and joins these sets constantly, and they are tiny:
//! over the corpus and the attack gallery, 96% of the property values a
//! heap join walks hold at most one site and 99.9% at most two. So a
//! [`SiteSet`] keeps up to [`INLINE`] sites sorted inline, with no heap
//! allocation, and only a larger set spills to a sorted `Vec`. Both
//! forms fit in the 24 bytes a `BTreeSet` took.

use crate::value::AllocSite;
use std::fmt;

/// How many sites a [`SiteSet`] holds without allocating.
const INLINE: usize = 2;

/// A sorted set of allocation sites: inline up to two sites, a sorted
/// `Vec` past that. Iterates in ascending site order, like the
/// `BTreeSet<AllocSite>` it replaces, and prints like one.
#[derive(Clone)]
pub struct SiteSet(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` entries, ascending; the rest are unused.
    Inline { len: u8, sites: [AllocSite; INLINE] },
    /// More than [`INLINE`] sites at some point, ascending. A set that
    /// shrinks keeps its vector: only `rename_site` removes, and it
    /// inserts right after.
    Spilled(Vec<AllocSite>),
}

impl SiteSet {
    /// The empty set.
    pub const fn new() -> SiteSet {
        SiteSet(Repr::Inline {
            len: 0,
            sites: [AllocSite(0); INLINE],
        })
    }

    /// The sites, ascending.
    fn as_slice(&self) -> &[AllocSite] {
        match &self.0 {
            Repr::Inline { len, sites } => &sites[..usize::from(*len)],
            Repr::Spilled(sites) => sites,
        }
    }

    /// Iterates over the sites in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, AllocSite> {
        self.as_slice().iter()
    }

    /// Number of sites.
    fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True if the set holds no site.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// True if `site` is in the set.
    pub fn contains(&self, site: &AllocSite) -> bool {
        self.as_slice().binary_search(site).is_ok()
    }

    /// True if every site of this set is in `other`.
    pub fn is_subset(&self, other: &SiteSet) -> bool {
        self.len() <= other.len() && self.iter().all(|s| other.contains(s))
    }

    /// Adds `site`; returns true if it was not already present.
    pub fn insert(&mut self, site: AllocSite) -> bool {
        let Err(at) = self.as_slice().binary_search(&site) else {
            return false;
        };
        match &mut self.0 {
            Repr::Inline { len, sites } if usize::from(*len) < INLINE => {
                let n = usize::from(*len);
                sites.copy_within(at..n, at + 1);
                sites[at] = site;
                *len += 1;
            }
            Repr::Inline { sites, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE);
                spilled.extend_from_slice(&sites[..]);
                spilled.insert(at, site);
                self.0 = Repr::Spilled(spilled);
            }
            Repr::Spilled(sites) => sites.insert(at, site),
        }
        true
    }

    /// Removes `site`; returns true if it was present.
    pub fn remove(&mut self, site: &AllocSite) -> bool {
        let Ok(at) = self.as_slice().binary_search(site) else {
            return false;
        };
        match &mut self.0 {
            Repr::Inline { len, sites } => {
                sites.copy_within(at + 1..usize::from(*len), at);
                *len -= 1;
            }
            Repr::Spilled(sites) => {
                sites.remove(at);
            }
        }
        true
    }

    /// The union of two sets.
    pub fn union(&self, other: &SiteSet) -> SiteSet {
        let mut out = self.clone();
        for site in other {
            out.insert(*site);
        }
        out
    }
}

impl Default for SiteSet {
    fn default() -> SiteSet {
        SiteSet::new()
    }
}

impl PartialEq for SiteSet {
    fn eq(&self, other: &SiteSet) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SiteSet {}

impl fmt::Debug for SiteSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<AllocSite> for SiteSet {
    fn from_iter<I: IntoIterator<Item = AllocSite>>(sites: I) -> SiteSet {
        let mut set = SiteSet::new();
        for site in sites {
            set.insert(site);
        }
        set
    }
}

impl<'a> IntoIterator for &'a SiteSet {
    type Item = &'a AllocSite;
    type IntoIter = std::slice::Iter<'a, AllocSite>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minicheck::Gen;
    use std::collections::BTreeSet;

    /// More cases under `--features fuzz`.
    const CASES: u64 = if cfg!(feature = "fuzz") { 4096 } else { 256 };

    #[test]
    fn as_small_as_the_btreeset_it_replaces() {
        assert_eq!(
            std::mem::size_of::<SiteSet>(),
            std::mem::size_of::<BTreeSet<AllocSite>>()
        );
    }

    #[test]
    fn prints_like_a_btreeset() {
        let set: SiteSet = [AllocSite(4), AllocSite(1), AllocSite(9)]
            .into_iter()
            .collect();
        assert_eq!(
            format!("{set:?}"),
            "{AllocSite(1), AllocSite(4), AllocSite(9)}"
        );
        assert_eq!(format!("{:?}", SiteSet::new()), "{}");
    }

    /// Random insert/remove/lookup sequences against `BTreeSet`, over few
    /// enough sites that sets cross the inline capacity both ways.
    #[test]
    fn matches_btreeset_on_random_operations() {
        minicheck::check("site_set_matches_btreeset", CASES, |g| {
            let site = |g: &mut Gen| AllocSite(g.below(6) as u32);
            let (mut set, mut model) = (SiteSet::new(), BTreeSet::new());
            let (mut other, mut other_model) = (SiteSet::new(), BTreeSet::new());
            for _ in 0..g.below(24) {
                let s = site(g);
                match g.below(5) {
                    0 | 1 => assert_eq!(set.insert(s), model.insert(s)),
                    2 => assert_eq!(set.remove(&s), model.remove(&s)),
                    3 => assert_eq!(other.insert(s), other_model.insert(s)),
                    _ => assert_eq!(set.contains(&s), model.contains(&s)),
                }
                assert!(set.iter().eq(model.iter()), "{set:?} vs {model:?}");
                assert_eq!(set.len(), model.len());
                assert_eq!(set.is_empty(), model.is_empty());
                assert_eq!(set.is_subset(&other), model.is_subset(&other_model));
                assert_eq!(other.is_subset(&set), other_model.is_subset(&model));
                let union: BTreeSet<AllocSite> = model.union(&other_model).copied().collect();
                assert!(set.union(&other).iter().eq(union.iter()));
                assert_eq!(set == other, model == other_model);
                assert_eq!(format!("{set:?}"), format!("{model:?}"));
            }
            let rebuilt: SiteSet = model.iter().rev().copied().collect();
            assert_eq!(rebuilt, set, "equality ignores whether the set spilled");
        });
    }
}

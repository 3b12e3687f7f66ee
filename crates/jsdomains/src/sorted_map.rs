//! A small ordered map over one sorted vector.
//!
//! An abstract object's properties and internal slots are read, copied
//! and joined far more often than they gain keys: every copy-on-write
//! copies a whole map, and every heap join walks two maps side by side.
//! A sorted `(key, value)` vector makes the copy one allocation and the
//! walk a scan of contiguous memory, where a `BTreeMap` allocates a node
//! per eleven entries and chases a pointer per node. The price is an
//! O(n) insert of a new key, which a copy-on-write write already pays
//! for the copy.

use std::fmt;

/// A map kept as one vector sorted by key, with the `BTreeMap` surface
/// the domains use. Iteration is in key order (for [`Sym`](crate::Sym)
/// keys: by text), and it prints like a `BTreeMap`.
#[derive(Clone, PartialEq)]
pub struct SortedMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K: Ord + Copy, V> SortedMap<K, V> {
    /// An empty map.
    pub const fn new() -> SortedMap<K, V> {
        SortedMap {
            entries: Vec::new(),
        }
    }

    /// The index of `key`, or where it would be inserted.
    fn find(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The value under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let i = self.find(key).ok()?;
        Some(&self.entries[i].1)
    }

    /// True if the map has an entry under `key`.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// Sets `key` to `value`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// The value under `key`, inserting `default()` first if absent.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let i = match self.find(&key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.find(key).ok()?;
        Some(self.entries.remove(i).1)
    }

    /// The entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// The entries in key order, values mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    /// The keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// The values in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// The values in key order, mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// Joins `other` into this map in one walk over both sorted vectors:
    /// `both` joins `other`'s value into a shared key's, `mine_only`
    /// updates a value whose key `other` lacks, and `theirs_only` makes
    /// the value to insert for a key only `other` has. Returns true when
    /// a callback reports a change or a key is inserted. Inserted keys
    /// are spliced in by one more linear pass, so the merge is
    /// O(n + m) however many keys are new.
    pub fn merge(
        &mut self,
        other: &SortedMap<K, V>,
        mut both: impl FnMut(&mut V, &V) -> bool,
        mut mine_only: impl FnMut(&mut V) -> bool,
        mut theirs_only: impl FnMut(&V) -> V,
    ) -> bool {
        let mut changed = false;
        let mut missing: Vec<(K, V)> = Vec::new();
        let mut theirs = other.entries.iter().peekable();
        for (k, v) in &mut self.entries {
            while let Some((tk, tv)) = theirs.next_if(|(tk, _)| tk < k) {
                missing.push((*tk, theirs_only(tv)));
            }
            changed |= match theirs.next_if(|(tk, _)| tk == k) {
                Some((_, tv)) => both(v, tv),
                None => mine_only(v),
            };
        }
        missing.extend(theirs.map(|(tk, tv)| (*tk, theirs_only(tv))));
        if missing.is_empty() {
            return changed;
        }
        let mine = std::mem::take(&mut self.entries);
        self.entries.reserve_exact(mine.len() + missing.len());
        let mut missing = missing.into_iter().peekable();
        for entry in mine {
            while let Some(new) = missing.next_if(|(k, _)| *k < entry.0) {
                self.entries.push(new);
            }
            self.entries.push(entry);
        }
        self.entries.extend(missing);
        true
    }
}

impl<K: Ord + Copy, V> Default for SortedMap<K, V> {
    fn default() -> SortedMap<K, V> {
        SortedMap::new()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for SortedMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::Sym;
    use minicheck::Gen;
    use std::collections::BTreeMap;

    /// More cases under `--features fuzz`.
    const CASES: u64 = if cfg!(feature = "fuzz") { 4096 } else { 256 };

    /// Keys whose text order differs from the order they are listed (and
    /// so, first interned) in.
    fn key(g: &mut Gen) -> Sym {
        let keys = ["sm-b", "sm-a", "sm-ab", "sm-", "sm-ba", "sm-c"];
        Sym::intern(g.pick::<&str>(&keys))
    }

    fn arb_pair(g: &mut Gen) -> (SortedMap<Sym, u8>, BTreeMap<Sym, u8>) {
        let (mut map, mut model) = (SortedMap::new(), BTreeMap::new());
        for _ in 0..g.below(6) {
            let (k, v) = (key(g), g.below(8) as u8);
            assert_eq!(map.insert(k, v), model.insert(k, v));
        }
        (map, model)
    }

    /// Random insert/remove/lookup sequences against `BTreeMap`.
    #[test]
    fn matches_btreemap_on_random_operations() {
        minicheck::check("sorted_map_matches_btreemap", CASES, |g| {
            let (mut map, mut model) = arb_pair(g);
            for _ in 0..g.below(24) {
                let (k, v) = (key(g), g.below(8) as u8);
                match g.below(4) {
                    0 => assert_eq!(map.insert(k, v), model.insert(k, v)),
                    1 => assert_eq!(map.remove(&k), model.remove(&k)),
                    2 => {
                        *map.get_or_insert_with(k, || v) += 1;
                        *model.entry(k).or_insert(v) += 1;
                    }
                    _ => {
                        assert_eq!(map.get(&k), model.get(&k));
                        assert_eq!(map.contains_key(&k), model.contains_key(&k));
                    }
                }
                assert!(map.iter().eq(model.iter()), "{map:?} vs {model:?}");
                assert!(map.keys().eq(model.keys()));
                assert_eq!(format!("{map:?}"), format!("{model:?}"));
            }
            for v in map.values_mut() {
                *v = v.wrapping_add(1);
            }
            for (_, v) in map.iter_mut() {
                *v = v.wrapping_add(1);
            }
            for v in model.values_mut() {
                *v = v.wrapping_add(2);
            }
            assert!(map.values().eq(model.values()));
        });
    }

    /// `merge` against the same join done key by key on `BTreeMap`s.
    #[test]
    fn merge_matches_a_key_by_key_join() {
        minicheck::check("sorted_map_merge", CASES, |g| {
            let ((mut map, mut model), (other, other_model)) = (arb_pair(g), arb_pair(g));
            // Values join by max; a key one side lacks gets bit 7.
            let both = |m: &mut u8, t: &u8| {
                let old = *m;
                *m = old.max(*t);
                *m != old
            };
            let mine_only = |m: &mut u8| {
                let old = *m;
                *m |= 0x80;
                *m != old
            };
            let mut expected = false;
            for (k, t) in &other_model {
                match model.get_mut(k) {
                    Some(m) => expected |= both(m, t),
                    None => {
                        model.insert(*k, t | 0x80);
                        expected = true;
                    }
                }
            }
            for (k, m) in model.iter_mut() {
                if !other_model.contains_key(k) {
                    expected |= mine_only(m);
                }
            }
            let changed = map.merge(&other, both, mine_only, |t| t | 0x80);
            assert_eq!(changed, expected);
            assert!(map.iter().eq(model.iter()), "{map:?} vs {model:?}");
        });
    }
}

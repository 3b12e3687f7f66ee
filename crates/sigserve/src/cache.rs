//! The content-addressed signature cache.
//!
//! Key = FNV-1a over (source bytes, canonicalized
//! [`AnalysisConfig`](jsanalysis::AnalysisConfig)):
//! two submissions share a slot exactly when the pipeline would produce
//! the same report for both, so addon-market traffic full of re-submitted
//! and duplicated addons is answered in microseconds instead of
//! re-analyzed. Bounded by LRU eviction. The cache keeps no counters of
//! its own: the job core counts hits, misses and evictions in the
//! daemon's metrics registry.

use minijson::Json;
use std::collections::{BTreeMap, HashMap};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte stream.
fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The content address of one vetting job: FNV-1a of the source bytes, a
/// separator that cannot occur in UTF-8, and the canonical config
/// rendering (pass `AnalysisConfig::canonical_string()` as `config_canon`;
/// the server precomputes it once).
pub fn cache_key(source: &str, config_canon: &str) -> u64 {
    let h = fnv1a(FNV_OFFSET, source.as_bytes());
    let h = fnv1a(h, &[0xff]);
    fnv1a(h, config_canon.as_bytes())
}

struct Entry {
    value: Json,
    stamp: u64,
    /// Request ID of the job whose analysis produced this entry; logged
    /// as provenance on every later hit.
    producer: String,
}

/// An LRU map from content address to the cached core vet result (the
/// response body minus per-request provenance fields).
pub struct SigCache {
    cap: usize,
    map: HashMap<u64, Entry>,
    /// Recency index: stamp -> key. The smallest stamp is the LRU entry;
    /// `BTreeMap` gives O(log n) bump/evict without unsafe list surgery.
    order: BTreeMap<u64, u64>,
    next_stamp: u64,
}

impl SigCache {
    /// A cache holding at most `cap` results; `cap == 0` disables caching
    /// (every lookup misses, inserts are dropped).
    pub fn new(cap: usize) -> SigCache {
        SigCache {
            cap,
            map: HashMap::new(),
            order: BTreeMap::new(),
            next_stamp: 0,
        }
    }

    fn bump(order: &mut BTreeMap<u64, u64>, next_stamp: &mut u64, entry: &mut Entry, key: u64) {
        order.remove(&entry.stamp);
        entry.stamp = *next_stamp;
        *next_stamp += 1;
        order.insert(entry.stamp, key);
    }

    /// Lookup: bumps recency. Returns the cached core plus the producing
    /// job's request ID (provenance).
    pub fn get(&mut self, key: u64) -> Option<(Json, String)> {
        let entry = self.map.get_mut(&key)?;
        Self::bump(&mut self.order, &mut self.next_stamp, entry, key);
        Some((entry.value.clone(), entry.producer.clone()))
    }

    /// Inserts (or refreshes) an entry, evicting the least recently used
    /// entry if the cache is full. `producer` is the request ID of the
    /// job whose analysis produced the value. Returns whether an entry
    /// was evicted to make room.
    pub fn insert(&mut self, key: u64, value: Json, producer: &str) -> bool {
        if self.cap == 0 {
            return false;
        }
        if let Some(entry) = self.map.get_mut(&key) {
            entry.value = value;
            entry.producer = producer.to_owned();
            Self::bump(&mut self.order, &mut self.next_stamp, entry, key);
            return false;
        }
        let evicted = self.map.len() >= self.cap;
        if evicted {
            let (&oldest_stamp, &oldest_key) =
                self.order.iter().next().expect("full cache has an LRU entry");
            self.order.remove(&oldest_stamp);
            self.map.remove(&oldest_key);
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.order.insert(stamp, key);
        self.map.insert(
            key,
            Entry {
                value,
                stamp,
                producer: producer.to_owned(),
            },
        );
        evicted
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsanalysis::AnalysisConfig;

    fn val(n: u32) -> Json {
        let mut o = Json::obj();
        o.set("n", Json::from(n));
        o
    }

    #[test]
    fn key_depends_on_source_and_config() {
        let base = AnalysisConfig::default();
        let deeper = AnalysisConfig {
            context_depth: 2,
            ..AnalysisConfig::default()
        };
        let key =
            |source: &str, config: &AnalysisConfig| cache_key(source, &config.canonical_string());
        let k1 = key("var x = 1;", &base);
        assert_eq!(k1, key("var x = 1;", &base), "deterministic");
        assert_ne!(k1, key("var x = 2;", &base), "source-sensitive");
        assert_ne!(k1, key("var x = 1;", &deeper), "config-sensitive");
    }

    #[test]
    fn separator_prevents_boundary_collisions() {
        // (source="ab", config="c") must not collide with ("a", "bc").
        assert_ne!(cache_key("ab", "c"), cache_key("a", "bc"));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = SigCache::new(2);
        assert!(!c.insert(1, val(1), "j-1"));
        assert!(!c.insert(2, val(2), "j-2"));
        assert!(c.get(1).is_some()); // 2 is now LRU
        assert!(
            c.insert(3, val(3), "j-3"),
            "inserting into a full cache evicts"
        );
        assert!(c.get(2).is_none());
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn hits_carry_the_producing_jobs_id() {
        let mut c = SigCache::new(4);
        assert!(c.get(11).is_none());
        c.insert(11, val(1), "j-41");
        assert_eq!(c.get(11).unwrap(), (val(1), "j-41".to_owned()));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = SigCache::new(0);
        assert!(!c.insert(1, val(1), "j-0"));
        assert!(c.get(1).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn refresh_keeps_single_entry() {
        let mut c = SigCache::new(2);
        c.insert(1, val(1), "j-1");
        assert!(!c.insert(1, val(9), "j-2"), "a refresh evicts nothing");
        let (value, producer) = c.get(1).unwrap();
        assert_eq!(value, val(9));
        assert_eq!(producer, "j-2", "refresh updates provenance");
        assert_eq!(c.len(), 1);
    }
}

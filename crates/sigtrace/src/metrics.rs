//! A process-wide metrics registry for the vetting daemon: named
//! monotonic counters and fixed log₂-bucket histograms.
//!
//! The registry is shared across worker threads. Lookups take a brief
//! `Mutex` on the name table, but the returned handles are `Arc`-shared
//! atomics, so steady-state recording is lock-free — workers resolve
//! their handles once (or use the convenience methods, whose lock is
//! still far off any analysis hot path).

use crate::counter::Counters;
use crate::layer::LayerTimes;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets. Bucket `i > 0` counts values `v` with
/// `2^(i-1) <= v < 2^i`; bucket 0 counts `v == 0`; the last bucket
/// absorbs everything `>= 2^(HISTOGRAM_BUCKETS-2)` (with microsecond
/// values, that is ≳ 18 minutes — effectively "too long").
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A histogram with fixed log₂-scale buckets plus exact count and sum.
///
/// All fields are atomics: recording is a relaxed fetch-add, and two
/// histograms recorded on different threads merge by addition (see
/// [`HistogramSnapshot::merge`]).
#[derive(Debug, Default)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// The bucket a value falls into.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((v.ilog2() as usize) + 1).min(HISTOGRAM_BUCKETS - 1)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_owned(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time copy of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registry name of the histogram.
    pub name: String,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values (mean = `sum / count`).
    pub sum: u64,
    /// Per-bucket observation counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Exclusive upper bound of bucket `i` (`None` for the overflow
    /// bucket).
    pub fn bucket_limit(i: usize) -> Option<u64> {
        if i + 1 >= HISTOGRAM_BUCKETS {
            None
        } else {
            Some(1u64 << i)
        }
    }

    /// Merges another snapshot of the *same* metric into this one
    /// (pointwise addition; snapshots from different threads or
    /// processes combine losslessly because the buckets are fixed).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as an **inclusive upper-bound
    /// estimate**.
    ///
    /// Bucket-upper-bound convention: the returned value is the largest
    /// value the bucket holding the quantile rank can contain — `0` for
    /// the zero bucket, `2^i − 1` for bucket `i` (which holds
    /// `[2^(i−1), 2^i)`), `u64::MAX` for the overflow bucket. The true
    /// quantile is never *above* the returned value, and the log₂
    /// layout keeps it within 2× below — what rate/trend reporting
    /// needs. Every `p50<=`-style rendering of this value should say
    /// so ("<=", not "=").
    ///
    /// One refinement: when **all** observations landed in a single
    /// bucket, the recorded `sum` pins the estimate down further. The
    /// other `count − 1` observations are each at least the bucket's
    /// lower bound, so no observation can exceed
    /// `sum − (count − 1) · lower`; a single-valued histogram (every
    /// observation equal) therefore reports the exact value instead of
    /// the inflated bucket cap (e.g. 100×`record(4)` → `Some(4)`,
    /// not `Some(7)`).
    ///
    /// `None` on an empty histogram and for NaN `q` (a NaN must not
    /// masquerade as `q = 0`); out-of-range finite `q` clamps to
    /// `0.0 ..= 1.0`.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 || q.is_nan() {
            return None;
        }
        // Rank of the quantile observation, 1-based. `q = 0` still maps
        // to rank 1 (the minimum observation's bucket).
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                let cap = match HistogramSnapshot::bucket_limit(i) {
                    Some(limit) => limit - 1,
                    None => u64::MAX,
                };
                return Some(self.refine_single_bucket(i, c, cap));
            }
        }
        // count > 0 guarantees some bucket reached the rank; tolerate a
        // torn snapshot (count raced ahead of the bucket increments).
        Some(u64::MAX)
    }

    /// Sum-based tightening of the bucket cap when every observation sits
    /// in bucket `i` (see [`HistogramSnapshot::percentile`]). Falls back
    /// to `cap` whenever the snapshot looks torn or wrapped.
    fn refine_single_bucket(&self, i: usize, in_bucket: u64, cap: u64) -> u64 {
        if in_bucket != self.count {
            return cap; // observations in other buckets: no single-bucket bound
        }
        let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
        let spread = self
            .count
            .checked_sub(1)
            .and_then(|n| n.checked_mul(lower))
            .and_then(|floor| self.sum.checked_sub(floor));
        match spread {
            // A valid single-bucket snapshot has every value >= lower,
            // so spread >= lower too; anything else is a torn/wrapped
            // sum (sum wraps mod 2^64 by design) — keep the safe cap.
            Some(s) if i == 0 || s >= lower => s.min(cap),
            _ => cap,
        }
    }
}

/// A point-in-time copy of a whole [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every registered counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Snapshot of every registered histogram, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Named monotonic counters and histograms, shared across threads.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Handle to the counter named `name`, creating it at zero. Cache
    /// the handle when recording from a hot loop.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        let mut counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        match counters.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(AtomicU64::new(0));
                counters.insert(name.to_owned(), Arc::clone(&c));
                c
            }
        }
    }

    /// Adds `delta` to the counter named `name`.
    pub fn add(&self, name: &str, delta: u64) {
        self.counter(name).fetch_add(delta, Ordering::Relaxed);
    }

    /// Handle to the histogram named `name`, creating it empty.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut histograms = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        match histograms.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::new());
                histograms.insert(name.to_owned(), Arc::clone(&h));
                h
            }
        }
    }

    /// Records one observation into the histogram named `name`.
    pub fn record(&self, name: &str, v: u64) {
        self.histogram(name).record(v);
    }

    /// Folds one pipeline run's [`Counters`] into the registry, keyed
    /// by [`Counter::name`](crate::Counter::name) under a `pipeline_`
    /// prefix.
    pub fn merge_counters(&self, counters: &Counters) {
        for (c, v) in counters.iter() {
            if v != 0 {
                self.add(&format!("pipeline_{}", c.name()), v);
            }
        }
    }

    /// Records one pipeline run's [`LayerTimes`]: each layer that ran
    /// lands in its `pipeline_<layer>_us` histogram, named from
    /// [`Layer::name`](crate::Layer::name) with dots as underscores.
    pub fn record_layers(&self, times: &LayerTimes) {
        for (layer, elapsed) in times.iter() {
            let name = format!("pipeline_{}_us", layer.name().replace('.', "_"));
            self.record(
                &name,
                u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
            );
        }
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = {
            let map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
            map.iter()
                .map(|(name, c)| (name.clone(), c.load(Ordering::Relaxed)))
                .collect()
        };
        let histograms = {
            let map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
            map.iter().map(|(name, h)| h.snapshot(name)).collect()
        };
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Counter;

    #[test]
    fn bucket_index_is_log2_with_zero_and_overflow_buckets() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(HistogramSnapshot::bucket_limit(0), Some(1));
        assert_eq!(HistogramSnapshot::bucket_limit(10), Some(1024));
        assert_eq!(HistogramSnapshot::bucket_limit(HISTOGRAM_BUCKETS - 1), None);
    }

    #[test]
    fn histogram_counts_sums_and_merges() {
        let h = Histogram::new();
        for v in [0, 1, 3, 1000, 1_000_000] {
            h.record(v);
        }
        let snap = h.snapshot("lat_us");
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1_001_004);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 5);
        assert_eq!(snap.buckets[0], 1);

        let mut merged = snap.clone();
        merged.merge(&snap);
        assert_eq!(merged.count, 10);
        assert_eq!(merged.sum, 2_002_008);
        assert_eq!(merged.buckets[0], 2);
    }

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // Exhaustive boundary sweep: for every finite bucket i >= 1, the
        // lower bound 2^(i-1) lands in bucket i and the value just below
        // it in bucket i-1.
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            let lo = 1u64 << (i - 1);
            assert_eq!(bucket_index(lo), i, "2^{} must open bucket {i}", i - 1);
            assert_eq!(
                bucket_index(lo - 1),
                i - 1,
                "2^{}-1 must close bucket {}",
                i - 1,
                i - 1
            );
        }
        // The overflow bucket starts exactly at 2^(HISTOGRAM_BUCKETS-2).
        let overflow_lo = 1u64 << (HISTOGRAM_BUCKETS - 2);
        assert_eq!(bucket_index(overflow_lo), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(overflow_lo - 1), HISTOGRAM_BUCKETS - 2);
    }

    #[test]
    fn extreme_values_zero_one_and_u64_max() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        let snap = h.snapshot("extremes");
        assert_eq!(snap.count, 3);
        assert_eq!(snap.buckets[0], 1, "0 goes to the zero bucket");
        assert_eq!(snap.buckets[1], 1, "1 goes to bucket [1,2)");
        assert_eq!(snap.buckets[HISTOGRAM_BUCKETS - 1], 1, "u64::MAX overflows");
        // sum wraps modulo 2^64 by design (relaxed fetch_add); the count
        // and buckets stay exact, which is what the percentiles use.
        assert_eq!(snap.sum, 0u64.wrapping_add(1).wrapping_add(u64::MAX));
    }

    #[test]
    fn percentile_on_empty_histogram_is_none() {
        let snap = Histogram::new().snapshot("empty");
        assert_eq!(snap.percentile(0.0), None);
        assert_eq!(snap.percentile(0.5), None);
        assert_eq!(snap.percentile(1.0), None);
    }

    #[test]
    fn percentile_on_single_bucket_histogram() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(5); // bucket [4, 8)
        }
        let snap = h.snapshot("single");
        // Every quantile lives in the one occupied bucket; the estimate
        // is its inclusive upper bound.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(snap.percentile(q), Some(7), "q={q}");
        }
        // All-zero observations report exactly zero.
        let z = Histogram::new();
        z.record(0);
        assert_eq!(z.snapshot("zeros").percentile(0.5), Some(0));
        // A single u64::MAX reports the overflow bucket's cap.
        let m = Histogram::new();
        m.record(u64::MAX);
        assert_eq!(m.snapshot("max").percentile(0.5), Some(u64::MAX));
    }

    #[test]
    fn percentile_refines_when_one_bucket_is_occupied() {
        // Single-valued histogram: the sum pins the exact value, so no
        // 4-reports-as-7 inflation.
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(4); // bucket [4, 8): cap 7, but sum says exactly 4
        }
        let snap = h.snapshot("exact");
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(snap.percentile(q), Some(4), "q={q}");
        }
        let one = Histogram::new();
        one.record(5);
        assert_eq!(one.snapshot("one").percentile(0.5), Some(5));
        // Mixed values inside the bucket: the sum bound tightens the cap
        // without going below the true maximum (4 and 6: bound is
        // 10 - 1*4 = 6, exactly the max).
        let mixed = Histogram::new();
        mixed.record(4);
        mixed.record(6);
        assert_eq!(mixed.snapshot("mixed").percentile(1.0), Some(6));
        // Two occupied buckets: no single-bucket bound, cap stands.
        let spread = Histogram::new();
        spread.record(4);
        spread.record(100);
        assert_eq!(spread.snapshot("spread").percentile(1.0), Some(127));
    }

    #[test]
    fn percentile_rejects_nan_and_clamps_out_of_range() {
        let h = Histogram::new();
        h.record(5);
        let snap = h.snapshot("q");
        // NaN used to clamp to NaN, cast to rank 0, and silently read as
        // rank 1; it must be an explicit None instead.
        assert_eq!(snap.percentile(f64::NAN), None);
        // Finite out-of-range quantiles clamp.
        assert_eq!(snap.percentile(-1.0), snap.percentile(0.0));
        assert_eq!(snap.percentile(2.0), snap.percentile(1.0));
    }

    #[test]
    fn percentile_walks_cumulative_buckets() {
        let h = Histogram::new();
        for _ in 0..50 {
            h.record(1); // bucket 1, upper bound estimate 1
        }
        for _ in 0..49 {
            h.record(1000); // bucket 10 ([512, 1024)), estimate 1023
        }
        h.record(1 << 20); // bucket 21, estimate 2^21 - 1
        let snap = h.snapshot("walk");
        assert_eq!(snap.percentile(0.25), Some(1));
        assert_eq!(snap.percentile(0.50), Some(1), "rank 50 is the last 1");
        assert_eq!(snap.percentile(0.75), Some(1023));
        assert_eq!(snap.percentile(0.99), Some(1023));
        assert_eq!(snap.percentile(1.0), Some((1 << 21) - 1));
    }

    #[test]
    fn registry_is_shared_across_threads() {
        let reg = MetricsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..100 {
                        reg.add("vets", 1);
                        reg.record("lat_us", i);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("vets".to_owned(), 400)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].count, 400);
    }

    #[test]
    fn merge_counters_uses_stable_pipeline_names() {
        let reg = MetricsRegistry::new();
        let mut c = Counters::new();
        c.add(Counter::WorklistSteps, 5);
        reg.merge_counters(&c);
        reg.merge_counters(&c);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("pipeline_worklist_steps".to_owned(), 10)]
        );
    }
}

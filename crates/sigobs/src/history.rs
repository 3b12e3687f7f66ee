//! A bounded on-disk ring of metrics snapshots.
//!
//! `vet serve --metrics-dir D` snapshots the daemon's `MetricsRegistry`
//! on an interval into `D/metrics-<slot>.json`, where
//! `slot = seq % capacity` — the newest `capacity` snapshots survive, the
//! ring wraps in place, and nothing ever grows without bound. Sequence
//! numbers continue across restarts (the ring is scanned for the max on
//! open), so `vet metrics-report D` can render trends that span daemon
//! lifetimes.
//!
//! On-disk record schema (version [`HISTORY_SCHEMA`]):
//!
//! ```text
//! {"schema":1,"seq":12,"unix_ms":1754556000123,
//!  "counters":{"serve_jobs_accepted":42},
//!  "histograms":{"pipeline_jsanalysis_fixpoint_us":{"count":3,"sum":512,"buckets":[[3,2],[9,1]]}}}
//! ```
//!
//! Histogram buckets persist as sparse `[bucket_index, count]` pairs —
//! lossless against the fixed log₂ layout, so reloaded snapshots answer
//! percentile queries exactly as the live registry would have.

use minijson::Json;
use sigtrace::{HistogramSnapshot, MetricsSnapshot, HISTOGRAM_BUCKETS};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// Version stamp written into every history record. Bump on any change
/// to the record layout; `load` skips records from other versions rather
/// than misreading them.
pub const HISTORY_SCHEMA: u64 = 1;

/// One reloaded history record: a metrics snapshot plus its position in
/// the ring and the wall-clock time it was taken.
#[derive(Debug, Clone)]
pub struct HistoryRecord {
    /// Monotone sequence number (survives restarts).
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch at snapshot time.
    pub unix_ms: u64,
    /// The registry contents at that moment.
    pub snapshot: MetricsSnapshot,
}

impl HistoryRecord {
    /// Looks up a counter by name in this record's snapshot.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a histogram by name in this record's snapshot.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.snapshot.histograms.iter().find(|h| h.name == name)
    }
}

/// Writer half of the ring: owns the directory and the next sequence
/// number.
#[derive(Debug)]
pub struct MetricsHistory {
    dir: PathBuf,
    capacity: u64,
    next_seq: u64,
}

fn record_path(dir: &Path, slot: u64) -> PathBuf {
    dir.join(format!("metrics-{slot:05}.json"))
}

fn snapshot_to_json(seq: u64, unix_ms: u64, snap: &MetricsSnapshot) -> Json {
    let mut counters = Json::obj();
    for (name, value) in &snap.counters {
        counters.set(name, Json::from(*value as f64));
    }
    let mut histograms = Json::obj();
    for h in &snap.histograms {
        let mut buckets = Vec::new();
        for (i, &c) in h.buckets.iter().enumerate() {
            if c != 0 {
                buckets.push(Json::Arr(vec![Json::from(i as f64), Json::from(c as f64)]));
            }
        }
        let mut entry = Json::obj();
        entry.set("count", Json::from(h.count as f64));
        entry.set("sum", Json::from(h.sum as f64));
        entry.set("buckets", Json::Arr(buckets));
        histograms.set(&h.name, entry);
    }
    let mut record = Json::obj();
    record.set("schema", Json::from(HISTORY_SCHEMA as f64));
    record.set("seq", Json::from(seq as f64));
    record.set("unix_ms", Json::from(unix_ms as f64));
    record.set("counters", counters);
    record.set("histograms", histograms);
    record
}

fn json_to_record(v: &Json) -> Option<HistoryRecord> {
    if v["schema"].as_f64() != Some(HISTORY_SCHEMA as f64) {
        return None;
    }
    let seq = v["seq"].as_f64()? as u64;
    let unix_ms = v["unix_ms"].as_f64()? as u64;
    let mut counters = Vec::new();
    if let Json::Obj(entries) = &v["counters"] {
        for (name, value) in entries {
            counters.push((name.clone(), value.as_f64()? as u64));
        }
    }
    let mut histograms = Vec::new();
    if let Json::Obj(entries) = &v["histograms"] {
        for (name, h) in entries {
            let mut buckets = [0u64; HISTOGRAM_BUCKETS];
            for pair in h["buckets"].as_array()? {
                let i = pair[0].as_f64()? as usize;
                if i < HISTOGRAM_BUCKETS {
                    buckets[i] = pair[1].as_f64()? as u64;
                }
            }
            histograms.push(HistogramSnapshot {
                name: name.clone(),
                count: h["count"].as_f64()? as u64,
                sum: h["sum"].as_f64()? as u64,
                buckets,
            });
        }
    }
    counters.sort();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    Some(HistoryRecord {
        seq,
        unix_ms,
        snapshot: MetricsSnapshot {
            counters,
            histograms,
        },
    })
}

fn read_ring(dir: &Path) -> io::Result<Vec<HistoryRecord>> {
    let mut records = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !(name.starts_with("metrics-") && name.ends_with(".json")) {
            continue;
        }
        let Ok(text) = fs::read_to_string(entry.path()) else {
            continue; // a record torn by a crash is not worth failing over
        };
        if let Some(record) = Json::parse(&text).ok().as_ref().and_then(json_to_record) {
            records.push(record);
        }
    }
    records.sort_by_key(|r| r.seq);
    Ok(records)
}

impl MetricsHistory {
    /// Opens (creating if needed) the ring at `dir`, keeping at most
    /// `capacity` snapshots. Existing records are scanned so sequence
    /// numbers continue where the previous daemon left off.
    pub fn open(dir: impl Into<PathBuf>, capacity: u64) -> io::Result<MetricsHistory> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let next_seq = read_ring(&dir)?.last().map(|r| r.seq + 1).unwrap_or(0);
        Ok(MetricsHistory {
            dir,
            capacity: capacity.max(1),
            next_seq,
        })
    }

    /// The ring's capacity in snapshots.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Persists one snapshot, overwriting the oldest slot once the ring
    /// is full. Returns the record's sequence number. The write goes
    /// through a temp file + rename so readers never observe a torn
    /// record.
    pub fn append(&mut self, snap: &MetricsSnapshot) -> io::Result<u64> {
        let seq = self.next_seq;
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        let record = snapshot_to_json(seq, unix_ms, snap);
        let path = record_path(&self.dir, seq % self.capacity);
        let tmp = path.with_extension("json.tmp");
        fs::write(&tmp, record.to_string_compact())?;
        fs::rename(&tmp, &path)?;
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// Reads every valid record in `dir`, sorted by sequence number.
    /// Foreign-schema or torn records are skipped, not errors — the ring
    /// outlives analyzer versions.
    pub fn load(dir: impl AsRef<Path>) -> io::Result<Vec<HistoryRecord>> {
        read_ring(dir.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigtrace::MetricsRegistry;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sigobs-history-{tag}-{}-{}",
            std::process::id(),
            SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn snap(jobs: u64) -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.add("jobs", jobs);
        reg.record("lat_us", 5);
        reg.record("lat_us", 1000);
        reg.snapshot()
    }

    #[test]
    fn roundtrips_snapshots_losslessly() {
        let dir = temp_dir("roundtrip");
        let mut h = MetricsHistory::open(&dir, 8).unwrap();
        let original = snap(3);
        h.append(&original).unwrap();
        let loaded = MetricsHistory::load(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].seq, 0);
        assert_eq!(
            loaded[0].snapshot, original,
            "buckets, count, sum all survive"
        );
        assert_eq!(loaded[0].snapshot.histograms[0].percentile(0.5), Some(7));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let dir = temp_dir("bounded");
        let mut h = MetricsHistory::open(&dir, 3).unwrap();
        for i in 0..7 {
            h.append(&snap(i)).unwrap();
        }
        let loaded = MetricsHistory::load(&dir).unwrap();
        let seqs: Vec<u64> = loaded.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [4, 5, 6], "only the newest `capacity` records remain");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sequence_numbers_survive_reopen() {
        let dir = temp_dir("reopen");
        let mut h = MetricsHistory::open(&dir, 4).unwrap();
        h.append(&snap(1)).unwrap();
        h.append(&snap(2)).unwrap();
        drop(h);
        let mut h2 = MetricsHistory::open(&dir, 4).unwrap();
        let seq = h2.append(&snap(3)).unwrap();
        assert_eq!(seq, 2, "restart continues the sequence, not restarts it");
        let loaded = MetricsHistory::load(&dir).unwrap();
        assert_eq!(loaded.iter().map(|r| r.seq).collect::<Vec<_>>(), [0, 1, 2]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_schema_records_are_skipped() {
        let dir = temp_dir("schema");
        fs::write(dir.join("metrics-00000.json"), r#"{"schema":99,"seq":0}"#).unwrap();
        fs::write(dir.join("metrics-00001.json"), "not json at all").unwrap();
        let mut h = MetricsHistory::open(&dir, 4).unwrap();
        let seq = h.append(&snap(1)).unwrap();
        assert_eq!(seq, 0, "invalid records do not advance the sequence");
        assert_eq!(MetricsHistory::load(&dir).unwrap().len(), 1);
        fs::remove_dir_all(&dir).ok();
    }
}

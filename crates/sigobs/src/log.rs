//! The structured event log: leveled JSONL with an in-memory ring tail.
//!
//! One record per line, compact JSON, schema:
//!
//! ```text
//! {"seq":17,"ts_us":1754556000123456,"level":"info","event":"job_enqueued",
//!  "job":"j-3","name":"addon.js","queue_depth":1}
//! ```
//!
//! `seq` is a per-logger monotone counter assigned under the same lock
//! that orders the writes, so file order equals `seq` order and replay
//! needs no clock assumptions; `ts_us` is wall-clock microseconds since
//! the Unix epoch, for humans and cross-process correlation.

//! Under overload the log can also *sample*: a [`SamplePolicy`] names
//! high-cardinality events (e.g. `job_rejected`) that, past a per-window
//! threshold, degrade to 1-in-N — dropped occurrences are counted and
//! declared in periodic `suppressed` records, so the replay validator
//! can reconcile lifecycles against an explicit budget instead of
//! requiring every record. Suppressed events consume **no** sequence
//! number: `seq` stays gap-free and strictly monotone, which is the
//! invariant replay checks.

use minijson::Json;
use sigtrace::{Layer, SpanCollector};
use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::replay::Event;

/// Log severity. Ordered `Error < Warn < Info < Debug`: a logger at
/// level `L` records everything at or above `L`'s severity (i.e. with
/// `level <= L` in this ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The daemon cannot do what was asked (I/O failures, poisoned state).
    Error,
    /// Degraded but handled: shed jobs, budget aborts, protocol errors.
    Warn,
    /// The job lifecycle: enqueue, dequeue, cache hits, verdicts.
    Info,
    /// High-volume detail: pipeline phase spans, cache inserts.
    Debug,
}

impl Level {
    /// Stable lowercase name used in log records and `--log-level`.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parses a `--log-level` flag value.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Number of records the in-memory tail retains by default.
pub const DEFAULT_TAIL_CAP: usize = 128;

/// Overload-safe sampling for high-cardinality events.
///
/// Within each `window`, the first `threshold` occurrences of a listed
/// event are logged in full; after that only every `keep_one_in`-th is
/// kept (tagged `"sampled":true`), and the drops accumulate into a
/// `suppressed` record — `{"event":"suppressed","suppressed_event":E,
/// "count":K,"sample_every":N}` — emitted before the next kept record
/// (and on window roll / [`EventLog::flush`]), so the log always
/// declares exactly how many records it dropped.
#[derive(Debug, Clone)]
pub struct SamplePolicy {
    /// Event names the policy applies to. Everything else logs in full.
    pub events: Vec<String>,
    /// Occurrences per window logged in full before sampling kicks in.
    pub threshold: u64,
    /// Past the threshold, keep one record in this many (min 1), for
    /// every listed event.
    pub keep_one_in: u64,
    /// The rate window. Elapsing it resets the per-window count and
    /// flushes any pending `suppressed` tally.
    pub window: Duration,
}

impl Default for SamplePolicy {
    /// `job_rejected`, 100 full records per 1s window, then 1-in-100.
    fn default() -> SamplePolicy {
        SamplePolicy {
            events: vec![Event::Rejected.name().to_owned()],
            threshold: 100,
            keep_one_in: 100,
            window: Duration::from_secs(1),
        }
    }
}

/// Per-event sampler bookkeeping (one per `SamplePolicy::events` entry).
#[derive(Debug, Clone, Copy, Default)]
struct SamplerState {
    /// `ts_us` at which the current window opened.
    window_start_us: u64,
    /// Occurrences seen in the current window (kept or not).
    seen_in_window: u64,
    /// Drops not yet declared in a `suppressed` record.
    pending_suppressed: u64,
    /// Lifetime drops (what [`EventLog::suppressed_total`] reports).
    total_suppressed: u64,
}

/// Whether a matched event survives its sampler.
enum Admit {
    /// Within the threshold: log normally.
    Full,
    /// Past the threshold but on the 1-in-N grid: log with `"sampled":true`.
    Sampled,
    /// Dropped: count it, write nothing, consume no `seq`.
    Suppressed,
}

struct Inner {
    /// `None` for a ring-only (in-memory) logger.
    file: Option<BufWriter<File>>,
    /// The most recent records, oldest first, as compact JSON lines.
    ring: VecDeque<String>,
    seq: u64,
    /// Parallel to the sampling policy's `events` list; empty when
    /// sampling is off.
    samplers: Vec<SamplerState>,
}

/// A leveled JSONL event logger shared across threads.
///
/// Records below the configured level cost one branch; everything else
/// takes a short lock to serialize, append to the ring, and (if a file
/// is attached) write one line. Lines are flushed eagerly so `tail -f`
/// and post-mortem replay see every completed record.
pub struct EventLog {
    level: Level,
    tail_cap: usize,
    sample: Option<SamplePolicy>,
    epoch: Instant,
    epoch_unix_us: u64,
    inner: Mutex<Inner>,
}

impl fmt::Debug for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventLog")
            .field("level", &self.level)
            .field("tail_cap", &self.tail_cap)
            .finish_non_exhaustive()
    }
}

impl EventLog {
    fn new(file: Option<File>, level: Level) -> EventLog {
        let epoch_unix_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        EventLog {
            level,
            tail_cap: DEFAULT_TAIL_CAP,
            sample: None,
            epoch: Instant::now(),
            epoch_unix_us,
            inner: Mutex::new(Inner {
                file: file.map(BufWriter::new),
                ring: VecDeque::new(),
                seq: 0,
                samplers: Vec::new(),
            }),
        }
    }

    /// A logger appending to `path` (created or truncated), keeping the
    /// ring tail as well.
    pub fn to_file(path: impl AsRef<Path>, level: Level) -> io::Result<EventLog> {
        Ok(EventLog::new(Some(File::create(path)?), level))
    }

    /// A ring-only logger (no file): the tail still feeds `stats`
    /// responses and tests.
    pub fn in_memory(level: Level) -> EventLog {
        EventLog::new(None, level)
    }

    /// Replaces the ring capacity (builder-style; default 128 records,
    /// `DEFAULT_TAIL_CAP`).
    #[must_use]
    pub fn with_tail_cap(mut self, cap: usize) -> EventLog {
        self.tail_cap = cap.max(1);
        self
    }

    /// Enables overload sampling (builder-style). `keep_one_in` is
    /// clamped to at least 1.
    #[must_use]
    pub fn with_sampling(mut self, mut policy: SamplePolicy) -> EventLog {
        policy.keep_one_in = policy.keep_one_in.max(1);
        self.inner
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .samplers = vec![SamplerState::default(); policy.events.len()];
        self.sample = Some(policy);
        self
    }

    /// Lifetime count of occurrences of `event` dropped by sampling
    /// (declared plus not-yet-declared).
    pub fn suppressed_total(&self, event: &str) -> u64 {
        let Some(policy) = &self.sample else { return 0 };
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        policy
            .events
            .iter()
            .zip(&inner.samplers)
            .filter(|(e, _)| e.as_str() == event)
            .map(|(_, s)| s.total_suppressed)
            .sum()
    }

    /// The logger's level.
    pub fn level(&self) -> Level {
        self.level
    }

    /// Whether records at `level` are kept. Check before assembling
    /// expensive fields.
    #[inline]
    pub fn enabled(&self, level: Level) -> bool {
        level <= self.level
    }

    fn now_ts_us(&self) -> u64 {
        self.epoch_unix_us
            .saturating_add(u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX))
    }

    /// Serializes and appends one record under the (held) lock,
    /// consuming a `seq`. `sampled` adds the `"sampled":true` marker.
    fn write_record(
        &self,
        inner: &mut Inner,
        ts_us: u64,
        level: Level,
        event: &str,
        fields: &[(&str, Json)],
        sampled: bool,
    ) {
        let mut record = Json::obj();
        record.set("seq", Json::from(inner.seq as f64));
        record.set("ts_us", Json::from(ts_us as f64));
        record.set("level", Json::from(level.name()));
        record.set("event", Json::from(event));
        for (k, v) in fields {
            record.set(k, v.clone());
        }
        if sampled {
            record.set("sampled", Json::Bool(true));
        }
        inner.seq += 1;
        let line = record.to_string_compact();
        if inner.ring.len() >= self.tail_cap {
            inner.ring.pop_front();
        }
        inner.ring.push_back(line.clone());
        if let Some(file) = &mut inner.file {
            // A full disk must not take the daemon down with it; the
            // ring keeps the record either way.
            let _ = writeln!(file, "{line}");
            let _ = file.flush();
        }
    }

    /// Declares `count` drops of policy event `idx` with a `suppressed`
    /// record carrying the keep rate.
    fn write_suppressed(&self, inner: &mut Inner, ts_us: u64, idx: usize, count: u64) {
        let (event, keep) = self
            .sample
            .as_ref()
            .map_or(("", 1), |p| (p.events[idx].as_str(), p.keep_one_in));
        self.write_record(
            inner,
            ts_us,
            Level::Warn,
            "suppressed",
            &[
                ("suppressed_event", Json::from(event)),
                ("count", Json::from(count as f64)),
                ("sample_every", Json::from(keep as f64)),
            ],
            false,
        );
    }

    /// Runs the sampler for policy event `idx`, declaring any pending
    /// drops that are due. The returned `Admit` says whether the caller
    /// may write the record.
    fn admit(&self, inner: &mut Inner, idx: usize, ts_us: u64) -> Admit {
        let policy = self.sample.as_ref().expect("admit without a policy");
        let window_us = u64::try_from(policy.window.as_micros()).unwrap_or(u64::MAX);
        let rolled = ts_us.saturating_sub(inner.samplers[idx].window_start_us) >= window_us;
        if rolled {
            let pending = std::mem::take(&mut inner.samplers[idx].pending_suppressed);
            inner.samplers[idx].window_start_us = ts_us;
            inner.samplers[idx].seen_in_window = 0;
            if pending > 0 {
                self.write_suppressed(inner, ts_us, idx, pending);
            }
        }
        inner.samplers[idx].seen_in_window += 1;
        let seen = inner.samplers[idx].seen_in_window;
        if seen <= policy.threshold {
            return Admit::Full;
        }
        let past = seen - policy.threshold;
        if !(past - 1).is_multiple_of(policy.keep_one_in) {
            inner.samplers[idx].pending_suppressed += 1;
            inner.samplers[idx].total_suppressed += 1;
            return Admit::Suppressed;
        }
        // Declare the drops *before* the kept record, so any log prefix
        // ending at a kept record already carries its full budget.
        let pending = std::mem::take(&mut inner.samplers[idx].pending_suppressed);
        if pending > 0 {
            self.write_suppressed(inner, ts_us, idx, pending);
        }
        Admit::Sampled
    }

    /// Appends one record. `fields` are emitted after the standard
    /// `seq`/`ts_us`/`level`/`event` header, in the given order. Events
    /// named by the sampling policy may instead be counted and dropped
    /// (see [`SamplePolicy`]); suppressed events consume no `seq`.
    pub fn log(&self, level: Level, event: &str, fields: &[(&str, Json)]) {
        if !self.enabled(level) {
            return;
        }
        let ts_us = self.now_ts_us();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let sampler = self
            .sample
            .as_ref()
            .and_then(|p| p.events.iter().position(|e| e == event));
        let sampled = match sampler {
            None => false,
            Some(idx) => match self.admit(&mut inner, idx, ts_us) {
                Admit::Full => false,
                Admit::Sampled => true,
                Admit::Suppressed => return,
            },
        };
        self.write_record(&mut inner, ts_us, level, event, fields, sampled);
    }

    /// Convenience: an error-level record.
    pub fn error(&self, event: &str, fields: &[(&str, Json)]) {
        self.log(Level::Error, event, fields);
    }

    /// Convenience: a warn-level record.
    pub fn warn(&self, event: &str, fields: &[(&str, Json)]) {
        self.log(Level::Warn, event, fields);
    }

    /// Convenience: an info-level record.
    pub fn info(&self, event: &str, fields: &[(&str, Json)]) {
        self.log(Level::Info, event, fields);
    }

    /// Convenience: a debug-level record.
    pub fn debug(&self, event: &str, fields: &[(&str, Json)]) {
        self.log(Level::Debug, event, fields);
    }

    /// The ring tail as parsed records, oldest first (unparseable lines
    /// — there should be none — surface as plain strings).
    pub fn tail(&self) -> Vec<Json> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .ring
            .iter()
            .map(|line| Json::parse(line).unwrap_or_else(|_| Json::Str(line.clone())))
            .collect()
    }

    /// The ring tail as raw compact JSON lines, oldest first.
    pub fn tail_lines(&self) -> Vec<String> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.ring.iter().cloned().collect()
    }

    /// Number of records emitted so far (at any level).
    pub fn records_written(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).seq
    }

    /// Flushes the file sink, if any, after declaring any sampling drops
    /// not yet covered by a `suppressed` record — so a flushed log
    /// always reconciles exactly. Writes already flush per line; this
    /// exists for shutdown paths.
    pub fn flush(&self) {
        let ts_us = self.now_ts_us();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if self.sample.is_some() {
            for idx in 0..inner.samplers.len() {
                let pending = std::mem::take(&mut inner.samplers[idx].pending_suppressed);
                if pending > 0 {
                    self.write_suppressed(&mut inner, ts_us, idx, pending);
                }
            }
        }
        if let Some(file) = &mut inner.file {
            let _ = file.flush();
        }
    }
}

/// A [`sigtrace::Tracer`] that logs the pipeline's layer spans as
/// debug-level events carrying the owning job's request ID — the bridge
/// that threads sigserve's job IDs into the analysis pipeline. A `span`
/// record names its layer by [`Layer::name`].
///
/// Spans are recorded by a [`SpanCollector`] on the log's own clock, so
/// each `span` record's `start_us` (plus `dur_us`) sits on the same
/// timeline as the records' `ts_us` and children nest exactly inside
/// their parents.
///
/// Counter deltas are deliberately ignored here: they already flow into
/// the daemon's `MetricsRegistry` via the engine, and duplicating them
/// per job would bloat the log.
pub struct LogTracer<'a> {
    log: &'a EventLog,
    job: &'a str,
    spans: SpanCollector,
}

impl<'a> LogTracer<'a> {
    /// A tracer logging spans on behalf of job `job`.
    pub fn new(log: &'a EventLog, job: &'a str) -> LogTracer<'a> {
        LogTracer {
            log,
            job,
            spans: SpanCollector::with_epoch(log.epoch),
        }
    }
}

impl sigtrace::Tracer for LogTracer<'_> {
    fn span_start(&mut self, layer: Layer) {
        self.spans.span_start(layer);
    }

    fn span_end(&mut self, layer: Layer) {
        let Some(span) = self.spans.close(layer) else {
            return; // tolerate protocol slips, like SpanCollector
        };
        self.log.debug(
            "span",
            &[
                ("job", Json::from(self.job)),
                ("span", Json::from(span.layer.name())),
                ("depth", Json::from(span.depth as f64)),
                (
                    "start_us",
                    Json::from(self.log.epoch_unix_us.saturating_add(span.start_us) as f64),
                ),
                ("dur_us", Json::from(span.dur_us as f64)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigtrace::Tracer as _;

    #[test]
    fn level_ordering_and_parse() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        for l in [Level::Error, Level::Warn, Level::Info, Level::Debug] {
            assert_eq!(Level::parse(l.name()), Some(l));
        }
        assert_eq!(Level::parse("verbose"), None);
    }

    #[test]
    fn records_carry_header_and_fields_in_order() {
        let log = EventLog::in_memory(Level::Info);
        log.info(
            "job_enqueued",
            &[("job", Json::from("j-1")), ("depth", Json::from(2.0))],
        );
        let tail = log.tail();
        assert_eq!(tail.len(), 1);
        let r = &tail[0];
        assert_eq!(r["seq"].as_f64(), Some(0.0));
        assert_eq!(r["level"], "info");
        assert_eq!(r["event"], "job_enqueued");
        assert_eq!(r["job"], "j-1");
        assert_eq!(r["depth"].as_f64(), Some(2.0));
        assert!(r["ts_us"].as_f64().is_some());
        // Compact single-line form.
        assert!(!log.tail_lines()[0].contains('\n'));
    }

    #[test]
    fn level_filter_drops_below_threshold() {
        let log = EventLog::in_memory(Level::Warn);
        assert!(log.enabled(Level::Error));
        assert!(log.enabled(Level::Warn));
        assert!(!log.enabled(Level::Info));
        log.error("e", &[]);
        log.warn("w", &[]);
        log.info("i", &[]);
        log.debug("d", &[]);
        let events: Vec<String> = log
            .tail()
            .iter()
            .map(|r| r["event"].as_str().unwrap().to_owned())
            .collect();
        assert_eq!(events, ["e", "w"]);
        assert_eq!(log.records_written(), 2);
    }

    #[test]
    fn ring_is_bounded_and_seq_is_monotone() {
        let log = EventLog::in_memory(Level::Info).with_tail_cap(3);
        for i in 0..10 {
            log.info("tick", &[("i", Json::from(i as f64))]);
        }
        let tail = log.tail();
        assert_eq!(tail.len(), 3, "ring keeps only the newest records");
        let seqs: Vec<f64> = tail.iter().map(|r| r["seq"].as_f64().unwrap()).collect();
        assert_eq!(seqs, [7.0, 8.0, 9.0]);
        assert_eq!(log.records_written(), 10);
    }

    #[test]
    fn file_sink_writes_parseable_jsonl() {
        let path = std::env::temp_dir().join(format!(
            "sigobs-test-{}-{}.jsonl",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let log = EventLog::to_file(&path, Level::Debug).expect("create log");
        log.info("a", &[("k", Json::from("v"))]);
        log.debug("b", &[]);
        log.flush();
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let r = Json::parse(line).expect("every line parses");
            assert!(r["event"].as_str().is_some());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn log_tracer_emits_debug_spans_with_job_id() {
        let log = EventLog::in_memory(Level::Debug);
        let mut t = LogTracer::new(&log, "j-42");
        t.span_start(Layer::Fixpoint);
        t.span_start(Layer::Infer);
        t.span_end(Layer::Infer);
        t.span_end(Layer::Fixpoint);
        t.span_end(Layer::Ddg); // never opened: tolerated
        let tail = log.tail();
        assert_eq!(tail.len(), 2, "one record per closed span");
        assert_eq!(tail[0]["event"], "span");
        assert_eq!(tail[0]["span"], Layer::Infer.name());
        assert_eq!(tail[0]["depth"].as_f64(), Some(1.0));
        assert_eq!(tail[0]["job"], "j-42");
        assert_eq!(tail[1]["span"], Layer::Fixpoint.name());
        assert_eq!(tail[1]["depth"].as_f64(), Some(0.0));
    }

    fn events_of(log: &EventLog) -> Vec<(String, Option<f64>)> {
        log.tail()
            .iter()
            .map(|r| (r["event"].as_str().unwrap().to_owned(), r["count"].as_f64()))
            .collect()
    }

    #[test]
    fn sampling_keeps_threshold_then_one_in_n_with_declared_drops() {
        let log = EventLog::in_memory(Level::Warn).with_sampling(SamplePolicy {
            events: vec!["job_rejected".to_owned()],
            threshold: 2,
            keep_one_in: 3,
            window: Duration::from_secs(3600), // never rolls mid-test
        });
        for i in 0..12 {
            log.warn("job_rejected", &[("i", Json::from(i as f64))]);
        }
        log.flush();
        // 12 occurrences: 2 full, then positions 1,4,7,10 past the
        // threshold are kept (1-in-3); 6 are suppressed, declared in
        // `suppressed` records of 2 each *before* the following kept
        // record (nothing left pending for flush()).
        let events = events_of(&log);
        let expected: Vec<(String, Option<f64>)> = [
            ("job_rejected", None),
            ("job_rejected", None),
            ("job_rejected", None), // past-threshold position 1 (no drops yet)
            ("suppressed", Some(2.0)),
            ("job_rejected", None), // position 4
            ("suppressed", Some(2.0)),
            ("job_rejected", None), // position 7
            ("suppressed", Some(2.0)),
            ("job_rejected", None), // position 10
        ]
        .iter()
        .map(|(e, c)| (e.to_string(), *c))
        .collect();
        assert_eq!(events, expected);
        assert_eq!(log.suppressed_total("job_rejected"), 6);
        // Kept sampled records carry the marker; full ones do not.
        let tail = log.tail();
        assert_eq!(tail[0]["sampled"], Json::Null);
        assert_eq!(tail[2]["sampled"], Json::Bool(true));
        // seq stays gap-free even though 6 events vanished.
        let seqs: Vec<f64> = tail.iter().map(|r| r["seq"].as_f64().unwrap()).collect();
        assert_eq!(seqs, (0..9).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn sampling_window_roll_resets_the_threshold() {
        let log = EventLog::in_memory(Level::Warn).with_sampling(SamplePolicy {
            events: vec!["job_rejected".to_owned()],
            threshold: 1,
            keep_one_in: 100,
            window: Duration::from_millis(40),
        });
        log.warn("job_rejected", &[]); // full (1st in window)
        log.warn("job_rejected", &[]); // kept, sampled (position 1)
        log.warn("job_rejected", &[]); // suppressed
        std::thread::sleep(Duration::from_millis(60));
        log.warn("job_rejected", &[]); // new window: declares 1 drop, then full
        let events = events_of(&log);
        let names: Vec<&str> = events.iter().map(|(e, _)| e.as_str()).collect();
        assert_eq!(
            names,
            ["job_rejected", "job_rejected", "suppressed", "job_rejected"]
        );
        assert_eq!(events[2].1, Some(1.0), "the roll declared the pending drop");
        assert_eq!(log.suppressed_total("job_rejected"), 1);
    }

    #[test]
    fn per_event_rates_sample_each_stream_at_its_own_rate() {
        // Two listed streams at the one rate: past the shared threshold
        // each stream keeps its own count and declares its own
        // `suppressed` budget.
        let log = EventLog::in_memory(Level::Debug).with_sampling(SamplePolicy {
            events: vec!["job_rejected".to_owned(), "span".to_owned()],
            threshold: 1,
            keep_one_in: 3,
            window: Duration::from_secs(3600),
        });
        for _ in 0..16 {
            log.warn("job_rejected", &[]);
            log.log(Level::Debug, "span", &[]);
        }
        log.flush();
        // 16 each: 1 full, then 15 past threshold -> ceil(15/3)=5 kept,
        // 10 suppressed per stream.
        assert_eq!(log.suppressed_total("job_rejected"), 10);
        assert_eq!(log.suppressed_total("span"), 10);
        let declared = |event: &str| -> f64 {
            log.tail()
                .iter()
                .filter(|r| r["event"].as_str() == Some("suppressed"))
                .filter(|r| r["suppressed_event"].as_str() == Some(event))
                .map(|r| r["count"].as_f64().unwrap())
                .sum()
        };
        assert_eq!(declared("job_rejected"), 10.0);
        assert_eq!(declared("span"), 10.0);
    }

    #[test]
    fn sampling_leaves_unlisted_events_alone() {
        let log = EventLog::in_memory(Level::Info).with_sampling(SamplePolicy {
            events: vec!["job_rejected".to_owned()],
            threshold: 0,
            keep_one_in: 1000,
            window: Duration::from_secs(3600),
        });
        for _ in 0..50 {
            log.info("job_enqueued", &[]);
        }
        assert_eq!(log.records_written(), 50, "unlisted events never sampled");
        assert_eq!(log.suppressed_total("job_enqueued"), 0);
    }

    #[test]
    fn log_tracer_spans_sit_on_the_log_clock() {
        let log = EventLog::in_memory(Level::Debug);
        log.info("job_dequeued", &[]);
        let mut t = LogTracer::new(&log, "j-7");
        t.span_start(Layer::Fixpoint);
        t.span_start(Layer::Infer);
        std::thread::sleep(Duration::from_millis(1));
        t.span_end(Layer::Infer);
        t.span_end(Layer::Fixpoint);
        log.info("job_computed", &[]);
        let tail = log.tail();
        let num = |r: &Json, k: &str| r[k].as_f64().expect(k) as u64;
        let (dequeued, computed) = (num(&tail[0], "ts_us"), num(&tail[3], "ts_us"));
        let (child, parent) = (&tail[1], &tail[2]);
        let end = |r: &Json| num(r, "start_us") + num(r, "dur_us");
        assert!(num(child, "dur_us") >= 1_000);
        assert!(dequeued <= num(parent, "start_us"));
        assert!(num(parent, "start_us") <= num(child, "start_us"));
        assert!(end(child) <= end(parent));
        assert!(end(parent) <= computed);
    }

    #[test]
    fn log_tracer_is_silent_below_debug() {
        let log = EventLog::in_memory(Level::Info);
        let mut t = LogTracer::new(&log, "j-1");
        t.span_start(Layer::Fixpoint);
        t.span_end(Layer::Fixpoint);
        assert!(log.tail().is_empty());
    }
}

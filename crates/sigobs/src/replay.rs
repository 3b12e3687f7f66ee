//! Folds a structured event log back into per-job timelines.
//!
//! This is the proof that the log is sufficient: given only the JSONL
//! lines an [`EventLog`](crate::EventLog)-instrumented daemon wrote, every
//! job's lifecycle must reconstruct to one of four well-formed shapes:
//!
//! * **Computed** — `job_enqueued` → `job_dequeued` → `job_computed` →
//!   `job_done`, with strictly increasing `seq`.
//! * **Cache hit** — `cache_hit` at submit time, when the cache already
//!   holds the source's signature → `job_done`, with the producing job's
//!   ID recorded as provenance.
//! * **Coalesced** — `job_coalesced` naming the in-flight producer whose
//!   result this job shared → `job_done`.
//! * **Rejected** — `job_rejected` when shed (overload, or shutdown with
//!   nobody to run the job); terminal.
//!
//! Anything else — a job that never terminated, computed without being
//! dequeued, or hit the cache with no producer — is a validation error,
//! and the replay test treats it as a logging bug.
//!
//! Each record is folded once, into one [`JobTimeline`] per job, which
//! [`chrome_trace`](crate::chrome_trace) renders too; the lifecycle's
//! stage order, next to the fold, also orders a fleet-log merge.
//!
//! **Postmortems.** A computed job may carry a `job_profile` record —
//! the per-job cost-attribution postmortem — which must sit between
//! `job_computed` and `job_done`, agree with the verdict on whether the
//! job timed out, and name well-formed hotspots whose steps never
//! exceed the declared total. Timeout verdicts *must* carry one (the
//! daemon's engines always attribute), so a timeout with no postmortem
//! fails replay unless a declared `job_profile` suppression budget
//! covers the drop.
//!
//! A job computes at most once: a second `job_computed` record for the
//! same job ID is a validation error, never silently folded into the
//! first.
//!
//! **Sampled logs.** Under overload the logger may drop listed events
//! (see [`SamplePolicy`](crate::SamplePolicy)), declaring every drop in
//! `suppressed` records. [`replay_log`] accepts such logs: a job whose
//! only record is `job_enqueued` is presumed shed — its `job_rejected`
//! record fell to sampling — as long as the log's declared
//! `job_rejected` suppression budget covers it. Orphans beyond the
//! declared budget are still errors: sampling must be *declared*, never
//! silent.

use minijson::Json;
use std::collections::BTreeMap;

/// The terminal shape of one job's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Ran the full pipeline on a worker.
    Computed,
    /// Served from the signature cache.
    CacheHit,
    /// Shared an in-flight sibling's computation.
    Coalesced,
    /// Shed under overload, or at shutdown with nobody to run it.
    Rejected,
}

/// Where and when one lifecycle record was logged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Logged {
    /// The record's `seq`, its position in the log.
    pub seq: u64,
    /// The logging node: a merged log's `node` field, else `"local"`.
    pub node: String,
    /// The record's `ts_us`, on that node's clock.
    pub ts_us: u64,
}

/// One job's lifecycle, folded from the log. Replay checks its order by
/// `seq`; a Chrome trace places its slices by node and `ts_us`.
#[derive(Debug, Clone, Default)]
pub struct JobTimeline {
    /// The job's request ID (`j-<n>`).
    pub job: String,
    /// Addon name from the request, if logged.
    pub name: Option<String>,
    /// `job_enqueued`.
    pub enqueued: Option<Logged>,
    /// The last `job_dequeued`: a requeued job's rescue claim computed.
    pub dequeued: Option<Logged>,
    /// The first `job_computed`.
    pub computed: Option<Logged>,
    /// Verdict from the first `job_computed` (`ok`/`timeout`/`error`…).
    pub verdict: Option<String>,
    /// `seq` of a second `job_computed`, which replay rejects.
    pub recomputed: Option<u64>,
    /// `cache_hit`.
    pub cache_hit: Option<Logged>,
    /// `job_coalesced`.
    pub coalesced: Option<Logged>,
    /// Producing job's ID, from `cache_hit` or `job_coalesced`.
    pub producer: Option<String>,
    /// `job_rejected`.
    pub rejected: Option<Logged>,
    /// Why the job was shed, from `job_rejected`.
    pub reason: Option<String>,
    /// `job_done`.
    pub done: Option<Logged>,
    /// Wall micros from `job_done`.
    pub micros: Option<u64>,
    /// `job_profile` (the cost-attribution postmortem).
    pub profile: Option<Logged>,
    /// Verdict echoed by `job_profile` (`ok`/`timeout`).
    pub profile_verdict: Option<String>,
    /// `total_steps` from `job_profile`.
    pub profile_steps: Option<u64>,
    /// `job_profile`'s hotspots as `(func, steps)`, hottest first.
    pub hotspots: Vec<(String, u64)>,
    /// `job_profile`'s `hotspots` array as logged, every field kept.
    pub logged_hotspots: Option<Json>,
    /// The first way the `job_profile` record is malformed, if any.
    pub profile_malformed: Option<String>,
    /// The job's pipeline spans in log order: `(layer, start_us,
    /// dur_us)`, `start_us` on the node's `ts_us` clock when logged.
    pub spans: Vec<(String, Option<u64>, u64)>,
    /// The shape [`replay_log`] classified; `None` for a presumed-shed orphan.
    pub outcome: Option<Outcome>,
}

/// The events of a job's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    Enqueued,
    Dequeued,
    Computed,
    CacheHit,
    Coalesced,
    Profile,
    Done,
    Rejected,
}

impl Event {
    /// Each lifecycle event with its log name and its stage. A job logs
    /// its events in stage order, and events of one stage are
    /// alternatives: a job computes, hits the cache or coalesces, and it
    /// ends done or rejected. `job_profile`, the postmortem a worker logs
    /// right after `job_computed`, has a stage of its own, so a fleet
    /// merge never floats the coordinator's `job_done` ahead of it.
    const ALL: [(Event, &'static str, usize); 8] = [
        (Event::Enqueued, "job_enqueued", 0),
        (Event::Dequeued, "job_dequeued", 1),
        (Event::Computed, "job_computed", 2),
        (Event::CacheHit, "cache_hit", 2),
        (Event::Coalesced, "job_coalesced", 2),
        (Event::Profile, "job_profile", 3),
        (Event::Done, "job_done", 4),
        (Event::Rejected, "job_rejected", 4),
    ];

    /// The lifecycle event a record's `event` field names, if any.
    pub(crate) fn named(name: &str) -> Option<Event> {
        Event::ALL.iter().find(|e| e.1 == name).map(|e| e.0)
    }

    /// The name the log spells the event with (`ALL` lists the events
    /// in declaration order).
    pub(crate) fn name(self) -> &'static str {
        Event::ALL[self as usize].1
    }

    /// The event's stage in a lifecycle.
    pub(crate) fn stage(self) -> usize {
        Event::ALL[self as usize].2
    }
}

pub(crate) fn get_u64(record: &Json, key: &str) -> Option<u64> {
    record[key].as_f64().map(|n| n as u64)
}

fn get_str(record: &Json, key: &str) -> Option<String> {
    record[key].as_str().map(str::to_owned)
}

/// Parses a JSONL log body into its records, each with its `seq`:
/// blank lines are skipped, a line that is not JSON is an error naming
/// it, and `seq` must be strictly monotone (one writer, no lost
/// records).
pub(crate) fn parse_log(text: &str) -> Result<Vec<(u64, Json)>, String> {
    let mut records: Vec<(u64, Json)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = Json::parse(line).map_err(|e| format!("log line {}: {e}", i + 1))?;
        let seq =
            get_u64(&record, "seq").ok_or_else(|| format!("log line {} has no seq", i + 1))?;
        if let Some(&(prev, _)) = records.last() {
            if seq <= prev {
                return Err(format!("seq not strictly monotone: {prev} then {seq}"));
            }
        }
        records.push((seq, record));
    }
    Ok(records)
}

/// Folds parsed log records into per-job timelines. Records without a
/// `job` field (daemon lifecycle, protocol errors) are skipped — they
/// narrate the daemon, not a job — and so are a job's records outside
/// its lifecycle (claims, requeues, deadlines).
pub(crate) fn job_timelines(records: &[(u64, Json)]) -> BTreeMap<String, JobTimeline> {
    let mut jobs: BTreeMap<String, JobTimeline> = BTreeMap::new();
    for (seq, record) in records {
        let (Some(job), Some(event)) = (record["job"].as_str(), record["event"].as_str()) else {
            continue;
        };
        let t = jobs.entry(job.to_owned()).or_insert_with(|| JobTimeline {
            job: job.to_owned(),
            ..JobTimeline::default()
        });
        if let Some(name) = get_str(record, "name") {
            t.name = Some(name);
        }
        if let Some(producer) = get_str(record, "producer") {
            t.producer = Some(producer);
        }
        let logged = || {
            Some(Logged {
                seq: *seq,
                node: record["node"].as_str().unwrap_or("local").to_owned(),
                ts_us: get_u64(record, "ts_us").unwrap_or(0),
            })
        };
        let Some(event) = Event::named(event) else {
            if event == "span" {
                if let (Some(name), Some(dur)) =
                    (record["span"].as_str(), get_u64(record, "dur_us"))
                {
                    t.spans
                        .push((name.to_owned(), get_u64(record, "start_us"), dur));
                }
            }
            continue;
        };
        match event {
            Event::Enqueued => t.enqueued = logged(),
            Event::Dequeued => t.dequeued = logged(),
            Event::Computed if t.computed.is_some() => {
                t.recomputed.get_or_insert(*seq);
            }
            Event::Computed => {
                t.computed = logged();
                t.verdict = get_str(record, "verdict");
            }
            Event::CacheHit => t.cache_hit = logged(),
            Event::Coalesced => t.coalesced = logged(),
            Event::Rejected => {
                t.rejected = logged();
                t.reason = get_str(record, "reason");
            }
            Event::Done => {
                t.done = logged();
                t.micros = get_u64(record, "micros");
            }
            Event::Profile => {
                t.profile = logged();
                t.fold_profile(record);
            }
        }
    }
    jobs
}

impl JobTimeline {
    /// Reads a `job_profile` record, noting how it is malformed.
    fn fold_profile(&mut self, record: &Json) {
        self.profile_verdict = get_str(record, "verdict");
        self.profile_steps = get_u64(record, "total_steps");
        if self.profile_verdict.is_none() {
            self.profile_malformed = Some("job_profile without a verdict".to_owned());
        } else if self.profile_steps.is_none() {
            self.profile_malformed = Some("job_profile without total_steps".to_owned());
        }
        let Json::Arr(entries) = &record["hotspots"] else {
            self.profile_malformed = Some("job_profile without a hotspots array".to_owned());
            return;
        };
        for h in entries {
            match (h["func"].as_str(), h["ctx"].as_str(), get_u64(h, "steps")) {
                (Some(f), Some(_), Some(s)) => self.hotspots.push((f.to_owned(), s)),
                _ => {
                    self.profile_malformed =
                        Some("job_profile hotspot missing func/ctx/steps".to_owned());
                }
            }
        }
        self.logged_hotspots = Some(record["hotspots"].clone());
    }

    /// Where the job's `event` record was logged, if it was.
    fn at(&self, event: Event) -> Option<&Logged> {
        match event {
            Event::Enqueued => self.enqueued.as_ref(),
            Event::Dequeued => self.dequeued.as_ref(),
            Event::Computed => self.computed.as_ref(),
            Event::CacheHit => self.cache_hit.as_ref(),
            Event::Coalesced => self.coalesced.as_ref(),
            Event::Profile => self.profile.as_ref(),
            Event::Done => self.done.as_ref(),
            Event::Rejected => self.rejected.as_ref(),
        }
    }

    /// True when the job's only lifecycle event is `job_enqueued` — the
    /// shape a shed job leaves when its `job_rejected` record was
    /// dropped by sampling.
    fn enqueued_only(&self) -> bool {
        Event::ALL
            .iter()
            .all(|&(e, _, _)| (e == Event::Enqueued) == self.at(e).is_some())
    }

    /// Classifies the lifecycle and checks it: its events were logged
    /// in stage order, its shape has the events it needs, and a
    /// `job_profile` postmortem is well-formed, agrees with the verdict
    /// on a timeout and names no more steps than its total.
    fn validate(&self) -> Result<Outcome, String> {
        let job = &self.job;
        if self.profile.is_some() && self.computed.is_none() {
            return Err(format!(
                "{job}: job_profile on a lifecycle that never computed"
            ));
        }
        if let Some(seq) = self.recomputed {
            return Err(format!(
                "{job}: second job_computed at seq {seq}; a job computes at most once"
            ));
        }
        let mut order: Vec<(u64, Event)> = Event::ALL
            .iter()
            .filter_map(|&(e, _, _)| Some((self.at(e)?.seq, e)))
            .collect();
        order.sort_unstable_by_key(|&(seq, _)| seq);
        if let Some(w) = order.windows(2).find(|w| w[0].1.stage() > w[1].1.stage()) {
            let ((a, first), (b, second)) = (w[0], w[1]);
            return Err(format!(
                "{job}: out-of-order lifecycle: {} at seq {a} before {} at seq {b}",
                first.name(),
                second.name()
            ));
        }
        if let Some(r) = &self.rejected {
            if let Some(later) = self
                .dequeued
                .as_ref()
                .or(self.computed.as_ref())
                .or(self.done.as_ref())
            {
                return Err(format!(
                    "{job}: rejected at seq {} but has later lifecycle event at seq {}",
                    r.seq, later.seq
                ));
            }
            return Ok(Outcome::Rejected);
        }
        if self.done.is_none() {
            return Err(format!("{job}: never reached job_done"));
        }
        if self.cache_hit.is_some() {
            if self.computed.is_some() {
                return Err(format!("{job}: both cache_hit and job_computed"));
            }
            if self.producer.is_none() {
                return Err(format!("{job}: cache_hit without producer provenance"));
            }
            return Ok(Outcome::CacheHit);
        }
        if self.coalesced.is_some() {
            if self.computed.is_some() {
                return Err(format!("{job}: both job_coalesced and job_computed"));
            }
            if self.producer.is_none() {
                return Err(format!("{job}: job_coalesced without producer"));
            }
            return Ok(Outcome::Coalesced);
        }
        if self.enqueued.is_none() {
            return Err(format!("{job}: computed path without job_enqueued"));
        }
        if self.dequeued.is_none() {
            return Err(format!("{job}: computed path without job_dequeued"));
        }
        if self.computed.is_none() {
            return Err(format!(
                "{job}: terminated without compute, hit, or coalesce"
            ));
        }
        if self.verdict.is_none() {
            return Err(format!("{job}: job_computed without a verdict"));
        }
        if self.profile.is_some() {
            if let Some(complaint) = &self.profile_malformed {
                return Err(format!("{job}: {complaint}"));
            }
            let timed_out = self.verdict.as_deref() == Some("timeout");
            let profile_timed_out = self.profile_verdict.as_deref() == Some("timeout");
            if timed_out != profile_timed_out {
                return Err(format!(
                    "{job}: job_profile verdict {:?} disagrees with computed verdict {:?}",
                    self.profile_verdict, self.verdict
                ));
            }
            // The top-K hotspots are a subset of the attribution
            // buckets, so their steps can never exceed the total.
            let hotspot_steps: u64 = self.hotspots.iter().map(|(_, s)| s).sum();
            let total = self.profile_steps.unwrap_or(0);
            if hotspot_steps > total {
                return Err(format!(
                    "{job}: hotspot steps {hotspot_steps} exceed total_steps {total}"
                ));
            }
        }
        Ok(Outcome::Computed)
    }
}

/// A validated replay of a (possibly sampled) log: the per-job
/// timelines plus the log's declared suppression accounting.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Every job that left at least one record, each with its
    /// [`JobTimeline::outcome`].
    pub timelines: BTreeMap<String, JobTimeline>,
    /// Declared drops per suppressed event name, summed over the log's
    /// `suppressed` records.
    pub suppressed: BTreeMap<String, u64>,
    /// Enqueued-only orphans accepted against the `job_rejected`
    /// suppression budget (the enqueue-then-shed race under sampling).
    pub presumed_rejected: u64,
    /// Timeout-verdict jobs whose missing `job_profile` postmortem was
    /// accepted against the declared `job_profile` suppression budget.
    pub presumed_profile_sampled: u64,
}

impl Replay {
    /// The log's declared suppression budget for `event`: the total
    /// drops its counted `suppressed` records declared. Budgets are
    /// tracked independently per event (each sampled stream declares
    /// its own drops), so one stream's budget never excuses another
    /// stream's missing records.
    pub fn budget(&self, event: &str) -> u64 {
        self.suppressed.get(event).copied().unwrap_or(0)
    }
}

/// Parses a JSONL log body, folds it into job timelines, and classifies
/// each one, storing its [`Outcome`] — reconciling sampled logs against
/// their declared `suppressed` budgets (see the module docs). Also
/// checks that `seq` is strictly monotone across the whole log (one
/// writer, no lost records).
pub fn replay_log(text: &str) -> Result<Replay, String> {
    let records = parse_log(text)?;
    let mut suppressed: BTreeMap<String, u64> = BTreeMap::new();
    for (_, record) in &records {
        if record["event"].as_str() == Some("suppressed") {
            if let (Some(event), Some(count)) = (
                record["suppressed_event"].as_str(),
                get_u64(record, "count"),
            ) {
                *suppressed.entry(event.to_owned()).or_insert(0) += count;
            }
        }
    }
    let mut replay = Replay {
        timelines: job_timelines(&records),
        suppressed,
        presumed_rejected: 0,
        presumed_profile_sampled: 0,
    };
    // Orphan coverage draws on job_rejected's own budget only; other
    // events' declared drops are accounted separately (see
    // [`Replay::budget`]).
    let rejected_budget = replay.budget(Event::Rejected.name());
    let profile_budget = replay.budget(Event::Profile.name());
    for t in replay.timelines.values_mut() {
        let outcome = match t.validate() {
            Ok(outcome) => outcome,
            Err(_) if t.enqueued_only() && replay.presumed_rejected < rejected_budget => {
                replay.presumed_rejected += 1;
                continue;
            }
            Err(e) if t.enqueued_only() => {
                return Err(format!(
                    "{e} (enqueued-only orphan exceeds the declared job_rejected \
                     suppression budget of {rejected_budget})"
                ));
            }
            Err(e) => return Err(e),
        };
        // The daemon contract: every timeout verdict carries its hotspot
        // postmortem, so "why did this addon time out" is answerable
        // from the log alone. A missing postmortem is only legal when
        // sampling declared the drop.
        if t.verdict.as_deref() == Some("timeout") && t.profile.is_none() {
            if replay.presumed_profile_sampled < profile_budget {
                replay.presumed_profile_sampled += 1;
            } else {
                return Err(format!(
                    "{}: timeout verdict without a job_profile postmortem \
                     (beyond the declared job_profile suppression budget \
                     of {profile_budget})",
                    t.job
                ));
            }
        }
        t.outcome = Some(outcome);
    }
    Ok(replay)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(seq: u64, event: &str, fields: &[(&str, Json)]) -> String {
        let mut r = Json::obj();
        r.set("seq", Json::from(seq as f64));
        r.set("ts_us", Json::from(1000.0 + seq as f64));
        r.set("level", Json::from("info"));
        r.set("event", Json::from(event));
        for (k, v) in fields {
            r.set(k, v.clone());
        }
        r.to_string_compact()
    }

    #[test]
    fn reconstructs_a_computed_lifecycle() {
        let log = [
            line(0, "serve_started", &[("workers", Json::from(2.0))]),
            line(1, "job_enqueued", &[("job", Json::from("j-0")), ("name", Json::from("a.js"))]),
            line(2, "job_dequeued", &[("job", Json::from("j-0"))]),
            line(3, "span", &[("job", Json::from("j-0")), ("span", Json::from("phase1")), ("dur_us", Json::from(12.0))]),
            line(4, "job_computed", &[("job", Json::from("j-0")), ("verdict", Json::from("pass"))]),
            line(5, "job_done", &[("job", Json::from("j-0")), ("micros", Json::from(99.0))]),
        ]
        .join("\n");
        let timelines = replay_log(&log).expect("valid log").timelines;
        let t = &timelines["j-0"];
        assert_eq!(t.outcome, Some(Outcome::Computed));
        assert_eq!(t.name.as_deref(), Some("a.js"));
        assert_eq!(t.verdict.as_deref(), Some("pass"));
        assert_eq!(t.micros, Some(99));
        assert_eq!(t.spans, [("phase1".to_owned(), None, 12)]);
    }

    #[test]
    fn cache_hit_requires_producer_provenance() {
        let with_producer = [
            line(0, "cache_hit", &[("job", Json::from("j-1")), ("producer", Json::from("j-0"))]),
            line(1, "job_done", &[("job", Json::from("j-1")), ("micros", Json::from(3.0))]),
        ]
        .join("\n");
        let timelines = replay_log(&with_producer).unwrap().timelines;
        assert_eq!(timelines["j-1"].outcome, Some(Outcome::CacheHit));
        assert_eq!(timelines["j-1"].producer.as_deref(), Some("j-0"));

        let without = [
            line(0, "cache_hit", &[("job", Json::from("j-1"))]),
            line(1, "job_done", &[("job", Json::from("j-1"))]),
        ]
        .join("\n");
        let err = replay_log(&without).unwrap_err();
        assert!(err.contains("producer"), "{err}");
    }

    #[test]
    fn unterminated_and_out_of_order_jobs_fail() {
        let unterminated = line(0, "job_enqueued", &[("job", Json::from("j-9"))]);
        assert!(replay_log(&unterminated).unwrap_err().contains("job_done"));

        let skipped_dequeue = [
            line(0, "job_enqueued", &[("job", Json::from("j-2"))]),
            line(1, "job_computed", &[("job", Json::from("j-2")), ("verdict", Json::from("pass"))]),
            line(2, "job_done", &[("job", Json::from("j-2"))]),
        ]
        .join("\n");
        let err = replay_log(&skipped_dequeue).unwrap_err();
        assert!(err.contains("job_dequeued"), "{err}");
    }

    #[test]
    fn rejected_jobs_are_terminal() {
        let ok = line(0, "job_rejected", &[("job", Json::from("j-3")), ("reason", Json::from("overloaded"))]);
        assert_eq!(replay_log(&ok).unwrap().timelines["j-3"].outcome, Some(Outcome::Rejected));

        let bad = [
            line(0, "job_rejected", &[("job", Json::from("j-3"))]),
            line(1, "job_dequeued", &[("job", Json::from("j-3"))]),
        ]
        .join("\n");
        assert!(replay_log(&bad).is_err());
    }

    #[test]
    fn seq_must_be_strictly_monotone() {
        let log = [
            line(5, "serve_started", &[]),
            line(5, "serve_shutdown", &[]),
        ]
        .join("\n");
        assert!(replay_log(&log).unwrap_err().contains("monotone"));
    }

    #[test]
    fn sampled_log_reconciles_via_declared_suppression() {
        // j-0's rejection was kept (sampled); j-1's was dropped — its
        // enqueued-only orphan is covered by the suppressed budget of 2
        // (one dropped rejection belonged to a job that never logged
        // anything at all).
        let log = [
            line(0, "job_enqueued", &[("job", Json::from("j-2"))]),
            line(1, "job_dequeued", &[("job", Json::from("j-2"))]),
            line(2, "job_computed", &[("job", Json::from("j-2")), ("verdict", Json::from("pass"))]),
            line(3, "job_done", &[("job", Json::from("j-2"))]),
            line(4, "job_rejected", &[("job", Json::from("j-0")), ("reason", Json::from("overloaded"))]),
            line(5, "job_enqueued", &[("job", Json::from("j-1"))]),
            line(6, "suppressed", &[("suppressed_event", Json::from("job_rejected")), ("count", Json::from(2.0)), ("sample_every", Json::from(4.0))]),
        ]
        .join("\n");
        let replay = replay_log(&log).expect("sampled log reconciles");
        assert_eq!(replay.suppressed.get("job_rejected"), Some(&2));
        assert_eq!(replay.presumed_rejected, 1, "one orphan presumed shed");
        assert_eq!(replay.timelines["j-0"].outcome, Some(Outcome::Rejected));
        assert_eq!(replay.timelines["j-2"].outcome, Some(Outcome::Computed));
        // Kept + suppressed rejections account for every shed job.
        let kept = replay
            .timelines
            .values()
            .filter(|t| t.outcome == Some(Outcome::Rejected))
            .count() as u64;
        assert_eq!(kept + replay.suppressed["job_rejected"], 3);
    }

    #[test]
    fn orphans_beyond_the_declared_budget_still_fail() {
        let log = [
            line(0, "job_enqueued", &[("job", Json::from("j-0"))]),
            line(1, "job_enqueued", &[("job", Json::from("j-1"))]),
            line(2, "suppressed", &[("suppressed_event", Json::from("job_rejected")), ("count", Json::from(1.0)), ("sample_every", Json::from(4.0))]),
        ]
        .join("\n");
        let err = replay_log(&log).unwrap_err();
        assert!(err.contains("suppression budget"), "{err}");

        // And with no declaration at all, orphans fail as before.
        let silent = line(0, "job_enqueued", &[("job", Json::from("j-9"))]);
        assert!(replay_log(&silent).unwrap_err().contains("job_done"));
    }

    #[test]
    fn suppression_of_other_events_grants_no_rejection_budget() {
        let log = [
            line(0, "job_enqueued", &[("job", Json::from("j-0"))]),
            line(1, "suppressed", &[("suppressed_event", Json::from("span")), ("count", Json::from(50.0)), ("sample_every", Json::from(8.0))]),
        ]
        .join("\n");
        assert!(replay_log(&log).is_err(), "span budget must not excuse a lost rejection");
    }

    #[test]
    fn daemon_narration_events_ride_along() {
        // Records without a `job` field (here two made-up alert records)
        // narrate the daemon, not a job: replay accepts them interleaved
        // with job lifecycles and leaves the timelines untouched.
        let log = [
            line(0, "job_enqueued", &[("job", Json::from("j-0"))]),
            line(1, "alert_cleared", &[("rule", Json::from("vet-p99"))]),
            line(2, "job_dequeued", &[("job", Json::from("j-0"))]),
            line(3, "job_computed", &[("job", Json::from("j-0")), ("verdict", Json::from("pass"))]),
            line(4, "alert_fired", &[("rule", Json::from("cache-hit-ratio")), ("value", Json::from(0.1)), ("bound", Json::from(0.5))]),
            line(5, "job_done", &[("job", Json::from("j-0"))]),
            line(6, "alert_cleared", &[("rule", Json::from("cache-hit-ratio"))]),
        ]
        .join("
");
        let replay = replay_log(&log).expect("narration events are accepted");
        assert_eq!(replay.timelines.len(), 1);
        assert_eq!(replay.timelines["j-0"].outcome, Some(Outcome::Computed));
    }

    #[test]
    fn per_event_suppression_budgets_are_tracked_independently() {
        let log = [
            line(0, "suppressed", &[("suppressed_event", Json::from("span")), ("count", Json::from(8.0)), ("sample_every", Json::from(4.0))]),
            line(1, "suppressed", &[("suppressed_event", Json::from("job_rejected")), ("count", Json::from(2.0)), ("sample_every", Json::from(100.0))]),
            line(2, "suppressed", &[("suppressed_event", Json::from("span")), ("count", Json::from(8.0)), ("sample_every", Json::from(4.0))]),
        ]
        .join("
");
        let replay = replay_log(&log).expect("declared-only log is valid");
        assert_eq!(replay.budget("span"), 16);
        assert_eq!(replay.budget("job_rejected"), 2);
        assert_eq!(replay.budget("job_profile"), 0);
    }

    #[test]
    fn connection_lifecycle_events_ride_along() {
        // The event-driven server narrates connections too:
        // conn_accepted / conn_closed / write_backpressure / job_deadline
        // carry a `conn` (or `job`) field but are not part of any job's
        // enqueue→done chain. Replay must accept them interleaved — and
        // a deadline-fired job still validates because the worker's late
        // completion posts the terminal job_done.
        let log = [
            line(0, "conn_accepted", &[("conn", Json::from("c-0")), ("peer", Json::from("127.0.0.1:9"))]),
            line(1, "job_enqueued", &[("job", Json::from("j-0"))]),
            line(2, "job_dequeued", &[("job", Json::from("j-0"))]),
            line(3, "write_backpressure", &[("conn", Json::from("c-0")), ("queued_bytes", Json::from(70000.0)), ("capacity_bytes", Json::from(65536.0))]),
            line(4, "job_deadline", &[("job", Json::from("j-0")), ("deadline_ms", Json::from(50.0))]),
            line(5, "conn_closed", &[("conn", Json::from("c-0")), ("reason", Json::from("eof"))]),
            line(6, "job_computed", &[("job", Json::from("j-0")), ("verdict", Json::from("pass"))]),
            line(7, "job_done", &[("job", Json::from("j-0"))]),
        ]
        .join("\n");
        let replay = replay_log(&log).expect("connection events are accepted");
        assert_eq!(replay.timelines.len(), 1);
        assert_eq!(replay.timelines["j-0"].outcome, Some(Outcome::Computed));
    }

    fn hotspot(func: &str, steps: f64) -> Json {
        let mut h = Json::obj();
        h.set("func", Json::from(func));
        h.set("ctx", Json::from("0"));
        h.set("phase", Json::from("fixpoint"));
        h.set("steps", Json::from(steps));
        h.set("time_us", Json::from(steps));
        h
    }

    fn profile_fields(job: &str, verdict: &str, total: f64, hotspots: Vec<Json>) -> Vec<(&'static str, Json)> {
        vec![
            ("job", Json::from(job)),
            ("verdict", Json::from(verdict)),
            ("total_steps", Json::from(total)),
            ("hotspots", Json::Arr(hotspots)),
        ]
    }

    #[test]
    fn timeout_with_postmortem_validates_and_exposes_hotspots() {
        let pf = profile_fields("j-0", "timeout", 100.0, vec![hotspot("hot", 60.0), hotspot("warm", 30.0)]);
        let log = [
            line(0, "job_enqueued", &[("job", Json::from("j-0"))]),
            line(1, "job_dequeued", &[("job", Json::from("j-0"))]),
            line(2, "job_computed", &[("job", Json::from("j-0")), ("verdict", Json::from("timeout"))]),
            line(3, "job_profile", &pf),
            line(4, "job_done", &[("job", Json::from("j-0"))]),
        ]
        .join("\n");
        let replay = replay_log(&log).expect("postmortem-bearing timeout replays");
        let t = &replay.timelines["j-0"];
        assert_eq!(t.outcome, Some(Outcome::Computed));
        assert_eq!(t.profile_steps, Some(100));
        assert_eq!(t.hotspots, [("hot".to_owned(), 60), ("warm".to_owned(), 30)]);
        assert_eq!(replay.presumed_profile_sampled, 0);
    }

    #[test]
    fn timeout_without_postmortem_fails_unless_suppression_covers_it() {
        let bare = [
            line(0, "job_enqueued", &[("job", Json::from("j-0"))]),
            line(1, "job_dequeued", &[("job", Json::from("j-0"))]),
            line(2, "job_computed", &[("job", Json::from("j-0")), ("verdict", Json::from("timeout"))]),
            line(3, "job_done", &[("job", Json::from("j-0"))]),
        ]
        .join("\n");
        let err = replay_log(&bare).unwrap_err();
        assert!(err.contains("job_profile"), "{err}");

        let declared = [
            bare.clone(),
            line(4, "suppressed", &[("suppressed_event", Json::from("job_profile")), ("count", Json::from(1.0)), ("sample_every", Json::from(4.0))]),
        ]
        .join("\n");
        let replay = replay_log(&declared).expect("declared drop reconciles");
        assert_eq!(replay.presumed_profile_sampled, 1);

        // Non-timeout verdicts never require a postmortem.
        let ok_verdict = [
            line(0, "job_enqueued", &[("job", Json::from("j-1"))]),
            line(1, "job_dequeued", &[("job", Json::from("j-1"))]),
            line(2, "job_computed", &[("job", Json::from("j-1")), ("verdict", Json::from("pass"))]),
            line(3, "job_done", &[("job", Json::from("j-1"))]),
        ]
        .join("\n");
        assert!(replay_log(&ok_verdict).is_ok());
    }

    #[test]
    fn malformed_or_misplaced_postmortems_fail() {
        // Hotspots claiming more steps than the declared total.
        let over = profile_fields("j-0", "timeout", 10.0, vec![hotspot("hot", 60.0)]);
        let log = [
            line(0, "job_enqueued", &[("job", Json::from("j-0"))]),
            line(1, "job_dequeued", &[("job", Json::from("j-0"))]),
            line(2, "job_computed", &[("job", Json::from("j-0")), ("verdict", Json::from("timeout"))]),
            line(3, "job_profile", &over),
            line(4, "job_done", &[("job", Json::from("j-0"))]),
        ]
        .join("\n");
        assert!(replay_log(&log).unwrap_err().contains("exceed"), "steps cap");

        // A hotspot entry missing its fields.
        let lame = vec![("job", Json::from("j-0")), ("verdict", Json::from("timeout")), ("total_steps", Json::from(10.0)), ("hotspots", Json::Arr(vec![Json::obj()]))];
        let log = [
            line(0, "job_enqueued", &[("job", Json::from("j-0"))]),
            line(1, "job_dequeued", &[("job", Json::from("j-0"))]),
            line(2, "job_computed", &[("job", Json::from("j-0")), ("verdict", Json::from("timeout"))]),
            line(3, "job_profile", &lame),
            line(4, "job_done", &[("job", Json::from("j-0"))]),
        ]
        .join("\n");
        assert!(replay_log(&log).unwrap_err().contains("hotspot"), "well-formedness");

        // Postmortem on a job that never computed.
        let floating = [
            line(0, "cache_hit", &[("job", Json::from("j-2")), ("producer", Json::from("j-0"))]),
            line(1, "job_profile", &profile_fields("j-2", "ok", 5.0, vec![])),
            line(2, "job_done", &[("job", Json::from("j-2"))]),
        ]
        .join("\n");
        assert!(replay_log(&floating).unwrap_err().contains("never computed"));

        // Verdict disagreement: profile says ok, compute said timeout.
        let liar = profile_fields("j-3", "ok", 10.0, vec![]);
        let log = [
            line(0, "job_enqueued", &[("job", Json::from("j-3"))]),
            line(1, "job_dequeued", &[("job", Json::from("j-3"))]),
            line(2, "job_computed", &[("job", Json::from("j-3")), ("verdict", Json::from("timeout"))]),
            line(3, "job_profile", &liar),
            line(4, "job_done", &[("job", Json::from("j-3"))]),
        ]
        .join("\n");
        assert!(replay_log(&log).unwrap_err().contains("disagrees"));
    }

    #[test]
    fn a_second_job_computed_fails_replay() {
        // One job id computing twice is a logging bug (or two jobs
        // sharing an id), not a lifecycle: replay must say so instead of
        // keeping either record.
        let twice = [
            line(0, "job_enqueued", &[("job", Json::from("j-0"))]),
            line(1, "job_dequeued", &[("job", Json::from("j-0"))]),
            line(2, "job_computed", &[("job", Json::from("j-0")), ("verdict", Json::from("ok"))]),
            line(3, "job_computed", &[("job", Json::from("j-0")), ("verdict", Json::from("timeout"))]),
            line(4, "job_done", &[("job", Json::from("j-0"))]),
        ]
        .join("\n");
        let err = replay_log(&twice).unwrap_err();
        assert!(err.contains("second job_computed at seq 3"), "{err}");
        let t = &job_timelines(&parse_log(&twice).unwrap())["j-0"];
        assert_eq!((t.computed.as_ref().map(|c| c.seq), t.recomputed), (Some(2), Some(3)));
        assert_eq!(t.verdict.as_deref(), Some("ok"), "the first record is kept");
    }

    #[test]
    fn the_stage_table_lists_events_in_declaration_order() {
        for (i, &(event, name, _)) in Event::ALL.iter().enumerate() {
            assert_eq!(event as usize, i, "{name}");
            assert_eq!(Event::named(name), Some(event));
        }
    }

    #[test]
    fn coalesced_jobs_share_a_producer() {
        let log = [
            line(0, "job_enqueued", &[("job", Json::from("j-0"))]),
            line(1, "job_coalesced", &[("job", Json::from("j-1")), ("producer", Json::from("j-0"))]),
            line(2, "job_dequeued", &[("job", Json::from("j-0"))]),
            line(3, "job_computed", &[("job", Json::from("j-0")), ("verdict", Json::from("pass"))]),
            line(4, "job_done", &[("job", Json::from("j-0"))]),
            line(5, "job_done", &[("job", Json::from("j-1"))]),
        ]
        .join("\n");
        let timelines = replay_log(&log).unwrap().timelines;
        assert_eq!(timelines["j-0"].outcome, Some(Outcome::Computed));
        assert_eq!(timelines["j-1"].outcome, Some(Outcome::Coalesced));
        assert_eq!(timelines["j-1"].producer.as_deref(), Some("j-0"));
    }
}

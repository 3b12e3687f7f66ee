//! Folds a structured event log back into per-job timelines.
//!
//! This is the proof that the log is sufficient: given only the JSONL
//! lines an [`EventLog`](crate::EventLog)-instrumented daemon wrote, every
//! job's lifecycle must reconstruct to one of four well-formed shapes:
//!
//! * **Computed** — `job_enqueued` → `job_dequeued` → `job_computed` →
//!   `job_done`, with strictly increasing `seq`.
//! * **Cache hit** — `cache_hit` (at submit time, or after a dequeue when
//!   a sibling filled the cache first) → `job_done`, with the producing
//!   job's ID recorded as provenance.
//! * **Coalesced** — `job_coalesced` naming the in-flight producer whose
//!   result this job shared → `job_done`.
//! * **Rejected** — `job_rejected` under overload; terminal.
//!
//! Anything else — a job that never terminated, computed without being
//! dequeued, or hit the cache with no producer — is a validation error,
//! and the replay test treats it as a logging bug.
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
    /// Shed by the overload policy before entering the queue.
    Rejected,
}

/// One job's events, extracted from the log. `seq` positions come from
/// the logger's monotone counter, so ordering checks need no clocks.
#[derive(Debug, Clone, Default)]
pub struct JobTimeline {
    /// The job's request ID (`j-<n>`).
    pub job: String,
    /// Addon name from the request, if logged.
    pub name: Option<String>,
    /// `seq` of `job_enqueued`.
    pub enqueued: Option<u64>,
    /// `seq` of `job_dequeued`.
    pub dequeued: Option<u64>,
    /// `seq` of the first `job_computed`.
    pub computed: Option<u64>,
    /// Verdict string from the first `job_computed` (`pass`/`fail`/
    /// `leak`/`ok`/`timeout`/`error`).
    pub verdict: Option<String>,
    /// `seq` of a second `job_computed` for this job, if any — which
    /// [`JobTimeline::validate`] rejects.
    pub recomputed: Option<u64>,
    /// `seq` of `cache_hit`.
    pub cache_hit: Option<u64>,
    /// `seq` of `job_coalesced`.
    pub coalesced: Option<u64>,
    /// Producing job's ID, from `cache_hit` or `job_coalesced`.
    pub producer: Option<String>,
    /// `seq` of `job_rejected`.
    pub rejected: Option<u64>,
    /// `seq` of `job_done`.
    pub done: Option<u64>,
    /// Wall micros from `job_done`.
    pub micros: Option<u64>,
    /// `seq` of `job_profile` (the cost-attribution postmortem).
    pub profile: Option<u64>,
    /// Verdict echoed by `job_profile` (`ok`/`timeout`).
    pub profile_verdict: Option<String>,
    /// `total_steps` from `job_profile`.
    pub profile_steps: Option<u64>,
    /// Hotspot buckets from `job_profile`: `(func, steps)`, hottest
    /// first as the daemon emitted them.
    pub hotspots: Vec<(String, u64)>,
    /// First well-formedness complaint about the `job_profile` record,
    /// if any — surfaced by [`JobTimeline::validate`].
    pub profile_malformed: Option<String>,
    /// Pipeline spans attributed to this job: `(span name, dur_us)`.
    pub spans: Vec<(String, u64)>,
    /// Every event seen for this job, in log order: `(seq, event)`.
    pub events: Vec<(u64, String)>,
}

fn get_u64(record: &Json, key: &str) -> Option<u64> {
    record[key].as_f64().map(|n| n as u64)
}

/// Groups parsed log records into per-job timelines. Records without a
/// `job` field (daemon lifecycle, protocol errors) are ignored here —
/// they narrate the daemon, not a job.
pub fn job_timelines(records: &[Json]) -> BTreeMap<String, JobTimeline> {
    let mut jobs: BTreeMap<String, JobTimeline> = BTreeMap::new();
    for record in records {
        let Some(job) = record["job"].as_str() else {
            continue;
        };
        let Some(seq) = get_u64(record, "seq") else {
            continue;
        };
        let Some(event) = record["event"].as_str() else {
            continue;
        };
        let t = jobs.entry(job.to_owned()).or_insert_with(|| JobTimeline {
            job: job.to_owned(),
            ..JobTimeline::default()
        });
        t.events.push((seq, event.to_owned()));
        if let Some(name) = record["name"].as_str() {
            t.name = Some(name.to_owned());
        }
        match event {
            "job_enqueued" => t.enqueued = Some(seq),
            "job_dequeued" => t.dequeued = Some(seq),
            "job_computed" => {
                if t.computed.is_some() {
                    t.recomputed.get_or_insert(seq);
                } else {
                    t.computed = Some(seq);
                    t.verdict = record["verdict"].as_str().map(str::to_owned);
                }
            }
            "cache_hit" => {
                t.cache_hit = Some(seq);
                if let Some(p) = record["producer"].as_str() {
                    t.producer = Some(p.to_owned());
                }
            }
            "job_coalesced" => {
                t.coalesced = Some(seq);
                if let Some(p) = record["producer"].as_str() {
                    t.producer = Some(p.to_owned());
                }
            }
            "job_rejected" => t.rejected = Some(seq),
            "job_done" => {
                t.done = Some(seq);
                t.micros = get_u64(record, "micros");
            }
            "job_profile" => {
                t.profile = Some(seq);
                t.profile_verdict = record["verdict"].as_str().map(str::to_owned);
                t.profile_steps = get_u64(record, "total_steps");
                if t.profile_verdict.is_none() {
                    t.profile_malformed = Some("job_profile without a verdict".to_owned());
                } else if t.profile_steps.is_none() {
                    t.profile_malformed = Some("job_profile without total_steps".to_owned());
                }
                match &record["hotspots"] {
                    Json::Arr(entries) => {
                        for h in entries {
                            match (h["func"].as_str(), h["ctx"].as_str(), get_u64(h, "steps")) {
                                (Some(f), Some(_), Some(s)) => t.hotspots.push((f.to_owned(), s)),
                                _ => {
                                    t.profile_malformed = Some(
                                        "job_profile hotspot missing func/ctx/steps".to_owned(),
                                    );
                                }
                            }
                        }
                    }
                    _ => {
                        t.profile_malformed =
                            Some("job_profile without a hotspots array".to_owned());
                    }
                }
            }
            "span" => {
                if let (Some(name), Some(dur)) =
                    (record["span"].as_str(), get_u64(record, "dur_us"))
                {
                    t.spans.push((name.to_owned(), dur));
                }
            }
            _ => {}
        }
    }
    jobs
}

impl JobTimeline {
    /// True when the job's only lifecycle event is `job_enqueued` — the
    /// shape a shed job leaves when its `job_rejected` record was
    /// dropped by sampling.
    pub fn enqueued_only(&self) -> bool {
        self.enqueued.is_some()
            && self.dequeued.is_none()
            && self.computed.is_none()
            && self.cache_hit.is_none()
            && self.coalesced.is_none()
            && self.rejected.is_none()
            && self.done.is_none()
    }

    /// Classifies the lifecycle and checks its internal ordering —
    /// including the `job_profile` postmortem when one is attached: it
    /// must be well-formed, follow `job_computed`, precede `job_done`,
    /// and agree with the computed verdict on whether the job timed out.
    pub fn validate(&self) -> Result<Outcome, String> {
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
        if let Some(r) = self.rejected {
            if let Some(seq) = self.dequeued.or(self.computed).or(self.done) {
                return Err(format!(
                    "{job}: rejected at seq {r} but has later lifecycle event at seq {seq}"
                ));
            }
            return Ok(Outcome::Rejected);
        }
        let done = self
            .done
            .ok_or_else(|| format!("{job}: never reached job_done"))?;
        if let Some(hit) = self.cache_hit {
            if self.computed.is_some() {
                return Err(format!("{job}: both cache_hit and job_computed"));
            }
            if self.producer.is_none() {
                return Err(format!("{job}: cache_hit without producer provenance"));
            }
            if hit >= done {
                return Err(format!("{job}: cache_hit at {hit} not before done at {done}"));
            }
            return Ok(Outcome::CacheHit);
        }
        if let Some(co) = self.coalesced {
            if self.computed.is_some() {
                return Err(format!("{job}: both job_coalesced and job_computed"));
            }
            if self.producer.is_none() {
                return Err(format!("{job}: job_coalesced without producer"));
            }
            if co >= done {
                return Err(format!("{job}: coalesced at {co} not before done at {done}"));
            }
            return Ok(Outcome::Coalesced);
        }
        let enq = self
            .enqueued
            .ok_or_else(|| format!("{job}: computed path without job_enqueued"))?;
        let deq = self
            .dequeued
            .ok_or_else(|| format!("{job}: computed path without job_dequeued"))?;
        let comp = self
            .computed
            .ok_or_else(|| format!("{job}: terminated without compute, hit, or coalesce"))?;
        if !(enq < deq && deq < comp && comp < done) {
            return Err(format!(
                "{job}: out-of-order lifecycle enq={enq} deq={deq} computed={comp} done={done}"
            ));
        }
        if self.verdict.is_none() {
            return Err(format!("{job}: job_computed without a verdict"));
        }
        if let Some(p) = self.profile {
            if let Some(complaint) = &self.profile_malformed {
                return Err(format!("{job}: {complaint}"));
            }
            if !(comp < p && p < done) {
                return Err(format!(
                    "{job}: job_profile at {p} not between computed at {comp} and done at {done}"
                ));
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
    /// Every job that left at least one record, validated.
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

/// Parses a JSONL log body, reconstructs every job timeline, and
/// validates each one — reconciling sampled logs against their declared
/// `suppressed` budgets (see the module docs). Also checks that `seq`
/// is strictly monotone across the whole log (one writer, no lost
/// records).
pub fn replay_log(text: &str) -> Result<Replay, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = Json::parse(line)
            .map_err(|e| format!("log line {}: {e}", i + 1))?;
        records.push(record);
    }
    let mut last_seq: Option<u64> = None;
    let mut suppressed: BTreeMap<String, u64> = BTreeMap::new();
    for record in &records {
        let seq = get_u64(record, "seq")
            .ok_or_else(|| format!("record without seq: {}", record.to_string_compact()))?;
        if let Some(prev) = last_seq {
            if seq <= prev {
                return Err(format!("seq not strictly monotone: {prev} then {seq}"));
            }
        }
        last_seq = Some(seq);
        if record["event"].as_str() == Some("suppressed") {
            if let (Some(event), Some(count)) =
                (record["suppressed_event"].as_str(), get_u64(record, "count"))
            {
                *suppressed.entry(event.to_owned()).or_insert(0) += count;
            }
        }
    }
    let timelines = job_timelines(&records);
    // Orphan coverage draws on job_rejected's own budget only; other
    // events' declared drops are accounted separately (see
    // [`Replay::budget`]).
    let rejected_budget = suppressed.get("job_rejected").copied().unwrap_or(0);
    let profile_budget = suppressed.get("job_profile").copied().unwrap_or(0);
    let mut presumed_rejected = 0u64;
    let mut presumed_profile_sampled = 0u64;
    for t in timelines.values() {
        match t.validate() {
            Err(e) => {
                if t.enqueued_only() && presumed_rejected < rejected_budget {
                    presumed_rejected += 1;
                    continue;
                }
                if t.enqueued_only() {
                    return Err(format!(
                        "{e} (enqueued-only orphan exceeds the declared job_rejected \
                         suppression budget of {rejected_budget})"
                    ));
                }
                return Err(e);
            }
            Ok(Outcome::Computed) => {
                // The daemon contract: every timeout verdict carries its
                // hotspot postmortem, so "why did this addon time out"
                // is answerable from the log alone. A missing postmortem
                // is only legal when sampling declared the drop.
                if t.verdict.as_deref() == Some("timeout") && t.profile.is_none() {
                    if presumed_profile_sampled < profile_budget {
                        presumed_profile_sampled += 1;
                    } else {
                        return Err(format!(
                            "{}: timeout verdict without a job_profile postmortem \
                             (beyond the declared job_profile suppression budget \
                             of {profile_budget})",
                            t.job
                        ));
                    }
                }
            }
            Ok(_) => {}
        }
    }
    Ok(Replay {
        timelines,
        suppressed,
        presumed_rejected,
        presumed_profile_sampled,
    })
}

/// [`replay_log`], returning just the timelines — the original
/// entry point most tests use.
pub fn validate_log(text: &str) -> Result<BTreeMap<String, JobTimeline>, String> {
    replay_log(text).map(|r| r.timelines)
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
        let timelines = validate_log(&log).expect("valid log");
        let t = &timelines["j-0"];
        assert_eq!(t.validate(), Ok(Outcome::Computed));
        assert_eq!(t.name.as_deref(), Some("a.js"));
        assert_eq!(t.verdict.as_deref(), Some("pass"));
        assert_eq!(t.micros, Some(99));
        assert_eq!(t.spans, [("phase1".to_owned(), 12)]);
    }

    #[test]
    fn cache_hit_requires_producer_provenance() {
        let with_producer = [
            line(0, "cache_hit", &[("job", Json::from("j-1")), ("producer", Json::from("j-0"))]),
            line(1, "job_done", &[("job", Json::from("j-1")), ("micros", Json::from(3.0))]),
        ]
        .join("\n");
        let timelines = validate_log(&with_producer).unwrap();
        assert_eq!(timelines["j-1"].validate(), Ok(Outcome::CacheHit));
        assert_eq!(timelines["j-1"].producer.as_deref(), Some("j-0"));

        let without = [
            line(0, "cache_hit", &[("job", Json::from("j-1"))]),
            line(1, "job_done", &[("job", Json::from("j-1"))]),
        ]
        .join("\n");
        let err = validate_log(&without).unwrap_err();
        assert!(err.contains("producer"), "{err}");
    }

    #[test]
    fn unterminated_and_out_of_order_jobs_fail() {
        let unterminated = line(0, "job_enqueued", &[("job", Json::from("j-9"))]);
        assert!(validate_log(&unterminated).unwrap_err().contains("job_done"));

        let skipped_dequeue = [
            line(0, "job_enqueued", &[("job", Json::from("j-2"))]),
            line(1, "job_computed", &[("job", Json::from("j-2")), ("verdict", Json::from("pass"))]),
            line(2, "job_done", &[("job", Json::from("j-2"))]),
        ]
        .join("\n");
        let err = validate_log(&skipped_dequeue).unwrap_err();
        assert!(err.contains("job_dequeued"), "{err}");
    }

    #[test]
    fn rejected_jobs_are_terminal() {
        let ok = line(0, "job_rejected", &[("job", Json::from("j-3")), ("reason", Json::from("overloaded"))]);
        assert_eq!(validate_log(&ok).unwrap()["j-3"].validate(), Ok(Outcome::Rejected));

        let bad = [
            line(0, "job_rejected", &[("job", Json::from("j-3"))]),
            line(1, "job_dequeued", &[("job", Json::from("j-3"))]),
        ]
        .join("\n");
        assert!(validate_log(&bad).is_err());
    }

    #[test]
    fn seq_must_be_strictly_monotone() {
        let log = [
            line(5, "serve_started", &[]),
            line(5, "serve_shutdown", &[]),
        ]
        .join("\n");
        assert!(validate_log(&log).unwrap_err().contains("monotone"));
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
        assert_eq!(replay.timelines["j-0"].validate(), Ok(Outcome::Rejected));
        assert_eq!(replay.timelines["j-2"].validate(), Ok(Outcome::Computed));
        // Kept + suppressed rejections account for every shed job.
        let kept = replay
            .timelines
            .values()
            .filter(|t| t.validate() == Ok(Outcome::Rejected))
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
        // alert_fired / alert_cleared (in-daemon alerting) narrate the
        // daemon, not a job: replay accepts them interleaved with job
        // lifecycles and leaves the timelines untouched.
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
        assert_eq!(replay.timelines["j-0"].validate(), Ok(Outcome::Computed));
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
        assert_eq!(replay.timelines["j-0"].validate(), Ok(Outcome::Computed));
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
        assert_eq!(t.validate(), Ok(Outcome::Computed));
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
        let records: Vec<Json> = twice.lines().map(|l| Json::parse(l).unwrap()).collect();
        let t = &job_timelines(&records)["j-0"];
        assert_eq!((t.computed, t.recomputed), (Some(2), Some(3)));
        assert_eq!(t.verdict.as_deref(), Some("ok"), "the first record is kept");
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
        let timelines = validate_log(&log).unwrap();
        assert_eq!(timelines["j-0"].validate(), Ok(Outcome::Computed));
        assert_eq!(timelines["j-1"].validate(), Ok(Outcome::Coalesced));
        assert_eq!(timelines["j-1"].producer.as_deref(), Some("j-0"));
    }
}

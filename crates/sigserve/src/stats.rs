//! The `stats` response and the metrics encodings, rendered from the
//! daemon's metrics registry — the one place its counters live — plus
//! the job core's gauges and the process's memory gauges.

use crate::jobs::CoreView;
use minijson::Json;
use sigtrace::{HistogramSnapshot, MetricsSnapshot};

/// Serializes a metrics-registry snapshot for the `stats` response (and
/// the shutdown dump): counters as a flat name→value object, histograms
/// as `{count, sum, buckets}` where `buckets` lists only the occupied
/// log₂ buckets as `[exclusive_upper_bound_or_null, count]` pairs.
pub fn metrics_json(snap: &MetricsSnapshot) -> Json {
    let mut counters = Json::obj();
    for (name, v) in &snap.counters {
        counters.set(name, Json::from(*v as f64));
    }
    let mut histograms = Json::obj();
    for h in &snap.histograms {
        histograms.set(&h.name, histogram_json(h));
    }
    let mut body = Json::obj();
    body.set("counters", counters);
    body.set("histograms", histograms);
    body
}

fn histogram_json(h: &HistogramSnapshot) -> Json {
    let mut o = Json::obj();
    o.set("count", Json::from(h.count as f64));
    o.set("sum", Json::from(h.sum as f64));
    let buckets: Vec<Json> = h
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &c)| c != 0)
        .map(|(i, &c)| {
            let limit = match HistogramSnapshot::bucket_limit(i) {
                Some(l) => Json::from(l as f64),
                None => Json::Null,
            };
            Json::Arr(vec![limit, Json::from(c as f64)])
        })
        .collect();
    o.set("buckets", Json::Arr(buckets));
    o
}

/// Adds the job core's gauges and the process's memory gauges to a
/// registry snapshot, under the same `serve_` prefix, so the exposition
/// and the on-disk history cover the whole daemon: its resident set
/// (`serve_process_rss_bytes`) and the size of the process's symbol
/// table (`serve_interned_symbols`). Each job interns into a table of
/// its own, freed when it ends, so once every worker has built its
/// environment the second gauge holds still however many addons the
/// daemon vets.
pub(crate) fn with_gauges(mut snap: MetricsSnapshot, view: &CoreView) -> MetricsSnapshot {
    for (name, v) in [
        ("serve_cache_entries", view.cache_entries as u64),
        ("serve_jobs_pending", view.pending as u64),
        ("serve_jobs_running", view.running as u64),
        ("serve_process_rss_bytes", process_rss_bytes()),
        (
            "serve_interned_symbols",
            jsdomains::Sym::interner_len() as u64,
        ),
    ] {
        snap.counters.push((name.to_owned(), v));
    }
    snap.counters.sort();
    snap
}

/// This process's resident set (`VmRSS` in `/proc/self/status`), in
/// bytes; 0 where that file cannot be read.
fn process_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// The `stats` response: the registry's counters grouped by subsystem,
/// the core's gauges, and the full snapshot under `metrics`.
pub(crate) fn stats_response(
    snap: &MetricsSnapshot,
    view: &CoreView,
    local_workers: usize,
    queue_cap: usize,
) -> Json {
    let counter = |name: &str| {
        let v = snap
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v);
        Json::from(v as f64)
    };
    let group = |fields: &[(&str, &str)]| {
        let mut o = Json::obj();
        for (key, name) in fields {
            o.set(key, counter(name));
        }
        o
    };
    let mut queue = Json::obj();
    queue.set("depth", Json::from(view.pending as f64));
    queue.set("capacity", Json::from(queue_cap as f64));
    let mut jobs = group(&[
        ("accepted", "serve_jobs_accepted"),
        ("rejected", "serve_jobs_rejected"),
        ("completed", "serve_jobs_completed"),
        ("coalesced", "serve_jobs_coalesced"),
        ("requeued", "serve_jobs_requeued"),
        ("budget_aborts", "serve_budget_aborts"),
        ("analysis_errors", "serve_analysis_errors"),
        ("protocol_errors", "serve_protocol_errors"),
    ]);
    jobs.set("running", Json::from(view.running as f64));
    let mut cache = group(&[
        ("hits", "serve_cache_hits"),
        ("misses", "serve_cache_misses"),
        ("evictions", "serve_cache_evictions"),
    ]);
    cache.set("entries", Json::from(view.cache_entries as f64));
    cache.set("capacity", Json::from(view.cache_capacity as f64));
    let conns = group(&[
        ("open", "serve_conns_open"),
        ("accepted", "serve_conn_accepted"),
        ("closed", "serve_conn_closed"),
        ("backpressure_sheds", "serve_conn_backpressure_sheds"),
        ("deadline_misses", "serve_deadline_misses"),
    ]);
    let mut fleet = group(&[
        ("workers_alive", "serve_workers_alive"),
        ("workers_joined", "serve_workers_joined"),
        ("workers_reaped", "serve_workers_reaped"),
    ]);
    let workers = view
        .workers
        .iter()
        .map(|(id, node, claimed, idle_ms)| {
            let mut o = Json::obj();
            o.set("worker", Json::from(id.as_str()));
            o.set("node", Json::from(node.as_str()));
            o.set("claimed", Json::from(*claimed as f64));
            o.set("idle_ms", Json::from(*idle_ms as f64));
            o
        })
        .collect();
    fleet.set("workers", Json::Arr(workers));

    let mut body = crate::protocol::message("stats", vec![]);
    body.set("workers", Json::from(local_workers as f64));
    body.set("queue", queue);
    body.set("conns", conns);
    body.set("jobs", jobs);
    body.set("cache", cache);
    body.set("fleet", fleet);
    body.set("metrics", metrics_json(snap));
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigtrace::MetricsRegistry;

    #[test]
    fn metrics_json_renders_counters_and_sparse_buckets() {
        let reg = MetricsRegistry::new();
        reg.add("serve_cache_hits", 3);
        reg.record("serve_vet_us", 0);
        reg.record("serve_vet_us", 100);
        let body = metrics_json(&reg.snapshot());
        assert_eq!(body["counters"]["serve_cache_hits"].as_f64(), Some(3.0));
        let h = &body["histograms"]["serve_vet_us"];
        assert_eq!(h["count"].as_f64(), Some(2.0));
        assert_eq!(h["sum"].as_f64(), Some(100.0));
        let buckets = h["buckets"].as_array().unwrap();
        assert_eq!(buckets.len(), 2, "only occupied buckets are listed");
        assert_eq!(buckets[0].as_array().unwrap()[1].as_f64(), Some(1.0));
    }
}

//! Metric names and units, and the outcome every workload reports.
//! `BENCHMARK.json` lists the same names with their bounds.

use minijson::Json;
use std::collections::BTreeMap;

/// What a user of the pipeline or the daemon sees, reported by the
/// untraced run of every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
];

/// One layer each, reported by the traced run. Every workload measures
/// the pipeline and request-path layers on its own inputs; the daemon's
/// counters and client-side share read 0 on the in-process workloads,
/// which start no daemon.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("jsparser.parse.ms", "ms"),
    ("jsparser.parse.share", "ratio"),
    ("jsparser.ast_nodes", "count"),
    ("jsparser.parse.mb_per_s", "MB/s"),
    ("jsir.lower.ms", "ms"),
    ("jsir.lower.share", "ratio"),
    ("jsanalysis.fixpoint.ms", "ms"),
    ("jsanalysis.fixpoint.share", "ratio"),
    ("jsanalysis.steps", "count"),
    ("jsanalysis.joins", "count"),
    ("jsanalysis.reachable_stmts", "count"),
    ("jsanalysis.steps_per_reachable", "ratio"),
    ("jsanalysis.fixpoint.peak_growth_mb", "MiB"),
    ("jspdg.supergraph.ms", "ms"),
    ("jspdg.supergraph.share", "ratio"),
    ("jspdg.ddg.ms", "ms"),
    ("jspdg.ddg.share", "ratio"),
    ("jspdg.ddg.edges", "count"),
    ("jspdg.ddg.peak_growth_mb", "MiB"),
    ("jspdg.cdg.ms", "ms"),
    ("jspdg.cdg.share", "ratio"),
    ("jspdg.cdg.edges", "count"),
    ("jspdg.assemble.ms", "ms"),
    ("jspdg.assemble.share", "ratio"),
    ("jssig.infer.ms", "ms"),
    ("jssig.infer.share", "ratio"),
    ("jssig.flows", "count"),
    ("pipeline.unattributed_share", "ratio"),
    ("pipeline.trace_overhead_pct", "%"),
    ("sigserve.decode.us_p50", "us"),
    ("sigserve.decode.mb_per_s", "MB/s"),
    ("sigserve.cache_key.us_p50", "us"),
    ("sigserve.cache_key.mb_per_s", "MB/s"),
    ("sigserve.cache_get.us_p50", "us"),
    ("sigserve.cache_insert.us_p50", "us"),
    ("sigserve.encode.us_p50", "us"),
    ("sigserve.request_kb.mean", "KB"),
    ("sigserve.response_kb.mean", "KB"),
    ("sigserve.unattributed_share", "ratio"),
    ("sigserve.cache.evictions", "count"),
    ("sigserve.jobs.rejected", "count"),
    ("sigserve.conn.backpressure_sheds", "count"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations that failed or produced a wrong output.
    pub failed: u64,
    /// The first few failures, and every run-level check that did not
    /// hold (a run with any is not correct even if nothing failed).
    pub problems: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
    pub diagnostics: BTreeMap<String, Json>,
}

const MAX_PROBLEMS: usize = 8;

impl Outcome {
    /// Counts one checked operation.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.problems.len() < MAX_PROBLEMS {
                self.problems.push(e);
            }
        }
    }

    /// Records a run-level check.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.diagnostics.insert(key.to_owned(), value);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The reported metrics: the end-to-end set, or with `trace` the
    /// per-layer set (layers off the workload's path read 0).
    pub fn metrics(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let specs: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
        specs
            .iter()
            .map(|&(name, unit)| {
                let value = self.values.get(name).copied();
                assert!(
                    trace || value.is_some(),
                    "end-to-end metric {name} was not measured"
                );
                (name, value.unwrap_or(0.0), unit)
            })
            .collect()
    }
}

/// A list of numbers, for the diagnostics.
pub fn json_list(values: impl IntoIterator<Item = f64>) -> Json {
    Json::Arr(values.into_iter().map(Json::from).collect())
}

/// `{"name": {"value": v, "unit": u}, ...}`
pub fn metrics_json(metrics: &[(&str, f64, &str)]) -> Json {
    let mut doc = Json::obj();
    for (name, value, unit) in metrics {
        let mut m = Json::obj();
        m.set("value", Json::from(*value));
        m.set("unit", Json::from(*unit));
        doc.set(name, m);
    }
    doc
}

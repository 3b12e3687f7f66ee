//! The corpus drift observatory.
//!
//! `vet corpus-snapshot` runs the full pipeline over the built-in corpus
//! and persists one JSON document per run: each addon's verdict, its
//! signature, and the order-independent pipeline-counter subset, keyed
//! by the analyzer version and a hash of the analysis configuration.
//! `vet corpus-diff OLD NEW` then classifies what changed between two
//! such snapshots — verdict flips, flow additions/removals, flow-type
//! transitions, and counter deltas — so an analyzer change that silently
//! shifts corpus results is caught by CI instead of a curator.
//!
//! Snapshots from different analyzer versions or configurations are
//! still diffable (that is the point: "what did the new version change?")
//! but the report records the mismatch so same-version drift — which
//! should always be empty — is distinguishable from expected evolution.

use crate::{Error, Pipeline};
use jsanalysis::AnalysisConfig;
use minijson::Json;
use std::collections::BTreeMap;

/// Schema stamp written into every snapshot; foreign-schema documents
/// are rejected by [`diff_snapshots`] instead of misread.
pub const SNAPSHOT_SCHEMA: u64 = 1;

/// The snapshot's `config_hash`: FNV-1a of the canonical config, in hex.
fn config_hash(canon: &str) -> String {
    use sigserve::cache::{fnv1a, FNV_OFFSET};
    format!("{:016x}", fnv1a(FNV_OFFSET, canon.as_bytes()))
}

/// Runs the pipeline over every corpus addon under `config` and returns
/// the snapshot document. Deterministic for a fixed analyzer version and
/// configuration: two calls produce byte-identical compact JSON (the
/// snapshot carries no timestamps or wall times by design).
pub fn snapshot_corpus(config: &AnalysisConfig) -> Json {
    let canon = config.canonical_string();
    let mut addons = Json::obj();
    for addon in corpus::addons() {
        addons.set(addon.name, snapshot_one(addon.source, config));
    }
    let mut doc = Json::obj();
    doc.set("schema", Json::from(SNAPSHOT_SCHEMA as f64));
    doc.set("analyzer_version", Json::from(env!("CARGO_PKG_VERSION")));
    doc.set("config", Json::from(canon.as_str()));
    doc.set("config_hash", Json::from(config_hash(&canon)));
    doc.set("addons", addons);
    doc
}

/// One addon's snapshot entry: verdict, signature (for `ok`), and the
/// order-independent counter subset (the only counters stable across
/// worklist orders, so reordering optimizations don't read as drift).
fn snapshot_one(source: &str, config: &AnalysisConfig) -> Json {
    let mut entry = Json::obj();
    match Pipeline::new().config(config.clone()).run(source) {
        Ok(report) => {
            entry.set("verdict", Json::from("ok"));
            let sig = report.signature.to_json();
            entry.set("signature", Json::parse(&sig).unwrap_or(Json::Str(sig)));
            let mut counters = Json::obj();
            for (c, v) in report.counters.order_independent() {
                counters.set(c.name(), Json::from(v as f64));
            }
            entry.set("counters", counters);
        }
        Err(Error::Budget { kind, steps, .. }) => {
            entry.set("verdict", Json::from("timeout"));
            entry.set("budget", Json::from(kind.to_string()));
            entry.set("steps", Json::from(steps as f64));
        }
        Err(e) => {
            entry.set("verdict", Json::from("error"));
            entry.set("message", Json::from(e.to_string()));
        }
    }
    entry
}

/// Flow rows of one addon's snapshot entry, in drift identity form
/// (display strings, no witness lines or provenance paths — line
/// numbers shift under reformatting and must not read as drift).
fn drift_flows(entry: &Json) -> Vec<jssig::DriftFlow> {
    let Some(flows) = entry["signature"]["flows"].as_array() else {
        return Vec::new();
    };
    flows
        .iter()
        .map(|f| jssig::DriftFlow {
            source: f["source"].as_str().unwrap_or("").to_owned(),
            flow: f["flow"].as_str().unwrap_or("").to_owned(),
            sink_kind: f["sink_kind"].as_str().unwrap_or("").to_owned(),
            domain: f["domain"].as_str().map(str::to_owned),
        })
        .collect()
}

fn counter_map(entry: &Json) -> BTreeMap<String, i64> {
    let mut map = BTreeMap::new();
    if let Json::Obj(pairs) = &entry["counters"] {
        for (name, v) in pairs {
            if let Some(n) = v.as_f64() {
                map.insert(name.clone(), n as i64);
            }
        }
    }
    map
}

/// What changed for one addon between two snapshots.
#[derive(Debug)]
pub struct AddonDrift {
    /// The addon's corpus name.
    pub name: String,
    /// Verdict in the old snapshot (`"ok"` / `"timeout"` / `"error"`).
    pub old_verdict: String,
    /// Verdict in the new snapshot.
    pub new_verdict: String,
    /// Flow-set drift (empty when the verdict flipped away from `ok`;
    /// the flip itself is the finding).
    pub flows: jssig::FlowDrift,
    /// Order-independent counter deltas (`new - old`), only nonzero ones.
    pub counter_deltas: Vec<(String, i64)>,
}

impl AddonDrift {
    /// The addon's verdict changed between snapshots.
    pub fn verdict_flip(&self) -> bool {
        self.old_verdict != self.new_verdict
    }

    /// Signature-level drift: a verdict flip or any flow change. Counter
    /// deltas alone do not count — they measure work, not behavior.
    pub fn is_signature_drift(&self) -> bool {
        self.verdict_flip() || !self.flows.is_empty()
    }
}

/// The full diff of two snapshots.
#[derive(Debug)]
pub struct DriftReport {
    /// `analyzer_version` of the old snapshot.
    pub old_version: String,
    /// `analyzer_version` of the new snapshot.
    pub new_version: String,
    /// The snapshots ran under different configurations (different
    /// `config_hash`), so drift is expected rather than alarming.
    pub config_mismatch: bool,
    /// Addons present only in the old snapshot.
    pub only_in_old: Vec<String>,
    /// Addons present only in the new snapshot.
    pub only_in_new: Vec<String>,
    /// Per-addon changes, including counter-only deltas; addons with no
    /// change at all are omitted.
    pub changed: Vec<AddonDrift>,
}

impl DriftReport {
    /// Signature-level drift anywhere: a verdict flip, a flow change, or
    /// a corpus membership change. This is what the CI gate keys on;
    /// counter-only deltas are reported but do not trip it.
    pub fn has_signature_drift(&self) -> bool {
        !self.only_in_old.is_empty()
            || !self.only_in_new.is_empty()
            || self.changed.iter().any(AddonDrift::is_signature_drift)
    }

    /// The machine-readable report document `vet corpus-diff` prints.
    pub fn to_json(&self) -> Json {
        let flow_json = |f: &jssig::DriftFlow| Json::from(f.to_string());
        let mut doc = Json::obj();
        doc.set("schema", Json::from(SNAPSHOT_SCHEMA as f64));
        doc.set("old_version", Json::from(self.old_version.as_str()));
        doc.set("new_version", Json::from(self.new_version.as_str()));
        doc.set("config_mismatch", Json::Bool(self.config_mismatch));
        doc.set("drift", Json::Bool(self.has_signature_drift()));
        let names = |ns: &[String]| Json::Arr(ns.iter().map(|n| Json::from(n.as_str())).collect());
        doc.set("only_in_old", names(&self.only_in_old));
        doc.set("only_in_new", names(&self.only_in_new));
        let changed: Vec<Json> = self
            .changed
            .iter()
            .map(|a| {
                let mut o = Json::obj();
                o.set("name", Json::from(a.name.as_str()));
                o.set("signature_drift", Json::Bool(a.is_signature_drift()));
                if a.verdict_flip() {
                    o.set("old_verdict", Json::from(a.old_verdict.as_str()));
                    o.set("new_verdict", Json::from(a.new_verdict.as_str()));
                }
                if !a.flows.is_empty() {
                    o.set(
                        "flows_added",
                        Json::Arr(a.flows.added.iter().map(flow_json).collect()),
                    );
                    o.set(
                        "flows_removed",
                        Json::Arr(a.flows.removed.iter().map(flow_json).collect()),
                    );
                    o.set(
                        "flows_retyped",
                        Json::Arr(
                            a.flows
                                .retyped
                                .iter()
                                .map(|r| Json::from(r.to_string()))
                                .collect(),
                        ),
                    );
                }
                if !a.counter_deltas.is_empty() {
                    let mut deltas = Json::obj();
                    for (name, d) in &a.counter_deltas {
                        deltas.set(name, Json::from(*d as f64));
                    }
                    o.set("counter_deltas", deltas);
                }
                o
            })
            .collect();
        doc.set("changed", Json::Arr(changed));
        doc
    }
}

/// Diffs two snapshot documents produced by [`snapshot_corpus`].
///
/// # Errors
///
/// A human-readable message when either document is not a
/// schema-compatible snapshot.
pub fn diff_snapshots(old: &Json, new: &Json) -> Result<DriftReport, String> {
    for (label, doc) in [("old", old), ("new", new)] {
        match doc["schema"].as_f64() {
            Some(s) if s as u64 == SNAPSHOT_SCHEMA => {}
            Some(s) => return Err(format!("{label} snapshot has schema {s}, expected 1")),
            None => return Err(format!("{label} document is not a corpus snapshot")),
        }
    }
    let version = |doc: &Json| {
        doc["analyzer_version"]
            .as_str()
            .unwrap_or("unknown")
            .to_owned()
    };
    let addons = |doc: &Json| -> BTreeMap<String, Json> {
        match &doc["addons"] {
            Json::Obj(pairs) => pairs.iter().cloned().collect(),
            _ => BTreeMap::new(),
        }
    };
    let old_addons = addons(old);
    let new_addons = addons(new);

    let mut changed = Vec::new();
    let mut only_in_old = Vec::new();
    for (name, old_entry) in &old_addons {
        let Some(new_entry) = new_addons.get(name) else {
            only_in_old.push(name.clone());
            continue;
        };
        let old_verdict = old_entry["verdict"].as_str().unwrap_or("missing");
        let new_verdict = new_entry["verdict"].as_str().unwrap_or("missing");
        let flows = jssig::classify_flow_drift(&drift_flows(old_entry), &drift_flows(new_entry));
        let old_counters = counter_map(old_entry);
        let new_counters = counter_map(new_entry);
        let mut counter_deltas = Vec::new();
        for name in old_counters.keys().chain(new_counters.keys()) {
            let delta = new_counters.get(name).copied().unwrap_or(0)
                - old_counters.get(name).copied().unwrap_or(0);
            if delta != 0 && counter_deltas.iter().all(|(n, _)| n != name) {
                counter_deltas.push((name.clone(), delta));
            }
        }
        if old_verdict != new_verdict || !flows.is_empty() || !counter_deltas.is_empty() {
            changed.push(AddonDrift {
                name: name.clone(),
                old_verdict: old_verdict.to_owned(),
                new_verdict: new_verdict.to_owned(),
                flows,
                counter_deltas,
            });
        }
    }
    let only_in_new = new_addons
        .keys()
        .filter(|n| !old_addons.contains_key(*n))
        .cloned()
        .collect();

    Ok(DriftReport {
        old_version: version(old),
        new_version: version(new),
        config_mismatch: old["config_hash"] != new["config_hash"],
        only_in_old,
        only_in_new,
        changed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Json::set` appends without replacing (and `get` returns the
    /// first match), so "edit one key of a clone" means rebuilding.
    fn with_key(doc: &Json, key: &str, value: Json) -> Json {
        let Json::Obj(pairs) = doc else {
            panic!("expected an object");
        };
        Json::Obj(
            pairs
                .iter()
                .map(|(k, v)| {
                    let v = if k == key { value.clone() } else { v.clone() };
                    (k.clone(), v)
                })
                .collect(),
        )
    }

    /// Snapshots written before the hash moved into `sigserve::cache`
    /// still compare clean: the default config hashes as it always did.
    #[test]
    fn default_config_hash_is_pinned() {
        let canon = AnalysisConfig::default().canonical_string();
        assert_eq!(config_hash(&canon), "1c45a371d8637e67");
    }

    #[test]
    fn same_config_snapshots_are_identical_and_diff_clean() {
        let config = AnalysisConfig::default();
        let a = snapshot_corpus(&config);
        let b = snapshot_corpus(&config);
        assert_eq!(
            a.to_string_compact(),
            b.to_string_compact(),
            "snapshots must be deterministic"
        );
        let report = diff_snapshots(&a, &b).unwrap();
        assert!(!report.has_signature_drift());
        assert!(report.changed.is_empty(), "{:?}", report.changed);
        assert!(!report.config_mismatch);
        assert_eq!(report.to_json()["drift"], Json::Bool(false));
    }

    #[test]
    fn snapshot_covers_every_corpus_addon_with_ok_verdicts() {
        let snap = snapshot_corpus(&AnalysisConfig::default());
        let Json::Obj(addons) = &snap["addons"] else {
            panic!("addons must be an object");
        };
        assert_eq!(addons.len(), corpus::addons().len());
        for (name, entry) in addons {
            assert_eq!(
                entry["verdict"].as_str(),
                Some("ok"),
                "corpus addon {name} should analyze cleanly"
            );
        }
    }

    #[test]
    fn tight_budget_reads_as_verdict_flips() {
        let full = snapshot_corpus(&AnalysisConfig::default());
        let starved = snapshot_corpus(&AnalysisConfig::default().with_step_budget(1));
        let report = diff_snapshots(&full, &starved).unwrap();
        assert!(report.has_signature_drift());
        assert!(
            report.changed.iter().all(AddonDrift::verdict_flip),
            "every addon should flip ok -> timeout"
        );
        assert_eq!(report.changed.len(), corpus::addons().len());
        // Same analyzer, same config hash? No: step budget is part of
        // the canonical config, so the mismatch is recorded.
        assert!(report.config_mismatch);
    }

    #[test]
    fn membership_changes_are_drift() {
        let config = AnalysisConfig::default();
        let a = snapshot_corpus(&config);
        let Json::Obj(mut addons) = a["addons"].clone() else {
            panic!("addons must be an object");
        };
        addons.pop();
        let b = with_key(&a, "addons", Json::Obj(addons));
        let report = diff_snapshots(&a, &b).unwrap();
        assert_eq!(report.only_in_old.len(), 1);
        assert!(report.has_signature_drift());
    }

    #[test]
    fn foreign_schema_is_rejected() {
        let snap = snapshot_corpus(&AnalysisConfig::default());
        let foreign = with_key(&snap, "schema", Json::from(99.0));
        assert!(diff_snapshots(&foreign, &snap).is_err());
        assert!(diff_snapshots(&snap, &Json::obj()).is_err());
    }
}

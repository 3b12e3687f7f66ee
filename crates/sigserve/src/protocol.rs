//! The newline-delimited JSON wire protocol.
//!
//! Requests, one compact JSON object per line:
//!
//! ```text
//! {"kind":"vet","name":"addon.js","source":"var x = 1;"}
//! {"kind":"vet","path":"crates/corpus/addons/pinpoints.js"}
//! {"kind":"vet_batch","items":[{"name":"a","source":"..."}, ...]}
//! {"kind":"stats"}
//! {"kind":"metrics"}
//! {"kind":"shutdown"}
//! ```
//!
//! Responses, one compact JSON object per line, in request order:
//!
//! ```text
//! {"kind":"vet_result","name":"addon.js","cached":false,"micros":5120,
//!  "verdict":"ok","p1_us":...,"p2_us":...,"p3_us":...,"signature":{...}}
//! {"kind":"vet_result",...,"verdict":"timeout","steps":501,"elapsed_us":...}
//! {"kind":"vet_result",...,"verdict":"error","message":"parse error: ..."}
//! {"kind":"overloaded","queued":32,"capacity":32}
//! {"kind":"stats", ...counters...}
//! {"kind":"metrics","prometheus":"# TYPE serve_vet_us histogram\n..."}
//! {"kind":"shutdown_ack","stats":{...}}
//! {"kind":"error","message":"unknown request kind"}
//! ```
//!
//! `vet_result` lines additionally carry a `job` field: the daemon's
//! per-job request ID (`j-<n>`), the same ID every structured-log record
//! about the job carries, so responses correlate with the event log.
//!
//! The `signature` value of an `ok` result is exactly the document
//! `vet --json` prints (parsed into the response object), so clients can
//! reconstruct the CLI's bytes with a pretty re-print.
//!
//! Remote workers (`vet serve --join`) speak four more verbs on the same
//! port:
//!
//! ```text
//! {"kind":"join","node":"worker-a","config":"k=1;strings=Prefix;..."}
//!   -> {"kind":"join_ack","worker":"w-0","heartbeat_ms":2000,"reap_ms":6000}
//!    | {"kind":"error","message":"..."}  (config differs from the daemon's)
//! {"kind":"claim","worker":"w-0","wait_ms":500}
//!   -> {"kind":"job","job":"j-3","name":"a.js","source":"..."}
//!    | {"kind":"no_job"}
//!    | {"kind":"fleet_shutdown"}
//! {"kind":"complete","worker":"w-0","job":"j-3","cacheable":true,
//!  "core":{"verdict":"ok",...}}
//!   -> {"kind":"complete_ack","stale":false}
//! {"kind":"heartbeat","worker":"w-0"}
//!   -> {"kind":"heartbeat_ack"}
//! ```

use minijson::Json;

/// Where a vet request's program text comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// Inline in the request (`"source"`), the normal remote-client path.
    Inline(String),
    /// A path the daemon reads itself (`"path"`), for local tooling and
    /// smoke tests that would otherwise have to JSON-escape whole files.
    Path(String),
}

/// One submission inside a `vet` or `vet_batch` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VetItem {
    /// Optional display name echoed back in the response.
    pub name: Option<String>,
    /// The program text (inline or by path).
    pub source: Source,
}

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Vet one addon.
    Vet(VetItem),
    /// Vet several addons; one `vet_batch_result` line answers them all.
    VetBatch(Vec<VetItem>),
    /// Report the daemon's counters.
    Stats,
    /// Report the metrics registry as a Prometheus text body.
    Metrics,
    /// Finish pending jobs, dump counters, and stop.
    Shutdown,
    /// A remote worker registers; answered by `join_ack`, or by an
    /// `error` when its analysis config is not the daemon's.
    Join {
        /// The worker's self-reported node name (for stats and logs).
        node: String,
        /// The worker engine's `AnalysisConfig::canonical_string()`.
        config: Option<String>,
    },
    /// A remote worker asks for a job, waiting up to `wait_ms` for one.
    Claim {
        /// The daemon-assigned worker ID from `join_ack`.
        worker: String,
        /// How long the daemon may hold the claim open (clamped to
        /// [`MAX_CLAIM_WAIT_MS`]).
        wait_ms: u64,
    },
    /// A remote worker posts a claimed job's core result.
    Complete {
        /// The completing worker's ID.
        worker: String,
        /// The job ID from the `job` message.
        job: String,
        /// Whether the result may enter the cache (deadline timeouts
        /// are not deterministic, so the worker says).
        cacheable: bool,
        /// The core result object (fields start at `"verdict"`).
        core: Json,
    },
    /// A remote worker's liveness ping; missing these gets it reaped.
    Heartbeat {
        /// The pinging worker's ID.
        worker: String,
    },
}

/// Claims may not hold a connection open longer than this.
pub const MAX_CLAIM_WAIT_MS: u64 = 30_000;

fn req_str(v: &Json, field: &str, kind: &str) -> Result<String, String> {
    v.get(field)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("{kind} needs a string {field}"))
}

fn parse_item(v: &Json) -> Result<VetItem, String> {
    let name = v.get("name").and_then(Json::as_str).map(str::to_owned);
    let source = match (v.get("source"), v.get("path")) {
        (Some(Json::Str(s)), None) => Source::Inline(s.clone()),
        (None, Some(Json::Str(p))) => Source::Path(p.clone()),
        (Some(_), Some(_)) => return Err("vet item has both source and path".to_owned()),
        _ => return Err("vet item needs a string source or path".to_owned()),
    };
    Ok(VetItem { name, source })
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line.trim()).map_err(|e| e.to_string())?;
    match v.get("kind").and_then(Json::as_str) {
        Some("vet") => Ok(Request::Vet(parse_item(&v)?)),
        Some("vet_batch") => {
            let items = v
                .get("items")
                .and_then(Json::as_array)
                .ok_or_else(|| "vet_batch needs an items array".to_owned())?;
            if items.is_empty() {
                return Err("vet_batch items is empty".to_owned());
            }
            items
                .iter()
                .map(parse_item)
                .collect::<Result<Vec<_>, _>>()
                .map(Request::VetBatch)
        }
        Some("stats") => Ok(Request::Stats),
        Some("metrics") => Ok(Request::Metrics),
        Some("shutdown") => Ok(Request::Shutdown),
        Some("join") => Ok(Request::Join {
            node: req_str(&v, "node", "join")?,
            config: v.get("config").and_then(Json::as_str).map(str::to_owned),
        }),
        Some("claim") => Ok(Request::Claim {
            worker: req_str(&v, "worker", "claim")?,
            wait_ms: v
                .get("wait_ms")
                .and_then(Json::as_f64)
                .map_or(0, |w| w.max(0.0) as u64)
                .min(MAX_CLAIM_WAIT_MS),
        }),
        Some("complete") => Ok(Request::Complete {
            worker: req_str(&v, "worker", "complete")?,
            job: req_str(&v, "job", "complete")?,
            cacheable: matches!(v.get("cacheable"), Some(Json::Bool(true))),
            core: v
                .get("core")
                .cloned()
                .ok_or_else(|| "complete needs a core object".to_owned())?,
        }),
        Some("heartbeat") => Ok(Request::Heartbeat {
            worker: req_str(&v, "worker", "heartbeat")?,
        }),
        Some(other) => Err(format!("unknown request kind: {other}")),
        None => Err("request needs a string kind".to_owned()),
    }
}

/// Builds a `vet` request document (used by the client and tests).
pub fn vet_request(name: Option<&str>, source: &str) -> Json {
    let mut o = Json::obj();
    o.set("kind", Json::from("vet"));
    if let Some(n) = name {
        o.set("name", Json::from(n));
    }
    o.set("source", Json::from(source));
    o
}

/// Builds a `vet_batch` request from `(name, source)` items.
pub fn vet_batch_request(items: impl IntoIterator<Item = (String, String)>) -> Json {
    let items = items
        .into_iter()
        .map(|(name, source)| {
            let mut o = Json::obj();
            o.set("name", Json::from(name));
            o.set("source", Json::from(source));
            o
        })
        .collect();
    message("vet_batch", vec![("items", Json::Arr(items))])
}

/// A protocol message: `kind` first, then `fields` in order.
pub fn message(kind: &str, fields: Vec<(&str, Json)>) -> Json {
    let mut o = Json::obj();
    o.set("kind", Json::from(kind));
    for (key, value) in fields {
        o.set(key, value);
    }
    o
}

/// The `kind:error` response for malformed requests.
pub fn error_response(text: &str) -> Json {
    message("error", vec![("message", Json::from(text))])
}

/// The typed backpressure response: the job queue is full.
pub fn overloaded_response(name: Option<&str>, queued: usize, capacity: usize) -> Json {
    let mut o = Json::obj();
    o.set("kind", Json::from("overloaded"));
    if let Some(n) = name {
        o.set("name", Json::from(n));
    }
    o.set("queued", Json::from(queued as f64));
    o.set("capacity", Json::from(capacity as f64));
    o
}

/// The typed *write* backpressure response: the connection's outbound
/// buffer is full because the client is not reading its responses, so
/// new vet work on this connection is shed instead of queued. Distinct
/// from [`overloaded_response`] (a daemon-wide full job queue) via the
/// `reason` field and byte-denominated bounds.
pub fn backpressure_response(
    name: Option<&str>,
    queued_bytes: usize,
    capacity_bytes: usize,
) -> Json {
    let mut o = Json::obj();
    o.set("kind", Json::from("overloaded"));
    o.set("reason", Json::from("write_backpressure"));
    if let Some(n) = name {
        o.set("name", Json::from(n));
    }
    o.set("queued_bytes", Json::from(queued_bytes as f64));
    o.set("capacity_bytes", Json::from(capacity_bytes as f64));
    o
}

/// Wraps a cached-or-computed core result (its fields start at
/// `"verdict"`) with per-request provenance: the display name, the
/// request ID (when the daemon assigned one), whether the cache
/// answered, and the request's wall time in microseconds.
pub fn vet_response(
    core: &Json,
    name: Option<&str>,
    job: Option<&str>,
    cached: bool,
    micros: u128,
) -> Json {
    let mut o = Json::obj();
    o.set("kind", Json::from("vet_result"));
    if let Some(n) = name {
        o.set("name", Json::from(n));
    }
    if let Some(j) = job {
        o.set("job", Json::from(j));
    }
    o.set("cached", Json::Bool(cached));
    o.set("micros", Json::from(micros as f64));
    if let Json::Obj(entries) = core {
        for (k, v) in entries {
            o.set(k, v.clone());
        }
    }
    o
}

/// The `kind:metrics` response: the Prometheus text body plus its sample
/// count (so scripted clients can sanity-check without parsing).
pub fn metrics_response(prometheus: &str, samples: usize) -> Json {
    message(
        "metrics",
        vec![
            ("samples", Json::from(samples as f64)),
            ("prometheus", Json::from(prometheus)),
        ],
    )
}

/// Builds a `join` request for a worker whose engine runs under the
/// canonical analysis config `config`.
pub fn join_request(node: &str, config: &str) -> Json {
    message(
        "join",
        vec![("node", Json::from(node)), ("config", Json::from(config))],
    )
}

/// Builds the `join_ack` response: the assigned worker identity plus the
/// daemon-governed timings the worker must obey.
pub fn join_ack(worker: &str, heartbeat_ms: u64, reap_ms: u64) -> Json {
    message(
        "join_ack",
        vec![
            ("worker", Json::from(worker)),
            ("heartbeat_ms", Json::from(heartbeat_ms as f64)),
            ("reap_ms", Json::from(reap_ms as f64)),
        ],
    )
}

/// Builds a `claim` request.
pub fn claim_request(worker: &str, wait_ms: u64) -> Json {
    message(
        "claim",
        vec![
            ("worker", Json::from(worker)),
            ("wait_ms", Json::from(wait_ms as f64)),
        ],
    )
}

/// Builds the `job` message answering a claim.
pub fn job_message(job: &str, name: Option<&str>, source: &str) -> Json {
    let mut fields = vec![("job", Json::from(job))];
    if let Some(n) = name {
        fields.push(("name", Json::from(n)));
    }
    fields.push(("source", Json::from(source)));
    message("job", fields)
}

/// Builds the empty-handed claim response.
pub fn no_job() -> Json {
    message("no_job", vec![])
}

/// Builds the claim response that tells workers to exit.
pub fn fleet_shutdown() -> Json {
    message("fleet_shutdown", vec![])
}

/// Builds a `complete` request.
pub fn complete_request(worker: &str, job: &str, cacheable: bool, core: &Json) -> Json {
    message(
        "complete",
        vec![
            ("worker", Json::from(worker)),
            ("job", Json::from(job)),
            ("cacheable", Json::Bool(cacheable)),
            ("core", core.clone()),
        ],
    )
}

/// Builds the `complete_ack` response. `stale` means the daemon no
/// longer credits the sender with the job (it was reaped and reassigned,
/// or already finished); the worker just moves on.
pub fn complete_ack(stale: bool) -> Json {
    message("complete_ack", vec![("stale", Json::Bool(stale))])
}

/// Builds a `heartbeat` request.
pub fn heartbeat_request(worker: &str) -> Json {
    message("heartbeat", vec![("worker", Json::from(worker))])
}

/// Builds the `heartbeat_ack` response.
pub fn heartbeat_ack() -> Json {
    message("heartbeat_ack", vec![])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vet_inline_and_path() {
        let r = parse_request(r#"{"kind":"vet","name":"a.js","source":"var x;"}"#).unwrap();
        assert_eq!(
            r,
            Request::Vet(VetItem {
                name: Some("a.js".to_owned()),
                source: Source::Inline("var x;".to_owned()),
            })
        );
        let r = parse_request(r#"{"kind":"vet","path":"/tmp/a.js"}"#).unwrap();
        assert_eq!(
            r,
            Request::Vet(VetItem {
                name: None,
                source: Source::Path("/tmp/a.js".to_owned()),
            })
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"kind":"vet"}"#).is_err(), "no source");
        assert!(
            parse_request(r#"{"kind":"vet","source":"x","path":"y"}"#).is_err(),
            "both source and path"
        );
        assert!(parse_request(r#"{"kind":"launch_missiles"}"#).is_err());
        assert!(parse_request(r#"{"kind":"vet_batch","items":[]}"#).is_err());
    }

    #[test]
    fn parses_batch_stats_shutdown() {
        let r = parse_request(
            r#"{"kind":"vet_batch","items":[{"source":"a"},{"name":"b","source":"b"}]}"#,
        )
        .unwrap();
        match r {
            Request::VetBatch(items) => assert_eq!(items.len(), 2),
            other => panic!("expected batch, got {other:?}"),
        }
        assert_eq!(
            parse_request(r#"{"kind":"stats"}"#).unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request(r#"{"kind":"metrics"}"#).unwrap(),
            Request::Metrics
        );
        assert_eq!(
            parse_request(r#"{"kind":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn metrics_response_is_single_line_with_sample_count() {
        let resp = metrics_response("# TYPE a counter\na 1\n", 1);
        assert_eq!(resp["kind"], "metrics");
        assert_eq!(resp["samples"].as_f64(), Some(1.0));
        assert!(resp["prometheus"].as_str().unwrap().contains("a 1"));
        assert!(!resp.to_string_compact().contains('\n'));
    }

    #[test]
    fn vet_response_prepends_provenance() {
        let mut core = Json::obj();
        core.set("verdict", Json::from("ok"));
        core.set("signature", Json::obj());
        let resp = vet_response(&core, Some("x.js"), Some("j-7"), true, 42);
        assert_eq!(resp["kind"], "vet_result");
        assert_eq!(resp["name"], "x.js");
        assert_eq!(resp["job"], "j-7");
        assert_eq!(resp["cached"], Json::Bool(true));
        assert_eq!(resp["micros"].as_f64(), Some(42.0));
        assert_eq!(resp["verdict"], "ok");
        let line = resp.to_string_compact();
        assert!(!line.contains('\n'));
    }

    #[test]
    fn request_builder_roundtrips_through_parser() {
        let req = vet_request(Some("n"), "var x = \"two\\nlines\";");
        let parsed = parse_request(&req.to_string_compact()).unwrap();
        assert_eq!(
            parsed,
            Request::Vet(VetItem {
                name: Some("n".to_owned()),
                source: Source::Inline("var x = \"two\\nlines\";".to_owned()),
            })
        );
    }

    #[test]
    fn worker_verbs_roundtrip_through_parser() {
        let r = parse_request(&join_request("node-a", "k=1").to_string_compact()).unwrap();
        assert_eq!(
            r,
            Request::Join {
                node: "node-a".to_owned(),
                config: Some("k=1".to_owned()),
            }
        );
        let r = parse_request(&claim_request("w-1", 250).to_string_compact()).unwrap();
        assert_eq!(
            r,
            Request::Claim {
                worker: "w-1".to_owned(),
                wait_ms: 250,
            }
        );
        let mut core = Json::obj();
        core.set("verdict", Json::from("ok"));
        let r = parse_request(&complete_request("w-1", "j-9", true, &core).to_string_compact())
            .unwrap();
        match r {
            Request::Complete {
                worker,
                job,
                cacheable,
                core,
            } => {
                assert_eq!(worker, "w-1");
                assert_eq!(job, "j-9");
                assert!(cacheable);
                assert_eq!(core["verdict"], "ok");
            }
            other => panic!("expected complete, got {other:?}"),
        }
        let r = parse_request(&heartbeat_request("w-2").to_string_compact()).unwrap();
        assert_eq!(
            r,
            Request::Heartbeat {
                worker: "w-2".to_owned()
            }
        );
    }

    #[test]
    fn claim_wait_is_clamped() {
        let line = r#"{"kind":"claim","worker":"w-0","wait_ms":999999999}"#;
        match parse_request(line).unwrap() {
            Request::Claim { wait_ms, .. } => assert_eq!(wait_ms, MAX_CLAIM_WAIT_MS),
            other => panic!("expected claim, got {other:?}"),
        }
    }

    #[test]
    fn malformed_worker_verbs_are_rejected() {
        assert!(parse_request(r#"{"kind":"join"}"#).is_err());
        assert!(parse_request(r#"{"kind":"claim"}"#).is_err());
        assert!(parse_request(r#"{"kind":"complete","worker":"w","job":"j"}"#).is_err());
        assert!(parse_request(r#"{"kind":"heartbeat"}"#).is_err());
    }
}

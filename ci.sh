#!/bin/sh
# CI gate. Everything runs offline (the workspace has no external
# dependencies); any failure fails the script.
#
#   1. tier-1: release build + tests of the root package,
#   2. the full workspace test suite (includes tests/worklist_golden.rs,
#      whose step-budget table fails the build on base-analysis
#      step-count regressions), plus the bounded deterministic fuzz
#      suite (tests/fuzz_pipeline.rs behind `--features fuzz`: seeded
#      generator, fixed case counts, so CI time stays bounded),
#      jsdomains' own `fuzz`-gated lattice-law suites (value, prefix
#      and constant domains; they also check each `join_in_place`
#      against `join`) and jspdg's `fuzz`-gated postdominance suite
#      (postdominators against brute force, control dependence against
#      its textbook definition on random graphs), plus the rustdoc gate:
#      the workspace must document with warnings denied (a broken or
#      private intra-doc link fails it), the clippy gate: every
#      target of the workspace must pass clippy with warnings denied,
#      and the rustfmt gate: `cargo fmt --all -- --check` must report
#      no diff (the benchmark package is its own workspace and is not
#      checked); then ci/loc.sh prints each crate's formatted non-test
#      line count, for the record (it never fails the run),
#   3. a perf snapshot over the corpus, so the committed
#      BENCH_pipeline.json can be refreshed from the CI artifact — the
#      snapshot itself enforces the <5% no-op tracer and <5%
#      cost-attribution overhead gates, the layer-coverage gate (on
#      every corpus addon, at most 5% of Pipeline::run wall time falls
#      outside every sigtrace::Layer span, median over passes), and its
#      ddg_scaling section that the DDG and the CDG each stay at or
#      below the fixpoint on the many-function family, the PDG's
#      assembly at or below the CDG there, and phase 2 at or below
#      phase 1 on every corpus addon, and its allocation counts (every
#      corpus addon row and ddg_scaling row carries `allocs`, the
#      allocator requests per layer per vetting, counted twice on one
#      thread; a count that differs between the two fails it) — plus
#      the repo benchmark's
#      own unit tests, so a change that breaks a public layer function
#      the benchmark calls fails here,
#   4. a `vet --trace` smoke test: the emitted chrome://tracing JSON
#      must parse and keep strict span nesting (trace_check), plus a
#      `vet profile` smoke: two runs of the hotspot table must be
#      byte-identical,
#   5. a vetting-daemon smoke test over --stdio (no network needed; stdin
#      is one more connection on the daemon's event loop, pumped one
#      request at a time, so the stats after a vet already count it)
#      plus the serve_load --check invariants (cache actually hits,
#      cached vets are >=10x faster than cold, the structured event log
#      — running under overload sampling — replays into consistent
#      per-job lifecycles, and kept + suppressed job_rejected records
#      reconcile exactly with the daemon's shed count); the stats
#      response must carry the metrics registry; plus a `vet trace-job`
#      smoke: a debug-level --stdio session vets PinPoints twice, and
#      its log must rebuild job j-0 (computed) into a Chrome trace whose
#      pipeline spans nest inside the job's analyze slice and job j-1
#      (a cache hit) into its cache-hit slice (trace_check on both),
#   6. a metrics-exposition smoke test: a scripted --stdio session's
#      `metrics` response must render valid Prometheus text (prom_check),
#   7. the corpus drift gate: two same-analyzer `vet corpus-snapshot`
#      runs must be byte-identical and `vet corpus-diff` must report
#      zero drift (exit 0) — the cross-run observability contract,
#   8. the health gate: a sampled --stdio session records a metrics
#      history, then `vet metrics-report --gate` must pass the
#      known-good rules (exit 0), pass the cost-attribution rules
#      (queue-wait and analyze p99 bounds), and fail the
#      known-violating rules (exit nonzero) — the health-gate contract,
#   9. the fleet gate: `serve_load --fleet 2 --check` boots a daemon
#      with no local workers (the `vet coordinate` preset of `vet serve`)
#      plus two remote worker nodes over loopback and asserts the fleet
#      invariants in-process (a worker killed mid-job is reaped and its
#      job requeued with the correct verdict, concurrent identical
#      submissions coalesce onto one analysis, every response is
#      byte-identical to a cold analysis, and the merged per-node event
#      logs replay as valid lifecycles); the written BENCH_fleet
#      snapshot must show >=1.7x 2-node-over-1-node throughput; the
#      daemon's metrics history must pass metrics-gate-fleet.json; and
#      the `coordinate`/`serve`/`--join` CLI surfaces keep the help/exit
#      code contract (--help on stdout exit 0; unknown flags,
#      conflicting modes, a reap window within one heartbeat, and a
#      stdio daemon with no local workers exit nonzero),
#  10. the many-connection gate: the hostile-client suite (slow-loris,
#      never-reading flood, mid-request disconnects) must pass, and
#      `serve_load --connections 10000` must hold 10k mostly-idle
#      connections (in holder subprocesses, under this container's
#      20k-fd cap) with an active cache-hit stream whose p99 stays
#      under 50ms; the daemon's metrics history must pass
#      metrics-gate-conn.json (>=10k accepts, zero backpressure sheds,
#      zero deadline misses).
set -eu
cd "$(dirname "$0")"

echo "==> tier-1: release build (offline)"
cargo build --release --offline

echo "==> tier-1: root package tests (offline)"
cargo test --offline -q

echo "==> workspace tests (incl. worklist golden + step budgets)"
cargo test --offline --workspace -q

echo "==> bounded fuzz suite (seeded generator, fixed case counts)"
cargo test --offline -q --features fuzz --test fuzz_pipeline

echo "==> jsdomains lattice-law suites (fuzz feature)"
cargo test --offline -q -p jsdomains --features fuzz

echo "==> jspdg postdominance suite (fuzz feature)"
cargo test --offline -q -p jspdg --features fuzz

echo "==> rustdoc gate (the workspace documents with warnings denied)"
RUSTDOCFLAGS='-D warnings' cargo doc --offline --workspace --no-deps -q

echo "==> clippy gate (every workspace target passes clippy with warnings denied)"
cargo clippy --offline --workspace --all-targets -q -- -D warnings

echo "==> rustfmt gate (the workspace is rustfmt-clean)"
cargo fmt --all -- --check

echo "==> lines of code (formatted non-test lines per crate; informational)"
./ci/loc.sh crates/*/src src || true

echo "==> perf snapshot (sequential, 3 runs; incl. tracer + attribution overhead, layer coverage, DDG/CDG/assembly scaling and repeatable allocation-count gates)"
cargo build --release --offline --workspace
./target/release/perf_snapshot --runs 3 --sequential --out target/BENCH_pipeline.ci.json
grep -q '"trace_overhead_pct"' target/BENCH_pipeline.ci.json
grep -q '"max_outside_layers_pct"' target/BENCH_pipeline.ci.json
grep -q '"attr_overhead_pct"' target/BENCH_pipeline.ci.json
grep -q '"ddg_scaling"' target/BENCH_pipeline.ci.json
grep -q '"allocs"' target/BENCH_pipeline.ci.json

echo "==> repo benchmark unit tests (the layer functions it calls still build)"
CARGO_TARGET_DIR=.bench_build cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "==> vet --trace smoke test (Perfetto JSON parses, spans nest)"
./target/release/vet --trace target/ci_trace.json crates/corpus/addons/pinpoints.js > /dev/null
./target/release/trace_check target/ci_trace.json

echo "==> vet profile smoke test (hotspot table is deterministic)"
./target/release/vet profile crates/corpus/addons/pinpoints.js --top 5 > target/ci_profile_a.txt
./target/release/vet profile crates/corpus/addons/pinpoints.js --top 5 > target/ci_profile_b.txt
cmp target/ci_profile_a.txt target/ci_profile_b.txt
grep -q 'total worklist steps:' target/ci_profile_a.txt

echo "==> sigserve smoke test (stdio daemon: vet, stats, shutdown)"
serve_out=$(printf '%s\n' \
    '{"kind":"vet","path":"crates/corpus/addons/pinpoints.js"}' \
    '{"kind":"stats"}' \
    '{"kind":"shutdown"}' \
    | ./target/release/vet serve --stdio --workers 2)
echo "$serve_out" | grep -q '"verdict":"ok"'
echo "$serve_out" | grep -q '"kind":"stats"'
echo "$serve_out" | grep -q '"metrics"'
echo "$serve_out" | grep -q '"pipeline_worklist_steps"'
echo "$serve_out" | grep -q '"kind":"shutdown_ack"'

echo "==> vet trace-job smoke test (debug-level job log -> computed and cache-hit Chrome traces)"
rm -f target/ci_job.jsonl
printf '%s\n' \
    '{"kind":"vet","path":"crates/corpus/addons/pinpoints.js"}' \
    '{"kind":"vet","path":"crates/corpus/addons/pinpoints.js"}' \
    '{"kind":"shutdown"}' \
    | ./target/release/vet serve --stdio --workers 1 \
        --log target/ci_job.jsonl --log-level debug > /dev/null
./target/release/vet trace-job j-0 --log target/ci_job.jsonl --out target/ci_trace_job.json
./target/release/vet trace-job j-1 --log target/ci_job.jsonl --out target/ci_trace_hit.json
grep -q '"name":"cache hit"' target/ci_trace_hit.json
./target/release/trace_check target/ci_trace_job.json target/ci_trace_hit.json

echo "==> sigserve load sanity (serve_load --check, incl. log replay)"
./target/release/serve_load --check

echo "==> metrics exposition smoke test (prom_check)"
printf '%s\n' \
    '{"kind":"vet","path":"crates/corpus/addons/pinpoints.js"}' \
    '{"kind":"metrics"}' \
    '{"kind":"shutdown"}' \
    | ./target/release/vet serve --stdio --workers 2 \
    | ./target/release/prom_check

echo "==> corpus drift gate (same analyzer => zero drift)"
./target/release/vet corpus-snapshot --out target/ci_snap_a.json
./target/release/vet corpus-snapshot --out target/ci_snap_b.json
cmp target/ci_snap_a.json target/ci_snap_b.json
./target/release/vet corpus-diff target/ci_snap_a.json target/ci_snap_b.json > /dev/null

echo "==> health gate (metrics history + vet metrics-report --gate)"
rm -rf target/ci_metrics
# Two vets of the same addon: the second is a cache hit, so the
# recorded history has completed jobs, a nonzero hit ratio, and a
# serve_vet_us histogram — everything metrics-gate-good.json checks.
# The session also runs under --log-sample to smoke the flag wiring.
printf '%s\n' \
    '{"kind":"vet","path":"crates/corpus/addons/pinpoints.js"}' \
    '{"kind":"vet","path":"crates/corpus/addons/pinpoints.js"}' \
    '{"kind":"shutdown"}' \
    | ./target/release/vet serve --stdio --workers 2 \
        --metrics-dir target/ci_metrics --metrics-interval-ms 60000 \
        --log-level warn --log-sample 8 > /dev/null
./target/release/vet metrics-report target/ci_metrics --gate ci/metrics-gate-good.json
# The cost-attribution rules: the smoke run's queue-wait and analyze
# histograms must exist and keep sane p99s.
./target/release/vet metrics-report target/ci_metrics --gate ci/metrics-gate-profile.json
if ./target/release/vet metrics-report target/ci_metrics --gate ci/metrics-gate-bad.json > /dev/null; then
    echo "ci.sh: violating rules file must exit nonzero" >&2
    exit 1
fi

echo "==> fleet gate (no-local-worker daemon + 2 remote workers: kill/requeue, coalescing, scaling, merged replay)"
rm -rf target/ci_fleet_metrics
./target/release/serve_load --fleet 2 --check \
    --out target/BENCH_fleet.ci.json --metrics-dir target/ci_fleet_metrics
# Near-linear scale-out: 2 nodes must clear 1.7x 1-node throughput.
awk '/"ratio_2v1"/ { gsub(/[,"]/, ""); if ($2 + 0 >= 1.7) ok = 1 }
     END { exit ok ? 0 : 1 }' target/BENCH_fleet.ci.json
# The daemon's recorded metrics history passes the fleet rules.
./target/release/vet metrics-report target/ci_fleet_metrics --gate ci/metrics-gate-fleet.json
# CLI contract for the fleet surfaces: --help on stdout exit 0; bad
# flags and conflicting modes exit nonzero.
# (plain grep reads the whole help text; -q would close the pipe early
# and the writer would see EPIPE)
./target/release/vet coordinate --help | grep 'vet coordinate' > /dev/null
./target/release/vet serve --help | grep -- '--join' > /dev/null
if ./target/release/vet coordinate --bogus-flag 2> /dev/null; then
    echo "ci.sh: vet coordinate must reject unknown flags" >&2
    exit 1
fi
if ./target/release/vet serve --join 127.0.0.1:7171 --stdio 2> /dev/null; then
    echo "ci.sh: --join plus --stdio must exit nonzero" >&2
    exit 1
fi
if ./target/release/vet coordinate --heartbeat-ms 500 --reap-ms 500 2> /dev/null; then
    echo "ci.sh: reap window within one heartbeat must exit nonzero" >&2
    exit 1
fi
if ./target/release/vet serve --heartbeat-ms 500 --reap-ms 500 2> /dev/null; then
    echo "ci.sh: vet serve with a reap window within one heartbeat must exit nonzero" >&2
    exit 1
fi
# Remote workers join over TCP, so a stdio daemon with no local workers
# could run nothing.
if ./target/release/vet serve --stdio --workers 0 < /dev/null 2> /dev/null; then
    echo "ci.sh: vet serve --stdio --workers 0 must exit nonzero" >&2
    exit 1
fi

echo "==> many-connection gate (hostile clients + 10k held connections)"
cargo test --offline -q --test hostile_clients
rm -rf target/ci_conn_metrics
./target/release/serve_load --connections 10000 \
    --out target/BENCH_serve_conn.ci.json --metrics-dir target/ci_conn_metrics
# The active stream's p99 through 10k parked connections stays sub-50ms.
awk '/"p99_us"/ { gsub(/[,"]/, ""); if ($2 + 0 < 50000) ok = 1 }
     END { exit ok ? 0 : 1 }' target/BENCH_serve_conn.ci.json
./target/release/vet metrics-report target/ci_conn_metrics --gate ci/metrics-gate-conn.json

echo "==> ci.sh: all gates passed"

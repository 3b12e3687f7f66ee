//! The daemon itself: the configuration, the event-driven connection
//! core, and the one way to start it ([`Server::builder`]).
//!
//! Every connection is served by a single readiness-driven event loop
//! (`sigserve-loop`) over nonblocking sockets and a [`crate::poller`]
//! backend (epoll on Linux, `poll(2)` fallback): thousands of idle or
//! slow connections cost one registered fd each, not one parked thread.
//! TCP clients, remote `--join` workers and the `--stdio` front end are
//! all connections on that loop — stdio is the server end of a
//! `UnixStream` pair whose other end a pump drives between stdin and
//! stdout, one request at a time.
//!
//! Inbound bytes reassemble into NDJSON lines via
//! [`crate::conn::LineBuf`]; outbound responses queue in a
//! per-connection [`crate::conn::WriteBuf`] so a client that stops
//! reading exerts *backpressure* instead of blocking the loop: past a
//! soft cap its new vet items are shed with a typed `overloaded`
//! (reason `write_backpressure`) response, and past the hard cap the
//! connection is closed.
//!
//! Vet items go to the job core ([`crate::jobs`]): a cache hit answers
//! at once, a duplicate of an in-flight job waits on it, anything else
//! is queued for a worker. Local worker threads claim jobs in-process;
//! remote workers claim them with the `claim` verb, which parks on its
//! connection while nothing is pending. Workers never touch sockets —
//! finished cores reach the loop through a completion queue and a
//! waker socket, which also decouples request *deadlines* (answered
//! `timeout` by the loop) from worker scheduling.
//!
//! Data flow for one `vet` request:
//!
//! ```text
//! event loop ──submit──> job core ──hit──> respond (cached:true, µs)
//!      │                    ├─ in flight ──> wait on the owner job
//!      │                    ├─ queue full ──> respond overloaded
//!      │                    └─ pending ──> local worker | remote claim
//!      │                                        │ compute under budget
//!      │                                        │ finish: cache insert
//!      completion queue + waker <──post─────────┘ (owner + duplicates)
//! ```
//!
//! A runaway analysis is cut off by the step budget / deadline inside
//! `jsanalysis`, and one that panics outright is contained and answered
//! as an error verdict (see [`crate::jobs`]), so workers never die on
//! behalf of a job. A remote worker that stops heartbeating is reaped
//! by a loop timer and its claimed jobs go back to the front of the
//! queue.
//!
//! Shutdown follows one rule: pending jobs drain to the local workers,
//! or are shed with `job_rejected(shutting_down)` when there are none.

use crate::conn::{LineBuf, WriteBuf};
use crate::jobs::{
    run_local_worker, spawn_pipeline_thread, Admission, CompletionQueue, Delivery, JobCore,
};
use crate::poller::{self, Backend, Interest, Poller, WakeRx};
use crate::protocol::{
    backpressure_response, error_response, heartbeat_ack, message, metrics_response, no_job,
    parse_request, vet_response, Request, VetItem,
};
use crate::stats::metrics_json;
use crate::{AnalyzeJobFn, MetricsRegistry, MetricsSnapshot, VetOutcome};
use jsanalysis::AnalysisConfig;
use minijson::Json;
use sigobs::{EventLog, Level};
use sigtrace::Trace;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration (the `vet serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Local worker threads running analyses (default 4). Zero makes
    /// the daemon a pure coordinator: every job waits for a remote
    /// `--join` worker.
    pub workers: usize,
    /// Result-cache capacity in entries (default 1024; 0 disables).
    pub cache_cap: usize,
    /// Bound on pending (unclaimed) jobs; submissions beyond it are shed
    /// with `overloaded` (default `workers * 8`).
    pub queue_cap: usize,
    /// The analysis configuration every job runs under, including the
    /// `step_budget` / `deadline` robustness knobs. Defaults to
    /// [`AnalysisConfig::default`] with triage on: a service only
    /// returns signatures, so an addon whose phase 1 proves no flow can
    /// exist skips PDG construction (the signature is byte-identical).
    pub analysis: AnalysisConfig,
    /// Dump the metrics-registry snapshot to stderr when the daemon
    /// shuts down (default `false`; `vet serve` turns it on). Off by
    /// default so embedded servers — tests, benches — stay quiet.
    pub dump_metrics_on_shutdown: bool,
    /// Structured event log (`vet serve --log FILE` / `--log-level`).
    /// Every job lifecycle event, keyed by the job's request ID, goes
    /// here; the ring tail also rides along in `stats` responses.
    /// Default `None`: no logging overhead at all.
    pub log: Option<Arc<EventLog>>,
    /// Metrics-history directory (`vet serve --metrics-dir D`). When
    /// set, a background thread snapshots the merged metrics into a
    /// bounded on-disk ring every [`ServeConfig::metrics_interval`], so
    /// metrics survive restarts. Default `None`.
    pub metrics_dir: Option<PathBuf>,
    /// Snapshot interval for the history thread (default 5 s).
    pub metrics_interval: Duration,
    /// Close a TCP connection that has been completely quiet — no
    /// buffered input, no pending jobs, nothing left to write — for this
    /// long (`vet serve --idle-timeout-ms`). Default `None`: never.
    pub idle_timeout: Option<Duration>,
    /// Answer an in-flight vet request with a typed `timeout` (reason
    /// `deadline`) if its worker has not finished within this budget
    /// (`vet serve --request-deadline-ms`); the worker keeps running and
    /// its eventual result still lands in the cache. Default `None`.
    pub request_deadline: Option<Duration>,
    /// Soft cap on a connection's queued outbound bytes (default
    /// 256 KiB). Past it, new vet items on that connection are shed with
    /// a typed `write_backpressure` response; past **4×** this cap the
    /// connection is closed outright.
    pub outbuf_cap: usize,
    /// Readiness backend for the event loop (default: epoll on Linux,
    /// `poll(2)` elsewhere). Tests pin [`Backend::Poll`] to keep the
    /// fallback honest.
    pub poller_backend: Backend,
    /// How often remote workers must heartbeat (sent to them in
    /// `join_ack`; default 2 s).
    pub heartbeat: Duration,
    /// Reap a remote worker silent for longer than this and requeue its
    /// claimed jobs (default 6 s).
    pub reap_after: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        let workers = 4;
        ServeConfig {
            workers,
            cache_cap: 1024,
            queue_cap: workers * 8,
            analysis: AnalysisConfig::default().with_triage(true),
            dump_metrics_on_shutdown: false,
            log: None,
            metrics_dir: None,
            metrics_interval: Duration::from_secs(5),
            idle_timeout: None,
            request_deadline: None,
            outbuf_cap: 256 * 1024,
            poller_backend: Backend::default(),
            heartbeat: Duration::from_millis(2000),
            reap_after: Duration::from_millis(6000),
        }
    }
}

/// Snapshots the on-disk metrics history keeps.
const HISTORY_CAP: u64 = 256;

/// Spawns the metrics-history thread when `--metrics-dir` is configured:
/// it appends a merged snapshot to the on-disk ring every
/// `metrics_interval`, plus one final snapshot at shutdown, and polls
/// the shutdown flag often enough that daemon teardown is prompt.
fn spawn_history(core: &Arc<JobCore>) -> Option<JoinHandle<()>> {
    let dir = core.cfg.metrics_dir.clone()?;
    let core = Arc::clone(core);
    let handle = std::thread::Builder::new()
        .name("sigserve-history".to_owned())
        .spawn(move || {
            let mut history = match sigobs::MetricsHistory::open(&dir, HISTORY_CAP) {
                Ok(h) => h,
                Err(e) => {
                    core.log_event(
                        Level::Error,
                        "metrics_history_error",
                        &[("error", Json::from(format!("{e}")))],
                    );
                    return;
                }
            };
            let poll = Duration::from_millis(25);
            loop {
                let interval_start = Instant::now();
                while interval_start.elapsed() < core.cfg.metrics_interval {
                    if core.shutting_down.load(Ordering::SeqCst) {
                        let _ = history.append(&core.snapshot());
                        return;
                    }
                    std::thread::sleep(poll.min(core.cfg.metrics_interval));
                }
                if let Err(e) = history.append(&core.snapshot()) {
                    core.log_event(
                        Level::Warn,
                        "metrics_history_error",
                        &[("error", Json::from(format!("{e}")))],
                    );
                }
            }
        })
        .expect("spawn history thread");
    Some(handle)
}

// ---------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------

/// Poller token for the TCP listener.
const LISTENER_TOKEN: u64 = 0;
/// Poller token for the completion-queue waker.
const WAKER_TOKEN: u64 = 1;
/// First token handed to a connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// Longest accepted request line in bytes. An unterminated line beyond
/// it gets an error response and the connection is drained and closed.
const MAX_LINE_BYTES: usize = 64 * 1024 * 1024;

/// How long a draining shutdown waits for connections to flush before
/// force-closing them.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// A connection's byte stream: an accepted TCP socket, or the server end
/// of the stdio pump's socket pair.
trait Stream: Read + Write + AsRawFd + Send {}
impl<T: Read + Write + AsRawFd + Send> Stream for T {}

/// An in-flight vet item on a connection: the slot in the response
/// pipeline a posted completion (or a fired deadline) will fill.
struct VetWait {
    /// Completion-queue token (distinct from the `j-<n>` request ID).
    token: u64,
    id: String,
    name: Option<String>,
    t0: Instant,
}

/// One position in a connection's ordered response pipeline.
enum Part {
    /// Serialized compact response line (no trailing newline).
    Done(String),
    /// Waiting on a job.
    Wait(VetWait),
    /// A remote worker's claim, parked (under this token) until a job is
    /// pending, its wait lapses, or the daemon shuts down.
    Claim(u64),
}

impl Part {
    fn token(&self) -> Option<u64> {
        match self {
            Part::Done(_) => None,
            Part::Wait(w) => Some(w.token),
            Part::Claim(token) => Some(*token),
        }
    }
}

/// One request's worth of response: a single line, or a batch whose
/// items flush together as one `vet_batch_result` line.
enum Slot {
    One(Part),
    Batch(Vec<Part>),
}

impl Slot {
    fn parts(&self) -> &[Part] {
        match self {
            Slot::One(p) => std::slice::from_ref(p),
            Slot::Batch(v) => v.as_slice(),
        }
    }

    fn parts_mut(&mut self) -> &mut [Part] {
        match self {
            Slot::One(p) => std::slice::from_mut(p),
            Slot::Batch(v) => v.as_mut_slice(),
        }
    }

    fn ready(&self) -> bool {
        self.parts().iter().all(|p| matches!(p, Part::Done(_)))
    }
}

/// How often the reaper looks for silent remote workers.
fn reap_tick(core: &JobCore) -> Duration {
    (core.cfg.reap_after / 5).clamp(Duration::from_millis(5), Duration::from_millis(250))
}

/// A parked remote claim, oldest first in [`EventLoop::claims`].
struct ParkedClaim {
    conn: u64,
    token: u64,
    worker: String,
    deadline: Instant,
}

/// Per-connection state owned by the event loop.
struct Conn {
    stream: Box<dyn Stream>,
    /// The stdio pump's connection: exempt from the idle timeout, since
    /// it idles while its operator types.
    stdio: bool,
    /// Connection ID (`c-<n>`) for log correlation.
    cid: String,
    rbuf: LineBuf,
    wbuf: WriteBuf,
    /// Responses in request order; the head flushes once fully `Done`.
    pending: VecDeque<Slot>,
    /// Bytes of `Done` parts not yet folded into `wbuf` (backpressure
    /// accounting: `wbuf.queued() + pending_bytes` is what this client
    /// owes us to read).
    pending_bytes: usize,
    last_activity: Instant,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Peer sent EOF (half-close): stop reading, flush what's owed.
    peer_eof: bool,
    /// Set when the connection should close after draining its output
    /// (shutdown ack written, protocol violation answered, ...).
    closing: Option<&'static str>,
    /// Set when the connection must close *now*, unflushed.
    kill: Option<&'static str>,
    /// Edge flag so a backpressure episode logs once, not per item.
    backpressured: bool,
    /// The peer spoke a worker verb: a draining shutdown keeps reading
    /// it, so the worker's `complete` for a job it is running still
    /// lands.
    worker: bool,
    /// Lifetime bytes read off this socket (reported on `conn_closed`
    /// so timeline reconstruction can cross-check framing totals; the
    /// write side lives in [`WriteBuf::written`]).
    bytes_read: u64,
    /// Requests this connection submitted (parsed non-empty lines).
    requests: u64,
}

impl Conn {
    fn new(stream: Box<dyn Stream>, stdio: bool, cid: String, max_line: usize) -> Conn {
        Conn {
            stream,
            stdio,
            cid,
            rbuf: LineBuf::new(max_line),
            wbuf: WriteBuf::new(),
            pending: VecDeque::new(),
            pending_bytes: 0,
            last_activity: Instant::now(),
            interest: Interest::READ,
            peer_eof: false,
            closing: None,
            kill: None,
            backpressured: false,
            worker: false,
            bytes_read: 0,
            requests: 0,
        }
    }

    /// Fills the in-flight part `token` with its response line.
    fn fill(&mut self, token: u64, resp: &Json) {
        if let Some(part) = find_part(&mut self.pending, token) {
            let s = resp.to_string_compact();
            self.pending_bytes += s.len() + 1;
            *part = Part::Done(s);
        }
    }
}

fn find_part(pending: &mut VecDeque<Slot>, token: u64) -> Option<&mut Part> {
    pending
        .iter_mut()
        .flat_map(|slot| slot.parts_mut().iter_mut())
        .find(|part| part.token() == Some(token))
}

fn push_done(conn: &mut Conn, resp: &Json) {
    let s = resp.to_string_compact();
    conn.pending_bytes += s.len() + 1;
    conn.pending.push_back(Slot::One(Part::Done(s)));
}

/// The readiness-driven connection core: one thread, one poller, every
/// connection.
struct EventLoop {
    core: Arc<JobCore>,
    poller: Poller,
    /// `None` for a stdio daemon.
    listener: Option<TcpListener>,
    wake_rx: WakeRx,
    conns: HashMap<u64, Conn>,
    /// Completion token → owning connection token, for every vet item
    /// still waiting on a job.
    jobs: HashMap<u64, u64>,
    claims: VecDeque<ParkedClaim>,
    next_conn_token: u64,
    conn_seq: u64,
    next_token: u64,
    /// When the reaper next ticks: set by the first `join`, cleared once
    /// no remote worker is left.
    next_reap: Option<Instant>,
    drain_deadline: Option<Instant>,
}

impl EventLoop {
    fn new(
        core: Arc<JobCore>,
        poller: Poller,
        listener: Option<TcpListener>,
        wake_rx: WakeRx,
    ) -> EventLoop {
        EventLoop {
            core,
            poller,
            listener,
            wake_rx,
            conns: HashMap::new(),
            jobs: HashMap::new(),
            claims: VecDeque::new(),
            next_conn_token: FIRST_CONN_TOKEN,
            conn_seq: 0,
            next_token: 0,
            next_reap: None,
            drain_deadline: None,
        }
    }

    fn run(&mut self) -> io::Result<()> {
        if let Some(listener) = &self.listener {
            self.poller
                .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        }
        self.poller
            .register(self.wake_rx.fd(), WAKER_TOKEN, Interest::READ)?;
        let mut events: Vec<poller::Event> = Vec::new();
        loop {
            let timeout = self.wait_timeout();
            self.poller.wait(&mut events, timeout)?;
            let batch: Vec<poller::Event> = std::mem::take(&mut events);
            for ev in batch {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.wake_rx.drain(),
                    token => self.conn_event(token, ev),
                }
            }
            self.apply_completions();
            self.apply_timers();
            self.dispatch_claims();
            if self.core.shutting_down.load(Ordering::SeqCst) {
                self.begin_drain();
                if self.conns.is_empty() {
                    return Ok(());
                }
            }
        }
    }

    /// The park duration: indefinite unless some timer needs servicing.
    /// Idle and deadline timers tick at a quarter of their bound
    /// (clamped) rather than tracking exact next-expiry — cheap, and
    /// precise enough for second-scale idle timeouts and
    /// millisecond-scale deadlines. Parked claims wake exactly at their
    /// earliest lapse; the reaper ticks only while remote workers are
    /// registered.
    fn wait_timeout(&self) -> Option<Duration> {
        fn tick(bound: Duration) -> Duration {
            (bound / 4).clamp(Duration::from_millis(1), Duration::from_millis(250))
        }
        let mut timeout: Option<Duration> = None;
        let mut merge = |d: Duration| {
            timeout = Some(timeout.map_or(d, |t: Duration| t.min(d)));
        };
        if self.drain_deadline.is_some() {
            merge(Duration::from_millis(25));
        }
        if let Some(idle) = self.core.cfg.idle_timeout {
            if !self.conns.is_empty() {
                merge(tick(idle));
            }
        }
        if let Some(deadline) = self.core.cfg.request_deadline {
            if !self.jobs.is_empty() {
                merge(tick(deadline));
            }
        }
        let now = Instant::now();
        if let Some(lapse) = self.claims.iter().map(|c| c.deadline).min() {
            merge(lapse.saturating_duration_since(now));
        }
        if let Some(reap) = self.next_reap {
            merge(reap.saturating_duration_since(now));
        }
        timeout
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, peer)) => {
                    if self.core.shutting_down.load(Ordering::SeqCst) {
                        // Draining: refuse by immediate close.
                        drop(stream);
                        continue;
                    }
                    if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.add_conn(Box::new(stream), &peer.to_string(), false);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept errors (EMFILE, aborted handshake):
                // stop for this readiness round; the listener reports
                // again when another connection is pending.
                Err(_) => break,
            }
        }
    }

    /// Registers a nonblocking stream as a new connection.
    fn add_conn(&mut self, stream: Box<dyn Stream>, peer: &str, stdio: bool) {
        let token = self.next_conn_token;
        self.next_conn_token += 1;
        let cid = format!("c-{}", self.conn_seq);
        self.conn_seq += 1;
        if self
            .poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            return;
        }
        self.core.count("serve_conn_accepted", 1);
        self.core.count("serve_conns_open", 1);
        self.core.log_event(
            Level::Debug,
            "conn_accepted",
            &[
                ("conn", Json::from(cid.as_str())),
                ("peer", Json::from(peer)),
            ],
        );
        let conn = Conn::new(stream, stdio, cid, MAX_LINE_BYTES);
        self.conns.insert(token, conn);
    }

    fn conn_event(&mut self, token: u64, ev: poller::Event) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        if ev.readable || ev.closed {
            self.read_ready(&mut conn);
            self.process_lines(token, &mut conn);
            // Guard against a pure-error readiness state (e.g. EPOLLERR
            // with nothing readable) spinning the loop: treat it as a
            // peer hangup once buffered input is consumed.
            if ev.closed && !conn.peer_eof && conn.kill.is_none() {
                conn.peer_eof = true;
            }
            if conn.peer_eof && self.claims.iter().any(|c| c.conn == token) {
                // A worker that hung up takes no more jobs.
                self.claims.retain(|c| c.conn != token);
                conn.pending
                    .retain(|slot| !matches!(slot, Slot::One(Part::Claim(_))));
            }
        }
        self.settle(token, conn);
    }

    fn read_ready(&mut self, conn: &mut Conn) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.bytes_read += n as u64;
                    if !conn.rbuf.extend(&chunk[..n]) {
                        self.core.count("serve_protocol_errors", 1);
                        self.core.log_event(
                            Level::Warn,
                            "protocol_error",
                            &[("error", Json::from("request line exceeds maximum length"))],
                        );
                        push_done(conn, &error_response("request line exceeds maximum length"));
                        conn.closing.get_or_insert("protocol");
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.kill = Some("io_error");
                    break;
                }
            }
        }
    }

    fn process_lines(&mut self, token: u64, conn: &mut Conn) {
        while conn.closing.is_none() && conn.kill.is_none() {
            match conn.rbuf.next_line() {
                None => break,
                Some(Err(_)) => {
                    // Non-UTF-8 bytes end the connection without a
                    // response.
                    conn.kill = Some("protocol");
                    break;
                }
                Some(Ok(line)) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    conn.last_activity = Instant::now();
                    self.handle_line(token, conn, &line);
                }
            }
        }
    }

    fn handle_line(&mut self, token: u64, conn: &mut Conn, line: &str) {
        let core = Arc::clone(&self.core);
        conn.requests += 1;
        // Hard cap: a client this far behind on reading is not exerting
        // backpressure anymore, it is a memory leak. Close it.
        let owed = conn.wbuf.queued() + conn.pending_bytes;
        if owed > core.cfg.outbuf_cap.saturating_mul(4) {
            core.log_event(
                Level::Warn,
                "write_backpressure",
                &[
                    ("conn", Json::from(conn.cid.as_str())),
                    ("queued_bytes", Json::from(owed as f64)),
                    ("action", Json::from("close")),
                ],
            );
            conn.kill = Some("write_backpressure");
            return;
        }
        match parse_request(line) {
            Err(msg) => {
                core.count("serve_protocol_errors", 1);
                core.log_event(
                    Level::Warn,
                    "protocol_error",
                    &[("error", Json::from(msg.as_str()))],
                );
                push_done(conn, &error_response(&msg));
            }
            Ok(Request::Vet(item)) => {
                let part = self.vet_part(token, conn, item);
                conn.pending.push_back(Slot::One(part));
            }
            Ok(Request::VetBatch(items)) => {
                // Submit everything first so the batch saturates the
                // workers; items beyond the queue bound come back
                // `overloaded`.
                let parts: Vec<Part> = items
                    .into_iter()
                    .map(|i| self.vet_part(token, conn, i))
                    .collect();
                conn.pending.push_back(Slot::Batch(parts));
            }
            Ok(Request::Stats) => push_done(conn, &core.stats()),
            Ok(Request::Metrics) => {
                let text = sigobs::prometheus_text(&core.snapshot());
                // Our own renderer must always validate; the sample
                // count is a convenience for scripted smoke tests.
                let samples = sigobs::validate_prometheus_text(&text).unwrap_or(0);
                push_done(conn, &metrics_response(&text, samples));
            }
            Ok(Request::Shutdown) => {
                core.log_event(Level::Info, "serve_shutdown", &[]);
                push_done(
                    conn,
                    &message("shutdown_ack", vec![("stats", core.stats())]),
                );
                conn.closing.get_or_insert("shutdown");
                core.shutdown();
            }
            Ok(Request::Join { node, config }) => {
                conn.worker = true;
                push_done(conn, &core.join(&node, config.as_deref()));
                self.next_reap
                    .get_or_insert_with(|| Instant::now() + reap_tick(&core));
            }
            Ok(Request::Claim { worker, wait_ms }) => {
                conn.worker = true;
                match core.claim(&worker) {
                    Some(resp) => push_done(conn, &resp),
                    None if wait_ms == 0 => push_done(conn, &no_job()),
                    None => {
                        let claim = self.next_token();
                        conn.pending.push_back(Slot::One(Part::Claim(claim)));
                        self.claims.push_back(ParkedClaim {
                            conn: token,
                            token: claim,
                            worker,
                            deadline: Instant::now() + Duration::from_millis(wait_ms),
                        });
                    }
                }
            }
            Ok(Request::Complete {
                worker,
                job,
                cacheable,
                core: result,
            }) => {
                conn.worker = true;
                push_done(conn, &core.complete(&worker, &job, cacheable, result));
            }
            Ok(Request::Heartbeat { worker }) => {
                conn.worker = true;
                core.touch(&worker);
                push_done(conn, &heartbeat_ack());
            }
        }
    }

    fn next_token(&mut self) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        token
    }

    /// Submits one vet item from a connection: shed under write
    /// backpressure, answer immediately when possible, otherwise park a
    /// [`VetWait`] the completion (or deadline) will fill.
    fn vet_part(&mut self, conn_token: u64, conn: &mut Conn, item: VetItem) -> Part {
        let core = Arc::clone(&self.core);
        let owed = conn.wbuf.queued() + conn.pending_bytes;
        if owed >= core.cfg.outbuf_cap {
            // Soft cap: the client owes us reads before it may submit
            // more work. Typed response, one log line per episode.
            core.count("serve_conn_backpressure_sheds", 1);
            if !conn.backpressured {
                conn.backpressured = true;
                core.log_event(
                    Level::Warn,
                    "write_backpressure",
                    &[
                        ("conn", Json::from(conn.cid.as_str())),
                        ("queued_bytes", Json::from(owed as f64)),
                        ("capacity_bytes", Json::from(core.cfg.outbuf_cap as f64)),
                    ],
                );
            }
            let resp = backpressure_response(item.name.as_deref(), owed, core.cfg.outbuf_cap);
            let s = resp.to_string_compact();
            conn.pending_bytes += s.len() + 1;
            return Part::Done(s);
        }
        let token = self.next_token();
        match core.submit(item, token) {
            Admission::Ready(resp) => {
                let s = resp.to_string_compact();
                conn.pending_bytes += s.len() + 1;
                Part::Done(s)
            }
            Admission::Waiting { id, name, t0 } => {
                self.jobs.insert(token, conn_token);
                Part::Wait(VetWait {
                    token,
                    id,
                    name,
                    t0,
                })
            }
        }
    }

    /// Routes drained deliveries to their waiting connection slots and
    /// flushes touched conns. A delivery nobody waits for any more (the
    /// connection closed, or a deadline answered first) is dropped: the
    /// core already logged its `job_done`.
    fn apply_completions(&mut self) {
        let batch = self.core.completions.drain();
        let mut touched: Vec<u64> = Vec::new();
        for (token, delivery) in batch {
            let Some(conn_token) = self.jobs.remove(&token) else {
                continue;
            };
            let Some(conn) = self.conns.get_mut(&conn_token) else {
                continue;
            };
            let Some(Part::Wait(w)) = find_part(&mut conn.pending, token) else {
                continue;
            };
            let resp = match &delivery {
                Delivery::Done(result) => {
                    let micros = w.t0.elapsed().as_micros();
                    vet_response(result, w.name.as_deref(), Some(&w.id), false, micros)
                }
                Delivery::Shed => error_response("daemon is shutting down"),
            };
            conn.fill(token, &resp);
            if !touched.contains(&conn_token) {
                touched.push(conn_token);
            }
        }
        self.settle_all(touched);
    }

    /// Hands pending jobs to parked claims, oldest claim first.
    fn dispatch_claims(&mut self) {
        let mut touched: Vec<u64> = Vec::new();
        while let Some(front) = self.claims.front() {
            let Some(resp) = self.core.claim(&front.worker) else {
                break; // nothing pending
            };
            let claim = self.claims.pop_front().expect("checked front");
            if let Some(conn) = self.conns.get_mut(&claim.conn) {
                conn.fill(claim.token, &resp);
                touched.push(claim.conn);
            }
        }
        self.settle_all(touched);
    }

    /// Fires request deadlines, lapses parked claims, ticks the reaper,
    /// closes idle connections, and force-closes everything once the
    /// drain grace period lapses.
    fn apply_timers(&mut self) {
        let now = Instant::now();
        let core = Arc::clone(&self.core);
        if let Some(deadline) = core.cfg.request_deadline.filter(|_| !self.jobs.is_empty()) {
            let deadline_ms = Json::from(deadline.as_millis() as f64);
            let mut touched: Vec<u64> = Vec::new();
            for (&token, conn) in self.conns.iter_mut() {
                for part in conn
                    .pending
                    .iter_mut()
                    .flat_map(|s| s.parts_mut().iter_mut())
                {
                    let Part::Wait(w) = part else { continue };
                    if now < w.t0 + deadline {
                        continue;
                    }
                    // The client gets a typed timeout *now*; the worker
                    // keeps running, and its result is still cached.
                    core.count("serve_deadline_misses", 1);
                    core.log_event(
                        Level::Warn,
                        "job_deadline",
                        &[
                            ("job", Json::from(w.id.as_str())),
                            ("deadline_ms", deadline_ms.clone()),
                        ],
                    );
                    let mut timeout = Json::obj();
                    timeout.set("verdict", Json::from("timeout"));
                    timeout.set("reason", Json::from("deadline"));
                    timeout.set("deadline_ms", deadline_ms.clone());
                    let micros = w.t0.elapsed().as_micros();
                    let resp =
                        vet_response(&timeout, w.name.as_deref(), Some(&w.id), false, micros);
                    self.jobs.remove(&w.token);
                    let s = resp.to_string_compact();
                    conn.pending_bytes += s.len() + 1;
                    *part = Part::Done(s);
                    touched.push(token);
                }
            }
            touched.dedup();
            self.settle_all(touched);
        }
        if self.claims.iter().any(|c| now >= c.deadline) {
            let (lapsed, parked): (Vec<ParkedClaim>, Vec<ParkedClaim>) =
                self.claims.drain(..).partition(|c| now >= c.deadline);
            self.claims = parked.into();
            let mut touched: Vec<u64> = Vec::new();
            for claim in lapsed {
                if let Some(conn) = self.conns.get_mut(&claim.conn) {
                    conn.fill(claim.token, &no_job());
                    touched.push(claim.conn);
                }
            }
            self.settle_all(touched);
        }
        if self.next_reap.is_some_and(|t| now >= t) {
            // A parked claim is a live worker waiting on us.
            for claim in &self.claims {
                core.touch(&claim.worker);
            }
            core.reap();
            self.next_reap = core.has_remote_workers().then(|| now + reap_tick(&core));
        }
        if let Some(idle) = core.cfg.idle_timeout {
            let stale: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| {
                    !c.stdio
                        && c.pending.is_empty()
                        && c.wbuf.is_empty()
                        && now.duration_since(c.last_activity) >= idle
                })
                .map(|(&t, _)| t)
                .collect();
            for t in stale {
                if let Some(c) = self.conns.remove(&t) {
                    self.close_conn(t, c, "idle");
                }
            }
        }
        if self.drain_deadline.is_some_and(|d| now >= d) {
            let all: Vec<u64> = self.conns.keys().copied().collect();
            for t in all {
                if let Some(c) = self.conns.remove(&t) {
                    self.close_conn(t, c, "drain_timeout");
                }
            }
        }
    }

    /// Starts the draining shutdown exactly once: every client
    /// connection stops reading and closes as soon as its owed output
    /// flushes. Worker connections keep reading until their worker hangs
    /// up after its next claim is answered `fleet_shutdown`.
    fn begin_drain(&mut self) {
        if self.drain_deadline.is_some() {
            return;
        }
        self.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for t in tokens {
            if let Some(mut c) = self.conns.remove(&t) {
                if !c.worker {
                    c.closing.get_or_insert("shutdown");
                }
                self.settle(t, c);
            }
        }
    }

    fn settle_all(&mut self, tokens: Vec<u64>) {
        for t in tokens {
            if let Some(c) = self.conns.remove(&t) {
                self.settle(t, c);
            }
        }
    }

    /// Folds completed head slots into the write buffer and flushes as
    /// far as the socket accepts right now.
    fn flush_ready(&mut self, conn: &mut Conn) {
        while conn.pending.front().is_some_and(Slot::ready) {
            let slot = conn.pending.pop_front().expect("checked front");
            match slot {
                Slot::One(Part::Done(s)) => {
                    conn.pending_bytes = conn.pending_bytes.saturating_sub(s.len() + 1);
                    conn.wbuf.push(s.as_bytes());
                    conn.wbuf.push(b"\n");
                }
                Slot::One(_) => unreachable!("ready() said all parts are Done"),
                Slot::Batch(parts) => {
                    // The minijson compact form of a `vet_batch_result`
                    // object, assembled without re-parsing the parts.
                    let mut line = String::from("{\"kind\":\"vet_batch_result\",\"results\":[");
                    for (i, part) in parts.iter().enumerate() {
                        let Part::Done(s) = part else {
                            unreachable!("ready() said all parts are Done")
                        };
                        if i > 0 {
                            line.push(',');
                        }
                        line.push_str(s);
                        conn.pending_bytes = conn.pending_bytes.saturating_sub(s.len() + 1);
                    }
                    line.push_str("]}\n");
                    conn.wbuf.push(line.as_bytes());
                }
            }
        }
        if conn.wbuf.is_empty() {
            return;
        }
        match conn.wbuf.write_to(&mut conn.stream) {
            Ok(()) => conn.last_activity = Instant::now(),
            Err(_) => {
                conn.kill = Some("io_error");
                return;
            }
        }
        if conn.backpressured
            && conn.wbuf.queued() + conn.pending_bytes <= self.core.cfg.outbuf_cap / 2
        {
            conn.backpressured = false;
        }
    }

    /// The single exit point for a connection's event handling: flush,
    /// close if terminal, otherwise update poller interest and re-park.
    fn settle(&mut self, token: u64, mut conn: Conn) {
        if conn.kill.is_none() {
            self.flush_ready(&mut conn);
        }
        if let Some(reason) = conn.kill {
            self.close_conn(token, conn, reason);
            return;
        }
        let drained = conn.pending.is_empty() && conn.wbuf.is_empty();
        if drained && (conn.closing.is_some() || conn.peer_eof) {
            let reason = conn.closing.unwrap_or("eof");
            self.close_conn(token, conn, reason);
            return;
        }
        let want = Interest {
            read: conn.closing.is_none() && !conn.peer_eof,
            write: !conn.wbuf.is_empty(),
        };
        if want != conn.interest {
            if self
                .poller
                .reregister(conn.stream.as_raw_fd(), token, want)
                .is_err()
            {
                self.close_conn(token, conn, "io_error");
                return;
            }
            conn.interest = want;
        }
        self.conns.insert(token, conn);
    }

    fn close_conn(&mut self, token: u64, conn: Conn, reason: &'static str) {
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        // Orphan the in-flight jobs (the core still ends their logged
        // lifecycles) and drop a parked claim.
        for part in conn.pending.iter().flat_map(Slot::parts) {
            if let Part::Wait(w) = part {
                self.jobs.remove(&w.token);
            }
        }
        self.claims.retain(|c| c.conn != token);
        self.core.count("serve_conn_closed", 1);
        self.core
            .engine
            .metrics
            .counter("serve_conns_open")
            .fetch_sub(1, Ordering::Relaxed);
        self.core.log_event(
            Level::Debug,
            "conn_closed",
            &[
                ("conn", Json::from(conn.cid.as_str())),
                ("reason", Json::from(reason)),
                ("bytes_read", Json::from(conn.bytes_read as f64)),
                ("bytes_written", Json::from(conn.wbuf.written() as f64)),
                ("requests", Json::from(conn.requests as f64)),
            ],
        );
    }
}

// ---------------------------------------------------------------------
// Front ends
// ---------------------------------------------------------------------

/// A running TCP daemon. Dropping the handle does *not* stop it; send a
/// `shutdown` request (or call [`Server::stop`]) and then [`Server::join`].
pub struct Server {
    core: Arc<JobCore>,
    /// `None` for a stdio daemon (never handed out by the builder).
    addr: Option<SocketAddr>,
    event_loop: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    history: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts configuring a daemon. The one construction path for every
    /// front-end combination:
    ///
    /// ```text
    /// Server::builder().addr("127.0.0.1:0").analyze(f).start()?   // TCP
    /// Server::builder().stdio().analyze(f).run()?                 // stdio
    /// ```
    pub fn builder() -> ServerBuilder {
        ServerBuilder {
            cfg: ServeConfig::default(),
            addr: None,
            stdio: false,
            analyze: None,
        }
    }

    /// The bound address (resolves `:0` to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr.expect("TCP daemons have an address")
    }

    /// A `stats`-shaped snapshot for in-process harnesses (the bench
    /// tool), without a round-trip through the protocol.
    pub fn stats(&self) -> Json {
        self.core.stats()
    }

    /// Initiates shutdown from the owning process (equivalent to a
    /// `shutdown` protocol request, minus the ack).
    pub fn stop(&self) {
        self.core.shutdown();
    }

    /// Waits for the event loop and workers to finish. Call after a
    /// `shutdown` request or [`Server::stop`]; joining a running server
    /// blocks until one of those happens.
    pub fn join(self) {
        let _ = self.event_loop.join();
        for w in self.workers {
            let _ = w.join();
        }
        if let Some(h) = self.history {
            let _ = h.join();
        }
        if let Some(log) = &self.core.engine.log {
            log.flush();
        }
        // The operator's shutdown dump: the whole registry as one line.
        if self.core.cfg.dump_metrics_on_shutdown {
            let snap = metrics_json(&self.core.snapshot());
            eprintln!("sigserve metrics: {}", snap.to_string_compact());
        }
    }

    /// The daemon's metrics — the registry plus the job core's gauges —
    /// for in-process harnesses, without a protocol round-trip.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.core.snapshot()
    }
}

/// Builds a daemon: set its [`ServeConfig`], pick a front end
/// ([`ServerBuilder::addr`] or [`ServerBuilder::stdio`]), inject the
/// engine ([`ServerBuilder::analyze`]),
/// then [`ServerBuilder::start`] (TCP) or [`ServerBuilder::run`] (either
/// front end, blocking). A daemon with
/// zero local workers needs no engine: its remote workers bring theirs.
pub struct ServerBuilder {
    cfg: ServeConfig,
    addr: Option<String>,
    stdio: bool,
    analyze: Option<Box<AnalyzeJobFn>>,
}

impl ServerBuilder {
    /// Sets the whole configuration (default [`ServeConfig::default`]).
    pub fn config(mut self, cfg: ServeConfig) -> ServerBuilder {
        self.cfg = cfg;
        self
    }

    /// Serve TCP on `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn addr(mut self, addr: impl Into<String>) -> ServerBuilder {
        self.addr = Some(addr.into());
        self.stdio = false;
        self
    }

    /// Serve the protocol over stdin/stdout instead of TCP (only
    /// reachable through [`ServerBuilder::run`]).
    pub fn stdio(mut self) -> ServerBuilder {
        self.stdio = true;
        self.addr = None;
        self
    }

    /// The analysis engine. Besides the source, configuration and the
    /// daemon's metrics registry, it receives a [`sigtrace::Trace`]
    /// carrying the owning job's request ID into the pipeline (a
    /// [`sigobs::LogTracer`] when the event log is at debug level,
    /// [`Trace::Off`] otherwise).
    ///
    /// [`Trace::Off`]: sigtrace::Trace::Off
    pub fn analyze<F>(mut self, analyze: F) -> ServerBuilder
    where
        F: for<'a> Fn(&str, &AnalysisConfig, &MetricsRegistry, Trace<'a>) -> VetOutcome
            + Send
            + Sync
            + 'static,
    {
        self.analyze = Some(Box::new(analyze));
        self
    }

    fn engine(&mut self) -> io::Result<Box<AnalyzeJobFn>> {
        match self.analyze.take() {
            Some(analyze) => Ok(analyze),
            None if self.cfg.workers == 0 => Ok(Box::new(|_, _, _, _| {
                VetOutcome::error("this daemon has no local engine")
            })),
            None => Err(invalid_input("ServerBuilder needs an analyze engine")),
        }
    }

    /// Starts a TCP daemon and returns its handle immediately. Errors
    /// with `InvalidInput` when no address was configured (the stdio
    /// front end has no handle — use [`ServerBuilder::run`]).
    pub fn start(mut self) -> io::Result<Server> {
        let analyze = self.engine()?;
        if self.stdio {
            return Err(invalid_input(
                "stdio servers have no handle; use ServerBuilder::run",
            ));
        }
        let Some(addr) = self.addr else {
            return Err(invalid_input("ServerBuilder needs addr(..) or stdio()"));
        };
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        start_daemon(self.cfg, analyze, Some(listener), None)
    }

    /// Runs the daemon to completion on the calling thread: a TCP daemon
    /// joined until a `shutdown` request lands, or the stdio front end
    /// until a `shutdown` request or EOF on stdin.
    pub fn run(mut self) -> io::Result<()> {
        if !self.stdio {
            self.start()?.join();
            return Ok(());
        }
        if self.cfg.workers == 0 {
            // Remote workers join over TCP; a stdio daemon has no port.
            return Err(invalid_input(
                "a stdio daemon needs at least one local worker",
            ));
        }
        let analyze = self.engine()?;
        let (server_end, pump_end) = UnixStream::pair()?;
        server_end.set_nonblocking(true)?;
        let server = start_daemon(self.cfg, analyze, None, Some(server_end))?;
        let result = pump(pump_end, io::stdin().lock(), io::stdout().lock());
        server.stop();
        server.join();
        result
    }
}

fn invalid_input(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// Drives the stdio connection: one request line from `input` at a
/// time, then its response line to `output`, so every request sees the
/// effects of the ones before it (a `stats` after a `vet` counts that
/// vet; a second identical `vet` hits the cache). Reads `input` with
/// blocking reads, so it may be a pipe, a terminal or a regular file.
/// Blank lines are skipped; the pump stops after the `shutdown` ack, at
/// EOF, or when the daemon closes the connection.
fn pump(conn: UnixStream, input: impl BufRead, mut output: impl Write) -> io::Result<()> {
    let mut responses = BufReader::new(conn.try_clone()?);
    let mut conn = conn;
    for line in input.lines() {
        let mut line = line?;
        if line.trim().is_empty() {
            continue;
        }
        line.push('\n');
        conn.write_all(line.as_bytes())?;
        let mut resp = String::new();
        if responses.read_line(&mut resp)? == 0 {
            break;
        }
        output.write_all(resp.as_bytes())?;
        output.flush()?;
        // `kind` is always the first key of a response object.
        if resp.starts_with("{\"kind\":\"shutdown_ack\"") {
            break;
        }
    }
    Ok(())
}

/// The `serve_started` log record, so a log file identifies the daemon
/// configuration it narrates.
fn log_started(core: &JobCore) {
    let cfg = &core.cfg;
    core.log_event(
        Level::Info,
        "serve_started",
        &[
            ("workers", Json::from(cfg.workers as f64)),
            ("queue_cap", Json::from(cfg.queue_cap as f64)),
            ("cache_cap", Json::from(cfg.cache_cap as f64)),
            ("heartbeat_ms", Json::from(cfg.heartbeat.as_millis() as f64)),
            ("reap_ms", Json::from(cfg.reap_after.as_millis() as f64)),
        ],
    );
}

fn start_daemon(
    cfg: ServeConfig,
    analyze: Box<AnalyzeJobFn>,
    listener: Option<TcpListener>,
    stdio: Option<UnixStream>,
) -> io::Result<Server> {
    let addr = listener.as_ref().map(TcpListener::local_addr).transpose()?;
    let (waker, wake_rx) = poller::wake_pair()?;
    let poller = Poller::with_backend(cfg.poller_backend)?;
    let core = Arc::new(JobCore::new(cfg, analyze, CompletionQueue::new(waker)));
    log_started(&core);
    let workers = (0..core.cfg.workers)
        .map(|i| {
            let core = Arc::clone(&core);
            spawn_pipeline_thread(format!("sigserve-worker-{i}"), move || {
                run_local_worker(&core)
            })
        })
        .collect();
    let history = spawn_history(&core);
    let event_loop = {
        let core = Arc::clone(&core);
        std::thread::Builder::new()
            .name("sigserve-loop".to_owned())
            .spawn(move || {
                let mut el = EventLoop::new(Arc::clone(&core), poller, listener, wake_rx);
                if let Some(stream) = stdio {
                    el.add_conn(Box::new(stream), "stdio", true);
                }
                if let Err(e) = el.run() {
                    // A dead event loop must not leave workers parked
                    // forever: log and tear the daemon down.
                    core.log_event(
                        Level::Error,
                        "event_loop_error",
                        &[("error", Json::from(format!("{e}")))],
                    );
                    core.shutdown();
                }
            })
            .expect("spawn event loop thread")
    };
    Ok(Server {
        core,
        addr,
        event_loop,
        workers,
        history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::net::TcpStream;
    use std::time::Duration;

    /// A fast stub engine: "ok" for anything, "timeout" for sources
    /// containing the marker, error for sources containing "!".
    fn stub(
        source: &str,
        _config: &AnalysisConfig,
        metrics: &MetricsRegistry,
        _trace: Trace<'_>,
    ) -> VetOutcome {
        metrics.add("stub_calls", 1);
        if source.contains("@timeout") {
            VetOutcome::timeout(999, Duration::from_micros(77))
        } else if source.contains('!') {
            VetOutcome::error("stub parse error")
        } else {
            VetOutcome::report(
                format!("{{\n  \"len\": {}\n}}", source.len()),
                crate::LayerTimes::default(),
            )
        }
    }

    fn stub_server(cfg: ServeConfig) -> Server {
        Server::builder()
            .config(cfg)
            .addr("127.0.0.1:0")
            .analyze(stub)
            .start()
            .expect("start")
    }

    #[test]
    fn end_to_end_over_tcp_with_stub_engine_on_every_backend() {
        #[cfg(target_os = "linux")]
        end_to_end(Backend::Epoll);
        end_to_end(Backend::Poll);
    }

    fn end_to_end(poller_backend: Backend) {
        let server = stub_server(ServeConfig {
            poller_backend,
            ..ServeConfig::default()
        });
        let mut client = crate::Client::connect(server.local_addr()).expect("connect");
        let r1 = client.vet_source(Some("a"), "var a;").unwrap();
        assert_eq!(r1["verdict"], "ok");
        assert_eq!(r1["cached"], Json::Bool(false));
        let r2 = client.vet_source(Some("a"), "var a;").unwrap();
        assert_eq!(r2["cached"], Json::Bool(true));
        let stats = client.stats().unwrap();
        assert_eq!(stats["cache"]["hits"].as_f64(), Some(1.0));
        assert_eq!(stats["jobs"]["completed"].as_f64(), Some(1.0));
        assert_eq!(stats["conns"]["open"].as_f64(), Some(1.0));
        assert_eq!(stats["conns"]["accepted"].as_f64(), Some(1.0));
        // The metrics registry rides along in every stats response: the
        // daemon's own counters plus whatever the engine recorded.
        let metrics = &stats["metrics"];
        assert_eq!(metrics["counters"]["serve_cache_hits"].as_f64(), Some(1.0));
        assert_eq!(
            metrics["counters"]["serve_cache_misses"].as_f64(),
            Some(1.0)
        );
        assert_eq!(metrics["counters"]["stub_calls"].as_f64(), Some(1.0));
        assert_eq!(
            metrics["histograms"]["serve_vet_us"]["count"].as_f64(),
            Some(1.0)
        );
        let ack = client.shutdown().unwrap();
        assert_eq!(ack["kind"], "shutdown_ack");
        assert_eq!(ack["stats"]["jobs"]["accepted"].as_f64(), Some(1.0));
        server.join();
    }

    #[test]
    fn batch_pipelines_and_preserves_order() {
        let server = stub_server(ServeConfig::default());
        let mut client = crate::Client::connect(server.local_addr()).expect("connect");
        let req = crate::protocol::vet_batch_request(
            (0..6).map(|i| (format!("n{i}"), format!("var v{i};"))),
        );
        let resp = client.request(&req).unwrap();
        assert_eq!(resp["kind"], "vet_batch_result");
        let results = resp["results"].as_array().unwrap();
        assert_eq!(results.len(), 6);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r["name"].as_str(), Some(format!("n{i}").as_str()));
            assert_eq!(r["verdict"], "ok");
        }
        client.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let server = stub_server(ServeConfig::default());
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).unwrap();
        // Three requests in one write, no reads in between: the loop
        // must answer them in request order even though the workers
        // finish in whatever order they like.
        let burst = (0..3)
            .map(|i| format!("{{\"kind\":\"vet\",\"name\":\"q{i}\",\"source\":\"var q{i};\"}}\n"))
            .collect::<String>();
        stream.write_all(burst.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for i in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let resp = Json::parse(line.trim()).unwrap();
            assert_eq!(
                resp["name"].as_str(),
                Some(format!("q{i}").as_str()),
                "{resp}"
            );
            assert_eq!(resp["verdict"], "ok");
        }
        drop(reader);
        drop(stream);
        let mut client = crate::Client::connect(server.local_addr()).expect("connect");
        client.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn request_deadline_answers_timeout_while_worker_runs() {
        fn slow(s: &str, c: &AnalysisConfig, m: &MetricsRegistry, t: Trace<'_>) -> VetOutcome {
            if s.contains("@slow") {
                std::thread::sleep(Duration::from_millis(400));
            }
            stub(s, c, m, t)
        }
        let cfg = ServeConfig {
            workers: 1,
            request_deadline: Some(Duration::from_millis(50)),
            ..ServeConfig::default()
        };
        let server = Server::builder()
            .config(cfg)
            .addr("127.0.0.1:0")
            .analyze(slow)
            .start()
            .expect("start");
        let mut client = crate::Client::connect(server.local_addr()).expect("connect");
        let t0 = Instant::now();
        let resp = client.vet_source(Some("s"), "@slow").unwrap();
        assert_eq!(resp["verdict"], "timeout", "{resp}");
        assert_eq!(resp["reason"], "deadline");
        assert!(
            t0.elapsed() < Duration::from_millis(350),
            "deadline must answer before the worker finishes"
        );
        let stats = client.stats().unwrap();
        assert_eq!(stats["conns"]["deadline_misses"].as_f64(), Some(1.0));
        client.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn idle_connections_are_reaped() {
        let cfg = ServeConfig {
            idle_timeout: Some(Duration::from_millis(80)),
            ..ServeConfig::default()
        };
        let server = stub_server(cfg);
        let mut idle = crate::Client::connect(server.local_addr()).expect("connect");
        let r = idle.vet_source(Some("i"), "var i;").unwrap();
        assert_eq!(r["verdict"], "ok");
        std::thread::sleep(Duration::from_millis(300));
        // The daemon closed the quiet connection; the next round-trip
        // fails (EOF on read, or a send error once the close lands).
        assert!(idle.vet_source(Some("i2"), "var j;").is_err());
        // New connections still work.
        let mut fresh = crate::Client::connect(server.local_addr()).expect("connect");
        let r = fresh.vet_source(Some("f"), "var f;").unwrap();
        assert_eq!(r["verdict"], "ok");
        fresh.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn panicking_worker_does_not_kill_the_daemon() {
        // Regression: a panicking AnalyzeJobFn used to poison the cache
        // mutex and crash the worker; every later request then panicked
        // on the poisoned lock — one bad addon took the daemon down.
        fn panicky(s: &str, c: &AnalysisConfig, m: &MetricsRegistry, t: Trace<'_>) -> VetOutcome {
            if s.contains("@panic") {
                panic!("injected analysis panic");
            }
            stub(s, c, m, t)
        }
        let cfg = ServeConfig {
            workers: 1, // one worker: if the panic killed it, nothing answers
            ..ServeConfig::default()
        };
        let server = Server::builder()
            .config(cfg)
            .addr("127.0.0.1:0")
            .analyze(panicky)
            .start()
            .expect("start");
        let mut client = crate::Client::connect(server.local_addr()).expect("connect");
        let boom = client.vet_source(Some("bad"), "@panic").unwrap();
        assert_eq!(boom["verdict"], "error");
        assert!(
            boom["message"].as_str().unwrap_or("").contains("panicked"),
            "{boom:?}"
        );
        // The same (sole) worker must still answer the next request.
        let ok = client.vet_source(Some("good"), "var fine;").unwrap();
        assert_eq!(ok["verdict"], "ok");
        let snap = server.metrics_snapshot();
        let panics = snap
            .counters
            .iter()
            .find(|(n, _)| n == "serve_worker_panics")
            .map(|(_, v)| *v);
        assert_eq!(panics, Some(1));
        client.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn malformed_lines_get_error_responses_and_daemon_survives() {
        let server = stub_server(ServeConfig::default());
        let mut client = crate::Client::connect(server.local_addr()).expect("connect");
        let resp = client.raw_line("this is not json").unwrap();
        assert_eq!(resp["kind"], "error");
        let resp = client.raw_line(r#"{"kind":"frobnicate"}"#).unwrap();
        assert_eq!(resp["kind"], "error");
        let ok = client.vet_source(None, "still alive").unwrap();
        assert_eq!(ok["verdict"], "ok");
        let stats = client.stats().unwrap();
        assert_eq!(stats["jobs"]["protocol_errors"].as_f64(), Some(2.0));
        client.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn builder_refuses_half_configured_daemons() {
        assert!(Server::builder().addr("127.0.0.1:0").start().is_err());
        assert!(Server::builder().analyze(stub).start().is_err());
        assert!(Server::builder().stdio().analyze(stub).start().is_err());
        let no_workers = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        assert!(
            Server::builder()
                .config(no_workers)
                .stdio()
                .analyze(stub)
                .run()
                .is_err(),
            "nothing could run a stdio daemon's jobs"
        );
    }

    #[test]
    fn pump_answers_one_request_at_a_time_and_stops_after_the_ack() {
        let (server_end, pump_end) = UnixStream::pair().unwrap();
        // The pump's peer here is a fake daemon: a thread that answers
        // each line with its echo, and acks `shutdown`.
        let fake = std::thread::spawn(move || {
            let mut w = server_end.try_clone().unwrap();
            let mut seen = Vec::new();
            for line in BufReader::new(server_end).lines() {
                let line = line.unwrap();
                seen.push(line.clone());
                let resp = if line.contains("shutdown") {
                    "{\"kind\":\"shutdown_ack\"}\n".to_owned()
                } else {
                    format!("{{\"kind\":\"echo\",\"n\":{}}}\n", seen.len())
                };
                w.write_all(resp.as_bytes()).unwrap();
            }
            seen
        });
        let input = "{\"a\":1}\n\n   \n{\"b\":2}\n{\"kind\":\"shutdown\"}\n{\"after\":1}\n";
        let mut out = Vec::new();
        pump(pump_end, input.as_bytes(), &mut out).unwrap();
        let seen = fake.join().unwrap();
        assert_eq!(
            seen.len(),
            3,
            "blank lines skipped, nothing after the ack: {seen:?}"
        );
        let out = String::from_utf8(out).unwrap();
        assert_eq!(out.lines().count(), 3);
        assert!(out.ends_with("{\"kind\":\"shutdown_ack\"}\n"));
    }
}

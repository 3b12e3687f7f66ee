//! The `vet serve` child process and a minimal NDJSON client for it.
//!
//! [`Daemon`] is a guard: dropping it, on any exit path including a
//! panic, kills the child if it is still running and reaps it, and
//! [`crate::sys::die_with_parent`] covers the paths where no destructor
//! runs at all.

use crate::sys;
use minijson::Json;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The daemon's start-up arguments: an ephemeral loopback port and one
/// worker per core of the 2-core reference machine.
const SERVE_ARGS: [&str; 5] = ["serve", "--addr", "127.0.0.1:0", "--workers", "2"];

/// `vet` must sit next to the benchmark executable, as `cargo build
/// --release` leaves both in one target directory.
pub fn vet_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let vet = exe.with_file_name("vet");
    if vet.is_file() {
        Ok(vet)
    } else {
        Err(format!(
            "{} is missing: build the daemon into the benchmark's target directory \
             (cargo build --release --offline -p addon-sig --bin vet)",
            vet.display()
        ))
    }
}

pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    /// From the `exec` of `vet` to an answered `stats` request and a
    /// vetted trivial addon (the engine's lazy initialisation). The fork
    /// and `exec` before it are left out: they copy and tear down the
    /// spawning process's page tables, so their time follows the
    /// benchmark's own memory, not the program's. They were two thirds
    /// of spawn-to-ready and its widest-spread part.
    pub ready: Duration,
    stderr: Option<JoinHandle<Vec<String>>>,
}

impl Daemon {
    /// Starts `vet serve` with [`SERVE_ARGS`] plus `extra` and waits
    /// until it has answered `stats` and vetted a trivial addon.
    pub fn spawn(extra: &[&str]) -> Result<Daemon, String> {
        let vet = vet_path()?;
        let mut cmd = Command::new(&vet);
        cmd.args(SERVE_ARGS)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        sys::die_with_parent(&mut cmd);
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", vet.display()))?;
        // `spawn` returns once the child's `exec` has succeeded.
        let t0 = Instant::now();
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Drains stderr for the daemon's whole life, so it can never
        // block on a full pipe; keeps the tail for error reports.
        let reader = std::thread::spawn(move || {
            let mut tx = Some(tx);
            let mut tail = VecDeque::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line.split("listening on ").nth(1) {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.trim().to_owned());
                    }
                }
                tail.push_back(line);
                if tail.len() > 20 {
                    tail.pop_front();
                }
            }
            Vec::from(tail)
        });
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            ready: Duration::ZERO,
            stderr: Some(reader),
        };
        let addr = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| format!("vet serve printed no address: {:?}", daemon.stderr_tail()))?;
        daemon.addr = addr
            .parse()
            .map_err(|e| format!("bad daemon address {addr}: {e}"))?;
        daemon.stats()?;
        let vetted = daemon
            .connect()?
            .request(&vet_line("ready", "var x = 1;"))
            .map_err(|e| format!("first vet: {e}"))?;
        if !vetted.contains("\"verdict\":\"ok\"") {
            return Err(format!("first vet answered {vetted}"));
        }
        daemon.ready = t0.elapsed();
        Ok(daemon)
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    pub fn stats(&self) -> Result<Json, String> {
        let line = self
            .connect()?
            .request(b"{\"kind\":\"stats\"}\n")
            .map_err(|e| format!("stats: {e}"))?;
        Json::parse(&line).map_err(|e| format!("stats reply: {e}"))
    }

    pub fn peak_rss_mb(&self) -> f64 {
        sys::vm_hwm_mb(Some(self.child.id())).unwrap_or(0.0)
    }

    /// Asks the daemon to stop and waits for it to exit cleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        let ack = self
            .connect()?
            .request(b"{\"kind\":\"shutdown\"}\n")
            .map_err(|e| format!("shutdown: {e}"))?;
        if !ack.contains("\"shutdown_ack\"") {
            return Err(format!("shutdown answered {ack}"));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("vet serve exited {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("vet serve did not exit after shutdown".to_owned()),
                Err(e) => return Err(format!("wait for vet serve: {e}")),
            }
        }
    }

    fn stderr_tail(&mut self) -> Vec<String> {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

/// One protocol connection: request lines out, response lines back in
/// order. Kept separate from `sigserve::Client` so the client side of
/// the measurement does not change when the daemon's code does.
pub struct Conn {
    stream: TcpStream,
    lines: Lines,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            lines: Lines::default(),
            buf: vec![0; 64 * 1024],
        })
    }

    /// Sends one newline-terminated request and waits for its answer.
    pub fn request(&mut self, line: &[u8]) -> io::Result<String> {
        self.stream.write_all(line)?;
        self.read_line()
    }

    fn read_line(&mut self) -> io::Result<String> {
        loop {
            if let Some(line) = self.lines.next_line() {
                return String::from_utf8(line)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
            }
            self.fill()?;
        }
    }

    /// Reads whatever the socket has (blocking for at least one byte).
    fn fill(&mut self) -> io::Result<()> {
        match self.stream.read(&mut self.buf)? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            )),
            n => {
                self.lines.push(&self.buf[..n]);
                Ok(())
            }
        }
    }
}

/// Newline framing over a growing byte buffer.
#[derive(Default)]
pub struct Lines {
    buf: Vec<u8>,
    start: usize,
}

impl Lines {
    pub fn push(&mut self, data: &[u8]) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        self.buf.extend_from_slice(data);
    }

    pub fn next_line(&mut self) -> Option<Vec<u8>> {
        let rest = &self.buf[self.start..];
        let end = rest.iter().position(|&b| b == b'\n')?;
        let line = rest[..end].to_vec();
        self.start += end + 1;
        Some(line)
    }
}

/// The `vet` request line for `source`, newline-terminated.
pub fn vet_line(name: &str, source: &str) -> Vec<u8> {
    let mut req = Json::obj();
    req.set("kind", Json::from("vet"));
    req.set("name", Json::from(name));
    req.set("source", Json::from(source));
    let mut line = req.to_string_compact().into_bytes();
    line.push(b'\n');
    line
}

/// A counter from a `stats` reply (`stats["a"]["b"]`), 0 when absent.
pub fn stat(stats: &Json, group: &str, name: &str) -> f64 {
    stats[group][name].as_f64().unwrap_or(0.0)
}

/// A daemon histogram from a `stats` reply as `(upper bound, count)`.
pub fn histogram(stats: &Json, name: &str) -> Vec<(Option<f64>, f64)> {
    stats["metrics"]["histograms"][name]["buckets"]
        .as_array()
        .map(|b| {
            b.iter()
                .map(|pair| (pair[0].as_f64(), pair[1].as_f64().unwrap_or(0.0)))
                .collect()
        })
        .unwrap_or_default()
}

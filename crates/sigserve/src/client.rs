//! A minimal blocking client for the NDJSON protocol.
//!
//! One request line out, one response line back, strictly in order; used
//! by `vet --client`, the remote worker's link to its daemon, the
//! integration tests, and the `serve_load` bench. Inbound framing goes
//! through the same [`crate::conn::LineBuf`] the event-driven server
//! uses, so every path in the repo reassembles NDJSON lines with one
//! piece of code.

use crate::conn::LineBuf;
use crate::protocol::{message, vet_request};
use minijson::Json;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Response lines can carry whole signatures plus a log tail; cap a
/// single line at something generous rather than unbounded.
const MAX_RESPONSE_LINE: usize = 64 * 1024 * 1024;

/// A connected protocol client.
pub struct Client {
    stream: TcpStream,
    rbuf: LineBuf,
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Client {
    /// Connects to a running daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Request/response lines are tiny; leaving Nagle on costs a
        // delayed-ACK round trip (~40ms) per message.
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            rbuf: LineBuf::new(MAX_RESPONSE_LINE),
        })
    }

    /// Sends one raw line and parses the one-line response. The protocol
    /// answers every line — even malformed ones — so this never needs a
    /// timeout to distinguish "no answer" from "slow answer".
    pub fn raw_line(&mut self, line: &str) -> io::Result<Json> {
        // One write per line: a separate write of the trailing newline
        // would sit in the kernel behind Nagle waiting for an ACK.
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.stream.write_all(framed.as_bytes())?;
        self.stream.flush()?;
        let resp = self.read_line()?;
        Json::parse(resp.trim_end()).map_err(|e| bad_data(format!("bad response line: {e}")))
    }

    /// Blocks until one complete response line is buffered.
    fn read_line(&mut self) -> io::Result<String> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.rbuf.next_line() {
                Some(Ok(line)) => return Ok(line),
                Some(Err(e)) => return Err(bad_data(format!("bad response line: {e}"))),
                None => {}
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "daemon closed the connection",
                    ))
                }
                Ok(n) => {
                    if !self.rbuf.extend(&chunk[..n]) {
                        return Err(bad_data("response line exceeds maximum length".to_owned()));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one request document and returns the parsed response.
    pub fn request(&mut self, req: &Json) -> io::Result<Json> {
        self.raw_line(&req.to_string_compact())
    }

    /// Vets inline source text.
    pub fn vet_source(&mut self, name: Option<&str>, source: &str) -> io::Result<Json> {
        self.request(&vet_request(name, source))
    }

    /// Fetches the daemon's counters.
    pub fn stats(&mut self) -> io::Result<Json> {
        self.request(&message("stats", vec![]))
    }

    /// Fetches the metrics registry as a Prometheus text body (the
    /// `kind:metrics` response also carries its sample count).
    pub fn metrics(&mut self) -> io::Result<Json> {
        self.request(&message("metrics", vec![]))
    }

    /// Asks the daemon to finish pending jobs and stop; returns the
    /// `shutdown_ack` carrying the final counter dump.
    pub fn shutdown(&mut self) -> io::Result<Json> {
        self.request(&message("shutdown", vec![]))
    }
}

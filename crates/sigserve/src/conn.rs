//! Incremental NDJSON framing buffers for nonblocking connections.
//!
//! The event loop reads whatever bytes a socket has ready and feeds
//! them to a [`LineBuf`], which hands back complete newline-terminated
//! lines as they materialize — a slow-loris client dribbling one byte
//! per RTT just leaves a partial line parked here without pinning a
//! thread. Outbound, a [`WriteBuf`] holds each response as one
//! contiguous pre-framed slice and flushes as far as the socket
//! accepts, so the single-write framing (and its TCP_NODELAY latency
//! win) carries over from the threaded server.
//!
//! Both buffers track a consumed-prefix cursor and compact lazily, so
//! steady-state pipelining does no per-line reallocation.
//!
//! The blocking [`crate::client::Client`] shares [`LineBuf`] too — the
//! remote worker path and the event loop frame bytes identically.

use std::io::{self, Write};
use std::string::FromUtf8Error;

/// How far the consumed prefix may grow before a buffer memmoves the
/// live tail down to the front.
const COMPACT_AT: usize = 64 * 1024;

/// Accumulates raw bytes and yields complete `\n`-terminated lines.
pub struct LineBuf {
    buf: Vec<u8>,
    start: usize,
    max_line: usize,
}

impl LineBuf {
    /// A buffer that refuses single lines longer than `max_line` bytes
    /// (the guard that stops a hostile client growing memory without
    /// ever sending a newline).
    pub fn new(max_line: usize) -> LineBuf {
        LineBuf {
            buf: Vec::new(),
            start: 0,
            max_line,
        }
    }

    /// Appends freshly read bytes. Returns `false` when the unfinished
    /// line now exceeds the configured maximum — the caller should
    /// answer with a protocol error and drop the connection.
    #[must_use]
    pub fn extend(&mut self, bytes: &[u8]) -> bool {
        self.buf.extend_from_slice(bytes);
        // Only an *unterminated* run can violate the cap: complete
        // lines will drain via next_line before the next read.
        let live = &self.buf[self.start..];
        live.len() <= self.max_line || live.contains(&b'\n')
    }

    /// Bytes buffered but not yet returned as lines.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extracts the next complete line (without its `\n`, and without a
    /// trailing `\r` so CRLF clients work). `None` means only a partial
    /// line remains; `Some(Err(_))` means the bytes were not UTF-8, and
    /// the connection should be dropped exactly as the blocking
    /// `BufRead::lines` server did.
    pub fn next_line(&mut self) -> Option<Result<String, FromUtf8Error>> {
        let live = &self.buf[self.start..];
        let nl = live.iter().position(|&b| b == b'\n')?;
        let mut end = self.start + nl;
        if end > self.start && self.buf[end - 1] == b'\r' {
            end -= 1;
        }
        let line = String::from_utf8(self.buf[self.start..end].to_vec());
        self.start += nl + 1;
        if self.start >= COMPACT_AT && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Some(line)
    }
}

/// A bounded-by-policy outbound byte queue for one connection.
///
/// The buffer itself never refuses bytes — the event loop enforces the
/// backpressure caps by checking [`WriteBuf::queued`] *before* doing
/// the work that would produce more output.
#[derive(Default)]
pub struct WriteBuf {
    buf: Vec<u8>,
    start: usize,
    /// Lifetime bytes the sink accepted (monotone; survives compaction).
    written: u64,
}

impl WriteBuf {
    /// An empty write buffer.
    pub fn new() -> WriteBuf {
        WriteBuf::default()
    }

    /// Bytes queued and not yet accepted by the socket.
    pub fn queued(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Lifetime bytes the sink has accepted from this buffer — what a
    /// `conn_closed` record reports as `bytes_written`, so timeline
    /// reconstruction can cross-check framing totals per connection.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// True when everything queued has been written out.
    pub fn is_empty(&self) -> bool {
        self.queued() == 0
    }

    /// Queues raw bytes (already framed by the caller).
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes as much as the sink will take right now. `Ok(())` on
    /// either fully drained or `WouldBlock`; hard I/O errors (including
    /// a zero-length write) surface so the caller can close the
    /// connection.
    pub fn write_to(&mut self, w: &mut dyn Write) -> io::Result<()> {
        while self.queued() > 0 {
            match w.write(&self.buf[self.start..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "connection sink accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.start += n;
                    self.written += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.queued() == 0 {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= COMPACT_AT {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_reassemble_across_arbitrary_read_boundaries() {
        let mut lb = LineBuf::new(1024);
        for chunk in [&b"{\"a\""[..], b":1}\n{\"b\":2}", b"\r\n", b"tail"] {
            assert!(lb.extend(chunk));
        }
        assert_eq!(lb.next_line().unwrap().unwrap(), "{\"a\":1}");
        assert_eq!(lb.next_line().unwrap().unwrap(), "{\"b\":2}");
        assert!(lb.next_line().is_none(), "partial tail stays buffered");
        assert_eq!(lb.pending(), 4);
        assert!(lb.extend(b"!\n"));
        assert_eq!(lb.next_line().unwrap().unwrap(), "tail!");
    }

    #[test]
    fn oversized_unterminated_line_trips_the_guard() {
        let mut lb = LineBuf::new(16);
        assert!(lb.extend(&[b'x'; 16]));
        assert!(!lb.extend(b"y"), "17th byte with no newline overflows");
        // A newline anywhere in the live region keeps the buffer legal
        // even past the cap: the lines are extractable.
        let mut ok = LineBuf::new(16);
        assert!(ok.extend(&[b'x'; 10]));
        assert!(ok.extend(b"\n0123456789abcdef"));
        assert_eq!(ok.next_line().unwrap().unwrap(), "xxxxxxxxxx");
    }

    #[test]
    fn non_utf8_line_is_an_error_not_a_panic() {
        let mut lb = LineBuf::new(64);
        assert!(lb.extend(&[0xff, 0xfe, b'\n']));
        assert!(lb.next_line().unwrap().is_err());
    }

    /// A sink that takes at most `cap` bytes per call and then reports
    /// `WouldBlock` — a nonblocking socket with a tiny send buffer.
    struct Dribble {
        cap: usize,
        took: Vec<u8>,
        calls_until_block: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.calls_until_block == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            self.calls_until_block -= 1;
            let n = buf.len().min(self.cap);
            self.took.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_buf_survives_partial_writes_and_wouldblock() {
        let mut wb = WriteBuf::new();
        wb.push(b"{\"kind\":\"vet_result\"}\n");
        wb.push(b"{\"kind\":\"stats\"}\n");
        let total = wb.queued();
        let mut sink = Dribble {
            cap: 5,
            took: Vec::new(),
            calls_until_block: 3,
        };
        wb.write_to(&mut sink).expect("WouldBlock is not an error");
        assert_eq!(sink.took.len(), 15);
        assert_eq!(wb.queued(), total - 15);
        sink.calls_until_block = usize::MAX;
        wb.write_to(&mut sink).expect("drain");
        assert!(wb.is_empty());
        assert_eq!(
            sink.took,
            b"{\"kind\":\"vet_result\"}\n{\"kind\":\"stats\"}\n"
        );
        assert_eq!(
            wb.written(),
            total as u64,
            "lifetime written counter matches what the sink accepted"
        );
    }

    #[test]
    fn write_zero_is_a_hard_error() {
        struct Zero;
        impl Write for Zero {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut wb = WriteBuf::new();
        wb.push(b"x");
        assert!(wb.write_to(&mut Zero).is_err());
    }
}

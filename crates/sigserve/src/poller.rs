//! A thin readiness-notification layer: nonblocking sockets + `epoll(7)`
//! on Linux, with a `poll(2)` fallback — std-only.
//!
//! std already links the platform libc, so the handful of syscalls the
//! event loop needs are declared here directly instead of pulling in a
//! dependency. Both backends compile on Linux and the fallback is
//! exercised by tests (and selectable via [`Backend`]), so it stays
//! honest rather than rotting as dead "portability" code.
//!
//! The surface is deliberately tiny — register/reregister/deregister a
//! raw fd under a caller-chosen token, then [`Poller::wait`] for
//! readiness [`Event`]s — plus a [`Waker`]/[`WakeRx`] pair over a
//! nonblocking socket pair so worker threads can interrupt a parked
//! `wait` (the daemon's workers post job completions through it).
//!
//! Level-triggered everywhere: an fd that still has buffered input (or
//! writable space) reports again on the next `wait`, so the loop never
//! needs to drain a socket to exhaustion inside one callback.

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

// ---------------------------------------------------------------------
// Raw syscall surface (std links libc; these are ordinary C symbols).
// ---------------------------------------------------------------------

/// The kernel's epoll event record. x86_64 is the one Linux ABI where
/// the struct is packed (no padding between `events` and `data`).
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// `struct pollfd` from `poll(2)`.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[cfg(target_os = "linux")]
extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn close(fd: i32) -> i32;
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout_ms: i32) -> i32;
}

#[cfg(target_os = "linux")]
const EPOLL_CLOEXEC: i32 = 0o2000000;
#[cfg(target_os = "linux")]
const EPOLL_CTL_ADD: i32 = 1;
#[cfg(target_os = "linux")]
const EPOLL_CTL_DEL: i32 = 2;
#[cfg(target_os = "linux")]
const EPOLL_CTL_MOD: i32 = 3;
#[cfg(target_os = "linux")]
const EPOLLIN: u32 = 0x001;
#[cfg(target_os = "linux")]
const EPOLLOUT: u32 = 0x004;
#[cfg(target_os = "linux")]
const EPOLLERR: u32 = 0x008;
#[cfg(target_os = "linux")]
const EPOLLHUP: u32 = 0x010;
#[cfg(target_os = "linux")]
const EPOLLRDHUP: u32 = 0x2000;

// poll(2) event bits (identical values across the Unixes we build on).
const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

fn last_err() -> io::Error {
    io::Error::last_os_error()
}

/// Milliseconds for the kernel timeout argument: `None` parks forever.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        // Round up so a 100µs deadline doesn't busy-spin as 0ms.
        Some(d) => {
            i32::try_from(d.as_millis().max(if d.is_zero() { 0 } else { 1 })).unwrap_or(i32::MAX)
        }
    }
}

// ---------------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------------

/// Which readiness-notification mechanism backs a [`Poller`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// `epoll(7)`: O(ready) wakeups, the Linux default.
    #[cfg(target_os = "linux")]
    #[default]
    Epoll,
    /// `poll(2)`: O(registered) per wait; the portable fallback (and the
    /// default elsewhere).
    #[cfg_attr(not(target_os = "linux"), default)]
    Poll,
}

/// What a registered fd should be watched for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Read readiness only.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Read and write readiness.
    pub const READ_WRITE: Interest = Interest {
        read: true,
        write: true,
    };
}

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd has bytes to read (or a pending accept).
    pub readable: bool,
    /// The fd can take more bytes.
    pub writable: bool,
    /// Hangup/error: the peer closed or the fd is in an error state.
    /// The fd still reports `readable` for any buffered bytes first.
    pub closed: bool,
}

enum Imp {
    #[cfg(target_os = "linux")]
    Epoll { epfd: RawFd },
    Poll {
        /// Registered fds in insertion order; linear scans are fine for
        /// the fallback (it exists for correctness coverage, not 10k-fd
        /// scale — that's what epoll is for).
        fds: Vec<(RawFd, u64, Interest)>,
    },
}

/// A readiness poller over raw fds. Not `Sync`: exactly one thread (the
/// event loop) owns it; other threads interrupt it through a [`Waker`].
pub struct Poller {
    imp: Imp,
}

impl Poller {
    /// A poller on an explicit backend (tests pin [`Backend::Poll`] so
    /// the fallback path stays exercised on Linux).
    pub fn with_backend(backend: Backend) -> io::Result<Poller> {
        match backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll => {
                let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
                if epfd < 0 {
                    return Err(last_err());
                }
                Ok(Poller {
                    imp: Imp::Epoll { epfd },
                })
            }
            Backend::Poll => Ok(Poller {
                imp: Imp::Poll { fds: Vec::new() },
            }),
        }
    }

    /// The mechanism this poller runs on.
    pub fn backend(&self) -> Backend {
        match &self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll { .. } => Backend::Epoll,
            Imp::Poll { .. } => Backend::Poll,
        }
    }

    #[cfg(target_os = "linux")]
    fn epoll_bits(interest: Interest) -> u32 {
        let mut bits = EPOLLRDHUP; // always learn about peer half-close
        if interest.read {
            bits |= EPOLLIN;
        }
        if interest.write {
            bits |= EPOLLOUT;
        }
        bits
    }

    /// Starts watching `fd` under `token`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll { epfd } => {
                let mut ev = EpollEvent {
                    events: Poller::epoll_bits(interest),
                    data: token,
                };
                if unsafe { epoll_ctl(*epfd, EPOLL_CTL_ADD, fd, &mut ev) } < 0 {
                    return Err(last_err());
                }
                Ok(())
            }
            Imp::Poll { fds } => {
                fds.push((fd, token, interest));
                Ok(())
            }
        }
    }

    /// Changes what `fd` is watched for (same token).
    pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll { epfd } => {
                let mut ev = EpollEvent {
                    events: Poller::epoll_bits(interest),
                    data: token,
                };
                if unsafe { epoll_ctl(*epfd, EPOLL_CTL_MOD, fd, &mut ev) } < 0 {
                    return Err(last_err());
                }
                Ok(())
            }
            Imp::Poll { fds } => match fds.iter_mut().find(|(f, _, _)| *f == fd) {
                Some(slot) => {
                    *slot = (fd, token, interest);
                    Ok(())
                }
                None => Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    "reregister of unregistered fd",
                )),
            },
        }
    }

    /// Stops watching `fd`. Call before closing the fd.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll { epfd } => {
                let mut ev = EpollEvent { events: 0, data: 0 };
                if unsafe { epoll_ctl(*epfd, EPOLL_CTL_DEL, fd, &mut ev) } < 0 {
                    return Err(last_err());
                }
                Ok(())
            }
            Imp::Poll { fds } => {
                fds.retain(|(f, _, _)| *f != fd);
                Ok(())
            }
        }
    }

    /// Blocks until at least one registered fd is ready, the timeout
    /// expires (`events` left empty), or a [`Waker`] fires. A caught
    /// `EINTR` returns an empty batch rather than an error.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll { epfd } => {
                const MAX: usize = 1024;
                let mut buf = [EpollEvent { events: 0, data: 0 }; MAX];
                let n =
                    unsafe { epoll_wait(*epfd, buf.as_mut_ptr(), MAX as i32, timeout_ms(timeout)) };
                if n < 0 {
                    let e = last_err();
                    if e.kind() == io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(e);
                }
                for ev in &buf[..n as usize] {
                    // Copy out of the (possibly packed) struct before use.
                    let (bits, data) = (ev.events, ev.data);
                    events.push(Event {
                        token: data,
                        readable: bits & EPOLLIN != 0,
                        writable: bits & EPOLLOUT != 0,
                        closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                    });
                }
                Ok(())
            }
            Imp::Poll { fds } => {
                let mut pfds: Vec<PollFd> = fds
                    .iter()
                    .map(|(fd, _, interest)| PollFd {
                        fd: *fd,
                        events: if interest.read { POLLIN } else { 0 }
                            | if interest.write { POLLOUT } else { 0 },
                        revents: 0,
                    })
                    .collect();
                let n = unsafe {
                    poll(
                        pfds.as_mut_ptr(),
                        pfds.len() as std::os::raw::c_ulong,
                        timeout_ms(timeout),
                    )
                };
                if n < 0 {
                    let e = last_err();
                    if e.kind() == io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(e);
                }
                for (pfd, (_, token, _)) in pfds.iter().zip(fds.iter()) {
                    if pfd.revents == 0 {
                        continue;
                    }
                    events.push(Event {
                        token: *token,
                        readable: pfd.revents & POLLIN != 0,
                        writable: pfd.revents & POLLOUT != 0,
                        closed: pfd.revents & (POLLERR | POLLHUP | POLLNVAL) != 0,
                    });
                }
                Ok(())
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Imp::Epoll { epfd } = &self.imp {
            unsafe { close(*epfd) };
        }
    }
}

// ---------------------------------------------------------------------
// Waker: a nonblocking socket pair the event loop parks on.
// ---------------------------------------------------------------------

/// The write end of the wakeup pair. Any thread can [`Waker::wake`] to
/// interrupt the event loop's [`Poller::wait`]; a full buffer means a
/// wakeup is already pending, so `EAGAIN` is success.
pub struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// Interrupts the paired [`WakeRx`]'s poller. Never blocks.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// The read end of the wakeup pair: register its [`WakeRx::fd`] with the
/// poller, and [`WakeRx::drain`] it on every wakeup event.
pub struct WakeRx {
    rx: UnixStream,
}

impl WakeRx {
    /// The raw fd to register (read interest).
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consumes every pending wakeup byte (nonblocking).
    pub fn drain(&self) {
        let mut buf = [0u8; 256];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// Creates the wakeup pair: both ends nonblocking (and, as std opens
/// every socket, close-on-exec).
pub fn wake_pair() -> io::Result<(Waker, WakeRx)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, WakeRx { rx }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    fn backends() -> Vec<Backend> {
        #[cfg(target_os = "linux")]
        {
            vec![Backend::Epoll, Backend::Poll]
        }
        #[cfg(not(target_os = "linux"))]
        {
            vec![Backend::Poll]
        }
    }

    #[test]
    fn waker_interrupts_a_parked_wait_on_every_backend() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).expect("poller");
            let (waker, rx) = wake_pair().expect("wake pair");
            poller
                .register(rx.fd(), 7, Interest::READ)
                .expect("register");
            let hand = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                waker.wake();
                waker.wake(); // double-wake must coalesce, not error
                waker // keep the write end open: dropping it reads as HUP
            });
            let mut events = Vec::new();
            let t0 = Instant::now();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("wait");
            assert!(
                t0.elapsed() < Duration::from_secs(4),
                "{backend:?}: waker must interrupt the wait"
            );
            assert!(
                events.iter().any(|e| e.token == 7 && e.readable),
                "{backend:?}: wake event carries the registered token"
            );
            // Both wakes must have landed before the drain, or the
            // second write races the drain and re-arms the pipe.
            let _waker = hand.join().unwrap();
            rx.drain();
            // Drained: the next wait times out instead of spinning on a
            // still-readable pipe (level-triggered semantics).
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .expect("wait 2");
            assert!(events.is_empty(), "{backend:?}: drained pipe is quiet");
        }
    }

    #[test]
    fn listener_and_stream_readiness() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).expect("poller");
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.set_nonblocking(true).expect("nonblocking");
            poller
                .register(listener.as_raw_fd(), 1, Interest::READ)
                .expect("register listener");
            let client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("wait");
            assert!(
                events.iter().any(|e| e.token == 1 && e.readable),
                "{backend:?}: pending accept reports readable"
            );
            let (accepted, _) = listener.accept().expect("accept");
            accepted.set_nonblocking(true).expect("nonblocking");
            poller
                .register(accepted.as_raw_fd(), 2, Interest::READ_WRITE)
                .expect("register conn");
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("wait");
            assert!(
                events.iter().any(|e| e.token == 2 && e.writable),
                "{backend:?}: fresh socket is writable"
            );
            // Peer hangup surfaces as closed (and/or readable EOF).
            drop(client);
            poller
                .reregister(accepted.as_raw_fd(), 2, Interest::READ)
                .expect("reregister");
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("wait");
            let ev = events.iter().find(|e| e.token == 2).expect("hangup event");
            assert!(
                ev.closed || ev.readable,
                "{backend:?}: hangup must surface, got {ev:?}"
            );
            poller.deregister(accepted.as_raw_fd()).expect("deregister");
        }
    }

    #[test]
    fn timeout_expires_with_no_events() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).expect("poller");
            let (_waker, rx) = wake_pair().expect("wake pair");
            poller
                .register(rx.fd(), 1, Interest::READ)
                .expect("register");
            let mut events = Vec::new();
            let t0 = Instant::now();
            poller
                .wait(&mut events, Some(Duration::from_millis(40)))
                .expect("wait");
            assert!(events.is_empty(), "{backend:?}: nothing was ready");
            assert!(
                t0.elapsed() >= Duration::from_millis(35),
                "{backend:?}: timeout must actually elapse"
            );
        }
    }
}

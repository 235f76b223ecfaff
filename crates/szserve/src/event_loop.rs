//! A hand-rolled, std-only readiness event loop over `poll(2)`.
//!
//! The PR-5 front end spent one OS thread per connection and woke
//! every 10 ms to check the stop flag. That shape cannot hold tens of
//! thousands of mostly-idle clients: each costs a stack, and shutdown
//! must wait for whichever blocking `read` happens to return last. An
//! idle client that never sent a line could park its handler thread
//! forever and hang `serve()` in `join()`.
//!
//! This module replaces that with a small fixed pool of event-loop
//! threads, each multiplexing its share of connections through
//! `poll(2)` (declared locally via `extern "C"` — libc is already
//! linked by std, so no new crates):
//!
//! - the listener is nonblocking and owned by loop 0; accepted
//!   connections are distributed round-robin to the other loops
//!   through an inbox + self-pipe wakeup;
//! - each connection is a tiny state machine: a line-buffered read
//!   buffer and a backpressure-aware write buffer that registers
//!   `POLLOUT` only while bytes are pending;
//! - cross-thread signals (new connections, async reply completions,
//!   shutdown) arrive via a **self-pipe**: the sender enqueues, then
//!   writes one byte to the loop's pipe only if no wakeup is already
//!   pending, so wakeups coalesce and the pipe can never fill;
//! - on stop, every loop attempts one final flush of each connection
//!   and closes it — including idle ones that never sent a byte — so
//!   shutdown completes without waiting on silent clients.
//!
//! Replies that cannot be produced synchronously (a `run` with
//! `wait: true` that queued a job) return [`LineOutcome::Pending`];
//! the connection defers any further input lines until the owner
//! pushes the reply through [`Completions::send`], preserving the
//! one-reply-per-line ordering of the old thread-per-connection front
//! end.

use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, FromRawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Local declarations of the two libc entry points the loop needs.
/// std already links libc; declaring them here avoids a crate
/// dependency while staying on the stable ABI.
pub mod ffi {
    /// `struct pollfd` from `<poll.h>` (identical layout on every
    /// platform this repo targets).
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        /// File descriptor to poll (negative entries are ignored).
        pub fd: i32,
        /// Requested events.
        pub events: i16,
        /// Returned events.
        pub revents: i16,
    }

    /// Data may be read without blocking.
    pub const POLLIN: i16 = 0x001;
    /// Data may be written without blocking.
    pub const POLLOUT: i16 = 0x004;
    /// Error condition (always polled implicitly).
    pub const POLLERR: i16 = 0x008;
    /// Peer hung up (always polled implicitly).
    pub const POLLHUP: i16 = 0x010;
    /// Invalid descriptor.
    pub const POLLNVAL: i16 = 0x020;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
        fn pipe(fds: *mut i32) -> i32;
    }

    /// Safe wrapper over `poll(2)`: waits up to `timeout_ms` for an
    /// event on any entry, returning the ready count (or -1, in which
    /// case `std::io::Error::last_os_error()` holds the cause).
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // correctly laid-out pollfd structs, and nfds matches its
        // length.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) }
    }

    /// Safe wrapper over `pipe(2)`: returns `(read_fd, write_fd)`.
    pub fn make_pipe() -> std::io::Result<(i32, i32)> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a valid 2-element out buffer.
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok((fds[0], fds[1]))
    }
}

/// The largest request line a connection may send (1 MiB). Longer
/// lines close the connection and count a `conn_error` — nothing in
/// the protocol comes close to this.
const MAX_LINE: usize = 1 << 20;

/// Upper bound on one poll cycle, bounding how stale the periodic
/// [`ConnHandler::tick`] sweep (wait deadlines) can get. Loops under
/// load never sleep this long — readiness and self-pipe wakeups cut
/// the wait short.
const POLL_TIMEOUT_MS: i32 = 100;

/// A connection's identity: which loop owns it and a per-loop id that
/// is never reused, so a completion for a connection that already
/// went away is silently dropped instead of reaching a newcomer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnToken {
    /// Index of the owning event loop.
    pub loop_idx: u32,
    /// Monotonic per-loop connection id.
    pub conn_id: u64,
}

/// What the handler wants done with one request line.
pub enum LineOutcome {
    /// Append these bytes to the write buffer and keep reading.
    Reply(Vec<u8>),
    /// Reply, then close once the write buffer drains.
    ReplyAndClose(Vec<u8>),
    /// The reply arrives later via [`Completions::send`]; defer any
    /// further lines from this connection until it does.
    Pending,
}

/// The server-side brain the loop calls into. Implementations must be
/// cheap and non-blocking: anything slow belongs on a worker thread,
/// completing via [`Completions`].
pub trait ConnHandler: Send + Sync {
    /// Handles one complete input line (without its trailing newline).
    fn on_line(&self, token: ConnToken, line: &str) -> LineOutcome;

    /// Called on the owning loop's thread once `token`'s connection has
    /// left the loop, however it ended: closed by the client, dropped on
    /// an error, or closed at stop.
    fn on_close(&self, _token: ConnToken) {}

    /// Called periodically from loop 0 (at most every
    /// [`POLL_TIMEOUT_MS`]) for deadline sweeps.
    fn tick(&self) {}
}

/// Connection-level counters, shared by all loops and surfaced
/// through the `stats` request.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Connections accepted since start.
    pub accepted: AtomicU64,
    /// Currently open connections.
    pub open: AtomicU64,
    /// Read-side failures: accept errors, read errors, oversized
    /// lines (the old front end dropped these silently).
    pub conn_errors: AtomicU64,
    /// Write-side failures: send errors and failed final flushes (the
    /// old front end ignored these).
    pub write_errors: AtomicU64,
}

impl NetStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A reply produced outside the loop thread.
struct Completion {
    token: ConnToken,
    bytes: Vec<u8>,
    close: bool,
}

/// Work pushed to a loop from other threads.
#[derive(Default)]
struct Inbox {
    conns: Vec<TcpStream>,
    completions: Vec<Completion>,
}

/// The coalescing wakeup channel: enqueue into the inbox, then write
/// one byte to the pipe *only* when no wakeup is already pending.
/// The loop reads the byte, clears the flag, and only then drains the
/// inbox — so a send racing the drain either lands before the drain
/// or leaves a fresh wakeup byte behind. The pipe can never fill.
struct SelfPipe {
    reader: File,
    writer: File,
    pending: AtomicBool,
}

impl SelfPipe {
    fn new() -> io::Result<SelfPipe> {
        let (r, w) = ffi::make_pipe()?;
        // SAFETY: both fds were just created by pipe(2) and are owned
        // exclusively by these Files.
        let (reader, writer) = unsafe { (File::from_raw_fd(r), File::from_raw_fd(w)) };
        Ok(SelfPipe {
            reader,
            writer,
            pending: AtomicBool::new(false),
        })
    }

    fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            let _ = (&self.writer).write(&[1u8]);
        }
    }

    fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = (&self.reader).read(&mut buf);
        self.pending.store(false, Ordering::SeqCst);
    }
}

/// One loop's cross-thread surface.
struct LoopCore {
    pipe: SelfPipe,
    inbox: Mutex<Inbox>,
}

impl LoopCore {
    fn push_conn(&self, stream: TcpStream) {
        self.inbox.lock().expect("loop inbox").conns.push(stream);
        self.pipe.wake();
    }

    fn push_completion(&self, completion: Completion) {
        self.inbox
            .lock()
            .expect("loop inbox")
            .completions
            .push(completion);
        self.pipe.wake();
    }
}

/// A cloneable handle for delivering asynchronous replies into the
/// loops. Safe to call from any thread.
#[derive(Clone)]
pub struct Completions {
    cores: Vec<Arc<LoopCore>>,
}

impl Completions {
    /// Delivers `bytes` as the pending reply of `token`'s connection,
    /// optionally closing it after the flush. Dropped silently if the
    /// connection is already gone.
    pub fn send(&self, token: ConnToken, bytes: Vec<u8>, close: bool) {
        if let Some(core) = self.cores.get(token.loop_idx as usize) {
            core.push_completion(Completion {
                token,
                bytes,
                close,
            });
        }
    }

    /// Wakes every loop (used after setting the stop flag and by the
    /// scheduler's settle notifier).
    pub fn wake_all(&self) {
        for core in &self.cores {
            core.pipe.wake();
        }
    }
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Close once the write buffer drains.
    closing: bool,
    /// A [`LineOutcome::Pending`] reply is outstanding; buffer any
    /// further complete lines in `deferred` to preserve ordering.
    inflight: bool,
    deferred: VecDeque<String>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            closing: false,
            inflight: false,
            deferred: VecDeque::new(),
        }
    }

    fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }
}

/// Why a connection left the loop.
enum Gone {
    /// Orderly: EOF with nothing left to flush, close-after-reply, or
    /// stop.
    Clean,
    /// A read failed or a line overflowed [`MAX_LINE`].
    ReadError,
    /// A write failed (including the final flush).
    WriteError,
}

/// The event-loop pool: `loops` threads sharing one listener.
pub struct EventLoops {
    cores: Vec<Arc<LoopCore>>,
    stats: Arc<NetStats>,
    stop: Arc<AtomicBool>,
}

impl EventLoops {
    /// Creates `loops` (at least 1) loop cores. Threads start in
    /// [`EventLoops::run`].
    ///
    /// # Errors
    ///
    /// Propagates self-pipe creation failure.
    pub fn new(loops: usize, stop: Arc<AtomicBool>) -> io::Result<EventLoops> {
        let cores = (0..loops.max(1))
            .map(|_| {
                Ok(Arc::new(LoopCore {
                    pipe: SelfPipe::new()?,
                    inbox: Mutex::new(Inbox::default()),
                }))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(EventLoops {
            cores,
            stats: Arc::new(NetStats::default()),
            stop,
        })
    }

    /// The completion-delivery handle.
    pub fn completions(&self) -> Completions {
        Completions {
            cores: self.cores.clone(),
        }
    }

    /// The shared connection counters.
    pub fn net_stats(&self) -> Arc<NetStats> {
        Arc::clone(&self.stats)
    }

    /// Runs the loops until the stop flag fires: loop 0 (the calling
    /// thread) owns the listener; the rest run on scoped threads.
    /// Every connection — idle ones included — is flushed
    /// best-effort and closed on the way out.
    ///
    /// # Errors
    ///
    /// Propagates setting the listener nonblocking. Per-connection
    /// I/O errors are counted, never returned.
    pub fn run(&self, listener: &TcpListener, handler: &Arc<dyn ConnHandler>) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        std::thread::scope(|scope| {
            for (idx, core) in self.cores.iter().enumerate().skip(1) {
                let handler = Arc::clone(handler);
                let stats = Arc::clone(&self.stats);
                let stop = Arc::clone(&self.stop);
                let core = Arc::clone(core);
                scope.spawn(move || {
                    run_loop(idx as u32, &core, None, &[], &handler, &stats, &stop);
                });
            }
            run_loop(
                0,
                &self.cores[0],
                Some(listener),
                &self.cores,
                handler,
                &self.stats,
                &self.stop,
            );
        });
        Ok(())
    }
}

#[allow(clippy::too_many_arguments)]
fn run_loop(
    loop_idx: u32,
    core: &Arc<LoopCore>,
    listener: Option<&TcpListener>,
    all_cores: &[Arc<LoopCore>],
    handler: &Arc<dyn ConnHandler>,
    stats: &Arc<NetStats>,
    stop: &Arc<AtomicBool>,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 1;
    let mut accepted_total: u64 = 0;
    // Scratch vectors rebuilt each cycle; `slots[i]` names the conn
    // polled at `fds[base + i]`.
    let mut fds: Vec<ffi::PollFd> = Vec::new();
    let mut slots: Vec<u64> = Vec::new();

    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }

        fds.clear();
        slots.clear();
        fds.push(ffi::PollFd {
            fd: core.pipe.reader.as_raw_fd(),
            events: ffi::POLLIN,
            revents: 0,
        });
        if let Some(l) = listener {
            fds.push(ffi::PollFd {
                fd: l.as_raw_fd(),
                events: ffi::POLLIN,
                revents: 0,
            });
        }
        let base = fds.len();
        for (&id, conn) in &conns {
            let mut events = ffi::POLLIN;
            if conn.wants_write() {
                events |= ffi::POLLOUT;
            }
            fds.push(ffi::PollFd {
                fd: conn.stream.as_raw_fd(),
                events,
                revents: 0,
            });
            slots.push(id);
        }

        let n = ffi::poll_fds(&mut fds, POLL_TIMEOUT_MS);
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                // Should not happen with valid fds; count and back
                // off rather than spinning.
                NetStats::bump(&stats.conn_errors);
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            continue;
        }

        if stop.load(Ordering::SeqCst) {
            break;
        }

        // 1. Self-pipe: drain the byte first, then the inbox, so a
        //    racing sender either lands in this drain or leaves a
        //    fresh wakeup byte for the next cycle.
        if fds[0].revents != 0 {
            core.pipe.drain();
        }
        let inbox = {
            let mut guard = core.inbox.lock().expect("loop inbox");
            std::mem::take(&mut *guard)
        };
        for stream in inbox.conns {
            let id = next_id;
            next_id += 1;
            conns.insert(id, Conn::new(stream));
        }
        for completion in inbox.completions {
            deliver(&mut conns, completion, loop_idx, handler, stats);
        }

        // 2. Listener: accept everything that is ready, spreading
        //    connections round-robin across the loops.
        if let Some(l) = listener {
            loop {
                match l.accept() {
                    Ok((stream, _)) => {
                        accepted_total += 1;
                        NetStats::bump(&stats.accepted);
                        stats.open.fetch_add(1, Ordering::Relaxed);
                        let _ = stream.set_nodelay(true);
                        if stream.set_nonblocking(true).is_err() {
                            NetStats::bump(&stats.conn_errors);
                            stats.open.fetch_sub(1, Ordering::Relaxed);
                            continue;
                        }
                        let target = (accepted_total % all_cores.len() as u64) as usize;
                        if target == 0 {
                            let id = next_id;
                            next_id += 1;
                            conns.insert(id, Conn::new(stream));
                        } else {
                            all_cores[target].push_conn(stream);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // Transient accept failure (e.g. fd
                        // exhaustion): count it and let the next
                        // cycle retry.
                        NetStats::bump(&stats.conn_errors);
                        break;
                    }
                }
            }
        }

        // 3. Ready connections.
        for (slot, &id) in slots.iter().enumerate() {
            let revents = fds[base + slot].revents;
            if revents == 0 {
                continue;
            }
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            let token = ConnToken {
                loop_idx,
                conn_id: id,
            };
            let mut gone: Option<Gone> = None;
            if revents & (ffi::POLLERR | ffi::POLLNVAL) != 0 {
                gone = Some(Gone::ReadError);
            }
            if gone.is_none() && revents & (ffi::POLLIN | ffi::POLLHUP) != 0 {
                gone = read_ready(conn, token, handler);
            }
            if gone.is_none() && conn.wants_write() {
                gone = flush(conn);
            }
            if gone.is_none() && conn.closing && !conn.wants_write() {
                gone = Some(Gone::Clean);
            }
            if let Some(reason) = gone {
                conns.remove(&id);
                retire(stats, handler, token, reason);
            }
        }

        if loop_idx == 0 {
            handler.tick();
        }
    }

    // Stop: flush what we can, then close everything — including
    // idle connections that never sent a byte. This is the shutdown
    // guarantee the old thread-per-connection front end lacked.
    for (conn_id, mut conn) in conns.drain() {
        let mut reason = Gone::Clean;
        if conn.wants_write() {
            let _ = conn.stream.set_nonblocking(false);
            let _ = conn
                .stream
                .set_write_timeout(Some(std::time::Duration::from_millis(500)));
            if conn.stream.write_all(&conn.wbuf[conn.wpos..]).is_err() {
                reason = Gone::WriteError;
            }
        }
        retire(stats, handler, ConnToken { loop_idx, conn_id }, reason);
    }
}

/// Applies an asynchronous reply to its connection, then replays any
/// lines that arrived while the reply was pending.
fn deliver(
    conns: &mut HashMap<u64, Conn>,
    completion: Completion,
    loop_idx: u32,
    handler: &Arc<dyn ConnHandler>,
    stats: &Arc<NetStats>,
) {
    let id = completion.token.conn_id;
    let Some(conn) = conns.get_mut(&id) else {
        return; // Connection closed while the reply was in flight.
    };
    conn.inflight = false;
    conn.wbuf.extend_from_slice(&completion.bytes);
    if completion.close {
        conn.closing = true;
        conn.deferred.clear();
    }
    let token = ConnToken {
        loop_idx,
        conn_id: id,
    };
    let mut gone = None;
    while gone.is_none() && !conn.inflight && !conn.closing {
        let Some(line) = conn.deferred.pop_front() else {
            break;
        };
        gone = dispatch_line(conn, token, &line, handler);
    }
    if gone.is_none() {
        gone = flush(conn);
    }
    if gone.is_none() && conn.closing && !conn.wants_write() {
        gone = Some(Gone::Clean);
    }
    if let Some(reason) = gone {
        conns.remove(&id);
        retire(stats, handler, token, reason);
    }
}

/// Accounts for a connection the caller just removed from its loop.
fn retire(stats: &NetStats, handler: &Arc<dyn ConnHandler>, token: ConnToken, reason: Gone) {
    match reason {
        Gone::Clean => {}
        Gone::ReadError => NetStats::bump(&stats.conn_errors),
        Gone::WriteError => NetStats::bump(&stats.write_errors),
    }
    stats.open.fetch_sub(1, Ordering::Relaxed);
    handler.on_close(token);
}

/// Reads everything available, splits complete lines, and hands them
/// to the handler (or the deferred queue while a reply is pending).
fn read_ready(conn: &mut Conn, token: ConnToken, handler: &Arc<dyn ConnHandler>) -> Option<Gone> {
    let mut chunk = [0u8; 4096];
    let mut saw_eof = false;
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                saw_eof = true;
                break;
            }
            Ok(n) => {
                if conn.rbuf.len() + n > MAX_LINE {
                    return Some(Gone::ReadError);
                }
                conn.rbuf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Some(Gone::ReadError),
        }
    }

    while let Some(pos) = conn.rbuf.iter().position(|&b| b == b'\n') {
        let raw: Vec<u8> = conn.rbuf.drain(..=pos).collect();
        let Ok(mut line) = String::from_utf8(raw) else {
            return Some(Gone::ReadError);
        };
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        if line.trim().is_empty() {
            continue;
        }
        if conn.inflight {
            conn.deferred.push_back(line);
            continue;
        }
        if conn.closing {
            break;
        }
        if let Some(gone) = dispatch_line(conn, token, &line, handler) {
            return Some(gone);
        }
    }

    if saw_eof {
        if conn.inflight || conn.wants_write() {
            // Half-close: the client is done talking but still owed a
            // reply; finish the flush, then drop.
            conn.closing = true;
        } else {
            return Some(Gone::Clean);
        }
    }
    None
}

fn dispatch_line(
    conn: &mut Conn,
    token: ConnToken,
    line: &str,
    handler: &Arc<dyn ConnHandler>,
) -> Option<Gone> {
    match handler.on_line(token, line) {
        LineOutcome::Reply(bytes) => {
            conn.wbuf.extend_from_slice(&bytes);
            None
        }
        LineOutcome::ReplyAndClose(bytes) => {
            conn.wbuf.extend_from_slice(&bytes);
            conn.closing = true;
            conn.deferred.clear();
            None
        }
        LineOutcome::Pending => {
            conn.inflight = true;
            None
        }
    }
}

/// Writes as much of the buffered output as the socket accepts.
fn flush(conn: &mut Conn) -> Option<Gone> {
    while conn.wants_write() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return Some(Gone::WriteError),
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Some(Gone::WriteError),
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if conn.wpos > (64 << 10) {
        // Reclaim flushed bytes without waiting for full drain.
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    /// Echoes each line back; `close` closes after replying; `later`
    /// answers asynchronously from another thread.
    struct Echo {
        completions: Mutex<Option<Completions>>,
    }

    impl ConnHandler for Echo {
        fn on_line(&self, token: ConnToken, line: &str) -> LineOutcome {
            match line {
                "close" => LineOutcome::ReplyAndClose(b"bye\n".to_vec()),
                "later" => {
                    let completions = self
                        .completions
                        .lock()
                        .expect("completions")
                        .clone()
                        .expect("wired");
                    std::thread::spawn(move || {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        completions.send(token, b"deferred\n".to_vec(), false);
                    });
                    LineOutcome::Pending
                }
                other => LineOutcome::Reply(format!("echo {other}\n").into_bytes()),
            }
        }
    }

    struct Harness {
        addr: std::net::SocketAddr,
        stop: Arc<AtomicBool>,
        completions: Completions,
        stats: Arc<NetStats>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    impl Harness {
        fn start(loops: usize) -> Harness {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let stop = Arc::new(AtomicBool::new(false));
            let pool = EventLoops::new(loops, Arc::clone(&stop)).expect("loops");
            let completions = pool.completions();
            let stats = pool.net_stats();
            let handler: Arc<dyn ConnHandler> = Arc::new(Echo {
                completions: Mutex::new(Some(completions.clone())),
            });
            let thread = std::thread::spawn(move || {
                pool.run(&listener, &handler).expect("run");
            });
            Harness {
                addr,
                stop,
                completions,
                stats,
                thread: Some(thread),
            }
        }

        fn stop(mut self) {
            self.stop.store(true, Ordering::SeqCst);
            self.completions.wake_all();
            self.thread
                .take()
                .expect("running")
                .join()
                .expect("loops exit");
        }
    }

    fn ask(stream: &TcpStream, reader: &mut impl BufRead, line: &str) -> String {
        let mut writer = stream;
        writeln!(writer, "{line}").expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("recv");
        reply.trim_end().to_string()
    }

    #[test]
    fn echoes_lines_across_multiple_loops() {
        let h = Harness::start(2);
        for i in 0..6 {
            let stream = TcpStream::connect(h.addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            assert_eq!(
                ask(&stream, &mut reader, &format!("m{i}")),
                format!("echo m{i}")
            );
        }
        h.stop();
    }

    #[test]
    fn pending_replies_preserve_order_with_deferred_lines() {
        let h = Harness::start(1);
        let stream = TcpStream::connect(h.addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        // Send the async request plus two more lines before any reply
        // comes back; replies must arrive in request order.
        let mut writer = &stream;
        writeln!(writer, "later").expect("send");
        writeln!(writer, "a").expect("send");
        writeln!(writer, "b").expect("send");
        let mut got = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).expect("recv");
            got.push(line.trim_end().to_string());
        }
        assert_eq!(got, vec!["deferred", "echo a", "echo b"]);
        h.stop();
    }

    #[test]
    fn reply_and_close_drains_then_closes() {
        let h = Harness::start(1);
        let stream = TcpStream::connect(h.addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        assert_eq!(ask(&stream, &mut reader, "close"), "bye");
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).expect("eof"), 0);
        h.stop();
    }

    #[test]
    fn stop_closes_idle_connections_promptly() {
        let h = Harness::start(2);
        // Connect clients that never send anything.
        let idle: Vec<TcpStream> = (0..8)
            .map(|_| TcpStream::connect(h.addr).expect("connect"))
            .collect();
        // Let the loops pick them up.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let started = std::time::Instant::now();
        h.stop();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "stop must not wait on silent clients"
        );
        drop(idle);
    }

    #[test]
    fn oversized_lines_count_a_conn_error() {
        let h = Harness::start(1);
        let stream = TcpStream::connect(h.addr).expect("connect");
        let huge = vec![b'x'; MAX_LINE + 4096];
        let _ = (&stream).write_all(&huge);
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        // The server closes without replying.
        assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0);
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(h.stats.conn_errors.load(Ordering::Relaxed) >= 1);
        h.stop();
    }
}

//! The TCP daemon: a nonblocking accept loop plus N connection workers,
//! all running as long-lived jobs on one [`mtd_par::Pool`] scope.
//!
//! Backpressure policy (DESIGN.md §15): accepted connections enter a
//! bounded queue; when the queue is full the connection receives a
//! structured `overloaded` error frame and is closed — never silently
//! dropped. Per-connection I/O carries a timeout so a stalled peer
//! cannot pin a worker forever. Shutdown (`{"op":"shutdown"}` or
//! [`ServerHandle::shutdown`]) stops the accept loop, drains the queue,
//! finishes in-flight connections, and joins every worker.

use crate::protocol::{self, ErrorCode, Request};
use mtd_core::ServingPlan;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Daemon configuration; `Default` gives sane local-use values.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7979` (port 0 picks a free port).
    pub addr: String,
    /// Connection-handling workers (the pool runs `workers + 1` jobs:
    /// these plus the accept loop).
    pub workers: usize,
    /// Accepted connections waiting for a worker before new arrivals
    /// are refused with an `overloaded` frame.
    pub max_pending: usize,
    /// Per-request cap on generated sessions (0 = unlimited); larger
    /// windows get a `too_large` frame.
    pub max_sessions: u64,
    /// Longest accepted request line, bytes.
    pub max_line_bytes: usize,
    /// Per-connection read/write timeout, seconds.
    pub io_timeout_s: f64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            max_pending: 64,
            max_sessions: 5_000_000,
            max_line_bytes: 1 << 20,
            io_timeout_s: 30.0,
        }
    }
}

/// Counters reported when the daemon exits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered (ok frames).
    pub requests: u64,
    /// Error frames written (bad requests, too-large windows, ...).
    pub errors: u64,
    /// Connections refused with an `overloaded` frame.
    pub rejected: u64,
    /// Sessions generated across all `sample` responses.
    pub sessions: u64,
}

struct Shared {
    plan: ServingPlan,
    config: ServeConfig,
    shutdown: AtomicBool,
    queue: Mutex<VecDeque<TcpStream>>,
    cv: Condvar,
    requests: AtomicU64,
    errors: AtomicU64,
    rejected: AtomicU64,
    sessions: AtomicU64,
    /// Seed source for unseeded sample requests (responses echo the
    /// assigned seed, but assignment order depends on scheduling — only
    /// explicit seeds are deterministic).
    seed_counter: AtomicU64,
}

/// Assigned seeds are the counter's low 53 bits, so the echoed seed is
/// an exact JSON integer a client can send back (`Json::as_u64` refuses
/// 2^53 and above). The increment is odd: the period stays 2^53.
const SEED_MASK: u64 = (1 << 53) - 1;

impl Shared {
    fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            sessions: self.sessions.load(Ordering::Relaxed),
        }
    }
}

/// A running daemon. Dropping the handle shuts the daemon down and
/// joins it; use [`ServerHandle::shutdown`] + [`ServerHandle::join`]
/// for an orderly stop that returns the final counters.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful stop: no new connections, queued and
    /// in-flight connections finish.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.cv_notify();
    }

    fn cv_notify(&self) {
        let _guard = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        self.shared.cv.notify_all();
    }

    /// Shuts down (if not already requested) and waits for the daemon
    /// to exit, returning its final counters.
    pub fn join(mut self) -> ServeStats {
        self.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.shared.stats()
    }

    /// Blocks until the daemon exits on its own (a protocol
    /// `shutdown` request), returning its final counters. Unlike
    /// [`join`](ServerHandle::join), this does not request shutdown —
    /// it is how `mtd-traffic serve` parks its main thread.
    pub fn wait(mut self) -> ServeStats {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.shared.stats()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds the listener and starts the daemon on a background thread.
pub fn start(plan: ServingPlan, config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    // Unseeded requests get distinct seeds per process; derive the base
    // from wall time so two daemon runs don't replay each other.
    let seed_base = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let workers = config.workers.max(1);
    let shared = Arc::new(Shared {
        plan,
        config,
        shutdown: AtomicBool::new(false),
        queue: Mutex::new(VecDeque::new()),
        cv: Condvar::new(),
        requests: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        sessions: AtomicU64::new(0),
        seed_counter: AtomicU64::new(seed_base),
    });
    let shared_for_thread = Arc::clone(&shared);
    let thread = std::thread::Builder::new()
        .name("mtd-serve".into())
        .spawn(move || {
            mtd_telemetry::heartbeat::set_stage("serve");
            // One long-lived job per pool worker: the accept loop plus
            // `workers` connection handlers. The pool seeds jobs
            // round-robin, so with workers+1 threads every job runs
            // concurrently for the life of the daemon.
            let pool = mtd_par::Pool::new(workers + 1);
            let shared = &shared_for_thread;
            pool.scope(|scope| {
                scope.spawn(|| accept_loop(&listener, shared));
                for _ in 0..workers {
                    scope.spawn(|| handler_loop(shared));
                }
            });
        })?;
    Ok(ServerHandle {
        addr,
        shared,
        thread: Some(thread),
    })
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => enqueue(stream, shared),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // Wake every handler so they observe the flag and drain out.
    let _guard = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    shared.cv.notify_all();
}

fn enqueue(mut stream: TcpStream, shared: &Shared) {
    let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    if queue.len() >= shared.config.max_pending {
        drop(queue);
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        mtd_telemetry::count("serve.rejected", 1);
        // Backpressure is explicit: a structured frame, not a dropped
        // connection.
        send_error(
            &mut stream,
            ErrorCode::Overloaded,
            "accept queue full; retry later",
        );
        return;
    }
    queue.push_back(stream);
    shared.cv.notify_one();
}

fn handler_loop(shared: &Shared) {
    loop {
        let next = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(stream) = queue.pop_front() {
                    break Some(stream);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (q, _timeout) = shared
                    .cv
                    .wait_timeout(queue, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner());
                queue = q;
            }
        };
        match next {
            Some(stream) => handle_connection(stream, shared),
            None => return,
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let timeout = Duration::from_secs_f64(shared.config.io_timeout_s.max(0.01));
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    // Each response is one small write; with Nagle on, request/response
    // round-trips stall on the peer's delayed ACK (~40 ms per request).
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    // One reply buffer for the connection: each reply is appended in
    // place, newline included, and written with one call.
    let mut reply = String::new();
    loop {
        let line = match read_line_capped(&mut reader, shared.config.max_line_bytes) {
            Ok(Some(line)) => line,
            Ok(None) => return, // EOF: client is done
            Err(TooLong) => {
                shared.errors.fetch_add(1, Ordering::Relaxed);
                let message = format!(
                    "request line exceeds {} bytes",
                    shared.config.max_line_bytes
                );
                send_error(&mut writer, ErrorCode::TooLarge, &message);
                return; // framing is lost; drop the connection
            }
            Err(Io(_)) => return, // timeout or reset
        };
        if line.trim().is_empty() {
            continue;
        }
        reply.clear();
        handle_request(&line, shared, &mut reply);
        reply.push('\n');
        if writer.write_all(reply.as_bytes()).is_err() {
            return;
        }
    }
}

/// Writes one id-less error frame line to a connection about to close.
fn send_error(stream: &mut TcpStream, code: ErrorCode, message: &str) {
    let mut frame = String::new();
    protocol::error_frame(&mut frame, None, code, message);
    frame.push('\n');
    let _ = stream.write_all(frame.as_bytes());
}

/// Appends the reply to one request line to `out`, updating counters. A
/// request that fails gets only its error frame.
fn handle_request(line: &str, shared: &Shared, out: &mut String) {
    let _span = mtd_telemetry::span!("serve.request");
    let mut id = None;
    let result = protocol::parse_request(line).and_then(|frame| {
        id = frame.id;
        let id = id.as_deref();
        match frame.request {
            Request::Ping => protocol::render_ack(out, id, "ping"),
            Request::Stats => protocol::render_stats(out, &shared.plan, id),
            Request::Params => protocol::render_params(out, &shared.plan, id),
            Request::Shutdown => {
                shared.shutdown.store(true, Ordering::SeqCst);
                let _guard = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                shared.cv.notify_all();
                protocol::render_ack(out, id, "shutdown");
            }
            Request::Sample(req) => {
                let seed = req.seed.unwrap_or_else(|| {
                    // SplitMix64-style increment keeps assigned seeds spread
                    // out even though they come from a plain counter.
                    shared
                        .seed_counter
                        .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
                        & SEED_MASK
                });
                let max = shared.config.max_sessions;
                let generated = protocol::render_sample(out, &shared.plan, id, &req, seed, max)?;
                shared.sessions.fetch_add(generated, Ordering::Relaxed);
                mtd_telemetry::count("serve.sessions", generated);
                mtd_telemetry::observe("serve.request.sessions", generated as f64);
            }
        }
        Ok(())
    });
    let (total, counter) = match result {
        Ok(()) => (&shared.requests, "serve.requests"),
        Err((code, message)) => {
            protocol::error_frame(out, id.as_deref(), code, &message);
            (&shared.errors, "serve.errors")
        }
    };
    total.fetch_add(1, Ordering::Relaxed);
    mtd_telemetry::count(counter, 1);
}

use ReadError::{Io, TooLong};

enum ReadError {
    TooLong,
    Io(#[allow(dead_code)] std::io::Error),
}

/// Reads one `\n`-terminated line, refusing lines longer than `cap`
/// (protects the daemon from unbounded buffering on hostile input: at
/// most `cap + 1` bytes are read). Returns `Ok(None)` on clean EOF.
fn read_line_capped<R: BufRead>(reader: &mut R, cap: usize) -> Result<Option<String>, ReadError> {
    let mut line = Vec::new();
    let limit = (cap as u64).saturating_add(1);
    if reader
        .take(limit)
        .read_until(b'\n', &mut line)
        .map_err(Io)?
        == 0
    {
        return Ok(None);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    } else if line.len() > cap {
        return Err(TooLong);
    }
    Ok(Some(String::from_utf8_lossy(&line).into_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_capped_at_their_content_length() {
        let read = |input: &[u8], cap| match read_line_capped(&mut &input[..], cap) {
            Ok(line) => Ok(line),
            Err(TooLong) => Err("too long"),
            Err(Io(_)) => Err("io"),
        };
        assert_eq!(read(b"abcd\nrest", 4), Ok(Some("abcd".into())));
        assert_eq!(read(b"abcde\n", 4), Err("too long"));
        assert_eq!(read(b"abcde", 4), Err("too long"));
        // A last line without its newline still counts.
        assert_eq!(read(b"abcd", 4), Ok(Some("abcd".into())));
        assert_eq!(read(b"\n", 0), Ok(Some(String::new())));
        assert_eq!(read(b"", 4), Ok(None));
        assert_eq!(read(b"ab\n", usize::MAX), Ok(Some("ab".into())));
    }
}

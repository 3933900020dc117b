//! The event-driven connection layer: one thread, one epoll instance,
//! nonblocking accept/read/write, and a per-connection state machine that
//! speaks HTTP/1.1 keep-alive with pipelining.
//!
//! ```text
//!               ┌──────────────────────────── event-loop thread ──┐
//! accept ──► Conn { parser ─► Handler::handle ─► out buf } ─► socket
//!               └─────────────────────────────────────────────────┘
//! ```
//!
//! A [`Handler`] answers every request inline, on the loop thread, so it
//! must never block: the daemon's handler only enqueues jobs and reads
//! state, while simulation runs on its Condvar worker pool and clients
//! poll for the outcome. Each response — including the 500 for a
//! panicking handler and the error response that ends a connection after
//! a parse failure — is serialized into the connection's output buffer as
//! soon as its request is parsed, so pipelined responses leave in request
//! order by construction.
//!
//! Abuse containment lives here because only the loop owns time: a
//! connection with a half-received request older than `read_deadline`
//! gets a 408 and is closed; a fully idle connection older than
//! `idle_timeout` is dropped silently; head/body size violations are
//! mapped to 431/413 by the parser. A connection whose outbound buffer
//! exceeds `OUT_BUF_CAP` (4 MiB) stops being read (backpressure) until the
//! client drains it.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::http::{error_response, Request, RequestParser, Response};
use crate::poll::{Epoll, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Epoll token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// First connection token; tokens are monotonic and never reused, so a
/// stale event can never be delivered to a recycled connection.
const TOKEN_FIRST_CONN: u64 = 1;

/// Backpressure threshold: stop reading a connection whose unflushed
/// output exceeds this many bytes.
const OUT_BUF_CAP: usize = 4 * 1024 * 1024;

/// Deadline/idle sweep and gauge refresh period.
const TICK: Duration = Duration::from_millis(100);

/// Routes one parsed request. Implemented by the daemon and by test
/// fakes; the loop itself knows nothing about endpoints.
pub trait Handler: Send + Sync {
    /// Answers `request` inline. Runs on the loop thread, so it must not
    /// block; a panic becomes a 500 for this request only.
    fn handle(&self, request: Request) -> Response;
}

/// Connection-state gauges, refreshed every `TICK` (100 ms) by the loop
/// and read by the `/metrics` renderer. A connection counts as *writing*
/// if it has unflushed responses, else *reading* if a request is
/// half-received, else *idle*.
#[derive(Default)]
pub struct ConnGauges {
    /// Open connections.
    pub open: AtomicU64,
    /// Connections with a partially received request.
    pub reading: AtomicU64,
    /// Connections with unflushed output.
    pub writing: AtomicU64,
    /// Connections with no request or response in flight.
    pub idle: AtomicU64,
    /// Accepts refused because `max_conns` was reached (counter).
    pub rejected: AtomicU64,
}

/// Event-loop construction parameters.
pub struct LoopConfig {
    /// The bound listener (the loop makes it nonblocking).
    pub listener: TcpListener,
    /// Request router.
    pub handler: Arc<dyn Handler>,
    /// 408 deadline for half-received requests.
    pub read_deadline: Duration,
    /// Silent-close deadline for fully idle connections.
    pub idle_timeout: Duration,
    /// Accept cap; connections beyond it are refused at accept time.
    pub max_conns: usize,
    /// How long the loop keeps serving after `is_drained` first reports
    /// true, so clients can collect final states and metrics.
    pub linger: Duration,
    /// Polled every tick; once true (plus linger) the loop exits.
    pub is_drained: Arc<dyn Fn() -> bool + Send + Sync>,
    /// Shared gauge block (usually owned by the server's metrics).
    pub gauges: Arc<ConnGauges>,
}

/// Spawns the event-loop thread. The loop exits `linger` after
/// `is_drained` first returns true; join the handle to wait for that.
pub fn spawn(cfg: LoopConfig) -> io::Result<JoinHandle<()>> {
    cfg.listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    epoll.add(cfg.listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN)?;

    let mut el = EventLoop {
        epoll,
        listener: cfg.listener,
        handler: cfg.handler,
        conns: HashMap::new(),
        next_token: TOKEN_FIRST_CONN,
        read_deadline: cfg.read_deadline,
        idle_timeout: cfg.idle_timeout,
        max_conns: cfg.max_conns,
        linger: cfg.linger,
        is_drained: cfg.is_drained,
        gauges: cfg.gauges,
        linger_deadline: None,
    };
    thread::Builder::new().name("gr-eventloop".into()).spawn(move || el.run())
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Serialized responses awaiting the socket.
    out: Vec<u8>,
    /// Flushed prefix of `out`.
    out_pos: usize,
    /// Last byte of progress in either direction.
    last_activity: Instant,
    /// No further reads/parses (close requested, parse error, EOF, 408).
    /// The connection closes once `out` drains.
    stop_reading: bool,
    /// Interest set currently registered with epoll.
    registered: u32,
}

impl Conn {
    fn interest(&self) -> u32 {
        let mut interest = EPOLLRDHUP;
        if !self.stop_reading && self.out.len() - self.out_pos < OUT_BUF_CAP {
            interest |= EPOLLIN;
        }
        if self.out_pos < self.out.len() {
            interest |= EPOLLOUT;
        }
        interest
    }

    fn should_close(&self) -> bool {
        self.stop_reading && self.out_pos == self.out.len()
    }

    /// Queues `response` behind every earlier one; `close` makes it the
    /// connection's last.
    fn respond(&mut self, response: &Response, close: bool) {
        response.write_into(&mut self.out, !close);
        if close {
            self.stop_reading = true;
        }
    }

    /// Flushes `out` as far as the socket allows.
    fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }
}

struct EventLoop {
    epoll: Epoll,
    listener: TcpListener,
    handler: Arc<dyn Handler>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    read_deadline: Duration,
    idle_timeout: Duration,
    max_conns: usize,
    linger: Duration,
    is_drained: Arc<dyn Fn() -> bool + Send + Sync>,
    gauges: Arc<ConnGauges>,
    linger_deadline: Option<Instant>,
}

impl EventLoop {
    fn run(&mut self) {
        let mut events: Vec<(u64, u32)> = Vec::new();
        let mut next_tick = Instant::now() + TICK;
        loop {
            let timeout =
                next_tick.saturating_duration_since(Instant::now()).as_millis() as i32 + 1;
            events.clear();
            if self.epoll.wait(&mut events, timeout).is_err() {
                return;
            }
            for &(token, ev) in events.iter() {
                match token {
                    TOKEN_LISTENER => self.accept_all(),
                    token => self.conn_event(token, ev),
                }
            }
            let now = Instant::now();
            if now >= next_tick {
                next_tick = now + TICK;
                self.tick(now);
                if self.linger_deadline.is_none() && (self.is_drained)() {
                    self.linger_deadline = Some(now + self.linger);
                }
            }
            if let Some(deadline) = self.linger_deadline {
                if Instant::now() >= deadline {
                    return;
                }
            }
        }
    }

    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= self.max_conns {
                        self.gauges.rejected.fetch_add(1, Ordering::Relaxed);
                        continue; // dropping the stream refuses the client
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    let registered = EPOLLIN | EPOLLRDHUP;
                    if self.epoll.add(stream.as_raw_fd(), token, registered).is_err() {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            parser: RequestParser::new(),
                            out: Vec::new(),
                            out_pos: 0,
                            last_activity: Instant::now(),
                            stop_reading: false,
                            registered,
                        },
                    );
                    self.gauges.open.store(self.conns.len() as u64, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn conn_event(&mut self, token: u64, ev: u32) {
        if ev & (EPOLLERR | EPOLLHUP) != 0 {
            self.drop_conn(token);
            return;
        }
        if ev & (EPOLLIN | EPOLLRDHUP) != 0 && !self.do_read(token) {
            return; // connection dropped mid-read
        }
        self.service_conn(token);
    }

    /// Reads and parses everything available. Returns false if the
    /// connection was dropped.
    fn do_read(&mut self, token: u64) -> bool {
        let handler = Arc::clone(&self.handler);
        let mut buf = [0u8; 16 * 1024];
        let Some(conn) = self.conns.get_mut(&token) else { return false };

        loop {
            if conn.stop_reading || conn.out.len() - conn.out_pos >= OUT_BUF_CAP {
                break;
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.stop_reading = true;
                    break;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.parser.push(&buf[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.drop_conn(token);
                    return false;
                }
            }
        }

        while !conn.stop_reading {
            match conn.parser.pop() {
                Ok(Some(request)) => {
                    let close = request.close;
                    let response = catch_unwind(AssertUnwindSafe(|| handler.handle(request)))
                        .unwrap_or_else(|_| {
                            Response::new(500).with_json("{\"error\": \"handler panicked\"}")
                        });
                    conn.respond(&response, close);
                }
                Ok(None) => break,
                Err(err) => conn.respond(&error_response(&err), true),
            }
        }
        true
    }

    /// Flushes, then closes or re-arms interest.
    fn service_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.flush().is_err() {
            self.drop_conn(token);
            return;
        }
        if conn.should_close() {
            self.drop_conn(token);
            return;
        }
        let want = conn.interest();
        if want != conn.registered {
            let fd = conn.stream.as_raw_fd();
            if self.epoll.rearm(fd, token, want).is_ok() {
                conn.registered = want;
            } else {
                self.drop_conn(token);
            }
        }
    }

    fn drop_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.epoll.remove(conn.stream.as_raw_fd());
            self.gauges.open.store(self.conns.len() as u64, Ordering::Relaxed);
        }
    }

    /// Deadline sweep + gauge refresh.
    fn tick(&mut self, now: Instant) {
        let mut timed_out = Vec::new();
        let mut idle_out = Vec::new();
        let (mut reading, mut writing, mut idle) = (0u64, 0u64, 0u64);
        for (&token, conn) in &self.conns {
            if conn.out_pos < conn.out.len() {
                writing += 1;
            } else if conn.parser.has_partial() {
                reading += 1;
                if now.duration_since(conn.last_activity) > self.read_deadline {
                    timed_out.push(token);
                }
            } else {
                idle += 1;
                if !conn.stop_reading && now.duration_since(conn.last_activity) > self.idle_timeout
                {
                    idle_out.push(token);
                }
            }
        }
        self.gauges.open.store(self.conns.len() as u64, Ordering::Relaxed);
        self.gauges.reading.store(reading, Ordering::Relaxed);
        self.gauges.writing.store(writing, Ordering::Relaxed);
        self.gauges.idle.store(idle, Ordering::Relaxed);

        for token in timed_out {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.respond(
                    &Response::new(408).with_json("{\"error\": \"read deadline exceeded\"}"),
                    true,
                );
                self.service_conn(token);
            }
        }
        for token in idle_out {
            self.drop_conn(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;
    use std::sync::atomic::AtomicBool;

    /// Reads exactly one HTTP response off a blocking stream.
    fn read_response(stream: &mut TcpStream) -> (u16, Vec<(String, String)>, Vec<u8>) {
        let mut raw = Vec::new();
        let mut byte = [0u8; 1];
        // Head, one byte at a time (tests only; keeps framing exact).
        while !raw.ends_with(b"\r\n\r\n") {
            assert_eq!(stream.read(&mut byte).expect("read head"), 1, "EOF in head");
            raw.push(byte[0]);
        }
        let head = String::from_utf8(raw).expect("UTF-8 head");
        let status: u16 = head
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .expect("status");
        let headers: Vec<(String, String)> = head
            .lines()
            .skip(1)
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        let len: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .map(|(_, v)| v.parse().expect("length"))
            .unwrap_or(0);
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body).expect("body");
        (status, headers, body)
    }

    /// Echoes the request path; panics on `/panic`.
    struct EchoHandler;
    impl Handler for EchoHandler {
        fn handle(&self, request: Request) -> Response {
            assert_ne!(request.path, "/panic", "handler asked to panic");
            Response::json(format!("{{\"path\": \"{}\"}}", request.path))
        }
    }

    fn start_loop(
        handler: Arc<dyn Handler>,
        read_deadline: Duration,
    ) -> (std::net::SocketAddr, Arc<AtomicBool>, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let done = Arc::new(AtomicBool::new(false));
        let done_probe = Arc::clone(&done);
        let join = spawn(LoopConfig {
            listener,
            handler,
            read_deadline,
            idle_timeout: Duration::from_secs(30),
            max_conns: 64,
            linger: Duration::from_millis(10),
            is_drained: Arc::new(move || done_probe.load(Ordering::Relaxed)),
            gauges: Arc::new(ConnGauges::default()),
        })
        .expect("spawn loop");
        (addr, done, join)
    }

    fn finish(done: &Arc<AtomicBool>, join: JoinHandle<()>) {
        done.store(true, Ordering::Relaxed);
        join.join().expect("loop thread");
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_connection() {
        let (addr, done, join) = start_loop(Arc::new(EchoHandler), Duration::from_secs(5));
        let mut stream = TcpStream::connect(addr).expect("connect");
        for path in ["/a", "/b", "/c"] {
            stream.write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes()).expect("send");
            let (status, headers, body) = read_response(&mut stream);
            assert_eq!(status, 200);
            assert_eq!(body, format!("{{\"path\": \"{path}\"}}").as_bytes());
            let conn = headers.iter().find(|(k, _)| k == "connection").expect("Connection");
            assert_eq!(conn.1, "keep-alive");
        }
        finish(&done, join);
    }

    #[test]
    fn pipelined_responses_come_back_in_request_order() {
        let (addr, done, join) = start_loop(Arc::new(EchoHandler), Duration::from_secs(5));
        let mut stream = TcpStream::connect(addr).expect("connect");
        // Three requests in one write: responses must come back in
        // request order, and the last one's close must be honored.
        stream
            .write_all(
                b"GET /w HTTP/1.1\r\n\r\nGET /x HTTP/1.1\r\n\r\n\
                  GET /y HTTP/1.1\r\nConnection: close\r\n\r\n",
            )
            .expect("send");
        let paths: Vec<String> = (0..3)
            .map(|_| {
                let (status, _, body) = read_response(&mut stream);
                assert_eq!(status, 200);
                String::from_utf8(body).expect("UTF-8")
            })
            .collect();
        assert_eq!(paths, ["{\"path\": \"/w\"}", "{\"path\": \"/x\"}", "{\"path\": \"/y\"}"]);
        // Connection: close honored — EOF follows the last response.
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("EOF");
        assert!(rest.is_empty(), "bytes after close: {rest:?}");
        finish(&done, join);
    }

    #[test]
    fn handler_panic_becomes_a_500_and_the_connection_survives() {
        let (addr, done, join) = start_loop(Arc::new(EchoHandler), Duration::from_secs(5));
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"GET /panic HTTP/1.1\r\n\r\nGET /after HTTP/1.1\r\n\r\n").expect("send");
        let (status, headers, body) = read_response(&mut stream);
        assert_eq!(status, 500);
        assert!(String::from_utf8_lossy(&body).contains("handler panicked"));
        let conn = headers.iter().find(|(k, _)| k == "connection").expect("Connection");
        assert_eq!(conn.1, "keep-alive", "a panic must not end the connection");
        let (status, _, body) = read_response(&mut stream);
        assert_eq!(status, 200);
        assert_eq!(body, b"{\"path\": \"/after\"}");
        // The connection keeps serving new requests after the panic.
        stream.write_all(b"GET /later HTTP/1.1\r\n\r\n").expect("send");
        let (status, _, body) = read_response(&mut stream);
        assert_eq!(status, 200);
        assert_eq!(body, b"{\"path\": \"/later\"}");
        finish(&done, join);
    }

    #[test]
    fn stalled_request_gets_408_and_close() {
        let (addr, done, join) = start_loop(Arc::new(EchoHandler), Duration::from_millis(150));
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"GET /half HTTP/1.1\r\nX-Par").expect("send partial");
        let (status, headers, _) = read_response(&mut stream);
        assert_eq!(status, 408);
        let conn = headers.iter().find(|(k, _)| k == "connection").expect("Connection");
        assert_eq!(conn.1, "close");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("EOF");
        assert!(rest.is_empty());
        finish(&done, join);
    }
}

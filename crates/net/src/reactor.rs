//! The network reactor: one thread, one `epoll`, every connection.
//!
//! ```text
//!             ┌───────────────────────────── reactor thread ──┐
//!   accept ──▶│ epoll (level-triggered)                       │
//!   sockets ─▶│   readable ─▶ Conn::on_bytes ─▶ ConnEvents ───┼─▶ Session::submit_callback
//!             │   writable ─▶ flush write buffer              │         (serve worker pool)
//!   eventfd ─▶│   wake     ─▶ drain completion queue ─────────┼─◀ callback: push + signal
//!             └───────────────────────────────────────────────┘
//! ```
//!
//! The reactor never blocks on the engine and the engine never touches a
//! socket: a statement crosses from socket to serving layer as a
//! [`Session::submit_callback`] whose callback — running on the serve
//! worker that finished the query — pushes a `Completion` into a
//! mutex-protected queue and signals the reactor's `eventfd`.  The
//! reactor drains that queue, encodes the reply frames, and hands them to
//! the connection state machine, which releases them in submission order.
//!
//! Backpressure is wired end to end: while a connection's reply bytes
//! aren't draining (write backlog ≥ the high watermark) or its pipeline
//! is full, [`Conn::wants_read`] goes false and the reactor removes
//! `EPOLLIN` interest — the client's TCP window fills instead of server
//! memory.  Admission control and shedding stay where they were, in
//! `tcudb-serve`: an overloaded submission comes back synchronously as
//! [`TcuError::Overloaded`] and leaves as a typed error frame.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tcudb_core::{QueryOutput, TcuDb};
use tcudb_serve::{ServeConfig, Server, ServerStats, Session};
use tcudb_types::sync::locked;
use tcudb_types::{TcuError, TcuResult};

use crate::conn::{Conn, ConnConfig, ConnEvent};
use crate::frame::{encode_error, encode_result, BATCH_ROWS};
use crate::sys::{Epoll, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Network front-end configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Listen address; port `0` picks a free one (see
    /// [`NetServer::local_addr`]).
    pub addr: String,
    /// Connection cap: an accept beyond it is answered with a typed
    /// `Overloaded` error frame and closed.
    pub max_connections: usize,
    /// Close connections idle (no frame in either direction) this long;
    /// `None` never idles out.
    pub idle_timeout: Option<Duration>,
    /// Per-connection protocol tunables.
    pub conn: ConnConfig,
    /// The serving layer underneath (workers, admission, shedding,
    /// deadlines).
    pub serve: ServeConfig,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 1024,
            idle_timeout: Some(Duration::from_secs(60)),
            conn: ConnConfig::default(),
            serve: ServeConfig::default(),
        }
    }
}

/// Counters describing the reactor since start.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections refused at the cap (answered `Overloaded`, closed).
    pub rejected: u64,
    /// Connections closed by the idle timeout.
    pub idle_closed: u64,
    /// Connections open right now.
    pub active: u64,
}

/// One finished statement travelling worker → reactor.
struct Completion {
    token: u64,
    id: u64,
    result: TcuResult<QueryOutput>,
}

struct NetShared {
    /// Completions queued for the reactor.
    // lint: leaf-lock held only for the push/drain itself, never while
    // calling into serve or the engine
    completions: Mutex<Vec<Completion>>,
    wake: EventFd,
    stop: AtomicBool,
    /// A crash-style stop (tests only): drop sockets without `Goodbye`
    /// frames and the serving layer without its shutdown checkpoint.
    kill: AtomicBool,
    accepted: AtomicU64,
    rejected: AtomicU64,
    idle_closed: AtomicU64,
    active: AtomicU64,
}

/// A TCP front end over a [`Server`]: listener, reactor thread, and the
/// serving worker pool it feeds.
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<NetShared>,
    reactor: Option<JoinHandle<ServerStats>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .finish()
    }
}

fn io_err(context: &str, e: std::io::Error) -> TcuError {
    TcuError::Io(format!("{context}: {e}"))
}

impl NetServer {
    /// Bind, start the serving worker pool, and spawn the reactor.
    pub fn start(db: Arc<TcuDb>, config: NetConfig) -> TcuResult<NetServer> {
        let listener = TcpListener::bind(&config.addr).map_err(|e| io_err("bind listener", e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| io_err("set listener non-blocking", e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| io_err("read listener address", e))?;
        let server = Server::try_start(db, config.serve.clone())?;
        let epoll = Epoll::new().map_err(|e| io_err("epoll_create1", e))?;
        let wake = EventFd::new().map_err(|e| io_err("eventfd", e))?;
        let shared = Arc::new(NetShared {
            completions: Mutex::new(Vec::new()),
            wake,
            stop: AtomicBool::new(false),
            kill: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            idle_closed: AtomicU64::new(0),
            active: AtomicU64::new(0),
        });
        epoll
            .add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
            .map_err(|e| io_err("register listener", e))?;
        epoll
            .add(shared.wake.raw_fd(), EPOLLIN, TOKEN_WAKE)
            .map_err(|e| io_err("register wake eventfd", e))?;
        let reactor = Reactor {
            listener,
            epoll,
            shared: Arc::clone(&shared),
            server,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            config,
        };
        let handle = std::thread::Builder::new()
            .name("tcudb-net-reactor".to_string())
            .spawn(move || reactor.run())
            .map_err(|e| TcuError::Execution(format!("could not spawn the reactor: {e}")))?;
        Ok(NetServer {
            addr,
            shared,
            reactor: Some(handle),
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Reactor counters.
    pub fn stats(&self) -> NetStats {
        NetStats {
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            idle_closed: self.shared.idle_closed.load(Ordering::Relaxed),
            active: self.shared.active.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting, close every connection with a `Goodbye`, drain the
    /// serving layer, and return its final counters.
    pub fn shutdown(mut self) -> TcuResult<ServerStats> {
        self.signal_stop();
        match self.reactor.take().map(JoinHandle::join) {
            Some(Ok(stats)) => Ok(stats),
            Some(Err(_)) => Err(TcuError::Execution("the reactor thread panicked".into())),
            None => Err(TcuError::Execution("the reactor was already joined".into())),
        }
    }

    /// SIGKILL-style stop for crash testing: connections are dropped with
    /// no `Goodbye`, in-flight queries are abandoned, and the serving
    /// layer is torn down **without** its graceful-shutdown checkpoint —
    /// exactly the disk state a real crash leaves, so recovery tests can
    /// drive the socket path through the WAL-replay machinery.
    pub fn kill(mut self) {
        self.shared.kill.store(true, Ordering::SeqCst);
        self.signal_stop();
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
    }

    fn signal_stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = self.shared.wake.signal();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.signal_stop();
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
    }
}

/// One live connection as the reactor sees it.
struct Handle {
    token: u64,
    stream: TcpStream,
    conn: Conn,
    /// One serve [`Session`] per in-flight statement, so a `Cancel`
    /// frame aborts exactly that statement.
    sessions: HashMap<u64, Session>,
    last_activity: Instant,
    interest: u32,
    /// Set on an unrecoverable socket error; the handle is dropped at
    /// the next [`Reactor::finish`].
    dead: bool,
}

struct Reactor {
    listener: TcpListener,
    epoll: Epoll,
    shared: Arc<NetShared>,
    server: Server,
    conns: HashMap<u64, Handle>,
    next_token: u64,
    config: NetConfig,
}

impl Reactor {
    fn run(mut self) -> ServerStats {
        let mut events = Vec::new();
        while !self.shared.stop.load(Ordering::SeqCst) {
            let timeout = self.poll_timeout_ms();
            let n = match self.epoll.wait(&mut events, 64, timeout) {
                Ok(n) => n,
                Err(_) => break,
            };
            // Copy the ready list out so `self` is free to mutate.
            let ready: Vec<(u64, u32)> = events
                .iter()
                .take(n)
                .map(|e| ({ e.data }, { e.events }))
                .collect();
            for (token, mask) in ready {
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => {
                        let _ = self.shared.wake.drain();
                    }
                    _ => self.conn_ready(token, mask),
                }
            }
            self.drain_completions();
            self.sweep_idle();
        }
        if self.shared.kill.load(Ordering::SeqCst) {
            // Crash-style teardown: sockets die mid-stream (clients see
            // EOF, not Goodbye) and the serving layer is dropped without
            // its checkpoint — the WAL alone carries the state forward.
            let stats = self.server.stats();
            self.conns.clear();
            return stats;
        }
        // Orderly shutdown: tell every client, give the frames one
        // best-effort flush, then drop.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(mut h) = self.conns.remove(&token) {
                h.conn.begin_close("server shutting down");
                self.flush(&mut h);
                self.drop_handle(h);
            }
        }
        self.server.shutdown()
    }

    /// Sleep until the next idle deadline (or forever: completions and
    /// shutdown arrive via the wake eventfd).
    fn poll_timeout_ms(&self) -> i32 {
        let Some(idle) = self.config.idle_timeout else {
            return -1;
        };
        let now = Instant::now();
        self.conns
            .values()
            .map(|h| {
                let deadline = h.last_activity + idle;
                deadline.saturating_duration_since(now).as_millis() as i32
            })
            .min()
            .map(|ms| ms.clamp(10, 60_000))
            .unwrap_or(-1)
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        if self.conns.len() >= self.config.max_connections {
            // Refuse with a typed frame, best effort, and close.
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            let bytes = encode_error(
                0,
                &TcuError::Overloaded(format!(
                    "connection limit reached ({})",
                    self.config.max_connections
                )),
            );
            let _ = (&stream).write(&bytes);
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        if self
            .epoll
            .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
            .is_err()
        {
            return;
        }
        self.shared.accepted.fetch_add(1, Ordering::Relaxed);
        self.conns.insert(
            token,
            Handle {
                token,
                stream,
                conn: Conn::new(token, self.config.conn.clone()),
                sessions: HashMap::new(),
                last_activity: Instant::now(),
                interest: EPOLLIN | EPOLLRDHUP,
                dead: false,
            },
        );
        self.shared
            .active
            .store(self.conns.len() as u64, Ordering::Relaxed);
    }

    fn conn_ready(&mut self, token: u64, mask: u32) {
        let Some(mut h) = self.conns.remove(&token) else {
            return;
        };
        // Only an error or a full hang-up means the socket is gone.
        // `EPOLLRDHUP` means "the peer will send no more" — bytes that
        // arrived before (often in this very wakeup) are still there to
        // read, and their replies are still owed: `read_ready` drains to
        // `Ok(0)` and half-closes the state machine instead.
        if mask & (EPOLLERR | EPOLLHUP) != 0 {
            h.dead = true;
        }
        if !h.dead && mask & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.read_ready(&mut h);
        }
        if !h.dead && mask & EPOLLOUT != 0 {
            self.flush(&mut h);
        }
        self.finish(h);
    }

    fn read_ready(&mut self, h: &mut Handle) {
        let mut buf = [0u8; 64 * 1024];
        loop {
            match h.stream.read(&mut buf) {
                Ok(0) => {
                    // Half-close: stop reading (`wants_read` goes false,
                    // so `finish` drops the level-triggered read
                    // interest); `can_drop` holds the connection until
                    // queued replies and in-flight completions are out.
                    h.conn.on_eof();
                    return;
                }
                Ok(n) => {
                    h.last_activity = Instant::now();
                    let events = h.conn.on_bytes(buf.get(..n).unwrap_or(&[]));
                    self.dispatch(h, events);
                    // Eagerly flush small replies (handshakes, sync
                    // errors) without waiting for an EPOLLOUT round trip.
                    self.flush(h);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    h.dead = true;
                    return;
                }
            }
            if !h.conn.wants_read() {
                // Backpressure: stop pulling; unread bytes stay in the
                // kernel buffer and, transitively, in the client's send
                // window.
                return;
            }
        }
    }

    fn dispatch(&mut self, h: &mut Handle, events: Vec<ConnEvent>) {
        for event in events {
            match event {
                ConnEvent::Submit {
                    id,
                    sql,
                    deadline_ms,
                } => {
                    let session = self.server.session();
                    let deadline =
                        (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms as u64));
                    let shared = Arc::clone(&self.shared);
                    let token = h.token;
                    let outcome = session.submit_callback(&sql, deadline, move |result| {
                        locked(&shared.completions).push(Completion { token, id, result });
                        let _ = shared.wake.signal();
                    });
                    match outcome {
                        Ok(()) => {
                            h.sessions.insert(id, session);
                        }
                        // Synchronous rejection (parse error, shed,
                        // shutdown): reply typed, right now, in order.
                        Err(e) => h.conn.complete(id, encode_error(id, &e)),
                    }
                }
                ConnEvent::Prepare { id, sql } => {
                    let snapshot = self.server.db().snapshot();
                    let result = self.server.db().prepare(&sql, &snapshot).map(|_| ());
                    h.conn.finish_prepare(id, sql, result);
                }
                ConnEvent::Cancel { id } => {
                    if let Some(session) = h.sessions.get(&id) {
                        session.cancel();
                    }
                }
                ConnEvent::CancelAll => {
                    for (_, session) in h.sessions.drain() {
                        session.cancel();
                    }
                }
            }
        }
    }

    fn drain_completions(&mut self) {
        loop {
            // Scope the guard: the queue is swapped out under the lock and
            // processed lock-free (dispatch may push new completions).
            let done = {
                let mut queue = locked(&self.shared.completions);
                std::mem::take(&mut *queue)
            };
            if done.is_empty() {
                return;
            }
            for c in done {
                let Some(mut h) = self.conns.remove(&c.token) else {
                    // The connection died while the query ran.
                    continue;
                };
                h.sessions.remove(&c.id);
                let bytes = match c.result {
                    Ok(out) => {
                        let mut b = Vec::new();
                        encode_result(c.id, &out.table, BATCH_ROWS, &mut b);
                        b
                    }
                    Err(e) => encode_error(c.id, &e),
                };
                h.conn.complete(c.id, bytes);
                // The pipeline has room again: frames buffered behind the
                // cap can now proceed.
                let events = h.conn.resume();
                self.dispatch(&mut h, events);
                self.flush(&mut h);
                self.finish(h);
            }
        }
    }

    fn flush(&mut self, h: &mut Handle) {
        while h.conn.wants_write() {
            match h.stream.write(h.conn.outgoing()) {
                Ok(0) => {
                    h.dead = true;
                    return;
                }
                Ok(n) => {
                    h.conn.consume(n);
                    h.last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    h.dead = true;
                    return;
                }
            }
        }
    }

    /// Re-register or retire a handle after any activity.
    fn finish(&mut self, h: Handle) {
        if h.dead || h.conn.can_drop() {
            self.drop_handle(h);
            return;
        }
        let mut h = h;
        let mut desired = 0;
        if h.conn.wants_read() {
            desired |= EPOLLIN | EPOLLRDHUP;
        }
        if h.conn.wants_write() {
            desired |= EPOLLOUT;
        }
        if desired != h.interest
            && self
                .epoll
                .modify(h.stream.as_raw_fd(), desired, h.token)
                .is_ok()
        {
            h.interest = desired;
        }
        self.conns.insert(h.token, h);
        self.shared
            .active
            .store(self.conns.len() as u64, Ordering::Relaxed);
    }

    fn drop_handle(&mut self, h: Handle) {
        let _ = self.epoll.delete(h.stream.as_raw_fd());
        // Statements still in flight lose their audience: cancel them so
        // they stop burning admission budget.
        for (_, session) in h.sessions {
            session.cancel();
        }
        self.shared
            .active
            .store(self.conns.len() as u64, Ordering::Relaxed);
    }

    fn sweep_idle(&mut self) {
        let Some(idle) = self.config.idle_timeout else {
            return;
        };
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, h)| !h.conn.is_closing() && h.last_activity.elapsed() > idle)
            .map(|(t, _)| *t)
            .collect();
        for token in expired {
            let Some(mut h) = self.conns.remove(&token) else {
                continue;
            };
            self.shared.idle_closed.fetch_add(1, Ordering::Relaxed);
            h.conn.begin_close("idle timeout");
            self.flush(&mut h);
            self.finish(h);
        }
    }
}

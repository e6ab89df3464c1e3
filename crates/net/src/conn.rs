//! The per-connection protocol state machine — **pure**: no sockets, no
//! threads, no clocks.  The reactor owns the `TcpStream` and the epoll
//! registration; this type owns everything decidable from bytes alone:
//!
//! * the handshake (magic check, version negotiation),
//! * incremental frame decoding across arbitrary read boundaries,
//! * pipelining: any number of in-flight statements per connection,
//!   answered **strictly in submission order** even when the engine
//!   completes them out of order,
//! * prepared-statement handles (connection-scoped `u32` → SQL),
//! * write-buffer accounting and the backpressure signal
//!   ([`Conn::wants_read`] goes false while the peer isn't draining
//!   replies or has [`ConnConfig::max_pipeline`] statements in flight),
//! * typed protocol-error replies followed by an orderly close.
//!
//! Being pure makes the tricky parts — interleaved partial reads,
//! out-of-order completions, cancel races, backpressure transitions —
//! unit-testable without a socket in sight (`tests/conn_machine.rs`).

use std::collections::{HashMap, VecDeque};
use tcudb_types::TcuError;

use crate::frame::{
    encode_error, ErrorCode, Frame, FrameReader, MAGIC, MAX_FRAME_LEN, VERSION, VERSION_MIN,
};

/// Tunables for one connection's state machine.
#[derive(Debug, Clone)]
pub struct ConnConfig {
    /// Per-frame payload ceiling (bytes) enforced while decoding.
    pub max_frame_len: u32,
    /// Stop reading from the socket while this many reply bytes are
    /// buffered and undrained — backpressure propagates to the client's
    /// TCP window instead of growing server memory.
    pub write_high_watermark: usize,
    /// Maximum statements in flight (submitted, not yet answered) per
    /// connection; beyond it the connection stops being read.
    pub max_pipeline: usize,
}

impl Default for ConnConfig {
    fn default() -> ConnConfig {
        ConnConfig {
            max_frame_len: MAX_FRAME_LEN,
            write_high_watermark: 1 << 20,
            max_pipeline: 128,
        }
    }
}

/// An action the state machine asks its driver (the reactor) to perform.
/// Everything that needs the engine, a clock, or a thread crosses this
/// boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnEvent {
    /// Submit `sql` to the serving layer; the reply must later be
    /// delivered via [`Conn::complete`] under `id`.
    Submit {
        /// Client-chosen statement id.
        id: u64,
        /// The SQL text (resolved from the handle for
        /// execute-prepared).
        sql: String,
        /// Client deadline in ms (`0` = server default).
        deadline_ms: u32,
    },
    /// Validate `sql` for a prepare; answer via [`Conn::finish_prepare`]
    /// under `id`.
    Prepare {
        /// Client-chosen statement id.
        id: u64,
        /// The SQL text to validate and bind to a handle.
        sql: String,
    },
    /// Abort the in-flight statement `id` (its reply still arrives —
    /// result or typed `Cancelled` error; the race is inherent).
    Cancel {
        /// The statement to abort.
        id: u64,
    },
    /// The client said goodbye: abort everything still in flight; the
    /// connection closes once the write buffer drains.
    CancelAll,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Nothing but a valid `Hello` is acceptable.
    Handshake,
    /// Statements flow.
    Ready,
    /// Flush the write buffer, then drop.  No more reads.
    Closing,
}

/// See the [module docs](self).
#[derive(Debug)]
pub struct Conn {
    cfg: ConnConfig,
    session_id: u64,
    phase: Phase,
    reader: FrameReader,
    /// Outgoing bytes not yet written to the socket; `out_pos` marks the
    /// already-written prefix (compacted lazily).
    out: Vec<u8>,
    out_pos: usize,
    /// Statement ids awaiting replies, in submission order — the order
    /// replies MUST be flushed in.
    pending: VecDeque<u64>,
    /// Replies that completed out of order, parked until their turn.
    parked: HashMap<u64, Vec<u8>>,
    /// Prepared-statement handles, connection-scoped.
    statements: HashMap<u32, String>,
    next_statement: u32,
    /// The peer shut its write half: no more bytes will arrive, but every
    /// frame that did still gets its reply.
    input_closed: bool,
}

impl Conn {
    /// A fresh connection awaiting its handshake.
    pub fn new(session_id: u64, cfg: ConnConfig) -> Conn {
        Conn {
            reader: FrameReader::new(cfg.max_frame_len),
            cfg,
            session_id,
            phase: Phase::Handshake,
            out: Vec::new(),
            out_pos: 0,
            pending: VecDeque::new(),
            parked: HashMap::new(),
            statements: HashMap::new(),
            next_statement: 1,
            input_closed: false,
        }
    }

    // -- input ----------------------------------------------------------

    /// Feed bytes read from the socket; returns the actions they imply.
    /// Equivalent to [`Conn::push_bytes`] + [`Conn::resume`].
    pub fn on_bytes(&mut self, bytes: &[u8]) -> Vec<ConnEvent> {
        self.push_bytes(bytes);
        self.resume()
    }

    /// Buffer raw socket bytes without processing them.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.reader.push_bytes(bytes);
    }

    /// The peer half-closed (the socket read returned 0): nothing more
    /// will arrive.  Frames already fed in keep their place in the
    /// pipeline; the connection becomes droppable once every one of them
    /// has been answered and flushed (see [`Conn::can_drop`]).  A partial
    /// frame left in the decoder is a mid-frame disconnect and is simply
    /// never completed.
    pub fn on_eof(&mut self) {
        self.input_closed = true;
    }

    /// Process buffered frames up to the pipeline cap.  Called again by
    /// the reactor after completions drain the pipeline, so frames that
    /// arrived while the connection was backpressured are not stranded.
    pub fn resume(&mut self) -> Vec<ConnEvent> {
        let mut events = Vec::new();
        while self.phase != Phase::Closing && self.pending.len() < self.cfg.max_pipeline {
            match self.reader.next_frame() {
                Ok(Some(frame)) => self.handle_frame(frame, &mut events),
                Ok(None) => break,
                Err(e) => {
                    self.fail(e.0);
                    break;
                }
            }
        }
        events
    }

    fn handle_frame(&mut self, frame: Frame, events: &mut Vec<ConnEvent>) {
        match self.phase {
            Phase::Handshake => self.handle_handshake(frame),
            Phase::Ready => self.handle_ready(frame, events),
            Phase::Closing => {}
        }
    }

    fn handle_handshake(&mut self, frame: Frame) {
        let Frame::Hello {
            magic,
            min_version,
            max_version,
        } = frame
        else {
            self.fail(format!(
                "expected Hello as the first frame, got {}",
                frame_name(&frame)
            ));
            return;
        };
        if magic != MAGIC {
            self.fail(format!("bad magic 0x{magic:08x}"));
            return;
        }
        // Negotiate the highest version inside both ranges.
        let lo = VERSION_MIN.max(min_version);
        let hi = VERSION.min(max_version);
        if lo > hi {
            self.fail(format!(
                "no common protocol version (server speaks {VERSION_MIN}..={VERSION}, \
                 client asked {min_version}..={max_version})"
            ));
            return;
        }
        Frame::Welcome {
            version: hi,
            session_id: self.session_id,
        }
        .encode(&mut self.out);
        self.phase = Phase::Ready;
    }

    fn handle_ready(&mut self, frame: Frame, events: &mut Vec<ConnEvent>) {
        match frame {
            Frame::Query {
                id,
                deadline_ms,
                sql,
            } => {
                if self.begin_statement(id) {
                    events.push(ConnEvent::Submit {
                        id,
                        sql,
                        deadline_ms,
                    });
                }
            }
            Frame::Prepare { id, sql } => {
                if self.begin_statement(id) {
                    events.push(ConnEvent::Prepare { id, sql });
                }
            }
            Frame::ExecutePrepared {
                id,
                statement,
                deadline_ms,
            } => {
                if !self.begin_statement(id) {
                    return;
                }
                match self.statements.get(&statement).cloned() {
                    Some(sql) => events.push(ConnEvent::Submit {
                        id,
                        sql,
                        deadline_ms,
                    }),
                    None => {
                        // Answered locally, still in order.
                        let err = TcuError::InvalidArgument(format!(
                            "unknown prepared statement {statement}"
                        ));
                        self.complete(id, encode_error(id, &err));
                    }
                }
            }
            Frame::Cancel { id } => {
                // Only forward cancels for statements actually in flight;
                // a cancel racing its own completion is silently stale.
                if self.pending.contains(&id) && !self.parked.contains_key(&id) {
                    events.push(ConnEvent::Cancel { id });
                }
            }
            Frame::Goodbye { .. } => {
                events.push(ConnEvent::CancelAll);
                self.pending.clear();
                self.parked.clear();
                self.phase = Phase::Closing;
            }
            other => {
                self.fail(format!("client may not send {} frames", frame_name(&other)));
            }
        }
    }

    /// Register `id` as in flight; a duplicate id is a protocol error
    /// (replies would be ambiguous).
    fn begin_statement(&mut self, id: u64) -> bool {
        if self.pending.contains(&id) {
            self.fail(format!("statement id {id} is already in flight"));
            return false;
        }
        self.pending.push_back(id);
        true
    }

    // -- completions ----------------------------------------------------

    /// Deliver the encoded reply frames for statement `id`.  Replies are
    /// flushed to the write buffer strictly in submission order: an
    /// out-of-order completion is parked until every earlier statement
    /// has answered.
    pub fn complete(&mut self, id: u64, reply: Vec<u8>) {
        if self.phase == Phase::Closing || !self.pending.contains(&id) {
            // Late completion for a closed/cancelled statement: drop.
            return;
        }
        self.parked.insert(id, reply);
        while let Some(front) = self.pending.front().copied() {
            match self.parked.remove(&front) {
                Some(bytes) => {
                    self.out.extend_from_slice(&bytes);
                    self.pending.pop_front();
                }
                None => break,
            }
        }
    }

    /// Answer a [`ConnEvent::Prepare`]: on success the SQL is bound to a
    /// fresh connection-scoped handle and a `Prepared` frame replies;
    /// on failure the validation error replies, typed.
    pub fn finish_prepare(&mut self, id: u64, sql: String, result: Result<(), TcuError>) {
        match result {
            Ok(()) => {
                let statement = self.next_statement;
                self.next_statement = self.next_statement.wrapping_add(1);
                self.statements.insert(statement, sql);
                self.complete(id, Frame::Prepared { id, statement }.to_bytes());
            }
            Err(e) => self.complete(id, encode_error(id, &e)),
        }
    }

    // -- close paths ----------------------------------------------------

    /// Protocol violation: queue a typed [`ErrorCode::Protocol`] error
    /// frame (connection-level, `id == 0`, jumping ahead of any parked
    /// replies — the violation is fatal, the client learns immediately)
    /// and stop reading; the connection drops once the buffer drains.
    fn fail(&mut self, message: String) {
        Frame::Error {
            id: 0,
            code: ErrorCode::Protocol as u16,
            message,
        }
        .encode(&mut self.out);
        self.phase = Phase::Closing;
    }

    /// Server-initiated orderly close (idle timeout, shutdown): queue a
    /// `Goodbye` and stop reading.
    pub fn begin_close(&mut self, reason: &str) {
        if self.phase == Phase::Closing {
            return;
        }
        Frame::Goodbye {
            reason: reason.to_string(),
        }
        .encode(&mut self.out);
        self.phase = Phase::Closing;
    }

    // -- reactor-facing accounting --------------------------------------

    /// Should the reactor keep `EPOLLIN` interest?  False while closing,
    /// after the peer half-closed, while the peer isn't draining replies
    /// (write backlog at or above the high watermark), or while the
    /// pipeline is full.
    pub fn wants_read(&self) -> bool {
        self.phase != Phase::Closing
            && !self.input_closed
            && self.buffered_out() < self.cfg.write_high_watermark
            && self.pending.len() < self.cfg.max_pipeline
    }

    /// Should the reactor keep `EPOLLOUT` interest?
    pub fn wants_write(&self) -> bool {
        self.buffered_out() > 0
    }

    /// The bytes awaiting a socket write.
    pub fn outgoing(&self) -> &[u8] {
        self.out.get(self.out_pos..).unwrap_or(&[])
    }

    /// Record that `n` outgoing bytes reached the socket.
    pub fn consume(&mut self, n: usize) {
        self.out_pos = (self.out_pos + n).min(self.out.len());
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos > 8192 && self.out_pos * 2 > self.out.len() {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
    }

    /// Undrained reply bytes.
    pub fn buffered_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// True once the connection is flushing out and must not be read.
    pub fn is_closing(&self) -> bool {
        self.phase == Phase::Closing
    }

    /// True when the connection can be dropped: nothing left to flush,
    /// and either closing or half-closed by the peer with every statement
    /// it sent answered.
    pub fn can_drop(&self) -> bool {
        self.buffered_out() == 0
            && (self.phase == Phase::Closing || (self.input_closed && self.pending.is_empty()))
    }

    /// Statement ids still awaiting replies (for the reactor to cancel
    /// when the connection dies).
    pub fn in_flight(&self) -> Vec<u64> {
        self.pending.iter().copied().collect()
    }
}

fn frame_name(frame: &Frame) -> &'static str {
    match frame {
        Frame::Hello { .. } => "Hello",
        Frame::Welcome { .. } => "Welcome",
        Frame::Query { .. } => "Query",
        Frame::Prepare { .. } => "Prepare",
        Frame::Prepared { .. } => "Prepared",
        Frame::ExecutePrepared { .. } => "ExecutePrepared",
        Frame::Cancel { .. } => "Cancel",
        Frame::ResultHeader { .. } => "ResultHeader",
        Frame::ResultBatch { .. } => "ResultBatch",
        Frame::ResultDone { .. } => "ResultDone",
        Frame::Error { .. } => "Error",
        Frame::Goodbye { .. } => "Goodbye",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hello() -> Vec<u8> {
        Frame::Hello {
            magic: MAGIC,
            min_version: VERSION_MIN,
            max_version: VERSION,
        }
        .to_bytes()
    }

    #[test]
    fn handshake_then_query_emits_submit() {
        let mut conn = Conn::new(7, ConnConfig::default());
        let events = conn.on_bytes(&hello());
        assert!(events.is_empty());
        // The Welcome reply is queued.
        let mut r = FrameReader::default();
        r.push_bytes(conn.outgoing());
        assert_eq!(
            r.next_frame().unwrap(),
            Some(Frame::Welcome {
                version: VERSION,
                session_id: 7
            })
        );
        let events = conn.on_bytes(
            &Frame::Query {
                id: 1,
                deadline_ms: 0,
                sql: "SELECT 1".into(),
            }
            .to_bytes(),
        );
        assert_eq!(
            events,
            vec![ConnEvent::Submit {
                id: 1,
                sql: "SELECT 1".into(),
                deadline_ms: 0
            }]
        );
    }

    #[test]
    fn query_before_hello_is_a_protocol_error() {
        let mut conn = Conn::new(1, ConnConfig::default());
        let events = conn.on_bytes(
            &Frame::Query {
                id: 1,
                deadline_ms: 0,
                sql: "SELECT 1".into(),
            }
            .to_bytes(),
        );
        assert!(events.is_empty());
        assert!(conn.is_closing());
        let mut r = FrameReader::default();
        r.push_bytes(conn.outgoing());
        match r.next_frame().unwrap() {
            Some(Frame::Error { id: 0, code, .. }) => {
                assert_eq!(ErrorCode::from_u16(code), ErrorCode::Protocol)
            }
            other => panic!("expected protocol error, got {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut conn = Conn::new(1, ConnConfig::default());
        conn.on_bytes(
            &Frame::Hello {
                magic: MAGIC,
                min_version: VERSION + 1,
                max_version: VERSION + 9,
            }
            .to_bytes(),
        );
        assert!(conn.is_closing());
    }
}

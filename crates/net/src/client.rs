//! A small blocking client for the TCUP protocol — what the test suites
//! and `tcubench`'s socket workloads speak.  One [`Client`] owns one
//! connection; pipelining is explicit: [`Client::send_query`] fires a
//! statement without waiting, [`Client::recv_reply`] collects the next
//! reply in submission order, and the convenience [`Client::query`] does
//! one round trip.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

use tcudb_storage::Table;
use tcudb_types::{TcuError, TcuResult};

use crate::frame::{
    ErrorCode, Frame, FrameReader, ProtocolError, ResultAssembler, MAGIC, VERSION, VERSION_MIN,
};

fn io_err(context: &str, e: std::io::Error) -> TcuError {
    TcuError::Io(format!("{context}: {e}"))
}

/// A blocking TCUP connection.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
    next_id: u64,
    session_id: u64,
}

impl Client {
    /// Connect and complete the handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> TcuResult<Client> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
        let _ = stream.set_nodelay(true);
        let mut client = Client {
            stream,
            reader: FrameReader::default(),
            next_id: 1,
            session_id: 0,
        };
        client.send(&Frame::Hello {
            magic: MAGIC,
            min_version: VERSION_MIN,
            max_version: VERSION,
        })?;
        match client.read_frame()? {
            Frame::Welcome { session_id, .. } => {
                client.session_id = session_id;
                Ok(client)
            }
            Frame::Error { code, message, .. } => Err(ErrorCode::from_u16(code).to_error(message)),
            other => Err(ProtocolError(format!("expected Welcome, server sent {other:?}")).into()),
        }
    }

    /// The server-assigned connection id from the handshake.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Bound how long [`Client::recv_reply`] blocks on a silent server
    /// (`None` = forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> TcuResult<()> {
        self.stream
            .set_read_timeout(timeout)
            .map_err(|e| io_err("set read timeout", e))
    }

    // -- pipelined interface --------------------------------------------

    /// Fire a query without waiting; returns its statement id.  Any
    /// number may be in flight — replies arrive in submission order via
    /// [`Client::recv_reply`].
    pub fn send_query(&mut self, sql: &str, deadline: Option<Duration>) -> TcuResult<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Frame::Query {
            id,
            deadline_ms: deadline_ms(deadline),
            sql: sql.to_string(),
        })?;
        Ok(id)
    }

    /// Ask the server to abort in-flight statement `id`.  Its reply
    /// still arrives — the result or a typed `Cancelled` error; the race
    /// is inherent.
    pub fn send_cancel(&mut self, id: u64) -> TcuResult<()> {
        self.send(&Frame::Cancel { id })
    }

    /// Collect the next reply in submission order: `(statement id,
    /// result table or typed error)`.
    pub fn recv_reply(&mut self) -> TcuResult<(u64, TcuResult<Table>)> {
        let (id, first) = match self.read_frame()? {
            Frame::ResultHeader { id, name, columns } => (id, ResultAssembler::new(name, columns)),
            Frame::Error {
                id: 0,
                code,
                message,
            } => {
                // Connection-level failure: surface directly.
                return Err(ErrorCode::from_u16(code).to_error(message));
            }
            Frame::Error { id, code, message } => {
                return Ok((id, Err(ErrorCode::from_u16(code).to_error(message))));
            }
            Frame::Prepared { id, statement } => {
                // Prepared acks flow through the same ordered stream;
                // encode the handle as a pseudo-error for callers that
                // mix prepare into the pipeline via `send`.  The typed
                // [`Client::prepare`] API intercepts this first.
                return Ok((
                    id,
                    Err(TcuError::InvalidArgument(format!(
                        "statement {id} answered with prepared handle {statement}"
                    ))),
                ));
            }
            Frame::Goodbye { reason } => {
                return Err(TcuError::Io(format!(
                    "server closed the connection: {reason}"
                )));
            }
            other => {
                return Err(ProtocolError(format!(
                    "unexpected frame while awaiting a reply: {other:?}"
                ))
                .into())
            }
        };
        let mut asm = first;
        loop {
            match self.read_frame()? {
                Frame::ResultBatch { id: bid, columns } if bid == id => {
                    asm.push_batch(columns)?;
                }
                Frame::ResultDone { id: did, rows } if did == id => {
                    return Ok((id, asm.finish(rows)));
                }
                Frame::Error {
                    id: eid,
                    code,
                    message,
                } if eid == id => {
                    return Ok((id, Err(ErrorCode::from_u16(code).to_error(message))));
                }
                other => {
                    return Err(ProtocolError(format!(
                        "result stream for statement {id} interleaved with {other:?}"
                    ))
                    .into())
                }
            }
        }
    }

    // -- one-shot convenience -------------------------------------------

    /// One blocking round trip: submit `sql`, wait for its table.
    pub fn query(&mut self, sql: &str) -> TcuResult<Table> {
        self.query_with_deadline(sql, None)
    }

    /// One blocking round trip with an explicit server-side deadline.
    pub fn query_with_deadline(
        &mut self,
        sql: &str,
        deadline: Option<Duration>,
    ) -> TcuResult<Table> {
        let id = self.send_query(sql, deadline)?;
        let (got, result) = self.recv_reply()?;
        if got != id {
            return Err(
                ProtocolError(format!("reply for statement {got} while awaiting {id}")).into(),
            );
        }
        result
    }

    /// Validate `sql` server-side and bind it to a connection-scoped
    /// handle for [`Client::execute_prepared`].
    pub fn prepare(&mut self, sql: &str) -> TcuResult<u32> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Frame::Prepare {
            id,
            sql: sql.to_string(),
        })?;
        match self.read_frame()? {
            Frame::Prepared { id: got, statement } if got == id => Ok(statement),
            Frame::Error { code, message, .. } => Err(ErrorCode::from_u16(code).to_error(message)),
            other => Err(ProtocolError(format!("expected Prepared, server sent {other:?}")).into()),
        }
    }

    /// Execute a prepared handle and wait for its table.
    pub fn execute_prepared(
        &mut self,
        statement: u32,
        deadline: Option<Duration>,
    ) -> TcuResult<Table> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Frame::ExecutePrepared {
            id,
            statement,
            deadline_ms: deadline_ms(deadline),
        })?;
        let (got, result) = self.recv_reply()?;
        if got != id {
            return Err(
                ProtocolError(format!("reply for statement {got} while awaiting {id}")).into(),
            );
        }
        result
    }

    /// Half-close: shut the write side of the socket.  The server answers
    /// every statement already sent — still in submission order, still
    /// collected with [`Client::recv_reply`] — and then closes.
    pub fn finish_sending(&self) -> TcuResult<()> {
        self.stream
            .shutdown(Shutdown::Write)
            .map_err(|e| io_err("shutdown write half", e))
    }

    /// Orderly close: send `Goodbye` and drop the connection.
    pub fn goodbye(mut self) {
        let _ = self.send(&Frame::Goodbye {
            reason: "client done".to_string(),
        });
    }

    // -- plumbing -------------------------------------------------------

    fn send(&mut self, frame: &Frame) -> TcuResult<()> {
        self.stream
            .write_all(&frame.to_bytes())
            .map_err(|e| io_err("write frame", e))
    }

    fn read_frame(&mut self) -> TcuResult<Frame> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            if let Some(frame) = self.reader.next_frame()? {
                return Ok(frame);
            }
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(TcuError::Io(
                        "server closed the connection mid-stream".to_string(),
                    ))
                }
                Ok(n) => self.reader.push_bytes(buf.get(..n).unwrap_or(&[])),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_err("read frame", e)),
            }
        }
    }
}

fn deadline_ms(deadline: Option<Duration>) -> u32 {
    deadline
        .map(|d| d.as_millis().min(u32::MAX as u128) as u32)
        .unwrap_or(0)
}

//! Pure pipelining/cancellation tests for the connection state machine —
//! no sockets, no threads: bytes in, [`ConnEvent`]s and reply bytes out.
//! Covers the satellite checklist: interleaved partial reads, N queued
//! statements answered in order, a cancel frame aborting an in-flight
//! statement, and write-buffer backpressure transitions.

use tcudb_net::frame::{encode_error, Frame, FrameReader, MAGIC, VERSION, VERSION_MIN};
use tcudb_net::{Conn, ConnConfig, ConnEvent};
use tcudb_types::TcuError;

fn hello_bytes() -> Vec<u8> {
    Frame::Hello {
        magic: MAGIC,
        min_version: VERSION_MIN,
        max_version: VERSION,
    }
    .to_bytes()
}

/// A handshaken connection with the Welcome reply already drained.
fn ready_conn(cfg: ConnConfig) -> Conn {
    let mut conn = Conn::new(1, cfg);
    let events = conn.on_bytes(&hello_bytes());
    assert!(events.is_empty());
    let n = conn.outgoing().len();
    conn.consume(n);
    conn
}

fn query_bytes(id: u64, sql: &str) -> Vec<u8> {
    Frame::Query {
        id,
        deadline_ms: 0,
        sql: sql.to_string(),
    }
    .to_bytes()
}

/// Decode every complete frame currently in the write buffer.
fn drain_replies(conn: &mut Conn) -> Vec<Frame> {
    let mut reader = FrameReader::default();
    reader.push_bytes(conn.outgoing());
    let n = conn.outgoing().len();
    conn.consume(n);
    let mut frames = Vec::new();
    while let Some(f) = reader.next_frame().expect("server output is well-formed") {
        frames.push(f);
    }
    frames
}

fn done_reply(id: u64) -> Vec<u8> {
    Frame::ResultDone { id, rows: 0 }.to_bytes()
}

#[test]
fn interleaved_partial_reads_produce_events_only_at_frame_boundaries() {
    let mut conn = ready_conn(ConnConfig::default());
    let mut bytes = query_bytes(1, "SELECT 1");
    bytes.extend(query_bytes(2, "SELECT 2"));
    // Drip the two frames in one byte at a time: every prefix must be
    // accepted without events until a frame completes.
    let mut seen = Vec::new();
    let first_len = query_bytes(1, "SELECT 1").len();
    for (i, b) in bytes.iter().enumerate() {
        let events = conn.on_bytes(std::slice::from_ref(b));
        for e in &events {
            seen.push((i + 1, e.clone()));
        }
    }
    assert_eq!(
        seen,
        vec![
            (
                first_len,
                ConnEvent::Submit {
                    id: 1,
                    sql: "SELECT 1".into(),
                    deadline_ms: 0
                }
            ),
            (
                bytes.len(),
                ConnEvent::Submit {
                    id: 2,
                    sql: "SELECT 2".into(),
                    deadline_ms: 0
                }
            ),
        ]
    );
}

#[test]
fn pipelined_statements_are_answered_in_submission_order() {
    let mut conn = ready_conn(ConnConfig::default());
    for id in 1..=3u64 {
        let events = conn.on_bytes(&query_bytes(id, &format!("SELECT {id}")));
        assert_eq!(events.len(), 1);
    }
    assert_eq!(conn.in_flight(), vec![1, 2, 3]);
    // Completions arrive out of order: 3, then 2 — nothing may flush
    // while statement 1 is unanswered.
    conn.complete(3, done_reply(3));
    conn.complete(2, done_reply(2));
    assert_eq!(
        conn.outgoing().len(),
        0,
        "replies must wait for statement 1"
    );
    // Statement 1 completes: all three flush, in order 1, 2, 3.
    conn.complete(1, done_reply(1));
    let ids: Vec<u64> = drain_replies(&mut conn)
        .into_iter()
        .map(|f| match f {
            Frame::ResultDone { id, .. } => id,
            other => panic!("unexpected reply {other:?}"),
        })
        .collect();
    assert_eq!(ids, vec![1, 2, 3]);
    assert!(conn.in_flight().is_empty());
}

#[test]
fn cancel_frame_targets_only_in_flight_statements() {
    let mut conn = ready_conn(ConnConfig::default());
    conn.on_bytes(&query_bytes(7, "SELECT 7"));
    // Cancel for the in-flight statement is forwarded.
    let events = conn.on_bytes(&Frame::Cancel { id: 7 }.to_bytes());
    assert_eq!(events, vec![ConnEvent::Cancel { id: 7 }]);
    // Cancel for an unknown statement is silently stale (the race with
    // its own completion is inherent).
    let events = conn.on_bytes(&Frame::Cancel { id: 99 }.to_bytes());
    assert!(events.is_empty());
    // The cancelled statement still gets its (typed) reply.
    conn.complete(7, encode_error(7, &TcuError::Cancelled("test".into())));
    match drain_replies(&mut conn).as_slice() {
        [Frame::Error { id: 7, .. }] => {}
        other => panic!("expected the typed cancel reply, got {other:?}"),
    }
    // A cancel arriving after the reply flushed is stale too.
    let events = conn.on_bytes(&Frame::Cancel { id: 7 }.to_bytes());
    assert!(events.is_empty());
}

#[test]
fn write_buffer_backpressure_toggles_wants_read() {
    let cfg = ConnConfig {
        write_high_watermark: 64,
        ..ConnConfig::default()
    };
    let mut conn = ready_conn(cfg);
    conn.on_bytes(&query_bytes(1, "SELECT 1"));
    assert!(conn.wants_read());
    // A reply bigger than the watermark: the connection must stop
    // reading until the client drains it.
    conn.complete(
        1,
        Frame::Error {
            id: 1,
            code: 4,
            message: "x".repeat(200),
        }
        .to_bytes(),
    );
    assert!(conn.wants_write());
    assert!(
        !conn.wants_read(),
        "reading must pause while the write backlog exceeds the watermark"
    );
    // Drain in two steps: still paused halfway, reading resumes once the
    // backlog falls under the watermark.
    let backlog = conn.buffered_out();
    conn.consume(backlog - 100);
    assert!(!conn.wants_read());
    conn.consume(100);
    assert!(conn.wants_read());
    assert!(!conn.wants_write());
}

#[test]
fn pipeline_cap_defers_frames_until_completions_drain() {
    let cfg = ConnConfig {
        max_pipeline: 2,
        ..ConnConfig::default()
    };
    let mut conn = ready_conn(cfg);
    let mut bytes = Vec::new();
    for id in 1..=4u64 {
        bytes.extend(query_bytes(id, &format!("SELECT {id}")));
    }
    // Only the first two submit; the rest stay buffered behind the cap.
    let events = conn.on_bytes(&bytes);
    assert_eq!(events.len(), 2);
    assert!(!conn.wants_read(), "pipeline full: stop reading");
    // Completing statement 1 frees a slot; resume() picks up statement 3.
    conn.complete(1, done_reply(1));
    let events = conn.resume();
    assert_eq!(
        events,
        vec![ConnEvent::Submit {
            id: 3,
            sql: "SELECT 3".into(),
            deadline_ms: 0
        }]
    );
    conn.complete(2, done_reply(2));
    let events = conn.resume();
    assert_eq!(events.len(), 1, "statement 4 follows");
    assert_eq!(conn.in_flight(), vec![3, 4]);
}

#[test]
fn half_close_keeps_the_connection_until_every_statement_is_answered() {
    let cfg = ConnConfig {
        max_pipeline: 2,
        ..ConnConfig::default()
    };
    let mut conn = ready_conn(cfg);
    let mut bytes = Vec::new();
    for id in 1..=3u64 {
        bytes.extend(query_bytes(id, &format!("SELECT {id}")));
    }
    // A torn fourth frame: the peer died (or gave up) mid-frame.
    bytes.extend(&query_bytes(4, "SELECT 4")[..9]);
    assert_eq!(conn.on_bytes(&bytes).len(), 2, "two submit, one waits");
    conn.on_eof();
    assert!(!conn.wants_read(), "nothing more will arrive");
    assert!(!conn.is_closing(), "half-close is not a close");
    assert!(!conn.can_drop(), "statements 1 and 2 are unanswered");
    // Statement 3 was buffered behind the cap before the half-close and
    // still runs; replies keep submission order.
    conn.complete(2, done_reply(2));
    conn.complete(1, done_reply(1));
    assert_eq!(conn.resume().len(), 1, "statement 3 follows");
    assert!(!conn.can_drop(), "statement 3 is unanswered");
    conn.complete(3, done_reply(3));
    assert!(conn.resume().is_empty(), "the torn frame never completes");
    assert!(!conn.can_drop(), "replies not flushed yet");
    let ids: Vec<u64> = drain_replies(&mut conn)
        .iter()
        .map(|f| match f {
            Frame::ResultDone { id, .. } => *id,
            other => panic!("unexpected reply {other:?}"),
        })
        .collect();
    assert_eq!(ids, vec![1, 2, 3]);
    assert!(conn.can_drop(), "answered, flushed, half-closed");
}

#[test]
fn duplicate_statement_id_is_a_protocol_error() {
    let mut conn = ready_conn(ConnConfig::default());
    conn.on_bytes(&query_bytes(5, "SELECT 5"));
    let events = conn.on_bytes(&query_bytes(5, "SELECT 5"));
    assert!(events.is_empty());
    assert!(conn.is_closing());
    match drain_replies(&mut conn).as_slice() {
        [Frame::Error {
            id: 0, code: 100, ..
        }] => {}
        other => panic!("expected connection-level protocol error, got {other:?}"),
    }
}

#[test]
fn goodbye_cancels_in_flight_and_closes_after_flush() {
    let mut conn = ready_conn(ConnConfig::default());
    conn.on_bytes(&query_bytes(1, "SELECT 1"));
    let events = conn.on_bytes(
        &Frame::Goodbye {
            reason: "done".into(),
        }
        .to_bytes(),
    );
    assert_eq!(events, vec![ConnEvent::CancelAll]);
    assert!(conn.is_closing());
    assert!(!conn.wants_read());
    // Late completion for the abandoned statement is dropped silently.
    conn.complete(1, done_reply(1));
    assert!(conn.can_drop(), "nothing left to flush");
}

#[test]
fn prepare_execute_roundtrip_through_the_state_machine() {
    let mut conn = ready_conn(ConnConfig::default());
    let events = conn.on_bytes(
        &Frame::Prepare {
            id: 1,
            sql: "SELECT A.x FROM A".into(),
        }
        .to_bytes(),
    );
    assert_eq!(
        events,
        vec![ConnEvent::Prepare {
            id: 1,
            sql: "SELECT A.x FROM A".into()
        }]
    );
    conn.finish_prepare(1, "SELECT A.x FROM A".into(), Ok(()));
    let statement = match drain_replies(&mut conn).as_slice() {
        [Frame::Prepared { id: 1, statement }] => *statement,
        other => panic!("expected Prepared, got {other:?}"),
    };
    // Executing the handle resolves back to the original SQL.
    let events = conn.on_bytes(
        &Frame::ExecutePrepared {
            id: 2,
            statement,
            deadline_ms: 250,
        }
        .to_bytes(),
    );
    assert_eq!(
        events,
        vec![ConnEvent::Submit {
            id: 2,
            sql: "SELECT A.x FROM A".into(),
            deadline_ms: 250
        }]
    );
    // An unknown handle is answered locally with a typed error, in order.
    let events = conn.on_bytes(
        &Frame::ExecutePrepared {
            id: 3,
            statement: 999,
            deadline_ms: 0,
        }
        .to_bytes(),
    );
    assert!(events.is_empty());
    assert_eq!(conn.outgoing().len(), 0, "reply 3 must wait behind 2");
    conn.complete(2, done_reply(2));
    match drain_replies(&mut conn).as_slice() {
        [Frame::ResultDone { id: 2, .. }, Frame::Error { id: 3, code, .. }] => {
            assert_eq!(*code, 13, "InvalidArgument");
        }
        other => panic!("expected ordered replies for 2 then 3, got {other:?}"),
    }
    // A failed prepare surfaces the validation error, typed.
    let events = conn.on_bytes(
        &Frame::Prepare {
            id: 4,
            sql: "SELEKT".into(),
        }
        .to_bytes(),
    );
    assert_eq!(events.len(), 1);
    conn.finish_prepare(4, "SELEKT".into(), Err(TcuError::Parse("nope".into())));
    match drain_replies(&mut conn).as_slice() {
        [Frame::Error { id: 4, code: 1, .. }] => {}
        other => panic!("expected Parse error reply, got {other:?}"),
    }
}

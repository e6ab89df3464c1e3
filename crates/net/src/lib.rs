//! # tcudb-net
//!
//! The network front end for TCUDB: a binary wire protocol (TCUP), an
//! `epoll`-based reactor serving non-blocking connections over
//! `tcudb-serve`, a blocking client, and the `tcudb-server` binary.
//!
//! ```text
//!   Client ── TCUP frames ──▶ Reactor (1 thread, epoll) ──▶ Conn state machine
//!                                   │                            │ ConnEvent
//!                                   │ completions (eventfd)      ▼
//!                                   ◀── callback ── tcudb-serve worker pool
//! ```
//!
//! * [`frame`] — the TCUP protocol itself: `[len][crc32][payload]`
//!   framing (CRC-checked like the WAL), handshake/version negotiation,
//!   query / prepare / execute-prepared / cancel, columnar result-set
//!   streaming, typed error frames, and an incremental decoder that
//!   rejects garbage without panicking or over-allocating.
//! * [`conn`] — the pure per-connection state machine: pipelining with
//!   strictly-ordered replies, prepared-statement handles, write-buffer
//!   accounting and the backpressure signal.
//! * [`sys`] — the **only** unsafe module: thin wrappers over raw
//!   `epoll`/`eventfd` (no mio/tokio — the build is offline), audited by
//!   `tcudb-analyze` with a `// SAFETY:` comment on every block.
//! * [`reactor`] — [`NetServer`]: accept loop, level-triggered readiness,
//!   idle timeouts, and the bridge onto `tcudb-serve`'s admission /
//!   deadline / shed / cancel machinery via per-statement sessions.
//! * [`client`] — [`Client`]: the blocking client the tests and
//!   `tcubench` use.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod client;
pub mod conn;
pub mod frame;
pub mod reactor;
#[allow(unsafe_code)]
pub mod sys;

pub use client::Client;
pub use conn::{Conn, ConnConfig, ConnEvent};
pub use frame::{ErrorCode, Frame, FrameReader, ProtocolError, MAGIC, MAX_FRAME_LEN, VERSION};
pub use reactor::{NetConfig, NetServer, NetStats};

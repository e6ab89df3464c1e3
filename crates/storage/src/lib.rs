#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # tcudb-storage
//!
//! In-memory columnar table storage for TCUDB-RS.
//!
//! The paper's engine (like YDB, which it extends) is a column store kept
//! resident in host memory; tables are shipped column-by-column to the GPU
//! so only the columns a query touches cross the PCIe bus (§2.2).  This
//! crate provides:
//!
//! * [`Schema`] / [`ColumnDef`] — table schemas,
//! * [`Column`] — typed columnar storage (Int64 / Float64 / Text),
//! * [`Table`] — a schema plus equal-length columns, with projection,
//!   filtering and row access helpers,
//! * [`ColumnStats`] / [`TableStats`] — the per-column metadata TCUDB's
//!   feasibility test relies on: minimum value, maximum value and the
//!   number of distinct values (§4.2.1),
//! * [`DictColumn`] / [`EncodingCache`] — per-column dictionary encodings
//!   (`u32` codes + distinct values), built once per `(table, column)` and
//!   cached on the [`Table`] so the encoded query data path never re-hashes
//!   rows,
//! * [`Catalog`] — the named-table registry shared by the engines,
//! * [`CatalogSnapshot`] / [`SharedCatalog`] — epoch-tagged immutable
//!   catalog snapshots and their copy-on-write publish point: queries pin
//!   one snapshot for their lifetime, writes publish the next epoch, and
//!   the epoch doubles as the invalidation token for every cache derived
//!   from catalog state (dictionary encodings, cached plans),
//! * [`backend`] / [`wal`] / [`segment`] / [`mod@recover`] — the durability
//!   subsystem: a pluggable storage backend (real filesystem or a
//!   deterministic fault-injecting in-memory disk), a CRC-framed
//!   write-ahead log whose commits carry epoch-publish markers, sealed
//!   columnar segment files with an epoch-stamped manifest, and crash
//!   recovery that replays the log to the last published epoch and
//!   truncates torn tails; transient I/O blips on the write path are
//!   retried under a bounded-backoff [`RetryPolicy`] ([`mod@retry`]).

pub mod backend;
pub mod catalog;
pub mod chunk;
pub mod column;
pub mod encoded;
pub mod recover;
pub mod retry;
pub mod schema;
pub mod segment;
pub mod snapshot;
pub mod stats;
pub mod table;
pub mod wal;

pub use backend::{FaultSpec, FsBackend, MemBackend, StorageBackend};
pub use catalog::Catalog;
pub use chunk::{ColumnZones, ZoneCache, ZoneEntry, DEFAULT_CHUNK_ROWS};
pub use column::Column;
pub use encoded::{DictColumn, EncodingCache};
pub use recover::{
    recover, spawn_flusher, DurabilityOptions, DurableStore, Flusher, Recovered, RecoveryReport,
};
pub use retry::RetryPolicy;
pub use schema::{ColumnDef, Schema};
pub use snapshot::{CatalogSnapshot, SharedCatalog};
pub use stats::{ColumnStats, TableStats};
pub use table::Table;
pub use wal::{FlushPolicy, WalRecord};

//! Every call into TCUDB-RS the harness makes.
//!
//! The harness measures each layer *from outside*, by timing calls into
//! public functions.  Keeping those calls in this one file means an API
//! change in the engine touches one place, and the API-surface rule (see
//! README.md) can be checked by reading one list of `use` lines.  No
//! other module names a `tcudb_*` crate; they see the small, plain-data
//! wrappers below.
//!
//! Nothing here reads a clock: callers time these functions.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use tcudb_core::plancache::CachedStatement;
use tcudb_core::{EngineConfig, QueryOutput, TcuDb};
use tcudb_datagen::{em, graph, matmul, micro, ssb};
use tcudb_net::frame::{encode_result, Frame, FrameReader, ResultAssembler, BATCH_ROWS};
use tcudb_net::{Client, NetConfig, NetServer};
use tcudb_serve::{ServeConfig, Server, ServerStats, Session};
use tcudb_storage::{
    Catalog, Column, ColumnDef, DurabilityOptions, FaultSpec, MemBackend, Schema, Table,
};
use tcudb_tensor::engine::simd_level;
use tcudb_tensor::gemm::gemm_bt;
use tcudb_tensor::grouped::grouped_sum_gemm;
use tcudb_tensor::spmm::tcu_spmm;
use tcudb_tensor::{CsrMatrix, DenseMatrix, GemmPrecision};
use tcudb_types::{DataType, Value, WorkerPool};

use crate::verify::Digest;

pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

// ----------------------------------------------------------------------
// Generated inputs
// ----------------------------------------------------------------------

/// A generated set of tables, not yet loaded into an engine.
#[derive(Debug, Clone)]
pub struct Dataset(Catalog);

impl Dataset {
    /// SSB at the paper's full scale factor 1 (6M-row `lineorder`).
    pub fn ssb_full(seed: u64) -> Dataset {
        Dataset(ssb::gen_catalog_scaled(&ssb::SsbScale::full(1), seed))
    }

    /// SSB at mini scale factor 1 (60K-row `lineorder`).
    pub fn ssb_mini(seed: u64) -> Dataset {
        Dataset(ssb::gen_catalog_scaled(&ssb::SsbScale::mini(1), seed))
    }

    /// Micro tables `A(id, val)` and `B(id, val)`.
    pub fn micro(records: usize, distinct: usize, seed: u64) -> Dataset {
        let mut config = micro::MicroConfig::new(records, distinct);
        config.seed = seed;
        Dataset(micro::gen_catalog(&config))
    }

    /// Dense `dim x dim` matrices `A` and `B` in coordinate form, values
    /// small enough to be exact in every precision.
    pub fn matmul(dim: usize, seed: u64) -> Dataset {
        Dataset(matmul::gen_catalog(
            dim,
            1.0,
            matmul::ValueRange::Int7,
            seed,
        ))
    }

    /// BeerAdvo-RateBeer-shaped entity-matching tables; returns the
    /// blocking attributes too.
    pub fn beer(seed: u64) -> (Dataset, Vec<&'static str>) {
        let spec = em::beer_advo_ratebeer();
        let attrs = spec.attributes.iter().map(|(a, _)| *a).collect();
        (Dataset(em::gen_catalog(&spec, seed)), attrs)
    }

    /// NODE / EDGE / OUTDEGREE / PAGERANK tables of a road-like graph.
    pub fn road_graph(nodes: usize, edges: usize, seed: u64) -> Dataset {
        let g = graph::gen_road_graph(nodes, edges, seed);
        let mut catalog = graph::gen_catalog(&g);
        let ranks = vec![1.0 / g.nodes as f64; g.nodes];
        graph::register_pagerank_state(&mut catalog, &g, &ranks);
        Dataset(catalog)
    }

    /// `(nodes, edges)` of row `idx` of the paper's Table 4.
    pub fn table4_size(idx: usize) -> (usize, usize) {
        graph::TABLE4_SIZES[idx]
    }

    /// Union of two datasets with disjoint table names.
    pub fn merge(mut self, other: Dataset) -> Dataset {
        for name in other.0.table_names() {
            if let Ok(table) = other.0.table(&name) {
                self.0.register((*table).clone());
            }
        }
        self
    }

    /// Lend integer columns of one table to `f`, for harness-side
    /// recomputation (borrowed: copying 6M-row columns would show up in
    /// the workload's peak memory).
    pub fn with_ints<R>(
        &self,
        table: &str,
        columns: &[&str],
        f: impl FnOnce(&[&[i64]]) -> R,
    ) -> Res<R> {
        let table = self.0.table(table).map_err(err)?;
        let mut slices = Vec::with_capacity(columns.len());
        for name in columns {
            match table.column_by_name(name).map_err(err)? {
                Column::Int64(v) => slices.push(v.as_slice()),
                _ => return Err(format!("{name} is not an integer column")),
            }
        }
        Ok(f(&slices))
    }
}

pub fn ssb_queries() -> Vec<(String, String)> {
    ssb::queries()
        .into_iter()
        .map(|(name, sql)| (name.to_string(), sql))
        .collect()
}

pub const MICRO_Q1: &str = micro::Q1;
pub const MICRO_Q3: &str = micro::Q3;
pub const MICRO_Q4: &str = micro::Q4;
pub const MATMUL_QUERY: &str = matmul::MATMUL_QUERY;
pub const PR_Q1: &str = graph::PR_Q1;

pub fn pr_q2(nodes: usize) -> String {
    graph::pr_q2(nodes)
}

pub fn pr_q3(nodes: usize) -> String {
    graph::pr_q3(nodes)
}

pub fn em_blocking_query(attribute: &str) -> String {
    em::blocking_query(attribute)
}

/// Rows of an all-integer table, in the engine's row format.
#[derive(Debug, Clone)]
pub struct Rows(Vec<Vec<Value>>);

impl Rows {
    pub fn from_ints(rows: &[[i64; 3]]) -> Rows {
        Rows(
            rows.iter()
                .map(|r| r.iter().map(|v| Value::Int(*v)).collect())
                .collect(),
        )
    }
}

// ----------------------------------------------------------------------
// Results
// ----------------------------------------------------------------------

/// A result table as the caller received it.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultTable(Table);

impl ResultTable {
    pub fn rows(&self) -> usize {
        self.0.num_rows()
    }

    /// Order-insensitive digest: a per-row hash over every column,
    /// combined commutatively.
    pub fn digest(&self) -> Digest {
        let mut row_hash = vec![0xcbf2_9ce4_8422_2325u64; self.0.num_rows()];
        for col in self.0.columns() {
            match col {
                Column::Int64(v) => {
                    for (h, x) in row_hash.iter_mut().zip(v) {
                        *h = Digest::mix(*h, *x as u64);
                    }
                }
                Column::Float64(v) => {
                    for (h, x) in row_hash.iter_mut().zip(v) {
                        *h = Digest::mix(*h, x.to_bits());
                    }
                }
                Column::Text(v) => {
                    for (h, x) in row_hash.iter_mut().zip(v) {
                        *h = Digest::mix(*h, Digest::hash_bytes(x.as_bytes()));
                    }
                }
            }
        }
        Digest::of_row_hashes(self.0.num_columns(), &row_hash)
    }

    /// Column `idx` as integers (`None` for another type).
    pub fn ints(&self, idx: usize) -> Option<&[i64]> {
        match self.0.columns().get(idx)? {
            Column::Int64(v) => Some(v),
            _ => None,
        }
    }

    /// Column `idx` as numbers, integers widened to `f64`.
    pub fn numbers(&self, idx: usize) -> Option<Vec<f64>> {
        match self.0.columns().get(idx)? {
            Column::Int64(v) => Some(v.iter().map(|x| *x as f64).collect()),
            Column::Float64(v) => Some(v.clone()),
            Column::Text(_) => None,
        }
    }
}

/// What one executed statement returned.
#[derive(Debug, Clone)]
pub struct Reply {
    pub table: ResultTable,
    /// Did the plan place any step on the tensor cores?
    pub used_tcu: bool,
    /// Simulated device seconds of the plan (deterministic per plan).
    pub sim_s: f64,
}

impl From<QueryOutput> for Reply {
    fn from(out: QueryOutput) -> Reply {
        Reply {
            used_tcu: out.plan.used_tcu,
            sim_s: out.timeline.total_seconds(),
            table: ResultTable(out.table),
        }
    }
}

// ----------------------------------------------------------------------
// core: the engine
// ----------------------------------------------------------------------

/// A statement resolved against one catalog snapshot.
#[derive(Debug, Clone)]
pub struct Prepared(Arc<CachedStatement>);

/// What recovery found on open.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    pub replayed_commits: u64,
    pub manifest_epoch: u64,
}

#[derive(Debug, Clone)]
pub struct Engine(Arc<TcuDb>);

impl Engine {
    /// In-memory engine with the shipped default configuration.
    pub fn in_memory() -> Engine {
        Engine(Arc::new(TcuDb::default()))
    }

    /// Durable engine over a directory, shipped defaults (fsync every
    /// commit, background flusher on).  Recovers whatever the directory
    /// holds.
    pub fn open_dir(dir: &Path) -> Res<Engine> {
        TcuDb::open_with(dir, EngineConfig::default(), DurabilityOptions::default())
            .map(|db| Engine(Arc::new(db)))
            .map_err(err)
    }

    pub fn load(&self, data: Dataset) {
        self.0.set_catalog(data.0);
    }

    pub fn execute(&self, sql: &str) -> Res<Reply> {
        self.0.execute(sql).map(Reply::from).map_err(err)
    }

    /// Plan-cache lookup (parse + analyze on a miss) against the current
    /// snapshot.
    pub fn prepare(&self, sql: &str) -> Res<Prepared> {
        let snapshot = self.0.snapshot();
        self.0.prepare(sql, &snapshot).map(Prepared).map_err(err)
    }

    pub fn execute_prepared(&self, stmt: &Prepared) -> Res<Reply> {
        self.0
            .execute_prepared(&stmt.0)
            .map(Reply::from)
            .map_err(err)
    }

    /// Parse + analyze only, bypassing the plan cache.
    pub fn explain(&self, sql: &str) -> Res<()> {
        self.0.explain(sql).map(|_| ()).map_err(err)
    }

    /// Register an empty all-integer table.
    pub fn create_int_table(&self, name: &str, columns: &[&str]) {
        self.0.register_table(empty_int_table(name, columns));
    }

    pub fn append(&self, table: &str, rows: Rows) -> Res<()> {
        self.0.append_rows(table, rows.0).map_err(err)
    }

    /// Explicit checkpoint; `true` when an epoch was sealed.
    pub fn checkpoint(&self) -> Res<bool> {
        self.0.checkpoint().map(|e| e.is_some()).map_err(err)
    }

    /// `(hits, misses)` of the plan cache since the engine was created.
    pub fn plan_cache(&self) -> (u64, u64) {
        let s = self.0.plan_cache_stats();
        (s.hits, s.misses)
    }

    pub fn recovery(&self) -> Option<Recovery> {
        self.0.recovery_report().map(|r| Recovery {
            replayed_commits: r.replayed_commits,
            manifest_epoch: r.manifest_epoch,
        })
    }

    /// Row count and per-column wrapping sums of an all-integer table,
    /// read straight from the current snapshot (no SQL involved).
    pub fn int_table_checksum(&self, table: &str) -> Res<(usize, Vec<i64>)> {
        let snapshot = self.0.snapshot();
        let table = snapshot.catalog().table(table).map_err(err)?;
        let mut sums = Vec::new();
        for col in table.columns() {
            match col {
                Column::Int64(v) => sums.push(v.iter().fold(0i64, |a, x| a.wrapping_add(*x))),
                _ => return Err("not an all-integer table".into()),
            }
        }
        Ok((table.num_rows(), sums))
    }
}

fn empty_int_table(name: &str, columns: &[&str]) -> Table {
    Table::new(
        name,
        Schema::new(
            columns
                .iter()
                .map(|c| ColumnDef::new(*c, DataType::Int64))
                .collect(),
        ),
    )
}

/// A table outside any engine: `Table::append_rows` alone, without the
/// snapshot copy, the WAL or the plan-cache retirement around it.
#[derive(Debug)]
pub struct DetachedTable(Table);

impl DetachedTable {
    pub fn new(name: &str, columns: &[&str]) -> DetachedTable {
        DetachedTable(empty_int_table(name, columns))
    }

    pub fn append(&mut self, rows: Rows) -> Res<()> {
        self.0.append_rows(rows.0).map_err(err)
    }
}

// ----------------------------------------------------------------------
// storage: the crash hook
// ----------------------------------------------------------------------

/// An in-memory disk that crashes on a scripted mutating operation and
/// discards unsynced bytes on reboot, so durability is tested against
/// only what was flushed (killing a process would leave the OS cache
/// intact).
#[derive(Debug, Clone)]
pub struct CrashDisk(MemBackend);

impl CrashDisk {
    pub fn crashing_at(op: u64, torn_seed: u64) -> CrashDisk {
        CrashDisk(MemBackend::with_faults(FaultSpec {
            crash_at_op: Some(op),
            torn_seed,
            ..FaultSpec::default()
        }))
    }

    /// Open a durable engine over this disk.  No background flusher: a
    /// second thread issuing disk operations would make the scripted
    /// crash index land on a different commit from run to run.
    pub fn open(&self) -> Res<Engine> {
        TcuDb::open_with_backend(
            Arc::new(self.0.clone()),
            EngineConfig::default(),
            DurabilityOptions {
                background_flusher: false,
                ..DurabilityOptions::default()
            },
        )
        .map(|db| Engine(Arc::new(db)))
        .map_err(err)
    }

    pub fn crashed(&self) -> bool {
        self.0.is_crashed()
    }

    /// Power back on: every file loses a seeded part of its unsynced tail.
    pub fn reboot(&self) {
        self.0.reboot();
    }
}

// ----------------------------------------------------------------------
// serve: the in-process server
// ----------------------------------------------------------------------

/// `ServerStats` fields the harness reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounters {
    pub submitted: u64,
    pub executed: u64,
    pub coalesced: u64,
    pub admission_waits: u64,
    pub errors: u64,
    pub shed: u64,
    pub timed_out: u64,
}

impl From<ServerStats> for ServeCounters {
    fn from(s: ServerStats) -> ServeCounters {
        ServeCounters {
            submitted: s.submitted,
            executed: s.executed,
            coalesced: s.coalesced,
            admission_waits: s.admission_waits,
            errors: s.errors,
            shed: s.shed,
            timed_out: s.timed_out,
        }
    }
}

pub struct InProcServer(Server);

impl InProcServer {
    /// Worker pool over the engine with `ServeConfig::default()`.
    pub fn start(engine: &Engine) -> Res<InProcServer> {
        Server::try_start(Arc::clone(&engine.0), ServeConfig::default())
            .map(InProcServer)
            .map_err(err)
    }

    pub fn session(&self) -> Sess {
        Sess(self.0.session())
    }

    pub fn shutdown(self) -> ServeCounters {
        self.0.shutdown().into()
    }
}

pub struct Sess(Session);

impl Sess {
    pub fn execute(&self, sql: &str) -> Res<Reply> {
        self.0.execute(sql).map(Reply::from).map_err(err)
    }
}

// ----------------------------------------------------------------------
// net: the socket server, its client, and the frame codec
// ----------------------------------------------------------------------

pub struct SocketServer(NetServer);

impl SocketServer {
    /// TCUP server on a free loopback port with `NetConfig::default()`.
    pub fn start(engine: &Engine) -> Res<SocketServer> {
        NetServer::start(Arc::clone(&engine.0), NetConfig::default())
            .map(SocketServer)
            .map_err(err)
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// `(accepted, rejected)` connections so far.
    pub fn net_stats(&self) -> (u64, u64) {
        let s = self.0.stats();
        (s.accepted, s.rejected)
    }

    /// Graceful stop; returns the serving layer's final counters.
    pub fn shutdown(self) -> Res<ServeCounters> {
        self.0.shutdown().map(ServeCounters::from).map_err(err)
    }
}

pub struct Conn(Client);

impl Conn {
    pub fn connect(addr: SocketAddr) -> Res<Conn> {
        let client = Client::connect(addr).map_err(err)?;
        // A hung server must fail the run, not hang it past the driver's
        // per-run limit.
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(err)?;
        Ok(Conn(client))
    }

    /// One blocking round trip.
    pub fn query(&mut self, sql: &str) -> Res<ResultTable> {
        self.0.query(sql).map(ResultTable).map_err(err)
    }

    pub fn close(self) {
        self.0.goodbye();
    }
}

/// Encode a result set exactly as the reactor does (header, 4 096-row
/// columnar batches, done frame).
pub fn encode_reply(table: &ResultTable) -> Vec<u8> {
    let mut out = Vec::new();
    encode_result(1, &table.0, BATCH_ROWS, &mut out);
    out
}

/// Decode an encoded result set exactly as the client does.
pub fn decode_reply(bytes: &[u8]) -> Res<ResultTable> {
    let mut reader = FrameReader::default();
    reader.push_bytes(bytes);
    let mut assembler = None;
    loop {
        match reader.next_frame().map_err(err)? {
            Some(Frame::ResultHeader { name, columns, .. }) => {
                assembler = Some(ResultAssembler::new(name, columns));
            }
            Some(Frame::ResultBatch { columns, .. }) => assembler
                .as_mut()
                .ok_or("batch before header")?
                .push_batch(columns)
                .map_err(err)?,
            Some(Frame::ResultDone { rows, .. }) => {
                return assembler
                    .ok_or("done before header")?
                    .finish(rows)
                    .map(ResultTable)
                    .map_err(err)
            }
            Some(other) => return Err(format!("unexpected frame {other:?}")),
            None => return Err("result stream ended early".into()),
        }
    }
}

// ----------------------------------------------------------------------
// tensor: kernels called directly
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    Int8,
    Half,
}

impl From<Precision> for GemmPrecision {
    fn from(p: Precision) -> GemmPrecision {
        match p {
            Precision::Int8 => GemmPrecision::Int8,
            Precision::Half => GemmPrecision::Half,
        }
    }
}

/// A dense one-hot join operand: row `i` has a 1 in column `keys[i]`.
pub struct DenseOperand(DenseMatrix);

pub fn one_hot_dense(keys: &[i64], domain: usize) -> DenseOperand {
    let mut m = DenseMatrix::zeros(keys.len(), domain);
    for (i, k) in keys.iter().enumerate() {
        m.row_mut(i)[*k as usize] = 1.0;
    }
    DenseOperand(m)
}

/// `A x B^T`; returns the sum of the product's entries (for a one-hot
/// pair, the join cardinality) and the multiply-accumulate count.
pub fn gemm_bt_sum(a: &DenseOperand, b: &DenseOperand, p: Precision) -> Res<(f64, u64)> {
    let (c, stats) = gemm_bt(&a.0, &b.0, p.into()).map_err(err)?;
    let sum = c.data().iter().map(|v| f64::from(*v)).sum();
    Ok((sum, (stats.flops / 2.0) as u64))
}

/// A CSR one-hot join operand.
pub struct SparseOperand(CsrMatrix);

pub fn one_hot_csr(keys: &[i64], domain: usize) -> Res<SparseOperand> {
    let triplets: Vec<(usize, usize, f32)> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (i, *k as usize, 1.0))
        .collect();
    CsrMatrix::from_triplets(keys.len(), domain, &triplets)
        .map(SparseOperand)
        .map_err(err)
}

/// TCU-SpMM `A x B^T` in half precision; returns the sum of the product's
/// entries, the share of tile pairs skipped, and the MACs executed.
pub fn spmm_sum(a: &SparseOperand, b: &SparseOperand) -> Res<(f64, f64, u64)> {
    let (c, stats) = tcu_spmm(&a.0, &b.0, GemmPrecision::Half).map_err(err)?;
    let sum = c.data().iter().map(|v| f64::from(*v)).sum();
    Ok((sum, stats.skip_ratio(), (stats.flops / 2.0) as u64))
}

/// Per-group sums as a one-hot GEMM in half precision.
pub fn grouped_sum(values: &[f32], groups: &[u32], group_count: usize) -> Res<(Vec<f32>, u64)> {
    grouped_sum_gemm(values, groups, group_count, GemmPrecision::Half)
        .map(|(sums, stats)| (sums, (stats.flops / 2.0) as u64))
        .map_err(err)
}

/// The f32 microkernel tier this host runs (`Avx512`, `Avx2Fma`, `Scalar`).
pub fn simd() -> String {
    format!("{:?}", simd_level())
}

// ----------------------------------------------------------------------
// pool
// ----------------------------------------------------------------------

/// `(thread budget, morsels executed so far)` of the process-wide pool.
pub fn pool_counters() -> (usize, u64) {
    let pool = WorkerPool::shared();
    (pool.budget(), pool.morsels_run())
}

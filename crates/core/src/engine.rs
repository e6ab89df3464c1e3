//! The public TCUDB engine facade.
//!
//! [`TcuDb`] is built for concurrent serving: every method that queries
//! takes `&self`, so one engine wrapped in an [`Arc`] can be hammered by
//! any number of threads.  Reads pin an immutable
//! [`CatalogSnapshot`] for their whole
//! lifetime; writes (also `&self`) publish a *new* snapshot with a bumped
//! epoch and never disturb in-flight queries.  Statements are cached per
//! `(normalized SQL, epoch)` in a [`PlanCache`], so repeat executions of
//! identical SQL skip parse, analysis and optimizer costing entirely.

use crate::analyzer;
use crate::executor::{self, HostBreakdown, PlanDescription};
use crate::optimizer::{Optimizer, OptimizerConfig, PlanKind};
use crate::plancache::{self, PlanCache, PlanCacheStats};
use std::cell::RefCell;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tcudb_device::{DeviceProfile, ExecutionTimeline};
use tcudb_sql::parse;
use tcudb_storage::{
    spawn_flusher, Catalog, CatalogSnapshot, DurabilityOptions, DurableStore, Flusher, FsBackend,
    MemBackend, RecoveryReport, SharedCatalog, StorageBackend, Table, WalRecord,
};
use tcudb_types::sync::locked;
use tcudb_types::{TcuError, TcuResult, Value};

/// Rows per `AppendRows` WAL record: large ingests are chunked so no
/// single log frame grows unbounded.
const APPEND_CHUNK_ROWS: usize = tcudb_storage::DEFAULT_CHUNK_ROWS;

/// Engine-wide configuration.
///
/// There is one execution path — dictionary codes from scan to result,
/// zone-map pruning always on — so nothing here selects *how* a query is
/// evaluated, only the simulated device, the optimizer's thresholds, how
/// large a shape the emulated tensor kernels really run, and the host
/// thread budget.  Every setting leaves query results unchanged except
/// [`count_only`](EngineConfig::count_only), which replaces them with the
/// matched-tuple count.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The simulated device the engine targets.
    pub device: DeviceProfile,
    /// Optimizer tunables (density threshold, forced plans, lossy fp16).
    pub optimizer: OptimizerConfig,
    /// Largest number of matrix elements per operand (and per result) that
    /// the engine will physically materialise and run through the real
    /// tensor kernels; larger shapes execute through the host join
    /// operators while still being costed with the tensor-kernel formulas.
    pub materialize_limit: usize,
    /// Largest `m·n·k` multiply-accumulate count the engine will actually
    /// execute on the emulated tensor kernels.  Dense-GEMM operation
    /// statistics are shape-derived, so beyond this budget the engine
    /// computes the identical answer through the host join operators and
    /// charges the identical simulated kernel cost — running the emulated
    /// kernel would only burn host time validating what the oracle tests
    /// already prove.
    pub kernel_mac_limit: u128,
    /// When set, queries (single-table ones included) return only the
    /// matched-tuple count instead of the fully materialised result rows —
    /// used by the large benchmark configurations where materialising
    /// hundreds of millions of result rows on the host would dominate
    /// harness time without affecting the simulated device timings being
    /// measured.
    pub count_only: bool,
    /// Thread cap for one morsel run (scan chunks, join probe ranges).
    /// `None` sizes each run from the shared
    /// [`WorkerPool`](tcudb_types::WorkerPool)'s currently idle share;
    /// `Some(1)` forces chunk-serial execution (the single-thread
    /// baseline).
    pub morsel_threads: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            device: DeviceProfile::rtx_3090(),
            optimizer: OptimizerConfig::default(),
            materialize_limit: 1 << 24,
            kernel_mac_limit: 1 << 27,
            count_only: false,
            morsel_threads: None,
        }
    }
}

impl EngineConfig {
    /// Configuration targeting a specific device profile.
    pub fn for_device(device: DeviceProfile) -> EngineConfig {
        EngineConfig {
            device,
            ..EngineConfig::default()
        }
    }

    /// Force every join step onto a specific plan kind (ablation studies).
    pub fn with_forced_plan(mut self, plan: PlanKind) -> EngineConfig {
        self.optimizer.force_plan = Some(plan);
        self
    }

    /// Fix the morsel thread cap (`None` = size from the shared pool).
    pub fn with_morsel_threads(mut self, threads: Option<usize>) -> EngineConfig {
        self.morsel_threads = threads;
        self
    }

    /// Threads one morsel run may use under this configuration: the
    /// explicit cap when set, else the shared worker pool's currently
    /// idle share.
    pub fn effective_morsel_threads(&self) -> usize {
        self.morsel_threads
            .unwrap_or_else(|| tcudb_types::WorkerPool::shared().scoped_parallelism())
            .max(1)
    }
}

/// The result of executing one SQL query.
///
/// Without `ORDER BY`, the order of the rows in [`QueryOutput::table`] is
/// unspecified: it follows the join plan (nonzero extraction is
/// left-major, the code join probe-major, the star route root-row order),
/// so two plans — or two engines — may return the same rows in different
/// orders.  Compare unordered results as multisets.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The result rows.
    pub table: Table,
    /// Per-phase simulated timing breakdown.
    pub timeline: ExecutionTimeline,
    /// Description of the physical plan that ran.
    pub plan: PlanDescription,
    /// Host-measured wall-clock attribution (filter / join / finalize),
    /// independent of the simulated device timeline.
    pub host: HostBreakdown,
}

impl QueryOutput {
    /// Total simulated execution time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.timeline.total_seconds()
    }
}

/// The TCUDB engine: a shared, versioned catalog of tables plus the
/// TCU-aware optimizer, executor and plan/statement cache.
///
/// Queries and writes both take `&self`: wrap the engine in an
/// [`Arc`] and share it freely across threads.  Each `execute` pins the
/// catalog snapshot current at its start; concurrent
/// [`register_table`](TcuDb::register_table) /
/// [`append_rows`](TcuDb::append_rows) calls publish new snapshots that
/// only later queries observe.
///
/// ```
/// use tcudb_core::TcuDb;
/// use tcudb_storage::Table;
///
/// let db = TcuDb::default();
/// db.register_table(
///     Table::from_int_columns("A", &[("id", vec![1, 2]), ("val", vec![10, 20])]).unwrap(),
/// );
/// db.register_table(
///     Table::from_int_columns("B", &[("id", vec![2]), ("val", vec![7])]).unwrap(),
/// );
/// let out = db.execute("SELECT A.val, B.val FROM A, B WHERE A.id = B.id").unwrap();
/// assert_eq!(out.table.num_rows(), 1);
/// // The second execution of the identical statement hits the plan cache.
/// db.execute("SELECT A.val, B.val FROM A, B WHERE A.id = B.id").unwrap();
/// assert_eq!(db.plan_cache_stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct TcuDb {
    shared: Arc<SharedCatalog>,
    config: EngineConfig,
    plan_cache: PlanCache,
    durability: Option<Durability>,
}

/// Everything a durable engine carries beyond the in-memory state.
#[derive(Debug)]
struct Durability {
    store: Arc<DurableStore>,
    report: RecoveryReport,
    /// Dropping the handle stops and joins the background flusher.
    _flusher: Option<Flusher>,
    /// Last error swallowed by an infallible write wrapper.
    last_error: Mutex<Option<String>>,
    error_count: AtomicU64,
}

impl Default for TcuDb {
    fn default() -> Self {
        TcuDb::new(EngineConfig::default())
    }
}

impl Clone for TcuDb {
    /// Cloning forks the engine: the clone starts from this engine's
    /// current catalog snapshot (sharing table storage by `Arc`) with the
    /// same configuration and a cold plan cache, then evolves
    /// independently.  The fork is always in-memory — it does not share
    /// (or reopen) the original's write-ahead log.
    fn clone(&self) -> Self {
        TcuDb {
            shared: Arc::new((*self.shared).clone()),
            config: self.config.clone(),
            plan_cache: PlanCache::default(),
            durability: None,
        }
    }
}

impl TcuDb {
    /// Create an in-memory engine (no durability) with the given
    /// configuration.
    pub fn new(config: EngineConfig) -> TcuDb {
        TcuDb {
            shared: Arc::new(SharedCatalog::default()),
            config,
            plan_cache: PlanCache::default(),
            durability: None,
        }
    }

    /// Create an engine for a specific device with default settings.
    pub fn for_device(device: DeviceProfile) -> TcuDb {
        TcuDb::new(EngineConfig::for_device(device))
    }

    /// Open (or create) a durable database in `dir`: recover to the last
    /// published epoch, truncate any torn WAL tail, and start logging
    /// writes.  Uses the default engine configuration and
    /// [`DurabilityOptions`]; see [`TcuDb::open_with`] to tune either.
    pub fn open(dir: impl AsRef<Path>) -> TcuResult<TcuDb> {
        TcuDb::open_with(dir, EngineConfig::default(), DurabilityOptions::default())
    }

    /// [`TcuDb::open`] with explicit engine and durability configuration.
    pub fn open_with(
        dir: impl AsRef<Path>,
        config: EngineConfig,
        options: DurabilityOptions,
    ) -> TcuResult<TcuDb> {
        let backend = Arc::new(FsBackend::open(dir.as_ref())?);
        TcuDb::open_with_backend(backend, config, options)
    }

    /// A durable engine over an in-memory backend: full WAL + checkpoint
    /// machinery, no filesystem.  The state lives only as long as the
    /// process; mainly useful for tests and experiments.
    pub fn open_in_memory() -> TcuResult<TcuDb> {
        TcuDb::open_with_backend(
            Arc::new(MemBackend::new()),
            EngineConfig::default(),
            DurabilityOptions::default(),
        )
    }

    /// Open a durable engine over any [`StorageBackend`] — the fault
    /// injection harness passes a `MemBackend` with a scripted crash
    /// point here.
    pub fn open_with_backend(
        backend: Arc<dyn StorageBackend>,
        config: EngineConfig,
        options: DurabilityOptions,
    ) -> TcuResult<TcuDb> {
        let background = options.background_flusher;
        let interval = options.flusher_interval;
        let (store, recovered) = DurableStore::open(backend, options)?;
        let shared = Arc::new(SharedCatalog::at_epoch(recovered.epoch, recovered.catalog));
        let store = Arc::new(store);
        let flusher = if background {
            Some(spawn_flusher(
                Arc::clone(&store),
                Arc::clone(&shared),
                interval,
            )?)
        } else {
            None
        };
        Ok(TcuDb {
            shared,
            config,
            plan_cache: PlanCache::default(),
            durability: Some(Durability {
                store,
                report: recovered.report,
                _flusher: flusher,
                last_error: Mutex::new(None),
                error_count: AtomicU64::new(0),
            }),
        })
    }

    /// True when writes are logged to a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// What recovery found when this engine was opened (durable engines
    /// only).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.durability.as_ref().map(|d| &d.report)
    }

    /// Seal the current epoch into segment files and rotate the WAL.
    /// Returns the sealed epoch, `Ok(None)` when nothing new was
    /// published (or the engine is in-memory).
    pub fn checkpoint(&self) -> TcuResult<Option<u64>> {
        match &self.durability {
            Some(d) => d.store.checkpoint(&self.shared),
            None => Ok(None),
        }
    }

    /// Errors swallowed by the infallible write wrappers
    /// ([`register_table`](TcuDb::register_table) and friends) since
    /// open.  Durable deployments that must not lose writes should call
    /// the `try_` variants instead.
    pub fn write_error_count(&self) -> u64 {
        match &self.durability {
            Some(d) => d.error_count.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// The most recent swallowed write error, if any.
    pub fn last_write_error(&self) -> Option<String> {
        self.durability
            .as_ref()
            .and_then(|d| locked(&d.last_error).clone())
    }

    fn note_write_error(&self, err: &TcuError) {
        if let Some(d) = &self.durability {
            d.error_count.fetch_add(1, Ordering::Relaxed);
            *locked(&d.last_error) = Some(err.to_string());
        }
    }

    /// Register (or replace) a table, publishing a new catalog snapshot.
    ///
    /// Infallible wrapper around [`TcuDb::try_register_table`]: a WAL
    /// failure on a durable engine is recorded (see
    /// [`TcuDb::write_error_count`]) and the write is NOT published.
    pub fn register_table(&self, table: Table) {
        if let Err(e) = self.try_register_table(table) {
            self.note_write_error(&e);
        }
    }

    /// Register (or replace) a table, publishing a new catalog snapshot;
    /// on a durable engine the write is in the log before it is visible.
    pub fn try_register_table(&self, table: Table) -> TcuResult<()> {
        let durable = self.is_durable();
        self.publish_records(|c, records| {
            if durable {
                records_for_register(c, &table, records);
            }
            c.register(table);
            Ok(())
        })
    }

    /// Register a table under an explicit name (new snapshot).  Same
    /// error handling as [`TcuDb::register_table`].
    pub fn register_table_as(&self, name: &str, table: Table) {
        let mut table = table;
        table.set_name(name);
        self.register_table(table);
    }

    /// Append rows to a registered table, publishing a new snapshot.
    ///
    /// The write is copy-on-write and costs one memcpy of the table's
    /// column vectors plus O(batch) bookkeeping
    /// ([`Catalog::append_rows`]): the current version is cloned, the rows
    /// are appended, and warm dictionary encodings, zone maps and the
    /// exact column statistics are *extended* by the batch, never
    /// rebuilt.  Queries pinned to older snapshots are unaffected.  The
    /// batch is validated up front and rejected atomically; on a durable
    /// engine a successful append is in the WAL before it becomes visible.
    pub fn append_rows(&self, name: &str, rows: Vec<Vec<Value>>) -> TcuResult<()> {
        // A rejected write publishes nothing: the epoch is unchanged and
        // every cached plan stays warm.
        let durable = self.is_durable();
        self.publish_records(|c, records| {
            // The table copies each value once, from the borrowed batch;
            // the rows themselves then move into the log records.
            c.append_rows(name, &rows)?;
            if durable {
                let name = c.table(name)?.name().to_string();
                let mut rest = rows;
                while !rest.is_empty() {
                    let tail = rest.split_off(rest.len().min(APPEND_CHUNK_ROWS));
                    records.push(WalRecord::AppendRows {
                        name: name.clone(),
                        rows: std::mem::replace(&mut rest, tail),
                    });
                }
            }
            Ok(())
        })
    }

    /// Drop a table (new snapshot), returning whether it existed.
    ///
    /// Infallible wrapper around [`TcuDb::try_drop_table`]: a WAL failure
    /// is recorded and reported as `false`.
    pub fn drop_table(&self, name: &str) -> bool {
        match self.try_drop_table(name) {
            Ok(existed) => existed,
            Err(e) => {
                self.note_write_error(&e);
                false
            }
        }
    }

    /// Drop a table (new snapshot), returning whether it existed; on a
    /// durable engine the drop is in the log before it takes effect.
    pub fn try_drop_table(&self, name: &str) -> TcuResult<bool> {
        let durable = self.is_durable();
        self.publish_records(|c, records| {
            if durable && c.contains(name) {
                records.push(WalRecord::DropTable { name: name.into() });
            }
            Ok(c.drop_table(name))
        })
    }

    /// Replace the whole catalog, e.g. to share one with a baseline
    /// engine (new snapshot).  Same error handling as
    /// [`TcuDb::register_table`].
    pub fn set_catalog(&self, catalog: Catalog) {
        if let Err(e) = self.try_set_catalog(catalog) {
            self.note_write_error(&e);
        }
    }

    /// Replace the whole catalog (new snapshot); on a durable engine the
    /// replacement is logged as drops of every old table followed by
    /// creates of every new one.
    pub fn try_set_catalog(&self, catalog: Catalog) -> TcuResult<()> {
        let durable = self.is_durable();
        self.publish_records(move |c, records| {
            if durable {
                for name in c.table_names() {
                    records.push(WalRecord::DropTable { name });
                }
                for name in catalog.table_names() {
                    let table = catalog.table(&name)?;
                    records_for_register(c, &table, records);
                }
            }
            *c = catalog;
            Ok(())
        })
    }

    /// Apply a catalog write transactionally: `f` mutates a staged copy
    /// and appends the WAL records describing the change; the commit is
    /// logged (durable engines) strictly before the snapshot is
    /// published.  A failure anywhere publishes nothing.
    fn publish_records<R>(
        &self,
        f: impl FnOnce(&mut Catalog, &mut Vec<WalRecord>) -> TcuResult<R>,
    ) -> TcuResult<R> {
        let records: RefCell<Vec<WalRecord>> = RefCell::new(Vec::new());
        let (snapshot, out) = self.shared.try_update_with(
            |c| f(c, &mut records.borrow_mut()),
            |epoch| match &self.durability {
                Some(d) => d.store.log_commit(&records.borrow(), epoch),
                None => Ok(()),
            },
        )?;
        self.plan_cache.retire_epochs_before(snapshot.epoch());
        // Without a background flusher, size-triggered checkpoints run
        // inline on the writing thread.
        if let Some(d) = &self.durability {
            if d._flusher.is_none() && d.store.needs_checkpoint() {
                if let Err(e) = d.store.checkpoint(&self.shared) {
                    self.note_write_error(&e);
                }
            }
        }
        Ok(out)
    }

    /// Pin the current catalog snapshot (shared with baseline engines in
    /// comparisons; dereferences to [`Catalog`]).
    pub fn catalog(&self) -> Arc<CatalogSnapshot> {
        self.shared.snapshot()
    }

    /// Pin the current catalog snapshot — alias of [`TcuDb::catalog`]
    /// that reads better at serving call sites.
    pub fn snapshot(&self) -> Arc<CatalogSnapshot> {
        self.shared.snapshot()
    }

    /// The current catalog epoch (bumped by every published write).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Mutable access to the engine configuration.  Clears the plan cache:
    /// recorded plan choices embed decisions made under the old
    /// configuration (device profile, forced plans, thresholds).
    pub fn config_mut(&mut self) -> &mut EngineConfig {
        self.plan_cache.clear();
        &mut self.config
    }

    /// The optimizer derived from the current configuration.
    pub fn optimizer(&self) -> Optimizer {
        Optimizer::with_config(self.config.device.clone(), self.config.optimizer.clone())
    }

    /// Hit/miss counters of the plan/statement cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Number of statements currently held by the plan cache.
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.len()
    }

    /// Parse, analyze, optimize and execute a SQL query against the
    /// current catalog snapshot.
    ///
    /// The snapshot is pinned once at entry: a concurrent write published
    /// mid-execution is invisible to this query.  Repeat executions of a
    /// statement that normalizes identically (see
    /// [`plancache::normalize_sql`]) against an unchanged catalog skip
    /// parse, analysis and per-join-step optimizer costing via the plan
    /// cache.
    pub fn execute(&self, sql: &str) -> TcuResult<QueryOutput> {
        let snapshot = self.shared.snapshot();
        self.execute_at(sql, &snapshot)
    }

    /// Execute against an explicitly pinned snapshot (must originate from
    /// this engine — the plan cache keys on its epoch).  Lets a session
    /// run several statements against one consistent catalog state.
    pub fn execute_at(&self, sql: &str, snapshot: &CatalogSnapshot) -> TcuResult<QueryOutput> {
        let entry = self.prepare(sql, snapshot)?;
        self.execute_prepared(&entry)
    }

    /// Resolve a statement to its plan-cache entry for a pinned snapshot,
    /// parsing and analyzing on a miss.  One cache lookup (hit or miss) is
    /// counted per call.  The serving layer prepares at admission time —
    /// the analyzed query feeds
    /// [`executor::estimate_working_set_bytes`] — and executes the same
    /// entry later without a second lookup.
    pub fn prepare(
        &self,
        sql: &str,
        snapshot: &CatalogSnapshot,
    ) -> TcuResult<Arc<plancache::CachedStatement>> {
        let key = (plancache::normalize_sql(sql), snapshot.epoch());
        match self.plan_cache.lookup(&key) {
            Some(entry) => Ok(entry),
            None => {
                let stmt = Arc::new(parse(sql)?);
                let analyzed = Arc::new(analyzer::analyze(&stmt, snapshot.catalog())?);
                Ok(self
                    .plan_cache
                    .insert(key.0, snapshot.epoch(), stmt, analyzed))
            }
        }
    }

    /// Execute a prepared statement (its bound tables pin the snapshot it
    /// was prepared against), recording the plan choices into the entry if
    /// this is its first execution.
    pub fn execute_prepared(&self, entry: &plancache::CachedStatement) -> TcuResult<QueryOutput> {
        self.execute_prepared_ctx(entry, &tcudb_types::sync::QueryContext::unbounded())
    }

    /// [`TcuDb::execute_prepared`] under a cancellation/deadline context.
    /// The context is probed at every pipeline chunk boundary (filters,
    /// join steps, tensor k-blocks, finalize chunks); a cancelled or
    /// past-deadline query returns [`tcudb_types::TcuError::Cancelled`] /
    /// [`tcudb_types::TcuError::DeadlineExceeded`] without recording plan
    /// choices for the aborted run.
    pub fn execute_prepared_ctx(
        &self,
        entry: &plancache::CachedStatement,
        ctx: &tcudb_types::sync::QueryContext,
    ) -> TcuResult<QueryOutput> {
        let optimizer = self.optimizer();
        let replay = entry.plan();
        let exec = executor::execute_ctx(
            &entry.analyzed,
            &optimizer,
            &self.config,
            replay.as_deref(),
            ctx,
        )?;
        if replay.is_none() {
            entry.record_plan(exec.recorded);
        }
        Ok(QueryOutput {
            table: exec.table,
            timeline: exec.timeline,
            plan: exec.plan,
            host: exec.host,
        })
    }

    /// Analyze a query without executing it (exposed for tools, tests and
    /// the serving layer's admission control).  Bypasses the plan cache.
    pub fn explain(&self, sql: &str) -> TcuResult<crate::analyzer::AnalyzedQuery> {
        let stmt = parse(sql)?;
        analyzer::analyze(&stmt, self.shared.snapshot().catalog())
    }
}

/// WAL records for registering `table` into the staged catalog `c`: a
/// drop when the name is being replaced, the create, and the existing
/// rows in chunks.
fn records_for_register(c: &Catalog, table: &Table, records: &mut Vec<WalRecord>) {
    let name = table.name().to_string();
    if c.contains(&name) {
        records.push(WalRecord::DropTable { name: name.clone() });
    }
    records.push(WalRecord::CreateTable {
        name: name.clone(),
        schema: table.schema().clone(),
    });
    let mut rows = Vec::new();
    for row in table.rows_iter() {
        rows.push(row);
        if rows.len() == APPEND_CHUNK_ROWS {
            records.push(WalRecord::AppendRows {
                name: name.clone(),
                rows: std::mem::take(&mut rows),
            });
        }
    }
    if !rows.is_empty() {
        records.push(WalRecord::AppendRows { name, rows });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::QueryPattern;
    use tcudb_types::Value;

    fn db() -> TcuDb {
        let db = TcuDb::default();
        db.register_table(
            Table::from_int_columns(
                "A",
                &[("id", vec![1, 1, 2, 3]), ("val", vec![10, 11, 20, 30])],
            )
            .unwrap(),
        );
        db.register_table(
            Table::from_int_columns("B", &[("id", vec![1, 2, 2]), ("val", vec![5, 6, 7])]).unwrap(),
        );
        db
    }

    #[test]
    fn q1_join_returns_matching_pairs() {
        let out = db()
            .execute("SELECT A.val, B.val FROM A, B WHERE A.id = B.id")
            .unwrap();
        assert_eq!(out.table.num_rows(), 4);
        // With only a handful of rows the cost-based optimizer is free to
        // pick either side; correctness and a non-empty plan is what counts.
        assert!(!out.plan.steps.is_empty());
        assert!(out.total_seconds() > 0.0);
        assert!(out.plan.format().contains("join"));
    }

    #[test]
    fn q3_group_by_aggregate() {
        let out = db()
            .execute("SELECT SUM(A.val), B.val FROM A, B WHERE A.id = B.id GROUP BY B.val")
            .unwrap();
        assert_eq!(out.table.num_rows(), 3);
        // Group with B.val = 5 joins A ids 1,1 → 21.
        assert_eq!(out.table.row(0)[0].as_f64().unwrap(), 21.0);
    }

    #[test]
    fn q4_global_aggregate() {
        let out = db()
            .execute("SELECT SUM(A.val * B.val) FROM A, B WHERE A.id = B.id")
            .unwrap();
        assert_eq!(out.table.num_rows(), 1);
        // 10*5 + 11*5 + 20*6 + 20*7 = 365
        assert_eq!(out.table.row(0)[0].as_f64().unwrap(), 365.0);
    }

    #[test]
    fn q5_non_equi_join() {
        let out = db()
            .execute("SELECT A.val, B.val FROM A, B WHERE A.id < B.id")
            .unwrap();
        // A.id=1 (<2 twice) x2 rows of A with id 1 → 4, plus A.id=2 < nothing... B ids are 1,2,2.
        // Pairs: A rows with id 1 (2 rows) match B rows with id 2 (2 rows) = 4.
        assert_eq!(out.table.num_rows(), 4);
    }

    #[test]
    fn single_table_filter() {
        let out = db()
            .execute("SELECT A.val FROM A WHERE A.val >= 20 ORDER BY A.val DESC")
            .unwrap();
        assert_eq!(out.table.num_rows(), 2);
        assert_eq!(out.table.row(0)[0], Value::Int(30));
    }

    #[test]
    fn explain_reports_pattern() {
        let analyzed = db()
            .explain("SELECT SUM(A.val), B.val FROM A, B WHERE A.id = B.id GROUP BY B.val")
            .unwrap();
        assert_eq!(analyzed.pattern, QueryPattern::JoinGroupByAggregate);
    }

    #[test]
    fn count_only_mode_returns_count() {
        let mut engine = db();
        engine.config_mut().count_only = true;
        let out = engine
            .execute("SELECT A.val, B.val FROM A, B WHERE A.id = B.id")
            .unwrap();
        assert_eq!(out.table.num_rows(), 1);
        assert_eq!(out.table.row(0)[0], Value::Int(4));
        // ... for any table count: a single-table query has three matches.
        let out = engine
            .execute("SELECT A.val FROM A WHERE A.val > 10")
            .unwrap();
        assert_eq!(out.table.num_rows(), 1);
        assert_eq!(out.table.row(0)[0], Value::Int(3));
    }

    #[test]
    fn forced_gpu_plan_still_correct() {
        let config = EngineConfig::default().with_forced_plan(PlanKind::GpuFallback);
        let engine = TcuDb::new(config);
        engine.set_catalog(db().catalog().catalog().clone());
        let out = engine
            .execute("SELECT A.val, B.val FROM A, B WHERE A.id = B.id")
            .unwrap();
        assert_eq!(out.table.num_rows(), 4);
        assert!(out.timeline.seconds_in(tcudb_device::Phase::HashJoin) > 0.0);
    }

    #[test]
    fn three_way_join_chains_gemm_steps() {
        let engine = db();
        engine.register_table(
            Table::from_int_columns("C", &[("id", vec![2, 3]), ("w", vec![100, 200])]).unwrap(),
        );
        let out = engine
            .execute("SELECT A.val, B.val, C.w FROM A, B, C WHERE A.id = B.id AND B.id = C.id")
            .unwrap();
        // A⋈B on id: (1,1),(1,1),(2,2),(2,2) → ids 1,1,2,2; C has ids 2,3 → only id=2 rows survive.
        assert_eq!(out.table.num_rows(), 2);
        assert!(out.plan.steps.iter().filter(|s| s.contains("join")).count() >= 2);
    }

    #[test]
    fn order_preserved_results_match_reference_engine_semantics() {
        let out = db()
            .execute("SELECT A.val, B.val FROM A, B WHERE A.id = B.id ORDER BY A.val ASC LIMIT 2")
            .unwrap();
        assert_eq!(out.table.num_rows(), 2);
        assert_eq!(out.table.row(0)[0], Value::Int(10));
    }

    #[test]
    fn repeat_statements_hit_the_plan_cache_with_identical_results() {
        let engine = db();
        let sql = "SELECT SUM(A.val), B.val FROM A, B WHERE A.id = B.id GROUP BY B.val";
        let first = engine.execute(sql).unwrap();
        let stats = engine.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));

        // Different whitespace, same normalized statement: a hit that
        // skips parse/analyze and replays the recorded plan choices.
        let second = engine
            .execute("SELECT  SUM(A.val),  B.val\nFROM A, B  WHERE A.id = B.id GROUP BY B.val")
            .unwrap();
        let stats = engine.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(first.table, second.table);
        assert_eq!(first.plan.steps, second.plan.steps);
        // The replayed run charges the identical simulated timeline.
        assert_eq!(
            first.timeline.total_seconds(),
            second.timeline.total_seconds()
        );
        assert_eq!(engine.plan_cache_len(), 1);
    }

    #[test]
    fn the_join_route_is_recorded_and_replayed_with_the_plan() {
        // `C`'s key is unique and `A`, listed last, is the root: a star.
        // Under the GPU fallback it runs on the star route; a forced dense
        // TCU plan on shapes this small runs a real kernel, so the star
        // pass is discarded and the pairwise route replays its choices.
        for (kind, star) in [(PlanKind::GpuFallback, true), (PlanKind::TcuDense, false)] {
            let engine = TcuDb::new(EngineConfig::default().with_forced_plan(kind));
            engine.register_table(
                Table::from_int_columns(
                    "A",
                    &[("id", vec![1, 1, 2, 3]), ("val", vec![10, 11, 20, 30])],
                )
                .unwrap(),
            );
            engine.register_table(
                Table::from_int_columns("C", &[("id", vec![3, 1, 2]), ("w", vec![300, 100, 200])])
                    .unwrap(),
            );
            let sql = "SELECT A.val, C.w FROM C, A WHERE A.id = C.id";
            let cold = engine.execute(sql).unwrap();
            let warm = engine.execute(sql).unwrap();
            assert_eq!(
                (cold.plan.star_join, warm.plan.star_join),
                (star, star),
                "{kind}"
            );
            assert_eq!(cold.table, warm.table, "{kind}");
            assert_eq!(cold.plan.steps, warm.plan.steps, "{kind}");
            assert_eq!(
                cold.timeline.total_seconds(),
                warm.timeline.total_seconds(),
                "{kind}"
            );
            assert_eq!(cold.table.num_rows(), 4);
        }
    }

    #[test]
    fn writes_bump_the_epoch_and_retire_cached_plans() {
        let engine = db();
        let sql = "SELECT A.val, B.val FROM A, B WHERE A.id = B.id";
        engine.execute(sql).unwrap();
        engine.execute(sql).unwrap();
        assert_eq!(engine.plan_cache_stats().hits, 1);

        let epoch_before = engine.epoch();
        engine
            .append_rows("B", vec![vec![Value::Int(3), Value::Int(8)]])
            .unwrap();
        assert_eq!(engine.epoch(), epoch_before + 1);

        // The post-ingest execution must miss (stale plans were retired)
        // and must see the new row: A.id=3 now matches.
        let out = engine.execute(sql).unwrap();
        let stats = engine.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert!(stats.stale_evictions >= 1);
        assert_eq!(out.table.num_rows(), 5);
    }

    #[test]
    fn pinned_snapshots_isolate_queries_from_concurrent_writes() {
        let engine = db();
        let sql = "SELECT A.val, B.val FROM A, B WHERE A.id = B.id";
        let pinned = engine.snapshot();
        engine
            .append_rows("B", vec![vec![Value::Int(3), Value::Int(8)]])
            .unwrap();
        // Against the pinned snapshot the ingest is invisible...
        let old = engine.execute_at(sql, &pinned).unwrap();
        assert_eq!(old.table.num_rows(), 4);
        // ...while the current snapshot sees it.
        assert_eq!(engine.execute(sql).unwrap().table.num_rows(), 5);
    }

    #[test]
    fn append_rows_keeps_warm_dictionaries_and_stays_correct() {
        let engine = db();
        let sql = "SELECT SUM(A.val), B.val FROM A, B WHERE A.id = B.id GROUP BY B.val";
        engine.execute(sql).unwrap(); // warms A.id / B.id dictionaries
        let warm = engine.snapshot().table("a").unwrap().encoded_column_count();
        assert!(warm >= 1);
        engine
            .append_rows("A", vec![vec![Value::Int(2), Value::Int(5)]])
            .unwrap();
        // The new table version still has its warm (extended) encodings.
        assert_eq!(
            engine.snapshot().table("a").unwrap().encoded_column_count(),
            warm
        );
        let out = engine.execute(sql).unwrap();
        // Group B.val=6 and B.val=7 each gain the appended A row (val 5).
        assert_eq!(out.table.num_rows(), 3);
        assert_eq!(out.table.row(0)[0].as_f64().unwrap(), 21.0);
    }

    #[test]
    fn append_rows_to_missing_table_errors_without_publishing() {
        let engine = db();
        engine
            .execute("SELECT A.val FROM A WHERE A.val >= 20")
            .unwrap();
        let epoch = engine.epoch();
        assert!(engine.append_rows("ghost", vec![]).is_err());
        // The rejected write publishes nothing: the epoch is unchanged
        // and cached plans stay warm.
        assert_eq!(engine.epoch(), epoch);
        assert_eq!(engine.plan_cache_len(), 1);
        assert!(!engine.snapshot().contains("ghost"));
    }

    fn durable_on(backend: tcudb_storage::MemBackend) -> TcuDb {
        TcuDb::open_with_backend(
            std::sync::Arc::new(backend),
            EngineConfig::default(),
            tcudb_storage::DurabilityOptions::strict_manual(),
        )
        .unwrap()
    }

    #[test]
    fn durable_engine_round_trips_through_reopen() {
        let backend = tcudb_storage::MemBackend::new();
        {
            let engine = durable_on(backend.clone());
            assert!(engine.is_durable());
            engine.register_table(
                Table::from_int_columns("A", &[("id", vec![1, 2]), ("val", vec![10, 20])]).unwrap(),
            );
            engine
                .append_rows("A", vec![vec![Value::Int(3), Value::Int(30)]])
                .unwrap();
            engine.register_table(
                Table::from_int_columns("B", &[("id", vec![2]), ("val", vec![7])]).unwrap(),
            );
            assert!(engine.drop_table("B"));
            assert_eq!(engine.write_error_count(), 0);
        }
        let engine = durable_on(backend);
        let report = engine.recovery_report().unwrap();
        assert_eq!(report.recovered_epoch, 4);
        assert_eq!(report.replayed_commits, 4);
        assert!(!engine.snapshot().contains("B"));
        let out = engine
            .execute("SELECT A.val FROM A ORDER BY A.val DESC")
            .unwrap();
        assert_eq!(out.table.num_rows(), 3);
        assert_eq!(out.table.row(0)[0], Value::Int(30));
    }

    #[test]
    fn checkpoint_then_reopen_skips_replay() {
        let backend = tcudb_storage::MemBackend::new();
        {
            let engine = durable_on(backend.clone());
            engine.register_table(
                Table::from_int_columns("A", &[("id", vec![1, 2]), ("val", vec![10, 20])]).unwrap(),
            );
            assert_eq!(engine.checkpoint().unwrap(), Some(1));
            // Nothing new: checkpoint is idempotent per epoch.
            assert_eq!(engine.checkpoint().unwrap(), None);
        }
        let engine = durable_on(backend);
        let report = engine.recovery_report().unwrap();
        assert_eq!(report.manifest_epoch, 1);
        assert_eq!(report.replayed_commits, 0);
        assert_eq!(engine.snapshot().table("a").unwrap().num_rows(), 2);
    }

    #[test]
    fn clone_forks_a_durable_engine_in_memory() {
        let engine = durable_on(tcudb_storage::MemBackend::new());
        engine.register_table(Table::from_int_columns("A", &[("id", vec![1])]).unwrap());
        let fork = engine.clone();
        assert!(!fork.is_durable());
        fork.register_table(Table::from_int_columns("C", &[("id", vec![9])]).unwrap());
        // The fork sees the original's tables; the original never sees
        // the fork's writes.
        assert!(fork.snapshot().contains("A"));
        assert!(!engine.snapshot().contains("C"));
    }

    #[test]
    fn in_memory_engine_reports_no_durability() {
        let engine = db();
        assert!(!engine.is_durable());
        assert!(engine.recovery_report().is_none());
        assert_eq!(engine.checkpoint().unwrap(), None);
        assert_eq!(engine.write_error_count(), 0);
        assert!(engine.last_write_error().is_none());
    }

    #[test]
    fn config_mut_clears_cached_plans() {
        let mut engine = db();
        let sql = "SELECT A.val, B.val FROM A, B WHERE A.id = B.id";
        engine.execute(sql).unwrap();
        assert_eq!(engine.plan_cache_len(), 1);
        engine.config_mut().count_only = true;
        assert_eq!(engine.plan_cache_len(), 0);
        let out = engine.execute(sql).unwrap();
        assert_eq!(out.table.row(0)[0], Value::Int(4));
    }
}

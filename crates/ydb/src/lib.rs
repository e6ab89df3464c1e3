#![forbid(unsafe_code)]
//! # tcudb-ydb
//!
//! The **YDB baseline**: a conventional GPU-accelerated warehouse engine in
//! the style of Yuan et al.'s Yinyang DB, which the paper uses as its main
//! point of comparison (§2.2, §5).
//!
//! The engine executes the same SQL dialect as TCUDB but lowers every query
//! onto the classic GPU operator pipeline: columnar scan + filter, hash
//! join (build + probe, materialising matches row by row on CUDA cores),
//! then separate group-by and aggregation kernels.  It never touches the
//! tensor cores, which is exactly the missed opportunity the paper
//! describes in §2.3.
//!
//! Results are always identical to TCUDB's — both engines drive the one
//! join pipeline of `tcudb_core::pipeline` and differ only in the per-step
//! policy they hand it — only the simulated timing differs.

use tcudb_core::analyzer::{self, AnalyzedQuery};
use tcudb_core::pipeline;
use tcudb_core::relops::{self, FinalizeOptions, ScanOptions};
use tcudb_device::{CostModel, DeviceProfile, ExecutionTimeline, Phase};
use tcudb_sql::parse;
use tcudb_storage::{Catalog, CatalogSnapshot, SharedCatalog, Table};
use tcudb_types::sync::QueryContext;
use tcudb_types::TcuResult;

/// Result of one YDB query execution.
#[derive(Debug, Clone)]
pub struct YdbOutput {
    /// The result rows (identical to TCUDB's answer for the same query).
    pub table: Table,
    /// Simulated per-phase timing breakdown (HashJoin, GroupBy+Aggregation,
    /// GPU memory copies, …).
    pub timeline: ExecutionTimeline,
}

impl YdbOutput {
    /// Total simulated execution time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.timeline.total_seconds()
    }
}

/// Configuration of the YDB baseline engine.
#[derive(Debug, Clone)]
pub struct YdbConfig {
    /// The simulated GPU.
    pub device: DeviceProfile,
    /// Return only the matched-tuple count (see
    /// `tcudb_core::EngineConfig::count_only`).
    pub count_only: bool,
}

impl Default for YdbConfig {
    fn default() -> Self {
        YdbConfig {
            device: DeviceProfile::rtx_3090(),
            count_only: false,
        }
    }
}

/// The YDB-style GPU query engine.
///
/// Shares the snapshot API of the TCUDB engine: queries pin an immutable
/// [`CatalogSnapshot`] for their lifetime and writes (all `&self`)
/// publish new snapshots, so one `YdbEngine` can serve concurrent
/// threads.
#[derive(Debug, Default, Clone)]
pub struct YdbEngine {
    shared: SharedCatalog,
    config: YdbConfig,
}

impl YdbEngine {
    /// Create an engine for a device.
    pub fn new(config: YdbConfig) -> YdbEngine {
        YdbEngine {
            shared: SharedCatalog::default(),
            config,
        }
    }

    /// Create an engine for a specific device profile.
    pub fn for_device(device: DeviceProfile) -> YdbEngine {
        YdbEngine::new(YdbConfig {
            device,
            ..YdbConfig::default()
        })
    }

    /// Register (or replace) a table, publishing a new catalog snapshot.
    pub fn register_table(&self, table: Table) {
        self.shared.update(|c| c.register(table));
    }

    /// Share a catalog built elsewhere (comparison experiments register the
    /// data once and hand the same catalog to every engine); publishes a
    /// new snapshot.
    pub fn set_catalog(&self, catalog: Catalog) {
        self.shared.replace(catalog);
    }

    /// Pin the current catalog snapshot.
    pub fn catalog(&self) -> std::sync::Arc<CatalogSnapshot> {
        self.shared.snapshot()
    }

    /// Mutable configuration access.
    pub fn config_mut(&mut self) -> &mut YdbConfig {
        &mut self.config
    }

    /// Execute a SQL query through the conventional GPU pipeline.
    pub fn execute(&self, sql: &str) -> TcuResult<YdbOutput> {
        let stmt = parse(sql)?;
        let snapshot = self.shared.snapshot();
        let analyzed = analyzer::analyze(&stmt, snapshot.catalog())?;
        self.execute_analyzed(&analyzed)
    }

    /// Execute an already-analyzed query.
    pub fn execute_analyzed(&self, analyzed: &AnalyzedQuery) -> TcuResult<YdbOutput> {
        let cost = CostModel::new(self.config.device.clone());
        let mut timeline = ExecutionTimeline::new();

        // Copy the referenced columns to the device (column-store: only the
        // touched columns cross PCIe).
        let mut touched_bytes = 0usize;
        for bound in &analyzed.tables {
            touched_bytes += bound.table.num_rows() * 8 * 2;
        }
        timeline.record_detail(
            Phase::MemcpyHostToDevice,
            "copy columns to device",
            cost.h2d_seconds(touched_bytes as f64),
        );

        // Scan + filter.  Semi-join pushdown stays off: it shrinks the
        // surviving sets the hash-join cost formula reads.
        let ctx = QueryContext::unbounded();
        let (surviving, ..) = relops::apply_filters_scan(analyzed, &ctx, &ScanOptions::serial())?;
        for (ti, bound) in analyzed.tables.iter().enumerate() {
            if !analyzed.filters_for_table(ti).is_empty() {
                timeline.record_detail(
                    Phase::ScanFilter,
                    format!("scan {}", bound.binding),
                    cost.gpu_scan_seconds(bound.table.num_rows(), 8),
                );
            }
        }

        // Joins through the shared driver (same order, same answers as
        // TCUDB); YDB's policy is a GPU hash join on every step.
        let batch = pipeline::join(analyzed, &surviving, &ctx, |step| {
            let (pairs, _) = step.host_pairs(1)?;
            let (m, n) = (step.left.len(), step.right.len());
            timeline.record_detail(
                Phase::HashJoin,
                format!(
                    "hash join {} ⋈ {} ({m} x {n} → {})",
                    step.bindings.0,
                    step.bindings.1,
                    pairs.len()
                ),
                cost.gpu_hash_join_seconds(m, n, pairs.len()),
            );
            Ok(pairs)
        })?;

        // Separate group-by / aggregation kernels (the part TCUDB fuses).
        if analyzed.stmt.has_aggregates() || !analyzed.stmt.group_by.is_empty() {
            let groups = analyzed.stmt.group_by.len().max(1) * 32;
            timeline.record_detail(
                Phase::GroupByAggregation,
                format!("group-by + aggregation over {} tuples", batch.len()),
                cost.gpu_groupby_agg_seconds(batch.len(), groups.min(batch.len().max(1))),
            );
        }

        // Results stay resident in device memory (the in-GPU-memory
        // architecture of §2.2); only a result handle returns to the host.
        timeline.record_detail(
            Phase::MemcpyDeviceToHost,
            "copy result handle",
            cost.d2h_seconds(4096.0),
        );

        // Materialise the answer through the vectorized output pipeline
        // (no tensor kernels: YDB models group-by as the separate GPU
        // operator charged above).
        let opts = FinalizeOptions::baseline();
        let (table, _) = pipeline::finish(analyzed, &batch, self.config.count_only, &opts)?;
        Ok(YdbOutput { table, timeline })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcudb_types::Value;

    fn engine() -> YdbEngine {
        let e = YdbEngine::default();
        e.register_table(
            Table::from_int_columns(
                "A",
                &[("id", vec![1, 1, 2, 3]), ("val", vec![10, 11, 20, 30])],
            )
            .unwrap(),
        );
        e.register_table(
            Table::from_int_columns("B", &[("id", vec![1, 2, 2]), ("val", vec![5, 6, 7])]).unwrap(),
        );
        e
    }

    #[test]
    fn join_results_match_expected() {
        let out = engine()
            .execute("SELECT A.val, B.val FROM A, B WHERE A.id = B.id")
            .unwrap();
        assert_eq!(out.table.num_rows(), 4);
        assert!(out.timeline.seconds_in(Phase::HashJoin) > 0.0);
        assert_eq!(out.timeline.seconds_in(Phase::TcuKernel), 0.0);
        assert!(out.total_seconds() > 0.0);
    }

    #[test]
    fn aggregation_charges_separate_kernel() {
        let out = engine()
            .execute("SELECT SUM(A.val), B.val FROM A, B WHERE A.id = B.id GROUP BY B.val")
            .unwrap();
        assert_eq!(out.table.num_rows(), 3);
        assert!(out.timeline.seconds_in(Phase::GroupByAggregation) > 0.0);
        assert_eq!(out.table.row(0)[0].as_f64().unwrap(), 21.0);
    }

    #[test]
    fn single_table_query_works() {
        let out = engine()
            .execute("SELECT A.val FROM A WHERE A.val > 15")
            .unwrap();
        assert_eq!(out.table.num_rows(), 2);
    }

    #[test]
    fn non_equi_join_works() {
        let out = engine()
            .execute("SELECT A.val, B.val FROM A, B WHERE A.id < B.id")
            .unwrap();
        assert_eq!(out.table.num_rows(), 4);
    }

    #[test]
    fn count_only_mode() {
        let mut e = engine();
        e.config_mut().count_only = true;
        let out = e
            .execute("SELECT A.val, B.val FROM A, B WHERE A.id = B.id")
            .unwrap();
        assert_eq!(out.table.row(0)[0], Value::Int(4));
    }

    #[test]
    fn slower_device_is_slower() {
        let sql = "SELECT SUM(A.val), B.val FROM A, B WHERE A.id = B.id GROUP BY B.val";
        let fast = engine().execute(sql).unwrap().total_seconds();
        let slow_engine = YdbEngine::for_device(DeviceProfile::rtx_2080());
        slow_engine.set_catalog(engine().catalog().catalog().clone());
        let slow = slow_engine.execute(sql).unwrap().total_seconds();
        assert!(slow > fast);
    }
}

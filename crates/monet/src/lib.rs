#![forbid(unsafe_code)]
//! # tcudb-monet
//!
//! The **CPU baseline** standing in for MonetDB in the paper's
//! experiments (§5.1): a single-node columnar CPU execution engine running
//! the same SQL dialect through hash joins and hash aggregation, with no
//! GPU involved.
//!
//! As with the other engines, answers are computed by the one join
//! pipeline of `tcudb_core::pipeline` (this engine supplies only its
//! per-step policy); the reported timings are produced by a CPU
//! cost model whose per-row constants are calibrated so that the
//! CPU : GPU-hash-join ratio lands in the range the paper reports for
//! MonetDB vs. YDB (roughly 2–6× slower depending on the query).

use tcudb_core::analyzer::{self, AnalyzedQuery};
use tcudb_core::pipeline;
use tcudb_core::relops::{self, FinalizeOptions, ScanOptions};
use tcudb_device::{ExecutionTimeline, Phase};
use tcudb_sql::parse;
use tcudb_storage::{Catalog, CatalogSnapshot, SharedCatalog, Table};
use tcudb_types::sync::QueryContext;
use tcudb_types::TcuResult;

/// CPU execution cost constants (single node, main-memory column store).
#[derive(Debug, Clone)]
pub struct CpuCostModel {
    /// Seconds per row scanned / filtered.
    pub seconds_per_scan_row: f64,
    /// Seconds per row hashed (build or probe).
    pub seconds_per_hash_row: f64,
    /// Seconds per join output tuple materialised.
    pub seconds_per_output_tuple: f64,
    /// Seconds per row aggregated.
    pub seconds_per_agg_row: f64,
}

impl Default for CpuCostModel {
    fn default() -> Self {
        // Calibrated against the paper's MonetDB-vs-YDB ratios: a modern
        // CPU core hashes ~5–10 M rows/s through a full operator pipeline.
        CpuCostModel {
            seconds_per_scan_row: 4e-9,
            seconds_per_hash_row: 180e-9,
            seconds_per_output_tuple: 120e-9,
            seconds_per_agg_row: 25e-9,
        }
    }
}

impl CpuCostModel {
    /// Cost of a hash join.
    pub fn hash_join_seconds(&self, build: usize, probe: usize, output: usize) -> f64 {
        (build + probe) as f64 * self.seconds_per_hash_row
            + output as f64 * self.seconds_per_output_tuple
    }

    /// Cost of aggregating `rows` input rows.
    pub fn aggregation_seconds(&self, rows: usize) -> f64 {
        rows as f64 * self.seconds_per_agg_row
    }

    /// Cost of scanning `rows` rows.
    pub fn scan_seconds(&self, rows: usize) -> f64 {
        rows as f64 * self.seconds_per_scan_row
    }
}

/// Result of one CPU-engine query execution.
#[derive(Debug, Clone)]
pub struct MonetOutput {
    /// The result rows.
    pub table: Table,
    /// Per-phase timing (all phases are `CpuCompute` flavoured).
    pub timeline: ExecutionTimeline,
}

impl MonetOutput {
    /// Total modelled execution time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.timeline.total_seconds()
    }
}

/// The MonetDB-style CPU engine.
///
/// Shares the snapshot API of the TCUDB engine: queries pin an immutable
/// [`CatalogSnapshot`] and writes (all `&self`) publish new snapshots.
#[derive(Debug, Default, Clone)]
pub struct MonetEngine {
    shared: SharedCatalog,
    cost: CpuCostModel,
    /// Return only matched-tuple counts (see the other engines).
    pub count_only: bool,
}

impl MonetEngine {
    /// Create an engine with default cost constants.
    pub fn new() -> MonetEngine {
        MonetEngine::default()
    }

    /// Register (or replace) a table, publishing a new catalog snapshot.
    pub fn register_table(&self, table: Table) {
        self.shared.update(|c| c.register(table));
    }

    /// Share a catalog built elsewhere; publishes a new snapshot.
    pub fn set_catalog(&self, catalog: Catalog) {
        self.shared.replace(catalog);
    }

    /// Pin the current catalog snapshot.
    pub fn catalog(&self) -> std::sync::Arc<CatalogSnapshot> {
        self.shared.snapshot()
    }

    /// The CPU cost model in use.
    pub fn cost_model(&self) -> &CpuCostModel {
        &self.cost
    }

    /// Execute a SQL query on the CPU pipeline.
    pub fn execute(&self, sql: &str) -> TcuResult<MonetOutput> {
        let stmt = parse(sql)?;
        let snapshot = self.shared.snapshot();
        let analyzed = analyzer::analyze(&stmt, snapshot.catalog())?;
        self.execute_analyzed(&analyzed)
    }

    /// Execute an already-analyzed query.
    pub fn execute_analyzed(&self, analyzed: &AnalyzedQuery) -> TcuResult<MonetOutput> {
        let mut timeline = ExecutionTimeline::new();

        // Semi-join pushdown stays off: it shrinks the surviving sets the
        // hash-join cost formula reads.
        let ctx = QueryContext::unbounded();
        let (surviving, ..) = relops::apply_filters_scan(analyzed, &ctx, &ScanOptions::serial())?;
        for (ti, bound) in analyzed.tables.iter().enumerate() {
            if !analyzed.filters_for_table(ti).is_empty() {
                timeline.record_detail(
                    Phase::CpuCompute,
                    format!("scan {}", bound.binding),
                    self.cost.scan_seconds(bound.table.num_rows()),
                );
            }
        }

        // Joins through the shared driver; the CPU policy is a hash join on
        // every step.
        let batch = pipeline::join(analyzed, &surviving, &ctx, |step| {
            let (pairs, _) = step.host_pairs(1)?;
            timeline.record_detail(
                Phase::CpuCompute,
                format!("CPU hash join {} ⋈ {}", step.bindings.0, step.bindings.1),
                self.cost
                    .hash_join_seconds(step.left.len(), step.right.len(), pairs.len()),
            );
            Ok(pairs)
        })?;

        if analyzed.stmt.has_aggregates() || !analyzed.stmt.group_by.is_empty() {
            timeline.record_detail(
                Phase::CpuCompute,
                format!("aggregate {} tuples", batch.len()),
                self.cost.aggregation_seconds(batch.len()),
            );
        }

        // CPU pipeline: the vectorized output path, no tensor kernels.
        let opts = FinalizeOptions::baseline();
        let (table, _) = pipeline::finish(analyzed, &batch, self.count_only, &opts)?;
        Ok(MonetOutput { table, timeline })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcudb_types::Value;

    fn engine() -> MonetEngine {
        let e = MonetEngine::new();
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
    fn results_match_reference() {
        let out = engine()
            .execute("SELECT SUM(A.val), B.val FROM A, B WHERE A.id = B.id GROUP BY B.val")
            .unwrap();
        assert_eq!(out.table.num_rows(), 3);
        assert_eq!(out.table.row(0)[0].as_f64().unwrap(), 21.0);
        assert!(out.total_seconds() > 0.0);
        assert!(out.timeline.seconds_in(Phase::CpuCompute) > 0.0);
    }

    #[test]
    fn cpu_join_is_slower_than_gpu_join_model() {
        // The whole point of the baseline: CPU per-row constants exceed the
        // GPU hash-join constants.
        let cpu = CpuCostModel::default();
        let gpu = tcudb_device::CostModel::new(tcudb_device::DeviceProfile::rtx_3090());
        let cpu_t = cpu.hash_join_seconds(100_000, 100_000, 1_000_000);
        let gpu_t = gpu.gpu_hash_join_seconds(100_000, 100_000, 1_000_000);
        assert!(cpu_t > gpu_t);
        assert!(cpu_t / gpu_t > 2.0);
        assert!(cpu_t / gpu_t < 20.0);
    }

    #[test]
    fn single_table_and_filters() {
        let out = engine()
            .execute("SELECT A.val FROM A WHERE A.val BETWEEN 11 AND 25 ORDER BY A.val")
            .unwrap();
        assert_eq!(out.table.num_rows(), 2);
        assert_eq!(out.table.row(0)[0], Value::Int(11));
    }

    #[test]
    fn count_only_mode() {
        let mut e = engine();
        e.count_only = true;
        let out = e
            .execute("SELECT A.val, B.val FROM A, B WHERE A.id = B.id")
            .unwrap();
        assert_eq!(out.table.row(0)[0], Value::Int(4));
    }

    #[test]
    fn scan_cost_scales_with_rows() {
        let c = CpuCostModel::default();
        assert!(c.scan_seconds(1_000_000) > c.scan_seconds(1_000));
        assert!(c.aggregation_seconds(100) > 0.0);
    }
}

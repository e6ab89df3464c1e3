//! The TCUDB program driver: physical operators and the execution pipeline.
//!
//! Execution follows the paper's architecture: single-table filters run as
//! GPU scans, joins run as tensor-core matrix multiplications (dense,
//! sparse TCU-SpMM or blocked, as chosen by the optimizer), group-by
//! aggregates over joins are fused into the final GEMM (§3.3), and results
//! are extracted with the `nonzero(·)` operator (§3.2).
//!
//! ### Execution vs. simulation
//!
//! Every operator *computes the real answer*.  When the operand matrices
//! are small enough (`EngineConfig::materialize_limit`), the tensor kernels
//! of `tcudb-tensor` are actually executed and their measured operation
//! counts drive the simulated timings; for larger shapes the same answers
//! are produced through an equivalent hash-based path while the simulated
//! timings come from the identical cost formulas evaluated on the exact
//! operation counts the kernel *would* have performed.
//!
//! The host computes joins one of two ways.  When the join graph is a star
//! with unique dimension keys, [`pipeline::star_join`] builds the final
//! tuple batch in one pass over the root table through per-dimension
//! lookup arrays — the fused operator's one-hot dimension matrices stored
//! as index vectors — and reports each step's exact `(m, n, k, out)`;
//! every step is then planned and charged on that shape exactly as the
//! pairwise route would (`charge_host_step` serves both).  Otherwise, or
//! when some step's plan would physically run a tensor kernel, the star
//! result is discarded and [`pipeline::join`] computes the steps pairwise
//! with the same choices.  Either way the plan and the simulated timeline
//! are the same; ARCHITECTURE.md §2 documents both substitutions.

use crate::analyzer::{AnalyzedQuery, QueryPattern};
use crate::engine::EngineConfig;
use crate::optimizer::{JoinShape, Optimizer, PlanChoice, PlanKind};
use crate::pipeline::{self, JoinStep, StepShape};
use crate::plancache::RecordedPlan;
use crate::relops::{self, FinalizeOptions};
use crate::translate::{self, Domain};
use std::time::Instant;
use tcudb_device::{CostModel, ExecutionTimeline, Phase};
use tcudb_sql::BinOp;
use tcudb_storage::{Column, Table};
use tcudb_tensor::{blocked, gemm, nonzero, spmm, CsrMatrix, GemmPrecision};
use tcudb_types::sync::QueryContext;
use tcudb_types::{DataType, TcuResult, Value};

/// Join results stay resident in device memory (the in-GPU-memory
/// architecture of §2.2 keeps intermediate and final relations on the
/// device); only a fixed-size result handle is copied back to the host.
const RESULT_HANDLE_BYTES: f64 = 4096.0;

/// A human-readable description of the physical plan that was executed.
#[derive(Debug, Clone, Default)]
pub struct PlanDescription {
    /// The recognised query pattern.
    pub pattern: String,
    /// One line per executed step.
    pub steps: Vec<String>,
    /// Did any step run on the tensor cores?
    pub used_tcu: bool,
    /// Was every TCU step guaranteed exact by the feasibility test?
    pub exact: bool,
    /// Did the joins run on the star route ([`pipeline::star_join`])?
    /// Not part of [`PlanDescription::format`]: the route changes how the
    /// host computes the joins, not the plan.
    pub star_join: bool,
}

impl PlanDescription {
    /// Render the plan as indented text.
    pub fn format(&self) -> String {
        let mut out = format!("pattern: {}\n", self.pattern);
        for s in &self.steps {
            out.push_str("  ");
            out.push_str(s);
            out.push('\n');
        }
        out
    }
}

/// Host-measured wall-clock attribution of one execution, independent of
/// the *simulated* device timeline: how long this process actually spent
/// in each stage, and what the chunked scan skipped.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostBreakdown {
    /// Seconds in scan + filter evaluation.
    pub filter_secs: f64,
    /// Seconds in the join pipeline (key gather, planning, join kernels,
    /// tuple-batch extension).
    pub join_secs: f64,
    /// Seconds in the output pipeline (residuals, grouping, aggregation,
    /// ORDER BY/LIMIT, result materialization).
    pub finalize_secs: f64,
    /// Column chunks actually scanned (summed over the query's tables).
    pub chunks_scanned: u64,
    /// Column chunks skipped by zone-map pruning.
    pub chunks_pruned: u64,
    /// Morsels executed through the shared worker pool (scan chunks plus
    /// join probe ranges).
    pub morsels: u64,
    /// Most worker threads any morsel run of this query used (1 = every
    /// run stayed inline on the calling thread).
    pub workers: u64,
}

impl HostBreakdown {
    /// Total measured seconds across the attributed stages.
    pub fn total_secs(&self) -> f64 {
        self.filter_secs + self.join_secs + self.finalize_secs
    }
}

/// Result of executing one query.
#[derive(Debug, Clone)]
pub struct Execution {
    /// The result table.
    pub table: Table,
    /// Simulated per-phase timing breakdown.
    pub timeline: ExecutionTimeline,
    /// Description of the executed plan.
    pub plan: PlanDescription,
    /// Host-measured wall-clock stage attribution.
    pub host: HostBreakdown,
    /// The join route and the optimizer's decision per executed join
    /// step, in execution order — what the plan cache records so repeat
    /// executions of the same statement against the same snapshot take
    /// the same route and skip costing entirely.
    pub recorded: RecordedPlan,
}

/// Execute an analyzed query on the TCUDB engine.
///
/// `replay` carries the join route and per-join-step [`PlanChoice`]s
/// recorded by a prior execution of the identical statement against the
/// identical catalog snapshot (see [`crate::plancache`]); when present,
/// the joins take that route and reuse those decisions instead of
/// re-running the optimizer's feasibility / density / working-set / cost
/// tests.  Pass `None` to plan from scratch (the route and choices
/// actually taken are returned in [`Execution::recorded`] either way).
pub fn execute(
    analyzed: &AnalyzedQuery,
    optimizer: &Optimizer,
    config: &EngineConfig,
    replay: Option<&RecordedPlan>,
) -> TcuResult<Execution> {
    execute_ctx(
        analyzed,
        optimizer,
        config,
        replay,
        &QueryContext::unbounded(),
    )
}

/// [`execute`] under a cancellation/deadline [`QueryContext`].
///
/// The context is probed at the pipeline's natural chunk boundaries —
/// per filtered table, per join step or star-pass morsel, inside the
/// tensor kernels between k-blocks, and per finalize chunk — so a
/// cancelled or past-deadline query unwinds with [`Cancelled`] /
/// [`DeadlineExceeded`] within one chunk's worth of work, never
/// mid-mutation and never leaving a poisoned lock (execution holds no
/// locks; the serve layer owns the admission bookkeeping and releases it
/// on *any* return path).
///
/// [`Cancelled`]: tcudb_types::TcuError::Cancelled
/// [`DeadlineExceeded`]: tcudb_types::TcuError::DeadlineExceeded
pub fn execute_ctx(
    analyzed: &AnalyzedQuery,
    optimizer: &Optimizer,
    config: &EngineConfig,
    replay: Option<&RecordedPlan>,
    ctx: &QueryContext,
) -> TcuResult<Execution> {
    let mut timeline = ExecutionTimeline::new();
    let mut plan = PlanDescription {
        pattern: format!("{:?}", analyzed.pattern),
        steps: Vec::new(),
        used_tcu: false,
        exact: true,
        star_join: false,
    };
    let cost = optimizer.cost_model();
    let mut host = HostBreakdown::default();

    // ---- Filters (GPU scans over the filtered columns), chunked with
    // zone-map pruning, semi-join key-range pushdown and morsel
    // parallelism ----
    let stage = Instant::now();
    let scan_opts = relops::ScanOptions {
        threads: config.effective_morsel_threads(),
        semi_join: true,
    };
    let (surviving, table_scans, scan_stats) =
        relops::apply_filters_scan(analyzed, ctx, &scan_opts)?;
    host.filter_secs = stage.elapsed().as_secs_f64();
    host.chunks_scanned = scan_stats.chunks_scanned;
    host.chunks_pruned = scan_stats.chunks_pruned;
    host.morsels = scan_stats.morsels;
    host.workers = scan_stats.workers.max(1);
    for (ti, bound) in analyzed.tables.iter().enumerate() {
        if table_scans[ti].pruned > 0 {
            plan.steps.push(format!(
                "zone-prune {}: skipped {}/{} chunks",
                bound.binding, table_scans[ti].pruned, table_scans[ti].chunks
            ));
        }
        if !analyzed.filters_for_table(ti).is_empty() {
            let secs = cost.gpu_scan_seconds(bound.table.num_rows(), 8);
            timeline.record_detail(
                Phase::ScanFilter,
                format!("filter {} ({} rows)", bound.binding, bound.table.num_rows()),
                secs,
            );
            plan.steps.push(format!(
                "scan+filter {}: {} → {} rows",
                bound.binding,
                bound.table.num_rows(),
                surviving[ti].len()
            ));
        }
    }

    // ---- Single-table queries: no join to accelerate ----
    let single_table = analyzed.tables.len() == 1;
    if single_table {
        let rows = surviving[0].len();
        timeline.record_detail(
            Phase::GroupByAggregation,
            "single-table aggregate",
            cost.gpu_aggregation_seconds(rows),
        );
        plan.steps
            .push(format!("single-table pipeline over {rows} rows"));
    }

    // ---- Joins: the star route when the join graph is a star with
    // unique dimension keys, the shared pairwise driver otherwise.  Either
    // way this engine's policy plans each step (or replays its cached
    // choice) on the step's exact shape and charges the simulated device
    // for it ----
    let fuse_last = analyzed.stmt.has_aggregates()
        && matches!(
            analyzed.pattern,
            QueryPattern::JoinGroupByAggregate
                | QueryPattern::JoinAggregate
                | QueryPattern::MatMul
                | QueryPattern::MultiWayJoin
        );
    let stage = Instant::now();
    let threads = config.effective_morsel_threads();
    let mut recorded = RecordedPlan::default();
    // Choices planned on a star pass that was discarded because one of its
    // steps would run a tensor kernel; the pairwise route replays them.
    let mut star_choices: Option<Vec<PlanChoice>> = None;
    let mut star_batch = None;
    if replay.is_none_or(|r| r.star) {
        if let Some(star) = pipeline::star_join(analyzed, &surviving, ctx, threads)? {
            let last = star.steps.len() - 1;
            let planned: Vec<(JoinShape, PlanChoice)> = star
                .steps
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let cached = replay.and_then(|r| r.choices.get(i));
                    plan_join_step(
                        analyzed,
                        optimizer,
                        &s.shape,
                        i == last && fuse_last,
                        cached,
                    )
                })
                .collect();
            let kernel = planned
                .iter()
                .zip(&star.steps)
                .any(|((shape, choice), s)| runs_kernel(choice, shape, &s.shape, config));
            if kernel {
                star_choices = Some(planned.into_iter().map(|(_, c)| c).collect());
            } else {
                for ((shape, choice), s) in planned.into_iter().zip(&star.steps) {
                    describe_join_step(&mut plan, s.bindings, s.cols, &shape, &choice);
                    charge_host_step(&choice, &shape, &s.shape, optimizer, &mut timeline);
                    recorded.choices.push(choice);
                }
                host.morsels += star.run.morsels;
                host.workers = host.workers.max(star.run.threads as u64);
                plan.star_join = true;
                recorded.star = true;
                star_batch = Some(star.batch);
            }
        }
    }
    let batch = match star_batch {
        Some(batch) => batch,
        None => {
            // One call per join step: replayed choices line up with
            // `recorded.choices` by position.
            let replayed = replay
                .map(|r| r.choices.as_slice())
                .or(star_choices.as_deref());
            pipeline::join(analyzed, &surviving, ctx, |step| {
                let cached = replayed.and_then(|c| c.get(recorded.choices.len()));
                let fused = step.last && fuse_last;
                // The pair count is not known yet; planning does not read it.
                let (shape, choice) =
                    plan_join_step(analyzed, optimizer, &step.shape(0), fused, cached);
                describe_join_step(&mut plan, step.bindings, step.cols, &shape, &choice);
                let pairs = execute_join_step(
                    step,
                    &choice,
                    &shape,
                    optimizer,
                    config,
                    &mut timeline,
                    &mut host,
                    ctx,
                );
                recorded.choices.push(choice);
                pairs
            })?
        }
    };
    host.join_secs = stage.elapsed().as_secs_f64();

    // ---- Final aggregation / projection ----
    let stage = Instant::now();
    let opts = FinalizeOptions::tensor(config.materialize_limit).with_ctx(ctx.clone());
    let (table, report) = pipeline::finish(analyzed, &batch, config.count_only, &opts)?;
    if analyzed.stmt.has_aggregates() && !fuse_last && !single_table {
        // Exact operation counts from the finalize stage; `count_only`
        // skips that stage, so it charges the pre-execution estimate.
        let (rows, groups, detail) = match &report {
            None => {
                let groups = estimate_groups(analyzed, batch.len());
                (batch.len(), groups, "post-join aggregation".to_string())
            }
            Some(r) => {
                let mut detail = format!("{} rows → {} groups", r.agg_rows, r.groups);
                if !r.gemm.is_empty() {
                    let macs: f64 = r.gemm.iter().map(|s| s.flops / 2.0).sum();
                    detail += &format!(", {} one-hot GEMMs, {macs:.0} MACs", r.gemm.len());
                }
                let detail = format!("post-join aggregation ({detail})");
                (r.agg_rows, r.groups.max(1), detail)
            }
        };
        let secs = cost.gpu_groupby_agg_seconds(rows, groups);
        timeline.record_detail(Phase::GroupByAggregation, detail, secs);
    }
    host.finalize_secs = stage.elapsed().as_secs_f64();

    Ok(Execution {
        table,
        timeline,
        plan,
        host,
        recorded,
    })
}

/// Build a `Column` from homogeneous key values.
fn column_from_values(values: &[Value]) -> TcuResult<Column> {
    let dt = values
        .iter()
        .find_map(|v| v.data_type())
        .unwrap_or(DataType::Int64);
    Column::from_values(dt, values)
}

/// Estimate the number of output groups of the query's GROUP BY.
fn estimate_groups(analyzed: &AnalyzedQuery, tuple_count: usize) -> usize {
    if analyzed.stmt.group_by.is_empty() {
        return 1;
    }
    let mut product: usize = 1;
    for g in &analyzed.stmt.group_by {
        let mut best = tuple_count;
        if let tcudb_sql::Expr::Column(c) = g {
            if let Ok((ti, ci)) = crate::analyzer::resolve_column(analyzed, c) {
                let name = &analyzed.tables[ti].table.schema().column(ci).name;
                best = analyzed.tables[ti]
                    .stats
                    .column(name)
                    .map(|s| s.distinct_count)
                    .unwrap_or(tuple_count);
            }
        }
        product = product.saturating_mul(best.max(1));
    }
    product.min(tuple_count.max(1))
}

/// Build the join shape for one step from its exact `m`, `n` and `k` and
/// ask the optimizer for a plan (or replay a cached one).  `step.out` is
/// not read: planning happens before the step runs.
fn plan_join_step(
    analyzed: &AnalyzedQuery,
    optimizer: &Optimizer,
    step: &StepShape,
    fused: bool,
    cached: Option<&PlanChoice>,
) -> (JoinShape, PlanChoice) {
    let (m, n, k) = (step.m, step.n, step.k.max(1));
    let mut shape = JoinShape::equi_join(m, n, k);
    shape.raw_bytes = (m + n) * 8;
    if fused {
        shape.fused_aggregate = true;
        // `m` is the tuple count of the batch entering the step.
        shape.groups = estimate_groups(analyzed, m);
        shape.n = shape.groups.max(1).min(n.max(1));
    }
    if analyzed.pattern == QueryPattern::MatMul {
        // Dense value matrices: density is the fill factor of the
        // (row, col) key space rather than 1/k.
        let fill = m as f64 / (shape.m.max(1) * k) as f64;
        shape.density = fill.clamp(0.0, 1.0).max(1e-9);
    }
    // A cached choice was produced by this very function for the identical
    // statement against the identical snapshot, so the shape — and
    // therefore the decision — is the same; skip the costing pass.
    let choice = match cached {
        Some(c) => c.clone(),
        None => optimizer.choose_join_plan(&shape),
    };
    (shape, choice)
}

/// Record one planned join step in the plan description.
fn describe_join_step(
    plan: &mut PlanDescription,
    bindings: (&str, &str),
    cols: (&str, &str),
    shape: &JoinShape,
    choice: &PlanChoice,
) {
    plan.used_tcu |= choice.kind.is_tcu();
    plan.exact &= choice.exact_guaranteed;
    plan.steps.push(format!(
        "join {} ⋈ {} on {}={} via {} [{}], m={} n={} k={}",
        bindings.0,
        bindings.1,
        cols.0,
        cols.1,
        choice.kind,
        choice.precision,
        shape.m,
        shape.n,
        shape.k,
    ));
}

/// Are the step's operand matrices small enough to build and multiply for
/// real?
fn can_materialize(step: &StepShape, config: &EngineConfig) -> bool {
    let (m, n, k) = (step.m, step.n, step.k.max(1));
    (m.saturating_mul(k)).max(n.saturating_mul(k)) <= config.materialize_limit
        && m.saturating_mul(n) <= config.materialize_limit
        && (m as u128 * n as u128 * k as u128) <= config.kernel_mac_limit
}

/// Does an equi-join step physically run a tensor kernel?  Only a TCU
/// plan on operands that can be materialised, and never the fused
/// aggregate, whose GEMM is charged, not run.
fn runs_kernel(
    choice: &PlanChoice,
    shape: &JoinShape,
    step: &StepShape,
    config: &EngineConfig,
) -> bool {
    choice.kind.is_tcu() && !shape.fused_aggregate && can_materialize(step, config)
}

/// Simulated seconds to build a step's operands (transformation) and to
/// move them to the device — charged the same whether or not the kernel
/// really runs.
fn operand_seconds(
    choice: &PlanChoice,
    shape: &JoinShape,
    rows: usize,
    cost: &CostModel,
) -> (f64, f64) {
    let working_set = shape.plan_working_set_bytes(choice.kind, choice.precision);
    if choice.transform_on_gpu {
        // Scattering the operand matrices on the device also writes the
        // full matrix buffers through device memory.
        (
            cost.transform_gpu_seconds(rows) + cost.device_mem_seconds(working_set),
            cost.h2d_seconds(shape.raw_bytes as f64),
        )
    } else {
        (
            cost.transform_cpu_seconds(rows),
            cost.h2d_seconds(working_set),
        )
    }
}

/// Charge copying the fixed-size result handle back to the host.
fn copy_handle_back(cost: &CostModel, timeline: &mut ExecutionTimeline) {
    timeline.record_detail(
        Phase::MemcpyDeviceToHost,
        "copy result handle",
        cost.d2h_seconds(RESULT_HANDLE_BYTES),
    );
}

/// Charge an equi-join step whose pairs the host computed: the GPU
/// fallback, or a TCU plan simulated at scale (too large to materialise,
/// or fused into the aggregate) on the step's exact shape.  Both join
/// routes call this, so they record the same timeline entries in the same
/// order.
fn charge_host_step(
    choice: &PlanChoice,
    shape: &JoinShape,
    step: &StepShape,
    optimizer: &Optimizer,
    timeline: &mut ExecutionTimeline,
) {
    let cost = optimizer.cost_model();
    let (m, n, k, out) = (step.m, step.n, step.k.max(1), step.out);
    let kind = choice.kind;
    if kind == PlanKind::GpuFallback {
        timeline.record_detail(
            Phase::MemcpyHostToDevice,
            "copy join columns",
            cost.h2d_seconds(shape.raw_bytes as f64),
        );
        timeline.record_detail(
            Phase::HashJoin,
            format!("GPU hash join {m}x{n}"),
            cost.gpu_hash_join_seconds(m, n, out),
        );
        copy_handle_back(cost, timeline);
        return;
    }
    let (dt, dm) = operand_seconds(choice, shape, m + n, cost);
    timeline.record_detail(Phase::FillMatrices, "build matrices (GPU-assisted)", dt);
    timeline.record_detail(Phase::MemcpyHostToDevice, "copy operands", dm);
    let kernel_secs = match kind {
        PlanKind::TcuSparse => {
            cost.tcu_spmm_seconds(&shape.estimated_spmm_stats(), choice.precision)
        }
        PlanKind::TcuBlocked => {
            optimizer.tcu_plan_seconds(
                shape,
                PlanKind::TcuBlocked,
                choice.precision,
                choice.transform_on_gpu,
            ) - dt
                - dm
        }
        _ => cost.tcu_gemm_seconds(&shape.dense_gemm_stats(choice.precision)),
    };
    if shape.fused_aggregate {
        // The §3.3 fused Join+GroupBy+Aggregation operator: a single GEMM
        // whose output dimension is the group domain, so only one row per
        // group ever leaves the device.
        timeline.record_detail(
            Phase::TcuKernel,
            format!(
                "fused Join+Aggregation {} {}x{}x{}",
                kind, shape.m, shape.n, shape.k
            ),
            kernel_secs.max(0.0),
        );
        timeline.record_detail(
            Phase::MemcpyDeviceToHost,
            "copy aggregate result",
            cost.d2h_seconds(shape.groups.max(1) as f64 * 8.0),
        );
    } else {
        timeline.record_detail(
            Phase::TcuKernel,
            format!("{kind} {m}x{n}x{k} (simulated at scale)"),
            kernel_secs.max(0.0),
        );
        timeline.record_detail(
            Phase::ResultMaterialize,
            "nonzero extraction",
            cost.nonzero_seconds(shape.m, shape.n, out),
        );
        timeline.record_detail(
            Phase::MemcpyDeviceToHost,
            "copy join result",
            cost.d2h_seconds(out as f64 * 8.0),
        );
    }
}

/// TCUDB's policy for one step of the pairwise route: run the chosen
/// plan, returning the matching `(left position, right position)` pairs
/// and charging the simulated device for it.  Operands are scattered from
/// dictionary codes; when a shape is too large to materialise (or is fused
/// into the aggregate) the pairs come from the host operators and
/// [`charge_host_step`] charges the chosen kernel on its exact shape.
#[allow(clippy::too_many_arguments)]
fn execute_join_step(
    step: &JoinStep<'_>,
    choice: &PlanChoice,
    shape: &JoinShape,
    optimizer: &Optimizer,
    config: &EngineConfig,
    timeline: &mut ExecutionTimeline,
    host: &mut HostBreakdown,
    ctx: &QueryContext,
) -> TcuResult<Vec<(usize, usize)>> {
    let cost = optimizer.cost_model();
    let (left, right) = (&step.left, &step.right);
    let (left_remap, right_remap) = step.remaps;
    let counts = step.shape(0);
    let (m, n, k) = (counts.m, counts.n, counts.k.max(1));
    let precision: GemmPrecision = choice.precision.into();

    // The probe side of the code join runs as contiguous row morsels on
    // the shared worker pool; pair order is identical to the serial probe.
    let host_pairs = |host: &mut HostBreakdown| -> TcuResult<Vec<(usize, usize)>> {
        let (pairs, run) = step.host_pairs(config.effective_morsel_threads())?;
        host.morsels += run.morsels;
        host.workers = host.workers.max(run.threads as u64);
        Ok(pairs)
    };

    if step.op != BinOp::Eq && choice.kind.is_tcu() {
        // Non-equi joins on the TCU use the comparison matrix of §3.4 when
        // small, otherwise the host comparison join with simulated GEMM
        // cost.
        let (dt, dm) = operand_seconds(choice, shape, m + n, cost);
        timeline.record_detail(Phase::FillMatrices, "build comparison matrix", dt);
        timeline.record_detail(Phase::MemcpyHostToDevice, "copy operands", dm);
        let pairs = if can_materialize(&counts, config) {
            let a = translate::comparison_matrix_encoded(left, step.domain, step.op)?;
            let b = translate::one_hot_matrix_encoded(right, right_remap, step.domain.len());
            let (c, stats) = gemm::gemm_bt_ctx(&a, &b, precision, ctx)?;
            timeline.record_detail(
                Phase::TcuKernel,
                format!("non-equi TCU join {m}x{n}x{k}"),
                cost.tcu_gemm_seconds(&stats),
            );
            nonzero::nonzero(&c)
        } else {
            let stats = shape.dense_gemm_stats(choice.precision);
            timeline.record_detail(
                Phase::TcuKernel,
                format!("non-equi TCU join {m}x{n}x{k} (simulated)"),
                cost.tcu_gemm_seconds(&stats),
            );
            host_pairs(host)?
        };
        timeline.record_detail(
            Phase::ResultMaterialize,
            "nonzero extraction",
            cost.nonzero_seconds(m, n, pairs.len()),
        );
        return Ok(pairs);
    }
    if !runs_kernel(choice, shape, &counts, config) {
        let pairs = host_pairs(host)?;
        charge_host_step(choice, shape, &step.shape(pairs.len()), optimizer, timeline);
        return Ok(pairs);
    }

    let sparse = choice.kind == PlanKind::TcuSparse;
    let fill = if sparse {
        "build CSR operands"
    } else {
        "build one-hot matrices"
    };
    let (dt, dm) = operand_seconds(choice, shape, m + n, cost);
    timeline.record_detail(Phase::FillMatrices, fill, dt);
    timeline.record_detail(Phase::MemcpyHostToDevice, "copy operands", dm);
    let (c, detail, kernel_secs) = if sparse {
        let a = translate::one_hot_csr_encoded(left, left_remap, step.domain.len())?;
        let b = translate::one_hot_csr_encoded(right, right_remap, step.domain.len())?;
        let (c, stats) = spmm::tcu_spmm_ctx(&a, &b, precision, ctx)?;
        let detail = format!(
            "TCU-SpMM {m}x{n}x{k} ({} tiles, {:.1}% skipped)",
            stats.tiles_processed,
            stats.skip_ratio() * 100.0
        );
        (c, detail, cost.tcu_spmm_seconds(&stats, choice.precision))
    } else {
        let a = translate::one_hot_matrix_encoded(left, left_remap, step.domain.len());
        let b = translate::one_hot_matrix_encoded(right, right_remap, step.domain.len());
        let detail = format!("{} {m}x{n}x{k}", choice.kind);
        if choice.kind == PlanKind::TcuBlocked {
            // The bt-oriented blocked path packs the transpose inside the
            // kernel engine instead of materialising a k×n copy here.
            let block = blocked::choose_block_size(cost.profile().device_mem_bytes);
            let (c, stats) = blocked::blocked_gemm_bt_ctx(&a, &b, precision, block, ctx)?;
            (
                c,
                detail,
                cost.blocked_gemm_seconds(&stats, choice.precision),
            )
        } else {
            let (c, stats) = gemm::gemm_bt_ctx(&a, &b, precision, ctx)?;
            (c, detail, cost.tcu_gemm_seconds(&stats))
        }
    };
    timeline.record_detail(Phase::TcuKernel, detail, kernel_secs);
    let pairs = nonzero::nonzero(&c);
    timeline.record_detail(
        Phase::ResultMaterialize,
        "nonzero extraction",
        cost.nonzero_seconds(m, n, pairs.len()),
    );
    copy_handle_back(cost, timeline);
    Ok(pairs)
}

/// Estimate the peak device working-set bytes a query will occupy, before
/// executing it — the admission-control currency of the `tcudb-serve`
/// scheduler.
///
/// For every join predicate the estimator builds the [`JoinShape`] the
/// executor *would* build with no filters applied (base-table row counts,
/// key-domain bounded by the join columns' distinct counts from the
/// catalog statistics), asks the optimizer which plan it would choose and
/// charges that plan's [`JoinShape::plan_working_set_bytes`].  The result
/// is the peak over the steps plus the raw bytes of one pass over the
/// touched tables.
///
/// This is a *heuristic*, deliberately biased high for the common case —
/// filters only shrink per-predicate shapes below the unfiltered bound —
/// but it is not a guaranteed upper bound: multi-way joins whose
/// intermediate results fan out beyond the base-table row counts, or
/// shapes where the runtime plan kind diverges from the unfiltered
/// estimate's, can exceed it.  Admission control treats it as a
/// throttling currency, not a hard memory reservation.
pub fn estimate_working_set_bytes(analyzed: &AnalyzedQuery, optimizer: &Optimizer) -> f64 {
    // Each table is charged only the fraction of its chunks a zone-pruned
    // scan will actually read: admission control prices pruned scans, not
    // whole-table sizes.
    let table_bytes: f64 = analyzed
        .tables
        .iter()
        .enumerate()
        .map(|(ti, b)| b.table.byte_size() as f64 * relops::pruned_scan_fraction(analyzed, ti))
        .sum();
    let mut peak: f64 = 0.0;
    for j in &analyzed.joins {
        let (lt, lcol) = (&analyzed.tables[j.left.0], &j.left.1);
        let (rt, rcol) = (&analyzed.tables[j.right.0], &j.right.1);
        let m = lt.table.num_rows();
        let n = rt.table.num_rows();
        let ndv = |b: &crate::analyzer::BoundTable, col: &str| {
            b.stats
                .column(col)
                .map(|s| s.distinct_count)
                .unwrap_or_else(|| b.table.num_rows())
        };
        // The executor's domain is the union of both sides' key sets.
        let k = ndv(lt, lcol).saturating_add(ndv(rt, rcol)).max(1);
        let shape = JoinShape::equi_join(m, n, k);
        let choice = optimizer.choose_join_plan(&shape);
        peak = peak.max(shape.plan_working_set_bytes(choice.kind, choice.precision));
    }
    table_bytes + peak
}

// ---------------------------------------------------------------------
// Stand-alone Figure 5 operator: exposed for tests and examples.
// ---------------------------------------------------------------------

/// Compute the Figure 5 matrix-multiplication query with one GEMM: given
/// two "coordinate + value" tables, returns `(row, col, value)` triples of
/// the matrix product.
pub fn tcu_matmul_query(
    a_rows: &[Value],
    a_cols: &[Value],
    a_vals: &[f64],
    b_rows: &[Value],
    b_cols: &[Value],
    b_vals: &[f64],
    precision: GemmPrecision,
) -> TcuResult<Vec<(Value, Value, f64)>> {
    let a_row_col = column_from_values(a_rows)?;
    let a_col_col = column_from_values(a_cols)?;
    let b_row_col = column_from_values(b_rows)?;
    let b_col_col = column_from_values(b_cols)?;

    // Output dimensions: A.col_num × B.row_num; shared key: A.row_num = B.col_num.
    let out_rows = Domain::build(&[(&a_col_col, None)]);
    let out_cols = Domain::build(&[(&b_row_col, None)]);
    let key_domain = Domain::build(&[(&a_row_col, None), (&b_col_col, None)]);

    let a = translate::adjacency_matrix(
        &a_col_col,
        &a_row_col,
        Some(a_vals),
        None,
        &out_rows,
        &key_domain,
    );
    let b = translate::adjacency_matrix(
        &b_row_col,
        &b_col_col,
        Some(b_vals),
        None,
        &out_cols,
        &key_domain,
    );
    let (c, _) = gemm::gemm_bt(&a, &b, precision)?;
    let mut out = Vec::new();
    for (i, j, v) in nonzero::nonzero_with_values(&c) {
        out.push((
            out_rows.value_at(i).clone(),
            out_cols.value_at(j).clone(),
            v as f64,
        ));
    }
    Ok(out)
}

/// Build a CSR adjacency matrix from an edge list — the representation the
/// PageRank / graph workloads feed to TCU-SpMM.  Exposed for the graph
/// examples and the MAGiQ comparison.
pub fn edges_to_csr(num_nodes: usize, edges: &[(usize, usize)]) -> TcuResult<CsrMatrix> {
    let triplets: Vec<(usize, usize, f32)> = edges.iter().map(|&(s, d)| (s, d, 1.0f32)).collect();
    CsrMatrix::from_triplets(num_nodes, num_nodes, &triplets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::needless_range_loop)] // 2x2 index loops mirror the math
    fn matmul_query_matches_direct_product() {
        // A = [[1,2],[3,4]], B = [[5,6],[7,8]] in coordinate form.
        let mut a_rows = Vec::new();
        let mut a_cols = Vec::new();
        let mut a_vals = Vec::new();
        let mut b_rows = Vec::new();
        let mut b_cols = Vec::new();
        let mut b_vals = Vec::new();
        let a = [[1.0, 2.0], [3.0, 4.0]];
        let b = [[5.0, 6.0], [7.0, 8.0]];
        for i in 0..2 {
            for j in 0..2 {
                a_rows.push(Value::Int(i as i64));
                a_cols.push(Value::Int(j as i64));
                a_vals.push(a[i][j]);
                b_rows.push(Value::Int(i as i64));
                b_cols.push(Value::Int(j as i64));
                b_vals.push(b[i][j]);
            }
        }
        let result = tcu_matmul_query(
            &a_rows,
            &a_cols,
            &a_vals,
            &b_rows,
            &b_cols,
            &b_vals,
            GemmPrecision::Fp32,
        )
        .unwrap();
        // The query computes (AᵀBᵀ)ᵀ-style coordinates: result[(A.col, B.row)]
        // = Σ_key A[key][col]·B[row][key] = (B·A)[row][col] transposed onto
        // (col, row).  Verify against a direct computation of that quantity.
        let mut expected = std::collections::HashMap::new();
        for col in 0..2usize {
            for row in 0..2usize {
                let mut s = 0.0;
                for key in 0..2usize {
                    s += a[key][col] * b[row][key];
                }
                expected.insert((col as i64, row as i64), s);
            }
        }
        assert_eq!(result.len(), 4);
        for (c, r, v) in result {
            let key = (c.as_i64().unwrap(), r.as_i64().unwrap());
            assert!((expected[&key] - v).abs() < 1e-6);
        }
    }

    #[test]
    fn edges_to_csr_builds_adjacency() {
        let csr = edges_to_csr(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(csr.nnz(), 4);
        assert_eq!(csr.rows(), 4);
        assert!(edges_to_csr(2, &[(5, 0)]).is_err());
    }
}

//! Relational operators shared by every engine.
//!
//! These operators compute *what* a query returns; each engine charges its
//! own simulated cost for *how* it would have computed it (TCU GEMM,
//! GPU hash join, CPU hash join).  Every engine reaches them through the
//! one join driver in [`crate::pipeline`], which guarantees that TCUDB, the
//! YDB baseline and the CPU baseline always agree on answers.
//!
//! # Output pipeline
//!
//! [`finalize_output_columnar`] is the one finalize path: the vectorized,
//! late-materialized pipeline over a [`TupleBatch`].  Every per-tuple
//! expression in it — residual predicate, group key, aggregate argument,
//! projection item — goes through one evaluator (`evaluate`): a bare
//! column is a gather through the batch, a [`BatchExpr`] runs
//! column-at-a-time, and anything else is interpreted one `context::eval`
//! per tuple.  Group keys become dense first-seen group ids — a bare
//! column contributes its cached dictionary codes, any other key the
//! first-seen codes of its values under `Value::group_key` — aggregates
//! run as segmented accumulation over `Vec<AggState>`, and
//! projection/ORDER BY/LIMIT work as typed gathers over a sort
//! permutation.  The row-at-a-time finalize the oracle suites compare it
//! against lives in the dev-only `tcudb-reference` crate.
//!
//! ## When the §3.3 GEMM aggregation path is selected
//!
//! Inside the columnar pipeline, a SUM/COUNT/AVG aggregate is lowered to
//! an *actual one-hot GEMM* on the tensor engine
//! (`tcudb_tensor::grouped::grouped_sum_gemm`, the grouped-GEMV form of
//! Lemma 3.1) instead of segmented accumulation exactly when
//!
//! 1. the argument is a numeric [`BatchExpr`] (plain columns/arithmetic;
//!    COUNT(*) always qualifies),
//! 2. the `rows × groups` one-hot group matrix fits
//!    [`FinalizeOptions::gemm_limit`] (the engine's
//!    `materialize_limit` capped by a host execution budget — building
//!    the group matrix is O(rows × groups) host memory traffic), and
//! 3. the f32 exactness test holds: every value is an integer and the sum
//!    of absolute values stays below 2²⁴, so every partial sum is exactly
//!    representable and the kernel result is bit-identical to the
//!    segmented f64 fold.
//!
//! MIN/MAX are not matrix-expressible (§3.4); they run as typed segmented
//! reductions — over `i64`, over f64 with `sql_cmp` NaN semantics, or
//! over the dictionary's sorted-order ranks for text columns.

use crate::analyzer::{
    batch_expr, simple_column, vectorizable_atom, AnalyzedQuery, BatchExpr, FilterAtom,
};
use crate::batch::{GroupIds, TupleBatch};
use crate::context::{compare, eval, eval_predicate, truthy};
use crate::translate::{EncodedSource, NO_INDEX};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use tcudb_sql::{AggFunc, BinOp, Expr, SelectStatement};
use tcudb_storage::{chunk, Column, ColumnDef, Schema, Table};
use tcudb_tensor::{grouped, GemmPrecision, GemmStats};
use tcudb_types::sync::QueryContext;
use tcudb_types::value::ValueKey;
use tcudb_types::{DataType, MorselRun, TcuError, TcuResult, Value, WorkerPool};

/// Equality join on dictionary codes remapped into a shared domain.  Build
/// and probe work on array-indexed buckets over domain indices — no
/// `ValueKey` hashing, no `Value` materialisation.  Returns pairs of
/// *positions* within the two selected sequences: build on the smaller
/// side, probe the larger in order.
///
/// The probe side is split into contiguous `morsel_rows`-row morsels
/// executed on the shared [`WorkerPool`] by up to `threads` threads.  The
/// build side is laid out once; each morsel probes one row range and the
/// per-morsel outputs are concatenated in range order, so the pair
/// sequence is byte-identical to the serial probe for every thread count.
pub fn join_pairs_by_code(
    left: &EncodedSource<'_>,
    left_remap: &[u32],
    right: &EncodedSource<'_>,
    right_remap: &[u32],
    domain_len: usize,
    threads: usize,
    morsel_rows: usize,
) -> (Vec<(usize, usize)>, MorselRun) {
    if right.len() < left.len() {
        let (pairs, run) = join_pairs_by_code(
            right,
            right_remap,
            left,
            left_remap,
            domain_len,
            threads,
            morsel_rows,
        );
        return (pairs.into_iter().map(|(r, l)| (l, r)).collect(), run);
    }
    // Counting-sort layout: one flat pass to count, one to fill, so the
    // bucket table is two dense arrays rather than a Vec-of-Vecs.
    let m = left.len();
    let mut counts = vec![0u32; domain_len + 1];
    for pos in 0..m {
        let di = left_remap[left.code_at(pos) as usize];
        if di != NO_INDEX {
            counts[di as usize + 1] += 1;
        }
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    let mut slots = vec![0u32; m];
    let mut cursor = counts.clone();
    for pos in 0..m {
        let di = left_remap[left.code_at(pos) as usize];
        if di != NO_INDEX {
            slots[cursor[di as usize] as usize] = pos as u32;
            cursor[di as usize] += 1;
        }
    }
    let mr = morsel_rows.max(1);
    let morsel_count = right.len().div_ceil(mr);
    let (parts, run) = WorkerPool::shared().run_chunks(morsel_count, threads, |ci| {
        let lo = ci * mr;
        let hi = lo.saturating_add(mr).min(right.len());
        let mut out = Vec::new();
        for rpos in lo..hi {
            let di = right_remap[right.code_at(rpos) as usize];
            if di == NO_INDEX {
                continue;
            }
            let (start, end) = (
                counts[di as usize] as usize,
                counts[di as usize + 1] as usize,
            );
            for &lpos in &slots[start..end] {
                out.push((lpos as usize, rpos));
            }
        }
        out
    });
    let total = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for p in parts {
        out.extend(p);
    }
    (out, run)
}

/// Non-equi join over two key columns restricted to row selections, for
/// the comparison operators of §3.4.  Returns pairs of *positions* within
/// the two selections (`left_rows` is a tuple batch's row-index column, so
/// it may repeat rows).  Each side's keys are extracted **once** into a
/// typed buffer; on sortable keys (integer, non-NaN float, text) the
/// ordering operators run as sort + `partition_point` instead of an O(n·m)
/// comparison sweep.  Output order is the nested loop's: left-major, right
/// in `right_rows` order.
pub fn nonequi_join_pairs(
    left: &Column,
    left_rows: &[u32],
    right: &Column,
    right_rows: &[usize],
    op: BinOp,
) -> TcuResult<Vec<(usize, usize)>> {
    if !op.is_comparison() {
        return Err(TcuError::Plan(format!("{op} is not a join comparison")));
    }
    let lrows = || left_rows.iter().map(|&r| r as usize);
    match (left, right) {
        // Exact integer keys: every operator (incl. Eq/NotEq, which
        // `compare` evaluates as exact i64) can use the sorted path.
        (Column::Int64(lv), Column::Int64(rv)) => {
            let lk: Vec<i64> = lrows().map(|r| lv[r]).collect();
            let rk: Vec<i64> = right_rows.iter().map(|&r| rv[r]).collect();
            Ok(nonequi_sorted(&lk, &rk, op))
        }
        (Column::Text(lv), Column::Text(rv)) => {
            let lk: Vec<&str> = lrows().map(|r| lv[r].as_str()).collect();
            let rk: Vec<&str> = right_rows.iter().map(|&r| rv[r].as_str()).collect();
            Ok(nonequi_sorted(&lk, &rk, op))
        }
        (l, r) if l.data_type().is_numeric() && r.data_type().is_numeric() => {
            let lk: Vec<f64> = lrows().map(|i| l.numeric(i).expect("numeric")).collect();
            let rk: Vec<f64> = right_rows
                .iter()
                .map(|&i| r.numeric(i).expect("numeric"))
                .collect();
            // Mixed-numeric Eq/NotEq follow `group_key` (exact i64 for
            // integral values) rather than f64 equality, and NaNs break
            // the sort's total order — both fall back to the buffered
            // `Value` sweep.
            let nan = lk.iter().chain(&rk).any(|x| x.is_nan());
            if !nan && !matches!(op, BinOp::Eq | BinOp::NotEq) {
                Ok(nonequi_sorted(&lk, &rk, op))
            } else {
                nonequi_buffered(left, left_rows, right, right_rows, op)
            }
        }
        // Cross-type text/numeric comparisons keep the `Value` semantics
        // through the buffered sweep.
        _ => nonequi_buffered(left, left_rows, right, right_rows, op),
    }
}

/// Nested-loop non-equi sweep with each side's `Value`s materialised once.
fn nonequi_buffered(
    left: &Column,
    left_rows: &[u32],
    right: &Column,
    right_rows: &[usize],
    op: BinOp,
) -> TcuResult<Vec<(usize, usize)>> {
    let lvals: Vec<Value> = left_rows.iter().map(|&r| left.value(r as usize)).collect();
    let rvals: Vec<Value> = right_rows.iter().map(|&r| right.value(r)).collect();
    let mut out = Vec::new();
    for (li, lv) in lvals.iter().enumerate() {
        for (rj, rv) in rvals.iter().enumerate() {
            if compare(lv, op, rv)? {
                out.push((li, rj));
            }
        }
    }
    Ok(out)
}

/// Sorted-probe non-equi join: sort the right keys once, then locate each
/// left key's matching range with `partition_point`.
fn nonequi_sorted<T: PartialOrd>(
    left_keys: &[T],
    right_keys: &[T],
    op: BinOp,
) -> Vec<(usize, usize)> {
    // Stable sort of right *positions* by key: equal keys keep their
    // probe-order, which the per-range position sort below relies on.
    let mut order: Vec<u32> = (0..right_keys.len() as u32).collect();
    order.sort_by(|&a, &b| {
        right_keys[a as usize]
            .partial_cmp(&right_keys[b as usize])
            .unwrap_or(Ordering::Equal)
    });
    let below = |k: &T| {
        order.partition_point(|&p| right_keys[p as usize].partial_cmp(k) == Some(Ordering::Less))
    };
    let through = |k: &T| {
        order.partition_point(|&p| {
            matches!(
                right_keys[p as usize].partial_cmp(k),
                Some(Ordering::Less) | Some(Ordering::Equal)
            )
        })
    };
    let n = order.len();
    let mut out = Vec::new();
    let mut positions: Vec<u32> = Vec::new();
    for (li, k) in left_keys.iter().enumerate() {
        // The matching right keys form one or two contiguous ranges of the
        // sorted order.
        let (a, b) = match op {
            BinOp::Lt => (through(k), n),
            BinOp::LtEq => (below(k), n),
            BinOp::Gt => (0, below(k)),
            BinOp::GtEq => (0, through(k)),
            BinOp::Eq => (below(k), through(k)),
            BinOp::NotEq => {
                // The complement of the equal range is nearly everything;
                // a direct scan (already in right order) beats copying
                // and re-sorting n positions per left key.
                out.extend((0..n).filter(|&rj| right_keys[rj] != *k).map(|rj| (li, rj)));
                continue;
            }
            _ => unreachable!("caller validated the comparison"),
        };
        positions.clear();
        positions.extend_from_slice(&order[a..b]);
        // Emit in original right order, as the nested loop does.
        positions.sort_unstable();
        out.extend(positions.iter().map(|&p| (li, p as usize)));
    }
    out
}

/// An engine's scan policy for [`apply_filters_scan`].
#[derive(Debug, Clone, Copy)]
pub struct ScanOptions {
    /// Maximum threads one morsel run may use (1 = inline, serial).
    pub threads: usize,
    /// Push min/max key ranges from already-filtered join partners and
    /// prune chunks that cannot contain a joinable key.  This *shrinks*
    /// per-table surviving sets (rows that provably join nothing are
    /// dropped before the join), so final query results are unchanged but
    /// anything that reads the surviving counts — the baselines' cost
    /// formulas — must leave it off.
    pub semi_join: bool,
}

impl ScanOptions {
    /// Chunk-serial scan with no cross-table pushdown (the baselines).
    pub fn serial() -> ScanOptions {
        ScanOptions {
            threads: 1,
            semi_join: false,
        }
    }
}

/// Chunk accounting of one table's scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableScan {
    /// Total chunks the table is partitioned into.
    pub chunks: u64,
    /// Chunks skipped by zone-map pruning.
    pub pruned: u64,
}

/// Aggregate scan statistics of one query (summed over its tables).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Chunks actually scanned.
    pub chunks_scanned: u64,
    /// Chunks skipped by zone-map pruning.
    pub chunks_pruned: u64,
    /// Scan morsels executed.
    pub morsels: u64,
    /// Most threads any morsel run used (0 when no morsels ran).
    pub workers: u64,
}

/// The scan every engine runs: evaluate each table's single-table filters
/// over its column chunks, with zone-map pruning (pure: a pruned chunk
/// could not have contributed a row) and morsel-parallel evaluation on the
/// shared [`WorkerPool`].
///
/// Predicates the analyzer classifies as [`FilterAtom`]s run as tight
/// typed loops over the column data (text equality/ordering goes through
/// the cached dictionary codes), producing a selection mask; only rows
/// surviving the mask reach the expression interpreter for the remaining
/// complex predicates.  The atoms are therefore evaluated *first* — a row
/// rejected by an atom can no longer raise an evaluation error (e.g.
/// division by zero) from a complex predicate that textually precedes it.
///
/// Determinism: kept chunks are scanned as index-ordered morsels whose
/// results are concatenated in chunk order, so the surviving row sets —
/// and the first error, if any — are identical for every thread count.
///
/// Returns `(surviving rows per table, per-table chunk accounting,
/// aggregate stats)`.
pub fn apply_filters_scan(
    analyzed: &AnalyzedQuery,
    qctx: &QueryContext,
    opts: &ScanOptions,
) -> TcuResult<(Vec<Vec<usize>>, Vec<TableScan>, ScanStats)> {
    let n = analyzed.tables.len();
    let class_ctx = analyzed.row_context();
    let mut surviving: Vec<Option<Vec<usize>>> = (0..n).map(|_| None).collect();
    let mut scans = vec![TableScan::default(); n];
    let mut stats = ScanStats::default();
    // Semi-join key-range constraints pushed onto not-yet-scanned tables:
    // `(column index, lo, hi)` — a chunk of that table whose key zone
    // cannot intersect `[lo, hi]` cannot produce a join match.
    let mut pushed: Vec<Vec<(usize, f64, f64)>> = vec![Vec::new(); n];
    let mut order: Vec<usize> = (0..n).collect();
    if opts.semi_join {
        // Scan smaller tables first so filtered dimensions push their key
        // ranges onto the fact tables scanned after them.
        order.sort_by_key(|&t| (analyzed.tables[t].table.num_rows(), t));
    }
    let pool = WorkerPool::shared();

    for &ti in &order {
        qctx.check()?;
        let bound = &analyzed.tables[ti];
        let table: &Table = &bound.table;
        let nrows = table.num_rows();
        let filters = analyzed.filters_for_table(ti);

        // Classify the table's predicates: atoms prune chunks and run as
        // typed kernels, the rest goes to the interpreter.
        let mut atoms: Vec<FilterAtom> = Vec::new();
        let mut complex: Vec<&Expr> = Vec::new();
        for f in &filters {
            match vectorizable_atom(f, &class_ctx, ti) {
                Some(a) => atoms.push(a),
                None => complex.push(*f),
            }
        }

        // ---- Zone-map pruning ----
        let chunk_rows = table.chunk_rows();
        let total = chunk::chunk_count(nrows, chunk_rows);
        let mut constraints: Vec<(std::sync::Arc<chunk::ColumnZones>, f64, f64)> = Vec::new();
        for a in &atoms {
            if let Some((col, lo, hi)) = atom_interval(a) {
                constraints.push((table.zone_map(col), lo, hi));
            }
        }
        for &(col, lo, hi) in &pushed[ti] {
            constraints.push((table.zone_map(col), lo, hi));
        }
        let kept: Vec<usize> = (0..total)
            .filter(|&k| {
                constraints
                    .iter()
                    .all(|(z, lo, hi)| z.may_intersect(k, *lo, *hi))
            })
            .collect();
        scans[ti] = TableScan {
            chunks: total as u64,
            pruned: (total - kept.len()) as u64,
        };
        stats.chunks_scanned += kept.len() as u64;
        stats.chunks_pruned += scans[ti].pruned;

        // ---- Evaluate the kept chunks as morsels ----
        let keep: Vec<usize> = if filters.is_empty() {
            // No predicates: every row of every kept chunk, in one
            // exact-capacity allocation (the identity when nothing was
            // pruned).
            let spans: Vec<(usize, usize)> = kept
                .iter()
                .map(|&k| chunk::chunk_span(nrows, chunk_rows, k))
                .collect();
            let mut rows = Vec::with_capacity(spans.iter().map(|(s, e)| e - s).sum());
            for (start, end) in spans {
                rows.extend(start..end);
            }
            rows
        } else {
            let scan_chunk = |ci: usize| -> TcuResult<Vec<usize>> {
                qctx.check()?;
                let (start, end) = chunk::chunk_span(nrows, chunk_rows, kept[ci]);
                scan_range(analyzed, ti, table, start, end, &atoms, &complex)
            };
            let (parts, run) = pool.run_chunks(kept.len(), opts.threads.max(1), scan_chunk);
            stats.morsels += run.morsels;
            stats.workers = stats.workers.max(run.threads as u64);
            let mut acc = Vec::new();
            for p in parts {
                acc.extend(p?);
            }
            acc
        };

        // ---- Semi-join key-range pushdown ----
        if opts.semi_join && keep.len() < nrows {
            for j in &analyzed.joins {
                if !j.is_equi() {
                    continue;
                }
                let (partner, my_col, partner_col) = if j.left.0 == ti {
                    (j.right.0, &j.left.1, &j.right.1)
                } else if j.right.0 == ti {
                    (j.left.0, &j.right.1, &j.left.1)
                } else {
                    continue;
                };
                if partner == ti || surviving[partner].is_some() {
                    continue;
                }
                let my_idx = table.schema().require(my_col)?;
                if let Some((lo, hi)) = value_range(table.column(my_idx), &keep) {
                    let p_idx = analyzed.tables[partner]
                        .table
                        .schema()
                        .require(partner_col)?;
                    pushed[partner].push((p_idx, lo, hi));
                }
            }
        }
        surviving[ti] = Some(keep);
    }

    let surviving = surviving
        .into_iter()
        .map(Option::unwrap_or_default)
        .collect();
    Ok((surviving, scans, stats))
}

/// Evaluate one table's predicates over the row range `[start, end)`,
/// reproducing the single-stream evaluation order exactly: the mask starts
/// all-true, atoms AND into it with typed kernels, and surviving rows run
/// the complex predicates through the interpreter in textual order.
fn scan_range(
    analyzed: &AnalyzedQuery,
    ti: usize,
    table: &Table,
    start: usize,
    end: usize,
    atoms: &[FilterAtom],
    complex: &[&Expr],
) -> TcuResult<Vec<usize>> {
    let mut mask = vec![true; end - start];
    for atom in atoms {
        apply_filter_atom_range(table, atom, start, &mut mask)?;
    }
    let mut ctx = analyzed.row_context();
    let mut keep = Vec::new();
    'rows: for (i, _) in mask.iter().enumerate().filter(|(_, ok)| **ok) {
        let r = start + i;
        ctx.set_row(ti, r);
        for f in complex {
            if !eval_predicate(f, &ctx)? {
                continue 'rows;
            }
        }
        keep.push(r);
    }
    Ok(keep)
}

/// The constraint interval `[lo, hi]` a [`FilterAtom`] imposes on its
/// column, for zone-map pruning — `None` when the atom cannot prune
/// (text/NotEq, or a literal whose exact `f64` image is not guaranteed).
/// Ordering atoms use a half-open-at-infinity interval; the closed
/// endpoint is conservative for the strict operators (a chunk whose bound
/// only *equals* the literal is still scanned), which keeps pruning sound.
fn atom_interval(atom: &FilterAtom) -> Option<(usize, f64, f64)> {
    match atom {
        FilterAtom::Between { col, low, high } => Some((*col, *low, *high)),
        FilterAtom::Cmp { col, op, lit } => {
            let v = match lit {
                Value::Int(x) => chunk::int_bound(*x)?,
                Value::Float(f) if !f.is_nan() => *f,
                _ => return None,
            };
            match op {
                BinOp::Eq => Some((*col, v, v)),
                BinOp::Lt | BinOp::LtEq => Some((*col, f64::NEG_INFINITY, v)),
                BinOp::Gt | BinOp::GtEq => Some((*col, v, f64::INFINITY)),
                _ => None,
            }
        }
    }
}

/// Min/max of a key column restricted to `rows`, as an exact `f64`
/// interval — the semi-join range pushed to join partners.  `None` when
/// no sound interval exists (text keys, NaN keys — which join other NaNs
/// under `group_key` — or integers beyond ±2⁵²).  An empty selection
/// yields the empty interval `[+∞, −∞]`, which prunes every prunable
/// partner chunk.
fn value_range(col: &Column, rows: &[usize]) -> Option<(f64, f64)> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    match col {
        Column::Int64(v) => {
            for &r in rows {
                let x = chunk::int_bound(v[r])?;
                lo = lo.min(x);
                hi = hi.max(x);
            }
        }
        Column::Float64(v) => {
            for &r in rows {
                let x = v[r];
                if x.is_nan() {
                    return None;
                }
                lo = lo.min(x);
                hi = hi.max(x);
            }
        }
        Column::Text(_) => return None,
    }
    Some((lo, hi))
}

/// Fraction of table `ti`'s chunks a zone-pruned scan must still read
/// (1.0 when nothing can be pruned) — the hook admission control uses to
/// price pruned scans instead of whole-table sizes.
pub fn pruned_scan_fraction(analyzed: &AnalyzedQuery, ti: usize) -> f64 {
    let table = &analyzed.tables[ti].table;
    let total = table.chunk_count();
    if total == 0 {
        return 1.0;
    }
    let ctx = analyzed.row_context();
    let mut zones = Vec::new();
    for f in &analyzed.filters_for_table(ti) {
        if let Some(a) = vectorizable_atom(f, &ctx, ti) {
            if let Some((col, lo, hi)) = atom_interval(&a) {
                zones.push((table.zone_map(col), lo, hi));
            }
        }
    }
    if zones.is_empty() {
        return 1.0;
    }
    let constraints: Vec<(&chunk::ColumnZones, f64, f64)> = zones
        .iter()
        .map(|(z, lo, hi)| (z.as_ref(), *lo, *hi))
        .collect();
    chunk::kept_chunks(total, &constraints) as f64 / total as f64
}

/// AND one vectorizable predicate into the selection mask of the row
/// range `[start, start + mask.len())` with a typed columnar loop.  Every
/// branch reproduces the corresponding `eval_predicate` result bit for
/// bit (including the `partial_cmp(..).unwrap_or(Equal)` NaN behaviour of
/// `sql_cmp`, hence the negated comparisons for `LtEq`/`GtEq` — `!(a > b)`
/// is *not* the same as `a <= b` on NaN, and the interpreter implements
/// the former).
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn apply_filter_atom_range(
    table: &Table,
    atom: &FilterAtom,
    start: usize,
    mask: &mut [bool],
) -> TcuResult<()> {
    fn mask_by<T: Copy>(mask: &mut [bool], data: &[T], pred: impl Fn(T) -> bool) {
        for (m, &x) in mask.iter_mut().zip(data) {
            *m = *m && pred(x);
        }
    }
    let end = start + mask.len();
    let internal = |what: &str| {
        TcuError::Execution(format!(
            "filter atom misclassified ({what}); analyzer and kernels disagree"
        ))
    };
    match atom {
        FilterAtom::Between { col, low, high } => {
            let (lo, hi) = (*low, *high);
            match table.column(*col) {
                Column::Int64(v) => mask_by(mask, &v[start..end], |x| {
                    let x = x as f64;
                    x >= lo && x <= hi
                }),
                Column::Float64(v) => mask_by(mask, &v[start..end], |x| x >= lo && x <= hi),
                Column::Text(_) => return Err(internal("BETWEEN over text")),
            }
        }
        FilterAtom::Cmp { col, op, lit } => {
            let op = *op;
            match (table.column(*col), lit) {
                (Column::Int64(v), Value::Int(x)) => {
                    let v = &v[start..end];
                    let x = *x;
                    match op {
                        BinOp::Eq => mask_by(mask, v, |a| a == x),
                        BinOp::NotEq => mask_by(mask, v, |a| a != x),
                        BinOp::Lt => mask_by(mask, v, |a| a < x),
                        BinOp::LtEq => mask_by(mask, v, |a| a <= x),
                        BinOp::Gt => mask_by(mask, v, |a| a > x),
                        BinOp::GtEq => mask_by(mask, v, |a| a >= x),
                        _ => return Err(internal("non-comparison op")),
                    }
                }
                (Column::Int64(v), Value::Float(f)) => {
                    let v = &v[start..end];
                    let f = *f;
                    match op {
                        // Int-vs-Float equality follows group_key: only an
                        // integral literal can ever match.
                        BinOp::Eq | BinOp::NotEq => {
                            let want_eq = op == BinOp::Eq;
                            match ValueKey::from_f64(f) {
                                ValueKey::Int(x) => mask_by(mask, v, |a| (a == x) == want_eq),
                                _ => mask_by(mask, v, |_| !want_eq),
                            }
                        }
                        BinOp::Lt => mask_by(mask, v, |a| (a as f64) < f),
                        BinOp::LtEq => mask_by(mask, v, |a| !((a as f64) > f)),
                        BinOp::Gt => mask_by(mask, v, |a| (a as f64) > f),
                        BinOp::GtEq => mask_by(mask, v, |a| !((a as f64) < f)),
                        _ => return Err(internal("non-comparison op")),
                    }
                }
                (Column::Float64(v), lit @ (Value::Int(_) | Value::Float(_))) => {
                    let v = &v[start..end];
                    let litf = lit.as_f64().expect("numeric literal");
                    match op {
                        BinOp::Eq | BinOp::NotEq => {
                            let want_eq = op == BinOp::Eq;
                            // group_key: the normalisation this kernel and
                            // the interpreter share (ValueKey::from_f64).
                            let key = lit.group_key();
                            mask_by(mask, v, |a| (ValueKey::from_f64(a) == key) == want_eq);
                        }
                        BinOp::Lt => mask_by(mask, v, |a| a < litf),
                        BinOp::LtEq => mask_by(mask, v, |a| !(a > litf)),
                        BinOp::Gt => mask_by(mask, v, |a| a > litf),
                        BinOp::GtEq => mask_by(mask, v, |a| !(a < litf)),
                        _ => return Err(internal("non-comparison op")),
                    }
                }
                (Column::Text(_), Value::Text(s)) => {
                    let dict = table.encoded_column(*col);
                    let codes = &dict.codes()[start..end];
                    match op {
                        BinOp::Eq | BinOp::NotEq => {
                            let want_eq = op == BinOp::Eq;
                            match dict.code_of(&Value::Text(s.clone())) {
                                Some(t) => mask_by(mask, codes, |c| (c == t) == want_eq),
                                None => mask_by(mask, codes, |_| !want_eq),
                            }
                        }
                        BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                            // One string comparison per *distinct* value.
                            let lut: Vec<bool> = dict
                                .values()
                                .iter()
                                .map(|v| {
                                    let ord = v.as_str().expect("text dict").cmp(s.as_str());
                                    match op {
                                        BinOp::Lt => ord == Ordering::Less,
                                        BinOp::LtEq => ord != Ordering::Greater,
                                        BinOp::Gt => ord == Ordering::Greater,
                                        _ => ord != Ordering::Less,
                                    }
                                })
                                .collect();
                            mask_by(mask, codes, |c| lut[c as usize]);
                        }
                        _ => return Err(internal("non-comparison op")),
                    }
                }
                _ => return Err(internal("column/literal type mismatch")),
            }
        }
    }
    Ok(())
}

/// One accumulating aggregate state, behind both [`aggregate_values`] and
/// (as `Vec<AggState>` indexed by dense group id) the output pipeline, so
/// both fold values with identical SQL semantics:
///
/// * NULL inputs are **skipped** by every aggregate (COUNT(col) does not
///   count them; SUM/AVG over zero non-NULL inputs yield NULL) — COUNT(*)
///   counts rows because its call sites feed a literal `1`,
/// * MIN/MAX keep the first-seen extreme **value** (via `sql_cmp`), so an
///   INT column's minimum stays an `Int` and a TEXT column's minimum is
///   the lexicographically smallest string, not a `0.0` coercion.
#[derive(Debug, Clone)]
struct AggState {
    func: AggFunc,
    sum: f64,
    count: u64,
    /// Current MIN/MAX extreme (the original value, type preserved).
    best: Option<Value>,
}

impl AggState {
    fn new(func: AggFunc) -> AggState {
        AggState {
            func,
            sum: 0.0,
            count: 0,
            best: None,
        }
    }

    /// Fold one value in, touching only the accumulators `finish` will
    /// read for this aggregate.
    fn update(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        match self.func {
            AggFunc::Count => self.count += 1,
            AggFunc::Sum | AggFunc::Avg => {
                // Non-numeric (text) inputs keep their historical 0.0
                // coercion; only NULLs are skipped.
                self.sum += v.as_f64().unwrap_or(0.0);
                self.count += 1;
            }
            AggFunc::Min => {
                if self
                    .best
                    .as_ref()
                    .is_none_or(|b| v.sql_cmp(b) == Ordering::Less)
                {
                    self.best = Some(v.clone());
                }
            }
            AggFunc::Max => {
                if self
                    .best
                    .as_ref()
                    .is_none_or(|b| v.sql_cmp(b) == Ordering::Greater)
                {
                    self.best = Some(v.clone());
                }
            }
        }
    }

    /// Non-NULL numeric fast path: exactly [`AggState::update`] with
    /// `Value::Float(v)` minus the boxing (the vectorized pipeline calls
    /// this in its segmented-accumulation loop).
    fn update_f64(&mut self, v: f64) {
        match self.func {
            AggFunc::Count => self.count += 1,
            AggFunc::Sum | AggFunc::Avg => {
                self.sum += v;
                self.count += 1;
            }
            // `sql_cmp` over two Floats is `partial_cmp` with NaN mapping
            // to Equal (never replaces, never gets replaced).
            AggFunc::Min => {
                let replace = match &self.best {
                    None => true,
                    Some(b) => {
                        v.partial_cmp(&b.as_f64().unwrap_or(f64::NEG_INFINITY))
                            == Some(Ordering::Less)
                    }
                };
                if replace {
                    self.best = Some(Value::Float(v));
                }
            }
            AggFunc::Max => {
                let replace = match &self.best {
                    None => true,
                    Some(b) => {
                        v.partial_cmp(&b.as_f64().unwrap_or(f64::NEG_INFINITY))
                            == Some(Ordering::Greater)
                    }
                };
                if replace {
                    self.best = Some(Value::Float(v));
                }
            }
        }
    }

    fn finish(&self) -> Value {
        match self.func {
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum)
                }
            }
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min | AggFunc::Max => self.best.clone().unwrap_or(Value::Null),
        }
    }
}

/// Resolve the ORDER BY keys to `(output column index, ascending)` pairs:
/// by output name first, falling back to matching the rendered expression
/// of each SELECT item (e.g. `ORDER BY d_year` when the item has no
/// alias).  The `tcudb-reference` finalize resolves its keys here too, so
/// production and the oracle resolve — and fail — identically.
pub fn order_key_indices(
    stmt: &SelectStatement,
    col_names: &[String],
) -> TcuResult<Vec<(usize, bool)>> {
    let mut keys = Vec::with_capacity(stmt.order_by.len());
    for ob in &stmt.order_by {
        let name = match &ob.expr {
            Expr::Column(c) => c.column.clone(),
            other => other.to_string(),
        };
        let idx = col_names
            .iter()
            .position(|n| n.eq_ignore_ascii_case(&name))
            .or_else(|| stmt.items.iter().position(|i| i.expr == ob.expr))
            .ok_or_else(|| {
                TcuError::Analysis(format!("ORDER BY key '{}' is not in the SELECT list", name))
            })?;
        keys.push((idx, ob.ascending));
    }
    Ok(keys)
}

/// When the SELECT item is an expression *around* an aggregate
/// (e.g. `SUM(x) / 100`), evaluate the surrounding arithmetic with the
/// aggregate replaced by its final value.
fn finish_aggregate_item(expr: &Expr, state: &AggState) -> TcuResult<Value> {
    fn substitute(expr: &Expr, agg_value: &Value) -> TcuResult<Value> {
        match expr {
            Expr::Aggregate { .. } => Ok(agg_value.clone()),
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Column(c) => Err(TcuError::Analysis(format!(
                "column '{c}' mixed with aggregates must appear in GROUP BY"
            ))),
            Expr::Binary { left, op, right } => {
                let l = substitute(left, agg_value)?;
                let r = substitute(right, agg_value)?;
                crate::context::eval_binary(&l, *op, &r)
            }
            Expr::Between { .. } => Err(TcuError::Analysis(
                "BETWEEN is not valid in an aggregate SELECT item".into(),
            )),
        }
    }
    substitute(expr, &state.finish())
}

/// Build a table from value rows, inferring each column's type by the
/// rules of `column_from_inferred`.
pub fn table_from_rows(
    name: &str,
    col_names: &[String],
    rows: Vec<Vec<Value>>,
) -> TcuResult<Table> {
    let mut values: Vec<Vec<Value>> = vec![Vec::with_capacity(rows.len()); col_names.len()];
    for row in rows {
        for (col, v) in values.iter_mut().zip(row) {
            col.push(v);
        }
    }
    let columns = values
        .into_iter()
        .map(column_from_inferred)
        .collect::<TcuResult<Vec<Column>>>()?;
    let defs = col_names
        .iter()
        .zip(&columns)
        .map(|(n, c)| ColumnDef::new(n.clone(), c.data_type()))
        .collect();
    Table::from_columns(name, Schema::new(defs), columns)
}

// ---------------------------------------------------------------------
// Vectorized, late-materialized output pipeline — the only finalize:
//   TupleBatch → residual selection → dense group ids → segmented /
//   one-hot-GEMM aggregation → typed gather.
//
// The `encoded_oracle` proptests hold it equal to the `tcudb-reference`
// crate's row-at-a-time finalize.  Like the filter atoms, the one
// observable difference is *error ordering*: the pipeline evaluates each
// group key, aggregate argument and projection item over all tuples before
// moving to the next, so when two expressions would both fail, the error
// may come from a different (expression, row) pair than the tuple-order
// interpreter's.  Residual predicates keep the interpreter's short
// circuit: each runs only on the survivors of the ones before it.
// ---------------------------------------------------------------------

/// Tunables of the columnar output pipeline.
#[derive(Debug, Clone)]
pub struct FinalizeOptions {
    /// Largest `rows × groups` one-hot group matrix the aggregation stage
    /// will materialise and push through the tensor engine (§3.3's
    /// grouped-GEMV form); `0` disables the GEMM form entirely (the
    /// CPU/GPU baseline engines, which model group-by as a separate
    /// non-tensor kernel).
    pub gemm_limit: usize,
    /// Cancellation/deadline context, probed at finalize-chunk boundaries
    /// (residual batches, per-aggregate reductions, group-emission
    /// chunks).  Defaults to unbounded.
    pub ctx: QueryContext,
}

/// Tuples (or groups) processed between two cancellation probes inside
/// the finalize loops — small enough that a cancelled query stops within
/// microseconds, large enough that the probe cost vanishes.
const FINALIZE_CHECK_CHUNK: usize = 4096;

/// Host execution budget for the one-hot aggregation GEMM: building the
/// group matrix is O(rows × groups) memory traffic on the host, so past
/// ~1M elements the segmented form computes the identical result faster
/// than the emulated kernel can even materialise its operand (on real TCU
/// hardware the cost model, not this constant, makes the call).
const AGG_GEMM_EXEC_LIMIT: usize = 1 << 20;

impl FinalizeOptions {
    /// Options for the TCUDB executor: GEMM aggregation up to the
    /// engine's materialization limit, bounded by the host execution
    /// budget.
    pub fn tensor(materialize_limit: usize) -> FinalizeOptions {
        FinalizeOptions {
            gemm_limit: materialize_limit.min(AGG_GEMM_EXEC_LIMIT),
            ctx: QueryContext::unbounded(),
        }
    }

    /// Options for the baseline engines: vectorized pipeline, no tensor
    /// kernels.
    pub fn baseline() -> FinalizeOptions {
        FinalizeOptions {
            gemm_limit: 0,
            ctx: QueryContext::unbounded(),
        }
    }

    /// Attach a cancellation/deadline context to probe at finalize-chunk
    /// boundaries.
    pub fn with_ctx(mut self, ctx: QueryContext) -> FinalizeOptions {
        self.ctx = ctx;
        self
    }
}

/// What the columnar finalize actually did — exact counts the engine
/// layer feeds to the cost model instead of pre-execution guesses.
#[derive(Debug, Clone, Default)]
pub struct FinalizeReport {
    /// Tuples entering the stage (before residual predicates).
    pub input_tuples: usize,
    /// Tuples surviving the residual predicates (= aggregation input).
    pub agg_rows: usize,
    /// Distinct groups produced (0 for non-aggregating queries).
    pub groups: usize,
    /// Kernel statistics of each aggregate reduced on the tensor engine
    /// (empty when every aggregate ran as segmented accumulation).
    pub gemm: Vec<GemmStats>,
    /// Which pipeline ran: `"projection"`, `"grouped"` or
    /// `"grouped-gemm"`.
    pub path: &'static str,
}

/// Materialise the output table of a query from a late-materialized
/// [`TupleBatch`] with column-at-a-time kernels — residual selection,
/// dense group ids, segmented (or §3.3 one-hot GEMM) aggregation,
/// sort-permutation ORDER BY and typed column gathers, with zero per-cell
/// `Value` traffic on the hot paths.
pub fn finalize_output_columnar(
    analyzed: &AnalyzedQuery,
    batch: &TupleBatch,
    opts: &FinalizeOptions,
) -> TcuResult<(Table, FinalizeReport)> {
    let mut report = FinalizeReport {
        input_tuples: batch.len(),
        ..FinalizeReport::default()
    };

    // Residual (multi-table, non-join) predicates in textual order, each
    // over the survivors of the ones before it — the (predicate, tuple)
    // pairs a short-circuiting per-tuple test evaluates, and no others.
    let mut batch = Cow::Borrowed(batch);
    for pred in &analyzed.residual {
        let data = evaluate(pred, analyzed, &batch, &opts.ctx)?;
        let keep: Vec<u32> = (0..batch.len())
            .filter(|&i| truthy(&data.value(i)))
            .map(|i| i as u32)
            .collect();
        batch = Cow::Owned(batch.select(&keep));
    }
    report.agg_rows = batch.len();

    let stmt = &analyzed.stmt;
    if stmt.has_aggregates() || !stmt.group_by.is_empty() {
        finalize_grouped(analyzed, &batch, opts, report)
    } else {
        finalize_projection(analyzed, &batch, &opts.ctx, report)
    }
}

/// Grouped (or global) aggregation over a tuple batch.
fn finalize_grouped(
    analyzed: &AnalyzedQuery,
    batch: &TupleBatch,
    opts: &FinalizeOptions,
    mut report: FinalizeReport,
) -> TcuResult<(Table, FinalizeReport)> {
    let stmt = &analyzed.stmt;
    let ctx = analyzed.row_context();
    let col_names: Vec<String> = stmt.items.iter().map(|i| i.output_name()).collect();

    // ---- Group keys → dense first-seen group ids.  A bare column
    // contributes its cached dictionary codes; any other key is evaluated
    // once over the batch and coded by first appearance of its
    // `Value::group_key` (the dictionaries' normalisation), so
    // `GroupIds::compose` treats the two alike.  `keys[k](i)` reads key
    // `k` of tuple `i` back for the output rows.
    let mut gids = GroupIds::new(batch.len());
    let mut keys: Vec<Box<dyn Fn(usize) -> Value + '_>> = Vec::with_capacity(stmt.group_by.len());
    for g in &stmt.group_by {
        if let Some((ti, ci)) = simple_column(g, &ctx) {
            let dict = analyzed.tables[ti].table.encoded_column(ci);
            let codes: Vec<u32> = batch
                .col(ti)
                .iter()
                .map(|&r| dict.codes()[r as usize])
                .collect();
            gids.compose(&codes, dict.dict_len());
            keys.push(Box::new(move |i| dict.value(codes[i]).clone()));
        } else {
            let data = evaluate(g, analyzed, batch, &opts.ctx)?;
            let mut seen: HashMap<ValueKey, u32> = HashMap::new();
            let codes: Vec<u32> = (0..batch.len())
                .map(|i| {
                    let next = seen.len() as u32;
                    *seen.entry(data.value(i).group_key()).or_insert(next)
                })
                .collect();
            gids.compose(&codes, seen.len());
            keys.push(Box::new(move |i| data.value(i)));
        }
    }
    let groups = gids.groups();
    report.groups = groups;
    report.path = "grouped";

    // ---- Aggregation: one Vec<AggState> (dense group id → state) per
    // aggregate SELECT item, folded by segmented accumulation or the
    // §3.3 one-hot GEMM.
    let mut item_states: Vec<Option<Vec<AggState>>> = Vec::with_capacity(stmt.items.len());
    for item in &stmt.items {
        opts.ctx.check()?;
        if item.expr.contains_aggregate() {
            let (func, arg) = item.expr.first_aggregate().expect("contains_aggregate");
            item_states.push(Some(reduce_aggregate(
                analyzed,
                batch,
                *func,
                arg,
                &gids,
                opts,
                &mut report,
            )?));
        } else {
            item_states.push(None);
        }
    }

    // ---- Per-group key values: the representative (first-seen) tuple's.
    let key_values: Vec<Vec<Value>> = gids
        .representatives()
        .iter()
        .map(|&rep| keys.iter().map(|key| key(rep as usize)).collect())
        .collect();

    // ---- Output rows, one per group in first-seen (= dense id) order.
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(groups);
    let mut emit_row = |g: Option<usize>| -> TcuResult<()> {
        let mut row = Vec::with_capacity(stmt.items.len());
        for (idx, item) in stmt.items.iter().enumerate() {
            if let Some(states) = &item_states[idx] {
                let state = match g {
                    Some(g) => states[g].clone(),
                    None => {
                        let (func, _) = item.expr.first_aggregate().expect("aggregate item");
                        AggState::new(*func)
                    }
                };
                row.push(finish_aggregate_item(&item.expr, &state)?);
            } else {
                let pos = stmt
                    .group_by
                    .iter()
                    .position(|gb| gb == &item.expr)
                    .ok_or_else(|| {
                        TcuError::Analysis(format!(
                            "non-aggregate SELECT item '{}' is not in GROUP BY",
                            item.expr
                        ))
                    })?;
                row.push(key_values[g.expect("keyed groups have tuples")][pos].clone());
            }
        }
        rows.push(row);
        Ok(())
    };
    if groups == 0 && stmt.group_by.is_empty() {
        // Global aggregation over zero tuples still yields one row.
        emit_row(None)?;
    } else {
        for g in 0..groups {
            if g % FINALIZE_CHECK_CHUNK == 0 {
                opts.ctx.check()?;
            }
            emit_row(Some(g))?;
        }
    }

    // ORDER BY / LIMIT over per-group rows: the group count is small, so
    // the shared row sort is the right tool.
    if !stmt.order_by.is_empty() {
        let keys = order_key_indices(stmt, &col_names)?;
        rows.sort_by(|a, b| {
            for (idx, asc) in &keys {
                let ord = a[*idx].sql_cmp(&b[*idx]);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    if let Some(limit) = stmt.limit {
        rows.truncate(limit);
    }
    let table = table_from_rows("result", &col_names, rows)?;
    Ok((table, report))
}

/// Reduce one aggregate over the batch into per-group states.
fn reduce_aggregate(
    analyzed: &AnalyzedQuery,
    batch: &TupleBatch,
    func: AggFunc,
    arg: &Expr,
    gids: &GroupIds,
    opts: &FinalizeOptions,
    report: &mut FinalizeReport,
) -> TcuResult<Vec<AggState>> {
    let ids = gids.ids();
    let groups = gids.groups();
    let mut states = vec![AggState::new(func); groups];

    let ctx = analyzed.row_context();

    // Typed MIN/MAX fast paths over integer and text columns (the input
    // type — and for text, the dictionary's sorted order — decides the
    // winner).
    if matches!(func, AggFunc::Min | AggFunc::Max) {
        if let Some((ti, ci)) = simple_column(arg, &ctx) {
            let rows = batch.col(ti);
            match analyzed.tables[ti].table.column(ci) {
                Column::Int64(v) => {
                    let want = if func == AggFunc::Min {
                        Ordering::Less
                    } else {
                        Ordering::Greater
                    };
                    let mut best: Vec<Option<i64>> = vec![None; groups];
                    for (i, &g) in ids.iter().enumerate() {
                        let x = v[rows[i] as usize];
                        let slot = &mut best[g as usize];
                        if slot.is_none_or(|b| x.cmp(&b) == want) {
                            *slot = Some(x);
                        }
                    }
                    for (state, b) in states.iter_mut().zip(best) {
                        state.best = b.map(Value::Int);
                    }
                    return Ok(states);
                }
                Column::Text(_) => {
                    // One string comparison per distinct value: reduce over
                    // the dictionary's sorted-order ranks, then map the
                    // winning code back to its value.
                    let dict = analyzed.tables[ti].table.encoded_column(ci);
                    let ranks = dict.ordered_ranks();
                    let want = if func == AggFunc::Min {
                        Ordering::Less
                    } else {
                        Ordering::Greater
                    };
                    let mut best: Vec<Option<u32>> = vec![None; groups];
                    for (i, &g) in ids.iter().enumerate() {
                        let code = dict.codes()[rows[i] as usize];
                        let slot = &mut best[g as usize];
                        if slot.is_none_or(|b| ranks[code as usize].cmp(&ranks[b as usize]) == want)
                        {
                            *slot = Some(code);
                        }
                    }
                    for (state, b) in states.iter_mut().zip(best) {
                        state.best = b.map(|code| dict.value(code).clone());
                    }
                    return Ok(states);
                }
                // Folds below, like any numeric argument.
                Column::Float64(_) => {}
            }
        }
    }

    // COUNT(*), and COUNT of a numeric argument that cannot fail, count
    // tuples without evaluating anything.  Every other argument goes
    // through the evaluator; non-numeric values (text, comparisons,
    // BETWEEN …) fold with full SQL NULL-skipping semantics.
    let counts_tuples = func == AggFunc::Count
        && (matches!(arg, Expr::Literal(_))
            || batch_expr(arg, &ctx).is_some_and(|be| !batch_expr_can_fail(&be)));
    let vals = if counts_tuples {
        Vec::new()
    } else {
        match evaluate(arg, analyzed, batch, &opts.ctx)?.into_f64() {
            Ok(vals) => vals,
            Err(data) => {
                for (i, &g) in ids.iter().enumerate() {
                    states[g as usize].update(&data.value(i));
                }
                return Ok(states);
            }
        }
    };

    if func == AggFunc::Count {
        // A numeric argument is never NULL: each tuple counts once (it was
        // evaluated above only for error parity, e.g. division by zero).
        if gemm_reduce_feasible(&[], batch.len(), groups, opts) {
            let ones = vec![1.0f32; batch.len()];
            let (sums, stats) = grouped::grouped_sum_gemm(&ones, ids, groups, GemmPrecision::Fp32)?;
            for (state, s) in states.iter_mut().zip(&sums) {
                state.count = *s as u64;
            }
            report.gemm.push(stats);
            report.path = "grouped-gemm";
        } else {
            for &g in ids {
                states[g as usize].count += 1;
            }
        }
    } else if matches!(func, AggFunc::Sum | AggFunc::Avg)
        && gemm_reduce_feasible(&vals, batch.len(), groups, opts)
    {
        // §3.3: the per-group sums as one value-vector × one-hot GEMM on
        // the tensor engine.  The feasibility test guarantees f32
        // accumulation is exact, so the result is bit-identical to the
        // segmented f64 form.
        let vals32: Vec<f32> = vals.iter().map(|&v| v as f32).collect();
        let (sums, stats) = grouped::grouped_sum_gemm(&vals32, ids, groups, GemmPrecision::Fp32)?;
        for (state, s) in states.iter_mut().zip(&sums) {
            state.sum = *s as f64;
        }
        for &g in ids {
            states[g as usize].count += 1;
        }
        report.gemm.push(stats);
        report.path = "grouped-gemm";
    } else {
        for (i, &v) in vals.iter().enumerate() {
            states[ids[i] as usize].update_f64(v);
        }
    }
    Ok(states)
}

/// Can evaluating this batch expression raise an error?  Only division
/// (by zero) can; columns, literals and `+ - *` are total over f64.
fn batch_expr_can_fail(expr: &BatchExpr) -> bool {
    match expr {
        BatchExpr::Column(..) | BatchExpr::Literal(_) => false,
        BatchExpr::Binary { left, op, right } => {
            *op == BinOp::Div || batch_expr_can_fail(left) || batch_expr_can_fail(right)
        }
    }
}

/// Can this reduction run as an exact f32 one-hot GEMM?  Requires the
/// group matrix (`rows × groups`) to fit the materialization budget and
/// every partial sum to be exactly representable in f32: integer values
/// with Σ|v| < 2²⁴ (pass an empty value slice for all-ones counting,
/// where the sum bound reduces to the row count).
fn gemm_reduce_feasible(vals: &[f64], rows: usize, groups: usize, opts: &FinalizeOptions) -> bool {
    const EXACT_BOUND: f64 = (1u64 << 24) as f64;
    if opts.gemm_limit == 0 || groups == 0 || rows == 0 {
        return false;
    }
    if rows.saturating_mul(groups) > opts.gemm_limit {
        return false;
    }
    if vals.is_empty() {
        return (rows as f64) < EXACT_BOUND;
    }
    let mut abs_sum = 0.0f64;
    for &v in vals {
        // NaN and infinities fail the fract test.
        if v.fract() != 0.0 {
            return false;
        }
        abs_sum += v.abs();
        if abs_sum >= EXACT_BOUND {
            return false;
        }
    }
    true
}

/// Evaluate a [`BatchExpr`] over every tuple of the batch into a flat f64
/// vector — the column-at-a-time mirror of `context::eval` /
/// `eval_binary` (which compute all arithmetic in f64).
fn eval_batch_expr(
    expr: &BatchExpr,
    analyzed: &AnalyzedQuery,
    batch: &TupleBatch,
) -> TcuResult<Vec<f64>> {
    match expr {
        BatchExpr::Column(ti, ci) => {
            ItemData::Gather(analyzed.tables[*ti].table.column(*ci), batch.col(*ti))
                .into_f64()
                .map_err(|_| {
                    TcuError::Execution(
                "batch expression misclassified (text column); analyzer and kernels disagree"
                    .into(),
            )
                })
        }
        BatchExpr::Literal(x) => Ok(vec![*x; batch.len()]),
        BatchExpr::Binary { left, op, right } => {
            let a = eval_batch_expr(left, analyzed, batch)?;
            let b = eval_batch_expr(right, analyzed, batch)?;
            let mut out = Vec::with_capacity(a.len());
            for (&x, &y) in a.iter().zip(&b) {
                out.push(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => {
                        if y == 0.0 {
                            return Err(TcuError::Execution("division by zero".into()));
                        }
                        x / y
                    }
                    other => {
                        return Err(TcuError::Execution(format!(
                            "batch expression misclassified (operator {other})"
                        )))
                    }
                });
            }
            Ok(out)
        }
    }
}

/// One expression's values over every tuple of a batch: what `evaluate`
/// returns.
enum ItemData<'a> {
    /// A plain base-table column gathered through the batch: the column
    /// and the batch's row-index column for its table.
    Gather(&'a Column, &'a [u32]),
    /// A numeric expression evaluated column-at-a-time (always `Float`).
    F64(Vec<f64>),
    /// Interpreted, one `Value` per tuple.
    Values(Vec<Value>),
}

/// The one evaluator of per-tuple expressions in the output pipeline:
/// residual predicates, group keys, aggregate arguments and projection
/// items all go through it.  A bare column is a gather through the batch,
/// a [`BatchExpr`] runs column-at-a-time, and anything else is interpreted
/// one `context::eval` per tuple, probing `qctx` every
/// `FINALIZE_CHECK_CHUNK` tuples.
fn evaluate<'a>(
    expr: &Expr,
    analyzed: &'a AnalyzedQuery,
    batch: &'a TupleBatch,
    qctx: &QueryContext,
) -> TcuResult<ItemData<'a>> {
    let mut ctx = analyzed.row_context();
    if let Some((ti, ci)) = simple_column(expr, &ctx) {
        return Ok(ItemData::Gather(
            analyzed.tables[ti].table.column(ci),
            batch.col(ti),
        ));
    }
    if let Some(be) = batch_expr(expr, &ctx) {
        return eval_batch_expr(&be, analyzed, batch).map(ItemData::F64);
    }
    let mut buf = vec![0usize; batch.num_slots()];
    let mut vals = Vec::with_capacity(batch.len());
    for i in 0..batch.len() {
        if i % FINALIZE_CHECK_CHUNK == 0 {
            qctx.check()?;
        }
        batch.write_row(i, &mut buf);
        ctx.set_rows(&buf);
        vals.push(eval(expr, &ctx)?);
    }
    Ok(ItemData::Values(vals))
}

impl<'a> ItemData<'a> {
    /// Tuple `i`'s value, exactly as `context::eval` returns it.
    fn value(&self, i: usize) -> Value {
        match self {
            ItemData::Gather(col, rows) => col.value(rows[i] as usize),
            ItemData::F64(v) => Value::Float(v[i]),
            ItemData::Values(v) => v[i].clone(),
        }
    }

    /// The values as one flat f64 vector when they are numeric (a numeric
    /// column or a batch expression); the data back otherwise.
    fn into_f64(self) -> Result<Vec<f64>, ItemData<'a>> {
        match self {
            ItemData::Gather(Column::Int64(v), rows) => {
                Ok(rows.iter().map(|&r| v[r as usize] as f64).collect())
            }
            ItemData::Gather(Column::Float64(v), rows) => {
                Ok(rows.iter().map(|&r| v[r as usize]).collect())
            }
            ItemData::F64(v) => Ok(v),
            other => Err(other),
        }
    }

    /// Compare the item's values of tuples `a` and `b` with `sql_cmp`
    /// semantics (each variant holds a single value type, so the typed
    /// comparisons below are exactly what `sql_cmp` would do).
    fn cmp(&self, a: u32, b: u32) -> Ordering {
        match self {
            ItemData::Gather(col, rows) => {
                let (ra, rb) = (rows[a as usize] as usize, rows[b as usize] as usize);
                match col {
                    Column::Int64(v) => v[ra].cmp(&v[rb]),
                    Column::Float64(v) => v[ra].partial_cmp(&v[rb]).unwrap_or(Ordering::Equal),
                    Column::Text(v) => v[ra].cmp(&v[rb]),
                }
            }
            ItemData::F64(v) => v[a as usize]
                .partial_cmp(&v[b as usize])
                .unwrap_or(Ordering::Equal),
            ItemData::Values(v) => v[a as usize].sql_cmp(&v[b as usize]),
        }
    }
}

/// Plain projection (no aggregates) over a tuple batch: typed gathers,
/// sort-permutation ORDER BY and top-k selection under LIMIT.
fn finalize_projection(
    analyzed: &AnalyzedQuery,
    batch: &TupleBatch,
    qctx: &QueryContext,
    mut report: FinalizeReport,
) -> TcuResult<(Table, FinalizeReport)> {
    let stmt = &analyzed.stmt;
    let col_names: Vec<String> = stmt.items.iter().map(|i| i.output_name()).collect();
    report.path = "projection";

    // Evaluate each SELECT item over the whole batch, with one
    // cancellation probe per item.
    let mut items: Vec<ItemData<'_>> = Vec::with_capacity(stmt.items.len());
    for item in &stmt.items {
        qctx.check()?;
        items.push(evaluate(&item.expr, analyzed, batch, qctx)?);
    }

    // ORDER BY as a sort permutation over tuple positions; under LIMIT a
    // top-k selection (total order via the position tiebreak, which makes
    // select-then-sort reproduce stable-sort-then-truncate exactly).
    let n = batch.len();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    if !stmt.order_by.is_empty() {
        let keys = order_key_indices(stmt, &col_names)?;
        let key_cmp = |a: u32, b: u32| -> Ordering {
            for (idx, asc) in &keys {
                let ord = items[*idx].cmp(a, b);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        };
        match stmt.limit {
            Some(limit) if limit < n => {
                if limit == 0 {
                    perm.clear();
                } else {
                    let total = |a: &u32, b: &u32| key_cmp(*a, *b).then(a.cmp(b));
                    perm.select_nth_unstable_by(limit - 1, total);
                    perm.truncate(limit);
                    perm.sort_unstable_by(total);
                }
            }
            _ => perm.sort_by(|&a, &b| key_cmp(a, b)),
        }
    } else if let Some(limit) = stmt.limit {
        perm.truncate(limit);
    }

    // Zero output rows: the row builder's inferred schema (all-INT64).
    if perm.is_empty() {
        let table = table_from_rows("result", &col_names, Vec::new())?;
        return Ok((table, report));
    }

    // Typed gather of the output columns through the (sorted, truncated)
    // permutation.
    let mut defs = Vec::with_capacity(items.len());
    let mut columns = Vec::with_capacity(items.len());
    for (name, data) in col_names.iter().zip(&items) {
        let col = match data {
            ItemData::Gather(col, rows) => {
                let idx: Vec<u32> = perm.iter().map(|&p| rows[p as usize]).collect();
                col.gather_u32(&idx)
            }
            ItemData::F64(vals) => {
                Column::Float64(perm.iter().map(|&p| vals[p as usize]).collect())
            }
            ItemData::Values(vals) => {
                column_from_inferred(perm.iter().map(|&p| vals[p as usize].clone()).collect())?
            }
        };
        defs.push(ColumnDef::new(name.clone(), col.data_type()));
        columns.push(col);
    }
    let table = Table::from_columns("result", Schema::new(defs), columns)?;
    Ok((table, report))
}

/// Fold a sequence of values with one aggregate's full SQL semantics —
/// NULL inputs are skipped (COUNT(col) does not count them; SUM/AVG over
/// zero non-NULL inputs yield NULL), MIN/MAX preserve the input value's
/// type and compare via `sql_cmp`.  The `tcudb-reference` finalize folds
/// its groups with it, and the oracle test-suite drives it with NULL
/// densities the SQL surface (whose base columns are never NULL) cannot
/// express.
pub fn aggregate_values(func: AggFunc, values: &[Value]) -> Value {
    let mut state = AggState::new(func);
    for v in values {
        state.update(v);
    }
    state.finish()
}

/// Build one column from `Value`s, inferring its type: TEXT if any value
/// is text, else FLOAT64 if any is a float, else INT64.  NULLs become NaN,
/// 0 or the empty string.
fn column_from_inferred(values: Vec<Value>) -> TcuResult<Column> {
    let mut ty = DataType::Int64;
    for v in &values {
        match v {
            Value::Text(_) => ty = DataType::Text,
            Value::Float(_) if ty == DataType::Int64 => ty = DataType::Float64,
            _ => {}
        }
    }
    let mut col = Column::with_capacity(ty, values.len());
    for v in values {
        let coerced = match (v, ty) {
            (Value::Int(x), DataType::Float64) => Value::Float(x as f64),
            (Value::Null, DataType::Float64) => Value::Float(f64::NAN),
            (Value::Null, DataType::Int64) => Value::Int(0),
            (Value::Null, DataType::Text) => Value::Text(String::new()),
            (v, _) => v,
        };
        col.push(coerced)?;
    }
    Ok(col)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::analyze;
    use tcudb_sql::parse;
    use tcudb_storage::{Catalog, DictColumn};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(
            Table::from_int_columns(
                "A",
                &[("id", vec![1, 1, 2, 3]), ("val", vec![10, 11, 20, 30])],
            )
            .unwrap(),
        );
        cat.register(
            Table::from_int_columns("B", &[("id", vec![1, 2, 2]), ("val", vec![5, 6, 7])]).unwrap(),
        );
        cat
    }

    #[test]
    fn nonequi_join_lt() {
        let left = Column::Int64(vec![1, 2]);
        let right = Column::Int64(vec![1, 2, 3]);
        let pairs = nonequi_join_pairs(&left, &[0, 1], &right, &[0, 1, 2], BinOp::Lt).unwrap();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 2)]);
        assert!(nonequi_join_pairs(&left, &[0], &right, &[0], BinOp::Add).is_err());
    }

    #[test]
    fn nonequi_sorted_paths_match_buffered_sweep() {
        let li = Column::Int64(vec![3, 1, 4, 1, 5, 9, 2, 6]);
        let ri = Column::Int64(vec![5, 3, 5, 8, 9, 7, 9]);
        // Row selections with repeats and out-of-order rows: the pairs are
        // positions within the selections, not base rows.
        let lrows: Vec<u32> = vec![0, 2, 3, 5, 7, 2];
        let rrows: Vec<usize> = vec![1, 0, 4, 6, 2];
        let lt = Column::Text(vec!["b".into(), "a".into(), "c".into(), "a".into()]);
        let rt = Column::Text(vec!["a".into(), "c".into(), "b".into()]);
        let lf = Column::Float64(vec![1.5, 2.0, -3.0, 2.0]);
        for op in [
            BinOp::Lt,
            BinOp::LtEq,
            BinOp::Gt,
            BinOp::GtEq,
            BinOp::Eq,
            BinOp::NotEq,
        ] {
            let got = nonequi_join_pairs(&li, &lrows, &ri, &rrows, op).unwrap();
            let want = nonequi_buffered(&li, &lrows, &ri, &rrows, op).unwrap();
            assert_eq!(got, want, "{op}");
            let got_t = nonequi_join_pairs(&lt, &[0, 1, 2, 3], &rt, &[2, 0, 1], op).unwrap();
            let want_t = nonequi_buffered(&lt, &[0, 1, 2, 3], &rt, &[2, 0, 1], op).unwrap();
            assert_eq!(got_t, want_t, "text {op}");
            // Mixed numeric (float left, int right).
            let got_m = nonequi_join_pairs(&lf, &[0, 1, 2, 3], &ri, &rrows, op).unwrap();
            let want_m = nonequi_buffered(&lf, &[0, 1, 2, 3], &ri, &rrows, op).unwrap();
            assert_eq!(got_m, want_m, "mixed {op}");
        }
        // NaNs force the buffered fallback; results still match.
        let nan = Column::Float64(vec![1.0, f64::NAN]);
        let got = nonequi_join_pairs(&nan, &[0, 1], &lf, &[0, 1, 2, 3], BinOp::LtEq).unwrap();
        let want = nonequi_buffered(&nan, &[0, 1], &lf, &[0, 1, 2, 3], BinOp::LtEq).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn code_join_builds_on_the_smaller_side_and_probes_in_order() {
        use crate::translate::Domain;
        let left = Column::Int64(vec![1, 1, 2, 3, 7]);
        let right = Column::Int64(vec![1, 2, 2, 9]);
        let ld = DictColumn::build(&left);
        let rd = DictColumn::build(&right);
        let join = |lr: &[usize], rr: &[usize], threads: usize, morsel: usize| {
            let lsrc = EncodedSource::subset(&ld, lr);
            let rsrc = EncodedSource::subset(&rd, rr);
            let (dom, maps) = Domain::build_encoded(&[lsrc, rsrc]);
            join_pairs_by_code(&lsrc, &maps[0], &rsrc, &maps[1], dom.len(), threads, morsel).0
        };
        let all_l: Vec<usize> = (0..5).collect();
        let all_r: Vec<usize> = (0..4).collect();
        // Right is smaller: built on the right, probed left-major.
        let serial = join(&all_l, &all_r, 1, usize::MAX);
        assert_eq!(serial, vec![(0, 0), (1, 0), (2, 1), (2, 2)]);
        // Left is smaller: built on the left, probed right-major.
        assert_eq!(
            join(&[2, 0], &all_r, 1, usize::MAX),
            vec![(1, 0), (0, 1), (0, 2)]
        );
        assert!(join(&[], &all_r, 1, usize::MAX).is_empty());
        // Morsel size and thread count never change the pair sequence.
        assert_eq!(join(&all_l, &all_r, 3, 2), serial);
    }

    #[test]
    fn filters_reduce_row_sets() {
        let cat = catalog();
        let q = analyze(
            &parse("SELECT A.val FROM A, B WHERE A.id = B.id AND A.val >= 20 AND B.val = 6")
                .unwrap(),
            &cat,
        )
        .unwrap();
        let (surviving, ..) =
            apply_filters_scan(&q, &QueryContext::unbounded(), &ScanOptions::serial()).unwrap();
        assert_eq!(surviving[0], vec![2, 3]);
        assert_eq!(surviving[1], vec![1]);
    }

    /// The tuples `A.id = B.id` joins in [`catalog`]: A rows {0,1} join
    /// B row 0; A row 2 joins B rows 1 and 2.
    fn joined() -> Vec<Vec<usize>> {
        vec![vec![0, 0], vec![1, 0], vec![2, 1], vec![2, 2]]
    }

    fn int(x: i64) -> Value {
        Value::Int(x)
    }

    fn flt(x: f64) -> Value {
        Value::Float(x)
    }

    fn rows(t: &Table) -> Vec<Vec<Value>> {
        (0..t.num_rows()).map(|i| t.row(i)).collect()
    }

    /// Finalize `tuples` under both `FinalizeOptions` — segmented and §3.3
    /// GEMM aggregation — assert the two tables agree cell for cell, and
    /// return the table with the GEMM-enabled run's path.
    fn finalize(sql: &str, cat: &Catalog, tuples: &[Vec<usize>]) -> (Table, &'static str) {
        let q = analyze(&parse(sql).unwrap(), cat).unwrap();
        let batch = TupleBatch::from_tuples(tuples, q.tables.len()).unwrap();
        let run = |opts: FinalizeOptions| finalize_output_columnar(&q, &batch, &opts).unwrap();
        let (seg, _) = run(FinalizeOptions::baseline());
        let (gemm, report) = run(FinalizeOptions::tensor(1 << 24));
        assert_eq!(seg.schema(), gemm.schema(), "{sql}");
        // Debug form, so a NaN cell equals itself.
        assert_eq!(
            format!("{:?}", rows(&seg)),
            format!("{:?}", rows(&gemm)),
            "{sql}"
        );
        (seg, report.path)
    }

    #[test]
    fn finalize_projection_and_order() {
        let sql = "SELECT A.val, B.val FROM A, B WHERE A.id = B.id ORDER BY A.val DESC";
        let (out, path) = finalize(sql, &catalog(), &joined());
        assert_eq!(path, "projection");
        assert_eq!(out.schema().names(), vec!["val", "val"]);
        assert_eq!(
            rows(&out),
            vec![
                vec![int(20), int(6)],
                vec![int(20), int(7)],
                vec![int(11), int(5)],
                vec![int(10), int(5)],
            ]
        );
        // LIMIT keeps the stable sort's prefix; arithmetic items are FLOAT.
        let (out, _) = finalize(
            "SELECT A.val + B.val, B.val FROM A, B WHERE A.id = B.id ORDER BY B.val LIMIT 3",
            &catalog(),
            &joined(),
        );
        assert_eq!(
            rows(&out),
            vec![
                vec![flt(15.0), int(5)],
                vec![flt(16.0), int(5)],
                vec![flt(26.0), int(6)],
            ]
        );
        // No tuples: no rows, and the all-INT64 schema of zero rows.
        let (empty, _) = finalize(sql, &catalog(), &[]);
        assert_eq!(empty.num_rows(), 0);
        assert_eq!(empty.schema().column(0).data_type, DataType::Int64);
    }

    #[test]
    fn finalize_group_by_aggregate() {
        let sql = "SELECT SUM(A.val), B.val FROM A, B WHERE A.id = B.id GROUP BY B.val";
        let (out, path) = finalize(sql, &catalog(), &joined());
        assert_eq!(path, "grouped-gemm");
        // Groups in first-seen order; B.val = 5 sums 10 + 11.
        assert_eq!(
            rows(&out),
            vec![
                vec![flt(21.0), int(5)],
                vec![flt(20.0), int(6)],
                vec![flt(20.0), int(7)],
            ]
        );
        let (out, _) = finalize(
            "SELECT COUNT(B.val), B.id FROM A, B WHERE A.id = B.id GROUP BY B.id ORDER BY B.id LIMIT 2",
            &catalog(),
            &joined(),
        );
        assert_eq!(rows(&out), vec![vec![int(2), int(1)], vec![int(2), int(2)]]);
        assert_eq!(finalize(sql, &catalog(), &[]).0.num_rows(), 0);
    }

    #[test]
    fn finalize_group_by_complex_keys() {
        // An arithmetic key is evaluated, coded by first appearance and
        // aggregated like a column key — through the GEMM when admitted.
        let (out, path) = finalize(
            "SELECT A.id + B.id, SUM(A.val) FROM A, B WHERE A.id = B.id GROUP BY A.id + B.id",
            &catalog(),
            &joined(),
        );
        assert_eq!(path, "grouped-gemm");
        assert_eq!(
            rows(&out),
            vec![vec![flt(2.0), flt(21.0)], vec![flt(4.0), flt(40.0)]]
        );
        // A comparison key groups by its truth value, beside a column key.
        let (out, _) = finalize(
            "SELECT A.val > 10, B.id, COUNT(*) FROM A, B WHERE A.id = B.id GROUP BY A.val > 10, B.id",
            &catalog(),
            &joined(),
        );
        assert_eq!(
            rows(&out),
            vec![
                vec![int(0), int(1), int(1)],
                vec![int(1), int(1), int(1)],
                vec![int(1), int(2), int(2)],
            ]
        );
    }

    #[test]
    fn finalize_global_aggregate_and_count() {
        let sql = "SELECT SUM(A.val * B.val), COUNT(*) FROM A, B WHERE A.id = B.id";
        let (out, _) = finalize(sql, &catalog(), &joined());
        // 10*5 + 11*5 + 20*6 + 20*7 = 50+55+120+140 = 365
        assert_eq!(rows(&out), vec![vec![flt(365.0), int(4)]]);
        // Zero tuples still produce one row; the NULL SUM is the only
        // value of its column, which therefore stays INT64 and stores 0.
        let (empty, _) = finalize(sql, &catalog(), &[]);
        assert_eq!(rows(&empty), vec![vec![int(0), int(0)]]);
    }

    #[test]
    fn finalize_avg_min_max() {
        let sql = "SELECT AVG(A.val), MIN(A.val), MAX(A.val) FROM A, B WHERE A.id = B.id";
        let (out, _) = finalize(sql, &catalog(), &[vec![0, 0], vec![2, 1]]);
        assert_eq!(rows(&out), vec![vec![flt(15.0), int(10), int(20)]]);
        // Over no tuples every aggregate is NULL, stored as INT64 0.
        let (empty, _) = finalize(sql, &catalog(), &[]);
        assert_eq!(rows(&empty), vec![vec![int(0), int(0), int(0)]]);
    }

    #[test]
    fn limit_and_residuals() {
        let (out, _) = finalize(
            "SELECT A.val, B.val FROM A, B WHERE A.id = B.id AND A.val + B.val > 20 LIMIT 1",
            &catalog(),
            &joined(),
        );
        assert_eq!(rows(&out), vec![vec![int(20), int(6)]]);
        // Each residual runs only on the survivors of the ones before it:
        // the division by zero at B.val = 5 is never evaluated when the
        // first residual has rejected those tuples, and raised when not.
        let guarded = "SELECT A.val, B.val FROM A, B WHERE A.id = B.id \
                       AND A.val + B.val > 20 AND A.val / (B.val - 5) > 0";
        let (out, _) = finalize(guarded, &catalog(), &joined());
        assert_eq!(
            rows(&out),
            vec![vec![int(20), int(6)], vec![int(20), int(7)]]
        );
        let unguarded = "SELECT A.val, B.val FROM A, B WHERE A.id = B.id \
                         AND A.val / (B.val - 5) > 0 AND A.val + B.val > 20";
        let q = analyze(&parse(unguarded).unwrap(), &catalog()).unwrap();
        let batch = TupleBatch::from_tuples(&joined(), 2).unwrap();
        let err = finalize_output_columnar(&q, &batch, &FinalizeOptions::baseline());
        assert!(matches!(err, Err(TcuError::Execution(_))));
    }

    #[test]
    fn columnar_gemm_aggregation_agrees_with_segmented() {
        // The §3.3 one-hot GEMM and the segmented form must produce the
        // same table bit for bit when the exactness test admits the GEMM.
        let cat = catalog();
        let sql =
            "SELECT SUM(A.val), COUNT(A.val), B.val FROM A, B WHERE A.id = B.id GROUP BY B.val";
        let q = analyze(&parse(sql).unwrap(), &cat).unwrap();
        let tuples = vec![vec![0, 0], vec![1, 0], vec![2, 1], vec![2, 2], vec![3, 2]];
        let batch = TupleBatch::from_tuples(&tuples, 2).unwrap();
        let (seg, seg_rep) =
            finalize_output_columnar(&q, &batch, &FinalizeOptions::baseline()).unwrap();
        let (gemm, gemm_rep) =
            finalize_output_columnar(&q, &batch, &FinalizeOptions::tensor(1 << 24)).unwrap();
        assert_eq!(seg, gemm);
        assert!(seg_rep.gemm.is_empty());
        assert_eq!(gemm_rep.path, "grouped-gemm");
        // One GEMM per tensor-reduced aggregate (SUM and COUNT).
        assert_eq!(gemm_rep.gemm.len(), 2);
        assert_eq!(gemm_rep.groups, 3);
        assert_eq!(gemm_rep.agg_rows, 5);
    }

    #[test]
    fn aggregates_skip_nulls() {
        use AggFunc::*;
        let vals = [Value::Int(3), Value::Null, Value::Int(5), Value::Null];
        assert_eq!(aggregate_values(Count, &vals), Value::Int(2));
        assert_eq!(aggregate_values(Sum, &vals), Value::Float(8.0));
        assert_eq!(aggregate_values(Avg, &vals), Value::Float(4.0));
        // SUM/AVG over zero non-NULL inputs yield NULL, not 0.
        let all_null = [Value::Null, Value::Null];
        assert_eq!(aggregate_values(Sum, &all_null), Value::Null);
        assert_eq!(aggregate_values(Avg, &all_null), Value::Null);
        assert_eq!(aggregate_values(Count, &all_null), Value::Int(0));
        assert_eq!(aggregate_values(Min, &all_null), Value::Null);
        assert_eq!(aggregate_values(Sum, &[]), Value::Null);
    }

    #[test]
    fn min_max_preserve_input_type() {
        use AggFunc::*;
        let ints = [Value::Int(7), Value::Null, Value::Int(-2), Value::Int(7)];
        assert_eq!(aggregate_values(Min, &ints), Value::Int(-2));
        assert_eq!(aggregate_values(Max, &ints), Value::Int(7));
        let floats = [Value::Float(1.5), Value::Float(-0.5)];
        assert_eq!(aggregate_values(Min, &floats), Value::Float(-0.5));
        let texts = [
            Value::from("pear"),
            Value::from("apple"),
            Value::from("fig"),
        ];
        assert_eq!(aggregate_values(Min, &texts), Value::from("apple"));
        assert_eq!(aggregate_values(Max, &texts), Value::from("pear"));
        // Mixed Int/Float keeps whichever value actually won.
        let mixed = [Value::Int(3), Value::Float(2.5)];
        assert_eq!(aggregate_values(Min, &mixed), Value::Float(2.5));
        assert_eq!(aggregate_values(Max, &mixed), Value::Int(3));
    }

    #[test]
    fn min_max_over_text_column_under_both_options() {
        let mut cat = Catalog::new();
        let schema = Schema::from_pairs(&[("id", DataType::Int64), ("tag", DataType::Text)]);
        cat.register(
            Table::from_columns(
                "T",
                schema,
                vec![
                    Column::Int64(vec![1, 1, 2, 2]),
                    Column::Text(vec![
                        "pear".into(),
                        "apple".into(),
                        "fig".into(),
                        "zed".into(),
                    ]),
                ],
            )
            .unwrap(),
        );
        cat.register(Table::from_int_columns("U", &[("id", vec![1, 2])]).unwrap());
        let (out, _) = finalize(
            "SELECT MIN(T.tag), MAX(T.tag), U.id FROM T, U WHERE T.id = U.id GROUP BY U.id ORDER BY U.id",
            &cat,
            &[vec![0, 0], vec![1, 0], vec![2, 1], vec![3, 1]],
        );
        assert_eq!(out.row(0)[0], Value::from("apple"));
        assert_eq!(out.row(0)[1], Value::from("pear"));
        assert_eq!(out.row(1)[0], Value::from("fig"));
        assert_eq!(out.row(1)[1], Value::from("zed"));
        // The output columns stay TEXT, not coerced floats.
        assert_eq!(out.schema().column(0).data_type, DataType::Text);
    }

    #[test]
    fn table_from_rows_infers_types() {
        let rows = vec![
            vec![Value::Int(1), Value::Float(1.5), Value::from("a")],
            vec![Value::Int(2), Value::Int(3), Value::from("b")],
        ];
        let t = table_from_rows(
            "t",
            &["i".to_string(), "f".to_string(), "s".to_string()],
            rows,
        )
        .unwrap();
        assert_eq!(t.schema().column(0).data_type, DataType::Int64);
        assert_eq!(t.schema().column(1).data_type, DataType::Float64);
        assert_eq!(t.schema().column(2).data_type, DataType::Text);
        assert_eq!(t.row(1)[1], Value::Float(3.0));
    }
}

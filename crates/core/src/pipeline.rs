//! The join pipeline — written once, driven by every engine.
//!
//! TCUDB, the YDB baseline and the CPU baseline walk a query's join graph
//! identically: pick a join order, orient each step's predicate, gather
//! the dictionary codes of both key columns, union them into one
//! [`Domain`], obtain the step's matching pairs, extend the
//! late-materialized [`TupleBatch`], re-check composite keys, and finally
//! hand the batch (in bound-table order) to the output stage.  The engines
//! differ only in *policy* — which operator computes a step's pairs and
//! what it is charged — so [`join`] takes that policy as a callback over
//! one [`JoinStep`] and owns everything around it, and [`finish`] applies
//! `count_only` or the columnar finalize for all of them.

use crate::analyzer::AnalyzedQuery;
use crate::batch::TupleBatch;
use crate::context::compare;
use crate::relops::{self, FinalizeOptions, FinalizeReport};
use crate::translate::{Domain, EncodedSource};
use tcudb_sql::BinOp;
use tcudb_storage::{Column, Table};
use tcudb_types::sync::QueryContext;
use tcudb_types::{MorselRun, TcuError, TcuResult, Value};

/// One step of the join loop, as the driver hands it to an engine's
/// policy: the already-joined tuples on the left, the surviving rows of
/// the table being added on the right.
pub struct JoinStep<'a> {
    /// Bindings of the joined-side table and of the table being added.
    pub bindings: (&'a str, &'a str),
    /// Key column names, joined side first.
    pub cols: (&'a str, &'a str),
    /// The predicate's operator, oriented `joined-side <op> new-side`.
    pub op: BinOp,
    /// Joined-side keys: one dictionary code per tuple of the batch.
    pub left: EncodedSource<'a>,
    /// New-side keys: the surviving rows of the table being added.
    pub right: EncodedSource<'a>,
    /// Union of both sides' keys.
    pub domain: &'a Domain,
    /// `dictionary code → domain index` per side.
    pub remaps: (&'a [u32], &'a [u32]),
    /// The joined side's base key column and each tuple's row in it, for
    /// the typed comparison kernels of non-equi steps.
    pub left_keys: (&'a Column, &'a [u32]),
    /// The new side's base key column and its surviving rows.
    pub right_keys: (&'a Column, &'a [usize]),
    /// Is this the last step of the query?
    pub last: bool,
}

impl JoinStep<'_> {
    /// The step's matching `(left position, right position)` pairs through
    /// the host operators: the code-bucket join for `=` (probe morsels on
    /// up to `threads` pool threads), the sorted/nested comparison join
    /// otherwise.  Every engine's fallback — and the baselines' only —
    /// way to compute a step.
    pub fn host_pairs(&self, threads: usize) -> TcuResult<(Vec<(usize, usize)>, MorselRun)> {
        if self.op == BinOp::Eq {
            return Ok(relops::join_pairs_by_code(
                &self.left,
                self.remaps.0,
                &self.right,
                self.remaps.1,
                self.domain.len(),
                threads,
                tcudb_storage::DEFAULT_CHUNK_ROWS,
            ));
        }
        let ((lcol, lrows), (rcol, rrows)) = (self.left_keys, self.right_keys);
        let pairs = relops::nonequi_join_pairs(lcol, lrows, rcol, rrows, self.op)?;
        Ok((pairs, MorselRun::default()))
    }
}

/// Join the per-table `surviving` row sets along the query's join graph,
/// calling `step` once per join step for its matching pairs.  Returns the
/// joined tuples with one slot per bound table, in bound-table order (a
/// single-table query is its surviving rows).
///
/// `ctx` is probed before every step: a multi-way join abandons its
/// remaining steps as soon as the query is cancelled or past deadline.
pub fn join(
    analyzed: &AnalyzedQuery,
    surviving: &[Vec<usize>],
    ctx: &QueryContext,
    mut step: impl FnMut(&JoinStep<'_>) -> TcuResult<Vec<(usize, usize)>>,
) -> TcuResult<TupleBatch> {
    let order = join_order(analyzed)?;
    // The batch holds one row-index column per *joined* table (in `joined`
    // order); the columns are permuted into bound-table order at the end.
    let mut joined = vec![order[0]];
    let mut batch = TupleBatch::from_rows(&surviving[order[0]])?;
    for &next in &order[1..] {
        ctx.check()?;
        // The first predicate connecting `next` to the joined set keys the
        // step; written `left <op> right`, it flips when the joined side
        // is its right operand.
        let (joined_key, new_key, op) = analyzed
            .joins
            .iter()
            .find_map(|j| {
                if j.right.0 == next && joined.contains(&j.left.0) {
                    Some((&j.left, &j.right, j.op))
                } else if j.left.0 == next && joined.contains(&j.right.0) {
                    Some((&j.right, &j.left, j.op.flip()))
                } else {
                    None
                }
            })
            .ok_or_else(|| {
                TcuError::Plan(format!(
                    "table '{}' is not connected to the join graph",
                    analyzed.tables[next].binding
                ))
            })?;
        let (joined_table, joined_ci) = key_column(analyzed, joined_key)?;
        let (new_table, new_ci) = key_column(analyzed, new_key)?;
        let joined_pos = joined
            .iter()
            .position(|&t| t == joined_key.0)
            .expect("the step's predicate was chosen for its joined side");
        let (left_rows, right_rows) = (batch.col(joined_pos), &surviving[next]);

        // Dictionary codes end to end: the base columns' dictionaries are
        // cached on the tables and the domain union works on code-remap
        // tables — no per-row `Value`s.
        let joined_dict = joined_table.encoded_column(joined_ci);
        let new_dict = new_table.encoded_column(new_ci);
        let left_codes: Vec<u32> = left_rows
            .iter()
            .map(|&r| joined_dict.codes()[r as usize])
            .collect();
        let left = EncodedSource {
            dict: &joined_dict,
            codes: &left_codes,
            rows: None,
        };
        let right = EncodedSource::subset(&new_dict, right_rows);
        let (domain, maps) = Domain::build_encoded(&[left, right]);
        let pairs = step(&JoinStep {
            bindings: (
                &analyzed.tables[joined_key.0].binding,
                &analyzed.tables[next].binding,
            ),
            cols: (&joined_key.1, &new_key.1),
            op,
            left,
            right,
            domain: &domain,
            remaps: (&maps[0], &maps[1]),
            left_keys: (joined_table.column(joined_ci), left_rows),
            right_keys: (new_table.column(new_ci), right_rows),
            last: joined.len() + 1 == order.len(),
        })?;

        // Columnar gathers, no per-tuple allocation; then any *additional*
        // predicates between already-joined tables (composite keys).
        joined.push(next);
        batch = batch.extend_join(&pairs, right_rows)?;
        batch = filter_by_extra_joins(analyzed, &joined, batch)?;
    }
    // A column permutation — O(tables), not O(tuples × tables).
    Ok(batch.remap_slots(&joined, analyzed.tables.len()))
}

/// Resolve one side of a join predicate to its table and column index.
fn key_column<'a>(
    analyzed: &'a AnalyzedQuery,
    (table, column): &(usize, String),
) -> TcuResult<(&'a Table, usize)> {
    let table: &Table = &analyzed.tables[*table].table;
    Ok((table, table.schema().require(column)?))
}

/// Turn the joined tuples into the query's result table: the
/// matched-tuple count under `count_only` (no [`FinalizeReport`]), the
/// columnar output pipeline otherwise.
pub fn finish(
    analyzed: &AnalyzedQuery,
    batch: &TupleBatch,
    count_only: bool,
    opts: &FinalizeOptions,
) -> TcuResult<(Table, Option<FinalizeReport>)> {
    if count_only {
        let count = vec![vec![Value::Int(batch.len() as i64)]];
        let table = relops::table_from_rows("result_count", &["matched_tuples".into()], count)?;
        return Ok((table, None));
    }
    let (table, report) = relops::finalize_output_columnar(analyzed, batch, opts)?;
    Ok((table, Some(report)))
}

/// Decide the join order: start from the most-connected table (the fact
/// table of a star schema) and greedily add connected tables.
pub fn join_order(analyzed: &AnalyzedQuery) -> TcuResult<Vec<usize>> {
    let n = analyzed.tables.len();
    let start = (0..n)
        .max_by_key(|&i| analyzed.joins_for_table(i).len())
        .unwrap_or(0);
    let mut order = vec![start];
    while order.len() < n {
        let connected = |i: &usize| {
            !order.contains(i)
                && analyzed.joins.iter().any(|j| {
                    (j.left.0 == *i && order.contains(&j.right.0))
                        || (j.right.0 == *i && order.contains(&j.left.0))
                })
        };
        let next = (0..n).find(connected).ok_or_else(|| {
            TcuError::Plan("query contains a cross join (disconnected join graph)".into())
        })?;
        order.push(next);
    }
    Ok(order)
}

/// Filter the batch by join predicates between already-joined tables that
/// were not used as the primary join key of any step (composite join
/// keys).
fn filter_by_extra_joins(
    analyzed: &AnalyzedQuery,
    joined: &[usize],
    batch: TupleBatch,
) -> TcuResult<TupleBatch> {
    let slot_of = |t: usize| joined.iter().position(|&x| x == t);
    // Resolve each predicate between two joined tables to its key columns
    // and batch slots once, then sweep the batch columns.
    let mut preds = Vec::new();
    for p in &analyzed.joins {
        if let (Some(ls), Some(rs)) = (slot_of(p.left.0), slot_of(p.right.0)) {
            let (lt, lc) = key_column(analyzed, &p.left)?;
            let (rt, rc) = key_column(analyzed, &p.right)?;
            preds.push((
                lt.column(lc),
                batch.col(ls),
                rt.column(rc),
                batch.col(rs),
                p.op,
            ));
        }
    }
    if preds.len() < joined.len() {
        // Only the spanning-tree predicates exist; nothing extra to check.
        return Ok(batch);
    }
    let mut keep = Vec::with_capacity(batch.len());
    'tuple: for i in 0..batch.len() {
        for (lcol, lrows, rcol, rrows, op) in &preds {
            let (lv, rv) = (lcol.value(lrows[i] as usize), rcol.value(rrows[i] as usize));
            if !compare(&lv, *op, &rv)? {
                continue 'tuple;
            }
        }
        keep.push(i as u32);
    }
    if keep.len() == batch.len() {
        return Ok(batch);
    }
    Ok(batch.select(&keep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::analyze;
    use tcudb_sql::parse;
    use tcudb_storage::Catalog;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for name in ["A", "B", "C"] {
            cat.register(
                Table::from_int_columns(name, &[("id", vec![1, 2, 2, 3]), ("k", vec![1, 1, 2, 2])])
                    .unwrap(),
            );
        }
        cat
    }

    /// Drive `join` with the host operators only.
    fn host_join(sql: &str) -> TcuResult<TupleBatch> {
        let q = analyze(&parse(sql).unwrap(), &catalog())?;
        let surviving: Vec<Vec<usize>> = q
            .tables
            .iter()
            .map(|b| (0..b.table.num_rows()).collect())
            .collect();
        join(&q, &surviving, &QueryContext::unbounded(), |step| {
            Ok(step.host_pairs(1)?.0)
        })
    }

    #[test]
    fn join_order_starts_at_the_hub_and_rejects_cross_joins() {
        let cat = catalog();
        let q = analyze(
            &parse("SELECT A.id FROM A, B, C WHERE A.id = B.id AND B.id = C.id").unwrap(),
            &cat,
        )
        .unwrap();
        assert_eq!(join_order(&q).unwrap(), vec![1, 0, 2]);
        let cross = analyze(&parse("SELECT A.id FROM A, B").unwrap(), &cat).unwrap();
        assert!(join_order(&cross).is_err());
    }

    #[test]
    fn composite_keys_filter_after_the_keyed_step() {
        // id matches: (0,0) (1,1) (1,2) (2,1) (2,2) (3,3); k agrees on all
        // but (1,2) and (2,1).
        let both = host_join("SELECT A.id FROM A, B WHERE A.id = B.id AND A.k = B.k").unwrap();
        assert_eq!(both.len(), 4);
        // A third table closing a cycle is a residual on the last step.
        let cycle =
            host_join("SELECT A.id FROM A, B, C WHERE A.id = B.id AND B.id = C.id AND A.k = C.k")
                .unwrap();
        assert_eq!(cycle.len(), 6);
        assert!(cycle.to_tuples().iter().all(|t| t[0] == t[2]));
        // Non-equi orientation flips with the joined side.
        let lt = host_join("SELECT A.id FROM A, B WHERE A.id < B.id").unwrap();
        let gt = host_join("SELECT A.id FROM A, B WHERE B.id > A.id").unwrap();
        assert_eq!(lt.to_tuples(), gt.to_tuples());
        assert_eq!(lt.len(), 5);
    }

    #[test]
    fn finish_applies_count_only_for_any_table_count() {
        let q = analyze(
            &parse("SELECT A.id FROM A WHERE A.id > 1").unwrap(),
            &catalog(),
        )
        .unwrap();
        let batch = TupleBatch::from_rows(&[1, 2, 3]).unwrap();
        let (table, report) = finish(&q, &batch, true, &FinalizeOptions::baseline()).unwrap();
        assert!(report.is_none());
        assert_eq!(table.row(0)[0], Value::Int(3));
        let (table, report) = finish(&q, &batch, false, &FinalizeOptions::baseline()).unwrap();
        assert_eq!((table.num_rows(), report.unwrap().path), (3, "projection"));
    }
}

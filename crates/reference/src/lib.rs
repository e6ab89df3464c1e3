#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # tcudb-reference
//!
//! The oracle the TCUDB test suites compare production against: a
//! deliberately naive interpreter that evaluates a query one row and one
//! [`Value`] at a time — textual-order filters, a `ValueKey` hash join or
//! a nested loop per join step, and its own [`finalize_output`]
//! (residuals, `HashMap` grouping, aggregation, ORDER BY, LIMIT).  What it
//! shares with production is definitions only:
//!
//! * the SQL front-end and the analyzer;
//! * the join *order* ([`pipeline::join_order`]), so unordered results
//!   line up row for row;
//! * scalar semantics: [`context::eval`] / [`context::eval_binary`], and
//!   comparison truth ([`context::compare`]);
//! * the aggregate fold ([`relops::aggregate_values`]) and ORDER BY key
//!   resolution ([`relops::order_key_indices`]).
//!
//! Production's scan, join and finalize pipelines are not shared.
//!
//! Dev-only: `publish = false`, and only ever a `[dev-dependencies]` entry,
//! so no shipped binary links it.  It also keeps the `Value`-walking
//! matrix builders the encoded builders of `tcudb_core::translate` are
//! tested against.

use std::cmp::Ordering;
use std::collections::HashMap;
use tcudb_core::analyzer::{analyze, AnalyzedQuery};
use tcudb_core::context::{self, eval, eval_predicate, RowContext};
use tcudb_core::translate::Domain;
use tcudb_core::{pipeline, relops};
use tcudb_sql::{parse, AggFunc, BinOp, Expr};
use tcudb_storage::{Catalog, Column, ColumnDef, Schema, Table};
use tcudb_tensor::{CsrMatrix, DenseMatrix};
use tcudb_types::value::ValueKey;
use tcudb_types::{DataType, TcuError, TcuResult, Value};

/// Parse, analyze and evaluate `sql` against `catalog`, row at a time.
pub fn execute(catalog: &Catalog, sql: &str) -> TcuResult<Table> {
    let analyzed = analyze(&parse(sql)?, catalog)?;
    let surviving = apply_filters(&analyzed)?;
    let tuples = join(&analyzed, &surviving)?;
    finalize_output(&analyzed, &tuples)
}

/// Materialise a query's result from joined row tuples (one row index per
/// bound table, in table order), one tuple and one [`Value`] at a time:
/// residual predicates in textual order, first-seen groups keyed by
/// `Value::group_key`, each aggregate folded over its group's argument
/// values, then ORDER BY and LIMIT.
pub fn finalize_output(analyzed: &AnalyzedQuery, tuples: &[Vec<usize>]) -> TcuResult<Table> {
    let stmt = &analyzed.stmt;
    let mut ctx = analyzed.row_context();
    let names: Vec<String> = stmt.items.iter().map(|i| i.output_name()).collect();
    let grouped = stmt.has_aggregates() || !stmt.group_by.is_empty();
    let mut rows: Vec<Vec<Value>> = Vec::new();
    // Per group, in first-seen order: its key values and, per SELECT item,
    // the aggregate's argument values.
    let mut groups: Vec<(Vec<Value>, Vec<Vec<Value>>)> = Vec::new();
    let mut index: HashMap<Vec<ValueKey>, usize> = HashMap::new();
    for tuple in tuples {
        ctx.set_rows(tuple);
        if !residuals_pass(analyzed, &ctx)? {
            continue;
        }
        if !grouped {
            let row = stmt.items.iter().map(|i| eval(&i.expr, &ctx));
            rows.push(row.collect::<TcuResult<_>>()?);
            continue;
        }
        let keys = stmt
            .group_by
            .iter()
            .map(|g| eval(g, &ctx))
            .collect::<TcuResult<Vec<Value>>>()?;
        let key = keys.iter().map(Value::group_key).collect();
        let g = *index.entry(key).or_insert_with(|| {
            groups.push((keys, vec![Vec::new(); stmt.items.len()]));
            groups.len() - 1
        });
        for (item, args) in stmt.items.iter().zip(&mut groups[g].1) {
            if let Some((func, arg)) = item.expr.first_aggregate() {
                args.push(match (func, arg) {
                    // COUNT(*) counts rows, whatever its literal argument.
                    (AggFunc::Count, Expr::Literal(_)) => Value::Int(1),
                    _ => eval(arg, &ctx)?,
                });
            }
        }
    }
    if grouped {
        // A global aggregate over no tuples still yields one row.
        if stmt.group_by.is_empty() && groups.is_empty() {
            groups.push((Vec::new(), vec![Vec::new(); stmt.items.len()]));
        }
        for (keys, args) in &groups {
            let mut row = Vec::with_capacity(stmt.items.len());
            for (item, args) in stmt.items.iter().zip(args) {
                row.push(match item.expr.first_aggregate() {
                    Some((func, _)) => finish(&item.expr, &relops::aggregate_values(*func, args))?,
                    None => match stmt.group_by.iter().position(|g| *g == item.expr) {
                        Some(k) => keys[k].clone(),
                        None => {
                            return Err(TcuError::Analysis(format!(
                                "non-aggregate SELECT item '{}' is not in GROUP BY",
                                item.expr
                            )))
                        }
                    },
                });
            }
            rows.push(row);
        }
    }
    let order = relops::order_key_indices(stmt, &names)?;
    rows.sort_by(|a, b| {
        order
            .iter()
            .map(|&(k, asc)| {
                let ord = a[k].sql_cmp(&b[k]);
                if asc {
                    ord
                } else {
                    ord.reverse()
                }
            })
            .find(|ord| ord.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    rows.truncate(stmt.limit.unwrap_or(usize::MAX));
    table_from_rows(&names, rows)
}

/// Do all residual (multi-table, non-join) predicates hold on the current
/// row?  Textual order, stopping at the first that fails.
fn residuals_pass(analyzed: &AnalyzedQuery, ctx: &RowContext) -> TcuResult<bool> {
    for pred in &analyzed.residual {
        if !eval_predicate(pred, ctx)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// An aggregate SELECT item's value: the arithmetic around its aggregate
/// call, over the aggregate's value.
fn finish(expr: &Expr, agg: &Value) -> TcuResult<Value> {
    match expr {
        Expr::Aggregate { .. } => Ok(agg.clone()),
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Binary { left, op, right } => {
            context::eval_binary(&finish(left, agg)?, *op, &finish(right, agg)?)
        }
        other => Err(TcuError::Analysis(format!(
            "'{other}' cannot appear around an aggregate call"
        ))),
    }
}

/// The result table of value rows: a column is TEXT if any of its values
/// is, else FLOAT64 if any is a float, else INT64; NULLs are stored as
/// NaN, 0 or the empty string.
fn table_from_rows(names: &[String], rows: Vec<Vec<Value>>) -> TcuResult<Table> {
    let types: Vec<DataType> = (0..names.len())
        .map(|c| {
            if rows.iter().any(|r| matches!(r[c], Value::Text(_))) {
                DataType::Text
            } else if rows.iter().any(|r| matches!(r[c], Value::Float(_))) {
                DataType::Float64
            } else {
                DataType::Int64
            }
        })
        .collect();
    let defs = names.iter().zip(&types);
    let mut table = Table::new(
        "result",
        Schema::new(defs.map(|(n, t)| ColumnDef::new(n.clone(), *t)).collect()),
    );
    for row in rows {
        let cells = row.into_iter().zip(&types).map(|(v, t)| match (v, t) {
            (Value::Null, DataType::Float64) => Value::Float(f64::NAN),
            (Value::Null, DataType::Int64) => Value::Int(0),
            (Value::Null, DataType::Text) => Value::Text(String::new()),
            (v, _) => v,
        });
        table.push_row(cells.collect())?;
    }
    Ok(table)
}

/// A result's rows in comparable form: as returned when the statement
/// orders them, sorted otherwise.  SQL leaves an unordered result's row
/// order undefined, and production's follows the join plan (nonzero
/// extraction is left-major, the code join probe-major) — so "production
/// equals the reference" means equal [`comparable_rows`].  Cells render
/// through `Debug`, which tells `Int(1)` from `Float(1.0)` and prints
/// floats round-trip exactly.
pub fn comparable_rows(sql: &str, table: &Table) -> Vec<String> {
    let mut rows: Vec<String> = (0..table.num_rows())
        .map(|i| format!("{:?}", table.row(i)))
        .collect();
    let ordered = parse(sql).is_ok_and(|stmt| !stmt.order_by.is_empty());
    if !ordered {
        rows.sort();
    }
    rows
}

/// Evaluate every table's single-table filters on every row, predicates
/// in textual order, returning the surviving row indices per table.
pub fn apply_filters(analyzed: &AnalyzedQuery) -> TcuResult<Vec<Vec<usize>>> {
    let mut ctx = analyzed.row_context();
    let mut surviving = Vec::with_capacity(analyzed.tables.len());
    for (ti, bound) in analyzed.tables.iter().enumerate() {
        let filters = analyzed.filters_for_table(ti);
        let mut keep = Vec::new();
        'rows: for r in 0..bound.table.num_rows() {
            ctx.set_row(ti, r);
            for f in &filters {
                if !eval_predicate(f, &ctx)? {
                    continue 'rows;
                }
            }
            keep.push(r);
        }
        surviving.push(keep);
    }
    Ok(surviving)
}

/// Equality hash join over two key sequences: pairs of positions
/// `(left, right)`, built on the smaller side and probed in order.
pub fn hash_join_pairs(left: &[Value], right: &[Value]) -> Vec<(usize, usize)> {
    if right.len() < left.len() {
        let swapped = hash_join_pairs(right, left);
        return swapped.into_iter().map(|(r, l)| (l, r)).collect();
    }
    let mut table: HashMap<ValueKey, Vec<usize>> = HashMap::with_capacity(left.len());
    for (l, v) in left.iter().enumerate() {
        table.entry(v.group_key()).or_default().push(l);
    }
    let mut out = Vec::new();
    for (r, v) in right.iter().enumerate() {
        for &l in table.get(&v.group_key()).into_iter().flatten() {
            out.push((l, r));
        }
    }
    out
}

/// Nested-loop join under a comparison: pairs of positions, left-major.
pub fn nested_loop_pairs(
    left: &[Value],
    right: &[Value],
    op: BinOp,
) -> TcuResult<Vec<(usize, usize)>> {
    let mut out = Vec::new();
    for (l, lv) in left.iter().enumerate() {
        for (r, rv) in right.iter().enumerate() {
            if context::compare(lv, op, rv)? {
                out.push((l, r));
            }
        }
    }
    Ok(out)
}

/// Join the surviving rows along the shared join order into tuples of one
/// row index per bound table.
fn join(analyzed: &AnalyzedQuery, surviving: &[Vec<usize>]) -> TcuResult<Vec<Vec<usize>>> {
    let key = |(table, column): &(usize, String), row: usize| -> TcuResult<Value> {
        let table = &analyzed.tables[*table].table;
        Ok(table.column(table.schema().require(column)?).value(row))
    };
    let order = pipeline::join_order(analyzed)?;
    // A tuple's slot stays 0 until its table joins.
    let seed = |row: usize| {
        let mut t = vec![0; analyzed.tables.len()];
        t[order[0]] = row;
        t
    };
    let mut tuples: Vec<Vec<usize>> = surviving[order[0]].iter().map(|&r| seed(r)).collect();
    let mut joined = vec![order[0]];
    for &next in &order[1..] {
        // The first predicate connecting `next` to the joined tables,
        // oriented joined-side <op> new-side.
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
            .ok_or_else(|| TcuError::Plan("disconnected join graph".into()))?;
        let left = tuples
            .iter()
            .map(|t| key(joined_key, t[joined_key.0]))
            .collect::<TcuResult<Vec<Value>>>()?;
        let right = surviving[next]
            .iter()
            .map(|&r| key(new_key, r))
            .collect::<TcuResult<Vec<Value>>>()?;
        let pairs = if op == BinOp::Eq {
            hash_join_pairs(&left, &right)
        } else {
            nested_loop_pairs(&left, &right, op)?
        };
        joined.push(next);
        let mut extended = Vec::with_capacity(pairs.len());
        'pairs: for (l, r) in pairs {
            let mut t = tuples[l].clone();
            t[next] = surviving[next][r];
            // Every predicate between two joined tables must hold — the
            // step's own key again, and any composite-key companions.
            for j in &analyzed.joins {
                if joined.contains(&j.left.0) && joined.contains(&j.right.0) {
                    let (lv, rv) = (key(&j.left, t[j.left.0])?, key(&j.right, t[j.right.0])?);
                    if !context::compare(&lv, j.op, &rv)? {
                        continue 'pairs;
                    }
                }
            }
            extended.push(t);
        }
        tuples = extended;
    }
    Ok(tuples)
}

// ---------------------------------------------------------------------
// `Value`-walking matrix builders (§3.1–§3.4): what the encoded builders
// of `tcudb_core::translate` must reproduce entry for entry.
// ---------------------------------------------------------------------

/// The selected rows of a column (`None` = every row).
fn selected_rows(col: &Column, rows: Option<&[usize]>) -> Vec<usize> {
    rows.map_or_else(|| (0..col.len()).collect(), <[usize]>::to_vec)
}

/// The one-hot join matrix of §3.1: one row per selected table row, one
/// column per domain value, 1 where the key matches.
pub fn one_hot_matrix(key_col: &Column, rows: Option<&[usize]>, domain: &Domain) -> DenseMatrix {
    let rows = selected_rows(key_col, rows);
    let mut m = DenseMatrix::zeros(rows.len(), domain.len());
    for (i, &r) in rows.iter().enumerate() {
        if let Some(j) = domain.index_of(&key_col.value(r)) {
            m.set(i, j, 1.0);
        }
    }
    m
}

/// Sparse (CSR) version of [`one_hot_matrix`].
pub fn one_hot_csr(
    key_col: &Column,
    rows: Option<&[usize]>,
    domain: &Domain,
) -> TcuResult<CsrMatrix> {
    let ones = vec![1.0; selected_rows(key_col, rows).len()];
    valued_csr(key_col, &ones, rows, domain)
}

/// Sparse (CSR) valued matrix of §3.3: the non-zero entry of selected row
/// `i` carries `payload[i]`.
pub fn valued_csr(
    key_col: &Column,
    payload: &[f64],
    rows: Option<&[usize]>,
    domain: &Domain,
) -> TcuResult<CsrMatrix> {
    let rows = selected_rows(key_col, rows);
    let mut triplets = Vec::with_capacity(rows.len());
    for (i, &r) in rows.iter().enumerate() {
        if let Some(j) = domain.index_of(&key_col.value(r)) {
            triplets.push((i, j, payload[i] as f32));
        }
    }
    CsrMatrix::from_triplets(rows.len(), domain.len(), &triplets)
}

/// The comparison matrix of §3.4 for non-equi joins: entry `(i, j)` is 1
/// when `key_i <op> domain_j` holds.
pub fn comparison_matrix(
    key_col: &Column,
    rows: Option<&[usize]>,
    domain: &Domain,
    op: BinOp,
) -> TcuResult<DenseMatrix> {
    let rows = selected_rows(key_col, rows);
    let mut m = DenseMatrix::zeros(rows.len(), domain.len());
    for (i, &r) in rows.iter().enumerate() {
        let key = key_col.value(r);
        for (j, dv) in domain.values().iter().enumerate() {
            if context::compare(&key, op, dv)? {
                m.set(i, j, 1.0);
            }
        }
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(xs: &[i64]) -> Vec<Value> {
        xs.iter().map(|&x| Value::Int(x)).collect()
    }

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
    fn hash_join_produces_all_pairs() {
        let mut pairs = hash_join_pairs(&ints(&[1, 1, 2, 3]), &ints(&[1, 2, 2]));
        pairs.sort();
        assert_eq!(pairs, vec![(0, 0), (1, 0), (2, 1), (2, 2)]);
        assert_eq!(
            hash_join_pairs(&ints(&[1]), &ints(&[1, 2, 2])),
            vec![(0, 0)]
        );
        // Integral floats unify with ints; NULL-free keys only.
        let mixed = hash_join_pairs(&[Value::Float(2.0)], &ints(&[1, 2]));
        assert_eq!(mixed, vec![(0, 1)]);
    }

    #[test]
    fn nested_loop_is_left_major_and_rejects_non_comparisons() {
        let pairs = nested_loop_pairs(&ints(&[1, 2]), &ints(&[1, 2, 3]), BinOp::Lt).unwrap();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 2)]);
        assert!(nested_loop_pairs(&ints(&[1]), &ints(&[1]), BinOp::Add).is_err());
    }

    #[test]
    fn executes_joins_filters_and_aggregates() {
        let cat = catalog();
        let out = execute(
            &cat,
            "SELECT SUM(A.val), B.val FROM A, B WHERE A.id = B.id GROUP BY B.val",
        )
        .unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.row(0)[0].as_f64().unwrap(), 21.0);
        let out = execute(
            &cat,
            "SELECT A.val FROM A WHERE A.val >= 20 ORDER BY A.val DESC",
        );
        assert_eq!(out.unwrap().row(0)[0], Value::Int(30));
        let out = execute(&cat, "SELECT A.val, B.val FROM A, B WHERE A.id < B.id").unwrap();
        assert_eq!(out.num_rows(), 4);
        assert!(execute(&cat, "SELECT A.val FROM A, B").is_err());
    }

    #[test]
    fn comparable_rows_sort_only_unordered_results() {
        let t = Table::from_int_columns("r", &[("x", vec![2, 1])]).unwrap();
        let unordered = comparable_rows("SELECT x FROM r", &t);
        assert_eq!(unordered, vec!["[Int(1)]", "[Int(2)]"]);
        let ordered = comparable_rows("SELECT x FROM r order by x DESC", &t);
        assert_eq!(ordered, vec!["[Int(2)]", "[Int(1)]"]);
    }

    #[test]
    fn filters_run_in_textual_order_on_every_row() {
        // The division predicate precedes the atom that would have masked
        // the i = 0 row: the reference raises where production's
        // atoms-first scan succeeds.
        let mut cat = Catalog::new();
        cat.register(
            Table::from_int_columns("T", &[("i", vec![0, 5]), ("v", vec![1, 2])]).unwrap(),
        );
        assert!(execute(&cat, "SELECT T.v FROM T WHERE T.v / T.i > 0 AND T.i = 5").is_err());
        let ok = execute(&cat, "SELECT T.v FROM T WHERE T.i = 5").unwrap();
        assert_eq!(ok.row(0)[0], Value::Int(2));
    }

    #[test]
    fn composite_keys_hold_on_every_tuple() {
        let mut cat = Catalog::new();
        for name in ["A", "B"] {
            cat.register(
                Table::from_int_columns(name, &[("id", vec![1, 2, 2]), ("k", vec![1, 1, 2])])
                    .unwrap(),
            );
        }
        let both = execute(&cat, "SELECT A.k FROM A, B WHERE A.id = B.id AND A.k = B.k").unwrap();
        assert_eq!(both.num_rows(), 3);
        let mixed = execute(&cat, "SELECT A.k FROM A, B WHERE A.id = B.id AND A.k < B.k").unwrap();
        assert_eq!(mixed.num_rows(), 1);
    }

    #[test]
    fn matrix_builders_agree_with_each_other() {
        let col = Column::Int64(vec![10, 20, 10, 30]);
        let dom = Domain::build(&[(&col, Some(&[0, 1, 2]))]);
        let dense = one_hot_matrix(&col, None, &dom);
        // Row 3's key (30) is outside the domain: an all-zero row.
        assert_eq!(dense.row(3).iter().sum::<f32>(), 0.0);
        assert_eq!(dense.row(0), dense.row(2));
        assert_eq!(one_hot_csr(&col, None, &dom).unwrap().to_dense(), dense);
        let valued = valued_csr(&col, &[1.5, 2.5, 3.5, 4.5], None, &dom).unwrap();
        assert_eq!(valued.to_dense().row(1).iter().sum::<f32>(), 2.5);
        let lt = comparison_matrix(&col, Some(&[0]), &dom, BinOp::Lt).unwrap();
        assert_eq!(lt.row(0), &[0.0, 1.0]);
        assert!(comparison_matrix(&col, None, &dom, BinOp::Add).is_err());
    }
}

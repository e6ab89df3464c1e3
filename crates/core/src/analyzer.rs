//! The query analyzer: binding, predicate classification and TCU pattern
//! recognition (§3 of the paper).

use crate::context::RowContext;
use std::sync::Arc;
use tcudb_sql::{AggFunc, BinOp, ColumnRef, Expr, SelectStatement};
use tcudb_storage::{Catalog, Table, TableStats};
use tcudb_types::{TcuError, TcuResult};

/// A table bound from the FROM clause.
#[derive(Debug, Clone)]
pub struct BoundTable {
    /// Binding name (alias if given, else the table name).
    pub binding: String,
    /// The table data.
    pub table: Arc<Table>,
    /// Pre-computed statistics (min/max/ndv per column).
    pub stats: Arc<TableStats>,
}

/// A join predicate `left.column <op> right.column` between two bound
/// tables.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPredicate {
    /// Index of the left table and its join column name.
    pub left: (usize, String),
    /// Index of the right table and its join column name.
    pub right: (usize, String),
    /// Comparison operator (equality for natural joins, the full set for
    /// the non-equi pattern Q5).
    pub op: BinOp,
}

impl JoinPredicate {
    /// Is this an equality join?
    pub fn is_equi(&self) -> bool {
        self.op == BinOp::Eq
    }
}

/// The TCU-accelerable query patterns of §3 (plus the cases that are not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryPattern {
    /// Single table scan / filter / aggregate — no join to accelerate.
    SingleTable,
    /// Q1: two-way natural join (§3.1).
    TwoWayJoin,
    /// Q5: two-way non-equi join (§3.4).
    NonEquiJoin,
    /// Q3: group-by aggregate over a two-way join (§3.3).
    JoinGroupByAggregate,
    /// Q4: aggregate over a two-way join without GROUP BY (§3.3).
    JoinAggregate,
    /// Figure 5: the matrix-multiplication query — group by one key from
    /// each side, SUM over a product of both value columns.
    MatMul,
    /// Q2 / star queries: joins over three or more tables (§3.2),
    /// optionally with aggregation.
    MultiWayJoin,
    /// Recognised SQL, but not expressible on the TCU (e.g. MIN/MAX
    /// aggregates); the optimizer must fall back to CPU/GPU operators.
    NotTcuExpressible(String),
}

impl QueryPattern {
    /// Can a TCU plan be generated for this pattern at all?
    pub fn tcu_supported(&self) -> bool {
        !matches!(
            self,
            QueryPattern::SingleTable | QueryPattern::NotTcuExpressible(_)
        )
    }
}

/// The fully analyzed query: bound tables, classified predicates and the
/// recognised pattern.
#[derive(Debug, Clone)]
pub struct AnalyzedQuery {
    /// The original statement.
    pub stmt: SelectStatement,
    /// Bound FROM tables in statement order.
    pub tables: Vec<BoundTable>,
    /// Join predicates between tables.
    pub joins: Vec<JoinPredicate>,
    /// Single-table filter predicates, tagged with the table index.
    pub filters: Vec<(usize, Expr)>,
    /// Predicates touching several tables that are not simple column-to-
    /// column joins; evaluated after the joins.
    pub residual: Vec<Expr>,
    /// The recognised query pattern.
    pub pattern: QueryPattern,
}

impl AnalyzedQuery {
    /// A row context over all bound tables (used by executors).
    pub fn row_context(&self) -> RowContext {
        RowContext::new(
            self.tables
                .iter()
                .map(|b| (b.binding.clone(), Arc::clone(&b.table)))
                .collect(),
        )
    }

    /// All join predicates that involve table `idx`.
    pub fn joins_for_table(&self, idx: usize) -> Vec<&JoinPredicate> {
        self.joins
            .iter()
            .filter(|j| j.left.0 == idx || j.right.0 == idx)
            .collect()
    }

    /// Filters that apply to table `idx`.
    pub fn filters_for_table(&self, idx: usize) -> Vec<&Expr> {
        self.filters
            .iter()
            .filter(|(i, _)| *i == idx)
            .map(|(_, e)| e)
            .collect()
    }
}

/// Analyze a parsed statement against a catalog.
pub fn analyze(stmt: &SelectStatement, catalog: &Catalog) -> TcuResult<AnalyzedQuery> {
    if stmt.from.is_empty() {
        return Err(TcuError::Analysis("query has no FROM clause".into()));
    }
    if stmt.items.is_empty() {
        return Err(TcuError::Analysis("query has an empty SELECT list".into()));
    }

    // Bind tables.
    let mut tables = Vec::with_capacity(stmt.from.len());
    for tref in &stmt.from {
        let table = catalog.table(&tref.name)?;
        let stats = catalog.stats(&tref.name)?;
        tables.push(BoundTable {
            binding: tref.binding().to_string(),
            table,
            stats,
        });
    }

    let ctx = RowContext::new(
        tables
            .iter()
            .map(|b| (b.binding.clone(), Arc::clone(&b.table)))
            .collect(),
    );

    // Validate that every referenced column resolves.
    for item in &stmt.items {
        for col in item.expr.column_refs() {
            ctx.resolve(col)?;
        }
    }
    for g in &stmt.group_by {
        for col in g.column_refs() {
            ctx.resolve(col)?;
        }
    }
    // The output stage finishes an aggregate item by evaluating the
    // arithmetic around its one aggregate call.
    for item in &stmt.items {
        if aggregate_calls(&item.expr) > 1 {
            return Err(TcuError::Analysis(format!(
                "SELECT item '{}' has more than one aggregate call; \
                 give each aggregate its own SELECT item",
                item.expr
            )));
        }
    }

    // Classify WHERE conjuncts.
    let mut joins = Vec::new();
    let mut filters = Vec::new();
    let mut residual = Vec::new();
    for conjunct in stmt.where_conjuncts() {
        match classify_conjunct(conjunct, &ctx)? {
            Classified::Join(j) => joins.push(j),
            Classified::Filter(idx, expr) => filters.push((idx, expr)),
            Classified::Residual(expr) => residual.push(expr),
        }
    }

    let pattern = recognise_pattern(stmt, &tables, &joins);

    Ok(AnalyzedQuery {
        stmt: stmt.clone(),
        tables,
        joins,
        filters,
        residual,
        pattern,
    })
}

/// Number of aggregate calls in an expression, nested ones included.
fn aggregate_calls(expr: &Expr) -> usize {
    match expr {
        Expr::Aggregate { arg, .. } => 1 + aggregate_calls(arg),
        Expr::Column(_) | Expr::Literal(_) => 0,
        Expr::Binary { left, right, .. } => aggregate_calls(left) + aggregate_calls(right),
        Expr::Between { expr, low, high } => {
            aggregate_calls(expr) + aggregate_calls(low) + aggregate_calls(high)
        }
    }
}

enum Classified {
    Join(JoinPredicate),
    Filter(usize, Expr),
    Residual(Expr),
}

/// Classify one conjunct as a join predicate, a single-table filter or a
/// residual predicate.
fn classify_conjunct(expr: &Expr, ctx: &RowContext) -> TcuResult<Classified> {
    // Which tables does it touch?
    let mut table_indices: Vec<usize> = Vec::new();
    for col in expr.column_refs() {
        let (ti, _) = ctx.resolve(col)?;
        if !table_indices.contains(&ti) {
            table_indices.push(ti);
        }
    }

    // A simple `col <cmp> col` between two distinct tables is a join.
    if let Expr::Binary { left, op, right } = expr {
        if op.is_comparison() {
            if let (Expr::Column(lc), Expr::Column(rc)) = (left.as_ref(), right.as_ref()) {
                let (lt, _) = ctx.resolve(lc)?;
                let (rt, _) = ctx.resolve(rc)?;
                if lt != rt {
                    return Ok(Classified::Join(JoinPredicate {
                        left: (lt, lc.column.clone()),
                        right: (rt, rc.column.clone()),
                        op: *op,
                    }));
                }
            }
        }
    }

    match table_indices.len() {
        0 | 1 => Ok(Classified::Filter(
            table_indices.first().copied().unwrap_or(0),
            expr.clone(),
        )),
        _ => Ok(Classified::Residual(expr.clone())),
    }
}

/// Recognise which §3 pattern (if any) the query matches.
fn recognise_pattern(
    stmt: &SelectStatement,
    tables: &[BoundTable],
    joins: &[JoinPredicate],
) -> QueryPattern {
    // MIN/MAX aggregates are beyond the TCU interface (§3.4, "Beyond the
    // supported patterns").
    for item in &stmt.items {
        if let Some((func, _)) = item.expr.first_aggregate() {
            if !func.tcu_expressible() {
                return QueryPattern::NotTcuExpressible(format!(
                    "aggregate {func} is not expressible as matrix multiply-accumulate"
                ));
            }
        }
    }

    if tables.len() == 1 {
        return QueryPattern::SingleTable;
    }
    if joins.is_empty() {
        return QueryPattern::NotTcuExpressible("cross join without a join predicate".to_string());
    }
    if tables.len() > 2 {
        return QueryPattern::MultiWayJoin;
    }

    // Exactly two tables with at least one join predicate.
    let equi = joins.iter().any(|j| j.is_equi());
    if stmt.has_aggregates() {
        if !equi {
            return QueryPattern::NotTcuExpressible(
                "aggregation over a non-equi join is not a supported TCU pattern".to_string(),
            );
        }
        if stmt.group_by.is_empty() {
            return QueryPattern::JoinAggregate;
        }
        if is_matmul_pattern(stmt, tables) {
            return QueryPattern::MatMul;
        }
        return QueryPattern::JoinGroupByAggregate;
    }
    if equi {
        QueryPattern::TwoWayJoin
    } else {
        QueryPattern::NonEquiJoin
    }
}

/// Detect the Figure 5 matrix-multiplication query shape: GROUP BY one key
/// column from each side and a SUM over a product of one value column from
/// each side.
fn is_matmul_pattern(stmt: &SelectStatement, tables: &[BoundTable]) -> bool {
    if stmt.group_by.len() != 2 || tables.len() != 2 {
        return false;
    }
    let group_tables: Vec<Option<String>> = stmt
        .group_by
        .iter()
        .map(|g| match g {
            Expr::Column(c) => c.table.clone(),
            _ => None,
        })
        .collect();
    let distinct_group_tables = group_tables
        .iter()
        .flatten()
        .map(|t| t.to_ascii_lowercase())
        .collect::<std::collections::HashSet<_>>();
    if distinct_group_tables.len() != 2 {
        return false;
    }
    // Find a SUM over a product of two columns from different tables.
    stmt.items.iter().any(|item| {
        matches!(
            item.expr.first_aggregate(),
            Some((AggFunc::Sum, Expr::Binary { op: BinOp::Mul, left, right }))
                if matches!((left.as_ref(), right.as_ref()),
                    (Expr::Column(a), Expr::Column(b))
                        if a.table.is_some() && b.table.is_some() && a.table != b.table)
        )
    })
}

/// Convenience: resolve a column reference inside an analyzed query without
/// building a context (used by translators).
pub fn resolve_column(analyzed: &AnalyzedQuery, col: &ColumnRef) -> TcuResult<(usize, usize)> {
    analyzed.row_context().resolve(col)
}

/// A single-table predicate simple enough for the typed columnar filter
/// kernels of `relops`: the column is always on the left (literal-first
/// comparisons are normalised by flipping the operator).
#[derive(Debug, Clone, PartialEq)]
pub enum FilterAtom {
    /// `col <op> literal` where op is a comparison.
    Cmp {
        /// Column index within the filtered table.
        col: usize,
        /// Comparison operator (column on the left).
        op: BinOp,
        /// The literal operand.
        lit: tcudb_types::Value,
    },
    /// `col BETWEEN low AND high` over numeric literals.
    Between {
        /// Column index within the filtered table.
        col: usize,
        /// Inclusive lower bound.
        low: f64,
        /// Inclusive upper bound.
        high: f64,
    },
}

/// Classify one single-table filter of `table` as a vectorizable atom.
///
/// Returns `None` for anything the typed kernels cannot reproduce
/// bit-for-bit (arithmetic, OR, cross-type text/numeric comparisons,
/// nested expressions …); those run through the row interpreter.
pub fn vectorizable_atom(expr: &Expr, ctx: &RowContext, table: usize) -> Option<FilterAtom> {
    use tcudb_sql::Expr::*;
    use tcudb_types::{DataType, Value};

    // The column's type and the literal's type must agree on which
    // `sql_cmp` branch the interpreter would take.
    let compatible = |col_ty: DataType, lit: &Value| match lit {
        Value::Int(_) | Value::Float(_) => col_ty.is_numeric(),
        Value::Text(_) => col_ty == DataType::Text,
        Value::Null => false,
    };
    let resolve = |c: &ColumnRef| -> Option<(usize, DataType)> {
        let (ti, ci) = ctx.resolve(c).ok()?;
        (ti == table).then(|| (ci, ctx.table(ti).schema().column(ci).data_type))
    };

    match expr {
        Binary { left, op, right } if op.is_comparison() => {
            let (col_expr, lit_expr, op) = match (left.as_ref(), right.as_ref()) {
                (Column(_), Literal(_)) => (left.as_ref(), right.as_ref(), *op),
                (Literal(_), Column(_)) => (right.as_ref(), left.as_ref(), op.flip()),
                _ => return None,
            };
            let (Column(c), Literal(lit)) = (col_expr, lit_expr) else {
                return None;
            };
            let (ci, ty) = resolve(c)?;
            compatible(ty, lit).then(|| FilterAtom::Cmp {
                col: ci,
                op,
                lit: lit.clone(),
            })
        }
        Between { expr, low, high } => {
            let (Column(c), Literal(lo), Literal(hi)) =
                (expr.as_ref(), low.as_ref(), high.as_ref())
            else {
                return None;
            };
            let (ci, ty) = resolve(c)?;
            if !ty.is_numeric() {
                return None;
            }
            // The interpreter evaluates BETWEEN entirely in f64.
            let (lo, hi) = (lo.as_f64().ok()?, hi.as_f64().ok()?);
            Some(FilterAtom::Between {
                col: ci,
                low: lo,
                high: hi,
            })
        }
        _ => None,
    }
}

/// A scalar expression the vectorized output pipeline can evaluate
/// column-at-a-time over a tuple batch: numeric columns, numeric literals
/// and the four arithmetic operators, mirroring `context::eval` /
/// `eval_binary` (which compute all arithmetic in f64 and yield `Float`).
#[derive(Debug, Clone, PartialEq)]
pub enum BatchExpr {
    /// A numeric column: `(table index, column index)`.
    Column(usize, usize),
    /// A numeric literal, widened to f64 like `Value::as_f64` does.
    Literal(f64),
    /// An arithmetic operation over two batch expressions.
    Binary {
        /// Left operand.
        left: Box<BatchExpr>,
        /// Arithmetic operator (`+ - * /`).
        op: BinOp,
        /// Right operand.
        right: Box<BatchExpr>,
    },
}

/// Classify an expression as a [`BatchExpr`], or `None` when it needs the
/// row interpreter (text operands, comparisons, BETWEEN, aggregates —
/// anything whose `eval` result is not plain f64 arithmetic).
pub fn batch_expr(expr: &Expr, ctx: &RowContext) -> Option<BatchExpr> {
    match expr {
        Expr::Column(c) => {
            let (ti, ci) = ctx.resolve(c).ok()?;
            ctx.table(ti)
                .schema()
                .column(ci)
                .data_type
                .is_numeric()
                .then_some(BatchExpr::Column(ti, ci))
        }
        Expr::Literal(v) => v.as_f64().ok().map(BatchExpr::Literal),
        Expr::Binary { left, op, right } if op.is_arithmetic() => Some(BatchExpr::Binary {
            left: Box::new(batch_expr(left, ctx)?),
            op: *op,
            right: Box::new(batch_expr(right, ctx)?),
        }),
        _ => None,
    }
}

/// Resolve an expression to a plain base-table column, when it is one.
pub fn simple_column(expr: &Expr, ctx: &RowContext) -> Option<(usize, usize)> {
    match expr {
        Expr::Column(c) => ctx.resolve(c).ok(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcudb_sql::parse;
    use tcudb_storage::Table;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(
            Table::from_int_columns("A", &[("id", vec![1, 2, 3]), ("val", vec![1, 2, 3])]).unwrap(),
        );
        cat.register(
            Table::from_int_columns("B", &[("id", vec![2, 3]), ("val", vec![5, 6])]).unwrap(),
        );
        cat.register(
            Table::from_int_columns("C", &[("id_2", vec![1, 2]), ("val", vec![7, 8])]).unwrap(),
        );
        cat
    }

    fn analyze_sql(sql: &str) -> AnalyzedQuery {
        analyze(&parse(sql).unwrap(), &catalog()).unwrap()
    }

    #[test]
    fn q1_is_two_way_join() {
        let a = analyze_sql("SELECT A.val, B.val FROM A, B WHERE A.id = B.id");
        assert_eq!(a.pattern, QueryPattern::TwoWayJoin);
        assert_eq!(a.joins.len(), 1);
        assert!(a.joins[0].is_equi());
        assert!(a.pattern.tcu_supported());
    }

    #[test]
    fn q3_is_join_groupby_aggregate() {
        let a = analyze_sql("SELECT SUM(A.val), B.val FROM A, B WHERE A.id = B.id GROUP BY B.val");
        assert_eq!(a.pattern, QueryPattern::JoinGroupByAggregate);
    }

    #[test]
    fn q4_is_join_aggregate() {
        let a = analyze_sql("SELECT SUM(A.val * B.val) FROM A, B WHERE A.id = B.id");
        assert_eq!(a.pattern, QueryPattern::JoinAggregate);
    }

    #[test]
    fn q5_is_non_equi_join() {
        let a = analyze_sql("SELECT A.val, B.val FROM A, B WHERE A.id < B.id");
        assert_eq!(a.pattern, QueryPattern::NonEquiJoin);
    }

    #[test]
    fn figure5_is_matmul() {
        let a = analyze_sql(
            "SELECT A.id, B.id, SUM(A.val * B.val) as res FROM A, B \
             WHERE A.id = B.id GROUP BY A.id, B.id",
        );
        assert_eq!(a.pattern, QueryPattern::MatMul);
    }

    #[test]
    fn three_tables_is_multiway() {
        let a = analyze_sql("SELECT A.val, C.val FROM A, B, C WHERE A.id = B.id AND B.id = C.id_2");
        assert_eq!(a.pattern, QueryPattern::MultiWayJoin);
        assert_eq!(a.joins.len(), 2);
    }

    #[test]
    fn single_table_and_min_max_are_not_tcu() {
        let a = analyze_sql("SELECT A.val FROM A WHERE A.id > 1");
        assert_eq!(a.pattern, QueryPattern::SingleTable);
        assert!(!a.pattern.tcu_supported());
        let b = analyze_sql("SELECT MAX(A.val) FROM A, B WHERE A.id = B.id");
        assert!(matches!(b.pattern, QueryPattern::NotTcuExpressible(_)));
    }

    #[test]
    fn cross_join_is_not_supported() {
        let a = analyze_sql("SELECT A.val, B.val FROM A, B");
        assert!(matches!(a.pattern, QueryPattern::NotTcuExpressible(_)));
    }

    #[test]
    fn filters_and_joins_are_separated() {
        let a = analyze_sql(
            "SELECT A.val, B.val FROM A, B WHERE A.id = B.id AND A.val > 1 AND B.val = 5",
        );
        assert_eq!(a.joins.len(), 1);
        assert_eq!(a.filters.len(), 2);
        assert_eq!(a.filters_for_table(0).len(), 1);
        assert_eq!(a.filters_for_table(1).len(), 1);
        assert!(a.residual.is_empty());
        assert_eq!(a.joins_for_table(0).len(), 1);
    }

    #[test]
    fn residual_predicates_detected() {
        let a =
            analyze_sql("SELECT A.val, B.val FROM A, B WHERE A.id = B.id AND A.val + B.val > 4");
        assert_eq!(a.residual.len(), 1);
    }

    #[test]
    fn batch_expr_classification() {
        let cat = catalog();
        let a = analyze(
            &parse(
                "SELECT SUM(A.val - B.val), SUM(A.val * 2), COUNT(*) FROM A, B WHERE A.id = B.id",
            )
            .unwrap(),
            &cat,
        )
        .unwrap();
        let ctx = a.row_context();
        let (_, arg0) = a.stmt.items[0].expr.first_aggregate().unwrap();
        assert!(matches!(
            batch_expr(arg0, &ctx),
            Some(BatchExpr::Binary { op: BinOp::Sub, .. })
        ));
        let (_, arg1) = a.stmt.items[1].expr.first_aggregate().unwrap();
        assert!(batch_expr(arg1, &ctx).is_some());
        // COUNT(*) argument is a literal 1.
        let (_, arg2) = a.stmt.items[2].expr.first_aggregate().unwrap();
        assert_eq!(batch_expr(arg2, &ctx), Some(BatchExpr::Literal(1.0)));
        // Comparisons and text columns are not batchable.
        let b = analyze(&parse("SELECT A.val FROM A WHERE A.val > 1").unwrap(), &cat).unwrap();
        let bctx = b.row_context();
        assert!(batch_expr(&b.filters[0].1, &bctx).is_none());
        assert_eq!(simple_column(&b.stmt.items[0].expr, &bctx), Some((0, 1)));
        assert!(simple_column(&b.filters[0].1, &bctx).is_none());
    }

    #[test]
    fn unknown_tables_and_columns_error() {
        let cat = catalog();
        assert!(analyze(&parse("SELECT X.v FROM X").unwrap(), &cat).is_err());
        assert!(analyze(&parse("SELECT A.nope FROM A").unwrap(), &cat).is_err());
        assert!(analyze(&parse("SELECT A.val FROM A GROUP BY A.nope").unwrap(), &cat).is_err());
    }
}

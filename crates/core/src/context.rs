//! Row contexts and scalar expression evaluation.
//!
//! Both the TCUDB executor and the baseline engines need to evaluate
//! scalar expressions (filters, aggregate arguments, projection
//! expressions) against a "joined row" that spans one or more base tables.
//! [`RowContext`] names each participating table by its binding (alias) and
//! holds a current row index per table; [`eval`] walks an expression tree
//! against it.

use std::sync::Arc;
use tcudb_sql::{BinOp, ColumnRef, Expr};
use tcudb_storage::Table;
use tcudb_types::{TcuError, TcuResult, Value};

/// A set of bound tables with a current row index for each.
#[derive(Debug, Clone)]
pub struct RowContext {
    bindings: Vec<(String, Arc<Table>)>,
    rows: Vec<usize>,
}

impl RowContext {
    /// Create a context over the given `(binding, table)` pairs.
    pub fn new(bindings: Vec<(String, Arc<Table>)>) -> RowContext {
        let n = bindings.len();
        RowContext {
            bindings,
            rows: vec![0; n],
        }
    }

    /// Number of bound tables.
    pub fn arity(&self) -> usize {
        self.bindings.len()
    }

    /// Set the current row index of table `idx`.
    pub fn set_row(&mut self, idx: usize, row: usize) {
        self.rows[idx] = row;
    }

    /// Set all current row indices at once.
    pub fn set_rows(&mut self, rows: &[usize]) {
        self.rows.copy_from_slice(rows);
    }

    /// Index of the table that binds `name` (alias or table name).
    pub fn binding_index(&self, name: &str) -> Option<usize> {
        self.bindings
            .iter()
            .position(|(b, t)| b.eq_ignore_ascii_case(name) || t.name().eq_ignore_ascii_case(name))
    }

    /// Resolve a column reference to `(table index, column index)`.
    ///
    /// Unqualified references are resolved against all bound tables and
    /// must be unambiguous.
    pub fn resolve(&self, col: &ColumnRef) -> TcuResult<(usize, usize)> {
        match &col.table {
            Some(t) => {
                let ti = self.binding_index(t).ok_or_else(|| {
                    TcuError::Analysis(format!("unknown table or alias '{t}' in '{col}'"))
                })?;
                let ci = self.bindings[ti].1.schema().require(&col.column)?;
                Ok((ti, ci))
            }
            None => {
                let mut found = None;
                for (ti, (_, table)) in self.bindings.iter().enumerate() {
                    if let Some(ci) = table.schema().index_of(&col.column) {
                        if found.is_some() {
                            return Err(TcuError::Analysis(format!(
                                "ambiguous column reference '{}'",
                                col.column
                            )));
                        }
                        found = Some((ti, ci));
                    }
                }
                found.ok_or_else(|| {
                    TcuError::Analysis(format!("column '{}' not found in any table", col.column))
                })
            }
        }
    }

    /// Read the value of a resolved column at the current row.
    pub fn value_at(&self, table_idx: usize, col_idx: usize) -> Value {
        let (_, table) = &self.bindings[table_idx];
        table.column(col_idx).value(self.rows[table_idx])
    }

    /// The bound table at `idx`.
    pub fn table(&self, idx: usize) -> &Arc<Table> {
        &self.bindings[idx].1
    }

    /// The binding name at `idx`.
    pub fn binding(&self, idx: usize) -> &str {
        &self.bindings[idx].0
    }
}

/// Evaluate a scalar (non-aggregate) expression against the current row of
/// a context.
pub fn eval(expr: &Expr, ctx: &RowContext) -> TcuResult<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(c) => {
            let (ti, ci) = ctx.resolve(c)?;
            Ok(ctx.value_at(ti, ci))
        }
        Expr::Aggregate { .. } => Err(TcuError::Execution(
            "aggregate expression evaluated in scalar context".into(),
        )),
        Expr::Between { expr, low, high } => {
            let v = eval(expr, ctx)?.as_f64()?;
            let lo = eval(low, ctx)?.as_f64()?;
            let hi = eval(high, ctx)?.as_f64()?;
            Ok(Value::Int((v >= lo && v <= hi) as i64))
        }
        Expr::Binary { left, op, right } => {
            let l = eval(left, ctx)?;
            let r = eval(right, ctx)?;
            eval_binary(&l, *op, &r)
        }
    }
}

/// Evaluate a binary operation over two values.  Boolean results are
/// returned as `Int(0)` / `Int(1)`.
pub fn eval_binary(l: &Value, op: BinOp, r: &Value) -> TcuResult<Value> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div => {
            let a = l.as_f64()?;
            let b = r.as_f64()?;
            let out = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        return Err(TcuError::Execution("division by zero".into()));
                    }
                    a / b
                }
                _ => unreachable!(),
            };
            Ok(Value::Float(out))
        }
        Eq => Ok(Value::Int(l.sql_eq(r) as i64)),
        NotEq => Ok(Value::Int(
            (!l.is_null() && !r.is_null() && !l.sql_eq(r)) as i64,
        )),
        Lt | LtEq | Gt | GtEq => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Int(0));
            }
            let ord = l.sql_cmp(r);
            let out = match op {
                Lt => ord == std::cmp::Ordering::Less,
                LtEq => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                GtEq => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Int(out as i64))
        }
        And => Ok(Value::Int((truthy(l) && truthy(r)) as i64)),
        Or => Ok(Value::Int((truthy(l) || truthy(r)) as i64)),
    }
}

/// Does `l <op> r` hold?  The one definition of join-comparison truth:
/// the join kernels, the comparison-matrix builder and the composite-key
/// residual all reduce to it, so a predicate means the same thing
/// whichever operator evaluates it.
pub fn compare(l: &Value, op: BinOp, r: &Value) -> TcuResult<bool> {
    if !op.is_comparison() {
        return Err(TcuError::Plan(format!("{op} is not a join comparison")));
    }
    Ok(truthy(&eval_binary(l, op, r)?))
}

/// SQL truthiness of a value (non-zero numerics are true).
pub fn truthy(v: &Value) -> bool {
    match v {
        Value::Null => false,
        Value::Int(x) => *x != 0,
        Value::Float(x) => *x != 0.0,
        Value::Text(s) => !s.is_empty(),
    }
}

/// Evaluate a predicate expression to a boolean.
pub fn eval_predicate(expr: &Expr, ctx: &RowContext) -> TcuResult<bool> {
    Ok(truthy(&eval(expr, ctx)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcudb_sql::parse;
    use tcudb_storage::Table;

    fn ctx() -> RowContext {
        let a = Table::from_int_columns("A", &[("id", vec![1, 2, 3]), ("val", vec![10, 20, 30])])
            .unwrap();
        let b =
            Table::from_int_columns("B", &[("id", vec![2, 3]), ("val", vec![200, 300])]).unwrap();
        RowContext::new(vec![
            ("a".to_string(), Arc::new(a)),
            ("b".to_string(), Arc::new(b)),
        ])
    }

    #[test]
    fn resolve_qualified_and_unqualified() {
        let c = ctx();
        let q = ColumnRef::qualified("A", "val");
        assert_eq!(c.resolve(&q).unwrap(), (0, 1));
        // Unqualified "val" is ambiguous (both tables have it).
        assert!(c.resolve(&ColumnRef::new("val")).is_err());
        assert!(c.resolve(&ColumnRef::qualified("zzz", "val")).is_err());
        assert!(c.resolve(&ColumnRef::qualified("a", "missing")).is_err());
    }

    #[test]
    fn eval_join_predicate_rows() {
        let mut c = ctx();
        let stmt = parse("SELECT A.val FROM A, B WHERE A.id = B.id").unwrap();
        let pred = stmt.where_clause.unwrap();
        c.set_rows(&[1, 0]); // A.id=2, B.id=2
        assert!(eval_predicate(&pred, &c).unwrap());
        c.set_rows(&[0, 0]); // A.id=1, B.id=2
        assert!(!eval_predicate(&pred, &c).unwrap());
    }

    #[test]
    fn eval_arithmetic_and_between() {
        let mut c = ctx();
        c.set_rows(&[2, 1]); // A.val=30, B.val=300
        let stmt =
            parse("SELECT A.val FROM A, B WHERE A.val * B.val >= 9000 AND A.val BETWEEN 10 AND 30")
                .unwrap();
        assert!(eval_predicate(&stmt.where_clause.unwrap(), &c).unwrap());
        let div = parse("SELECT A.val FROM A WHERE A.val / 0 > 1").unwrap();
        assert!(eval(&div.where_clause.unwrap(), &c).is_err());
    }

    #[test]
    fn eval_or_and_comparisons() {
        let mut c = ctx();
        c.set_rows(&[0, 0]);
        let stmt = parse("SELECT A.val FROM A, B WHERE A.id = 99 OR B.val > 100").unwrap();
        assert!(eval_predicate(&stmt.where_clause.unwrap(), &c).unwrap());
        let stmt2 = parse("SELECT A.val FROM A, B WHERE A.id <> 1 OR B.val < 100").unwrap();
        assert!(!eval_predicate(&stmt2.where_clause.unwrap(), &c).unwrap());
    }

    #[test]
    fn aggregates_rejected_in_scalar_context() {
        let c = ctx();
        let stmt = parse("SELECT SUM(A.val) FROM A").unwrap();
        assert!(eval(&stmt.items[0].expr, &c).is_err());
    }

    #[test]
    fn truthiness() {
        assert!(truthy(&Value::Int(5)));
        assert!(!truthy(&Value::Int(0)));
        assert!(truthy(&Value::Float(0.1)));
        assert!(!truthy(&Value::Null));
        assert!(truthy(&Value::Text("x".into())));
        assert!(!truthy(&Value::Text("".into())));
    }

    #[test]
    fn binary_null_semantics() {
        assert_eq!(
            eval_binary(&Value::Null, BinOp::Lt, &Value::Int(1)).unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            eval_binary(&Value::Int(1), BinOp::NotEq, &Value::Null).unwrap(),
            Value::Int(0)
        );
    }
}

//! Column statistics: the metadata TCUDB's feasibility test and cost
//! estimator consult.
//!
//! §4.2.1 of the paper: *"TCUDB adds metadata to each database table to
//! contain three values for each column, including (1) the minimum value,
//! (2) the maximum value, and (3) the number of distinct values."*
//!
//! All three are folds, so they are kept by one incremental
//! `StatsAccumulator`: a running min/max plus an exact distinct set per
//! column.  [`TableStats::compute`] is "accumulate the whole table, then
//! freeze"; an append is "accumulate the new rows, then freeze" on the
//! accumulator the previous version left behind (see `StatsLineage`).
//! There is no second way to derive a [`TableStats`], so the full and the
//! incremental build cannot disagree.

use crate::column::Column;
use crate::schema::Schema;
use crate::table::Table;
use std::collections::HashMap;
use std::collections::HashSet;
use std::fmt;
use std::sync::Mutex;
use tcudb_types::sync::locked;
use tcudb_types::value::ValueKey;
use tcudb_types::DataType;

/// Statistics for a single column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column name.
    pub name: String,
    /// Minimum numeric value (`None` for text columns or empty tables).
    pub min: Option<f64>,
    /// Maximum numeric value (`None` for text columns or empty tables).
    pub max: Option<f64>,
    /// Number of distinct values.
    pub distinct_count: usize,
    /// Number of rows.
    pub row_count: usize,
}

impl ColumnStats {
    /// Compute statistics for a column: accumulate all of it, freeze.
    pub fn compute(name: &str, column: &Column) -> ColumnStats {
        let mut acc = ColumnAccumulator::new(column.data_type(), column.len());
        acc.extend(column, 0);
        acc.freeze(name, column.len())
    }

    /// Largest absolute value in the column (0 for text / empty columns).
    /// This is the `m` term of the feasibility test's conservative
    /// overflow estimate `m1 * m2 * n`.
    pub fn abs_max(&self) -> f64 {
        match (self.min, self.max) {
            (Some(lo), Some(hi)) => lo.abs().max(hi.abs()),
            _ => 0.0,
        }
    }

    /// Selectivity of an equality predicate against this column assuming a
    /// uniform distribution (classic System-R estimate 1/NDV).
    pub fn eq_selectivity(&self) -> f64 {
        if self.distinct_count == 0 {
            1.0
        } else {
            1.0 / self.distinct_count as f64
        }
    }

    /// Density of the one-hot matrix this column produces when used as a
    /// join key: each row contributes exactly one non-zero among
    /// `distinct_count` slots.
    pub fn one_hot_density(&self) -> f64 {
        if self.distinct_count == 0 {
            0.0
        } else {
            1.0 / self.distinct_count as f64
        }
    }
}

/// Statistics for all columns of a table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableStats {
    /// Per-column statistics, keyed by lower-cased column name.
    pub columns: HashMap<String, ColumnStats>,
    /// Number of rows in the table.
    pub row_count: usize,
    /// Rows per chunk of the table's partitioning (zone-map granularity).
    pub chunk_rows: usize,
    /// Number of row chunks the table is partitioned into — the
    /// denominator of every "chunks pruned / chunks total" ratio the
    /// executor and admission control report.
    pub chunk_count: usize,
}

impl TableStats {
    /// Compute statistics for every column of `table`.
    pub fn compute(table: &Table) -> TableStats {
        let mut acc = StatsAccumulator::new(table.schema(), table.num_rows());
        acc.extend(table);
        acc.freeze(table)
    }

    /// Look up statistics for a column (case-insensitive).
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(&name.to_ascii_lowercase())
    }

    /// Number of distinct values of a column, falling back to the row
    /// count when the column is unknown.
    pub fn distinct_or_rows(&self, name: &str) -> usize {
        self.column(name)
            .map(|c| c.distinct_count)
            .unwrap_or(self.row_count)
    }
}

/// Initial capacity cap of a distinct set (the table may hold far fewer
/// distinct values than rows).
const DISTINCT_RESERVE: usize = 1 << 16;

/// Running min/max and exact distinct set of one column.  The set is
/// keyed exactly as [`tcudb_types::Value::group_key`] normalises — `i64`
/// for integers, [`ValueKey::from_f64`] for floats (integral floats unify
/// with integers, NaNs key by bit pattern), the string itself for text —
/// but typed per column, so folding a cell allocates nothing unless it is
/// a text value never seen before.
#[derive(Debug)]
enum ColumnAccumulator {
    Int {
        bounds: Option<(i64, i64)>,
        distinct: HashSet<i64>,
    },
    Float {
        min: Option<f64>,
        max: Option<f64>,
        distinct: HashSet<ValueKey>,
    },
    Text {
        distinct: HashSet<String>,
    },
}

impl ColumnAccumulator {
    fn new(data_type: DataType, expected_rows: usize) -> ColumnAccumulator {
        let cap = expected_rows.min(DISTINCT_RESERVE);
        match data_type {
            DataType::Int64 => ColumnAccumulator::Int {
                bounds: None,
                distinct: HashSet::with_capacity(cap),
            },
            DataType::Float64 => ColumnAccumulator::Float {
                min: None,
                max: None,
                distinct: HashSet::with_capacity(cap),
            },
            DataType::Text => ColumnAccumulator::Text {
                distinct: HashSet::with_capacity(cap),
            },
        }
    }

    /// Fold in `column[start..]`.
    fn extend(&mut self, column: &Column, start: usize) {
        match (self, column) {
            (ColumnAccumulator::Int { bounds, distinct }, Column::Int64(v)) => {
                for &x in v.get(start..).unwrap_or(&[]) {
                    *bounds = Some(bounds.map_or((x, x), |(lo, hi)| (lo.min(x), hi.max(x))));
                    distinct.insert(x);
                }
            }
            (ColumnAccumulator::Float { min, max, distinct }, Column::Float64(v)) => {
                for &x in v.get(start..).unwrap_or(&[]) {
                    // `f64::min`/`max` skip a NaN operand, so a NaN only
                    // survives as a bound when every value so far is NaN.
                    *min = Some(min.map_or(x, |a| a.min(x)));
                    *max = Some(max.map_or(x, |a| a.max(x)));
                    distinct.insert(ValueKey::from_f64(x));
                }
            }
            (ColumnAccumulator::Text { distinct }, Column::Text(v)) => {
                for s in v.get(start..).unwrap_or(&[]) {
                    if !distinct.contains(s.as_str()) {
                        distinct.insert(s.clone());
                    }
                }
            }
            (acc, column) => {
                // Accumulators are made from the schema of the table
                // whose columns they fold, so the kinds always agree.
                debug_assert!(
                    false,
                    "{acc:?} cannot accumulate a {:?} column",
                    column.data_type()
                );
            }
        }
    }

    fn freeze(&self, name: &str, row_count: usize) -> ColumnStats {
        let (min, max, distinct_count) = match self {
            ColumnAccumulator::Int { bounds, distinct } => (
                bounds.map(|(lo, _)| lo as f64),
                bounds.map(|(_, hi)| hi as f64),
                distinct.len(),
            ),
            ColumnAccumulator::Float { min, max, distinct } => (*min, *max, distinct.len()),
            ColumnAccumulator::Text { distinct } => (None, None, distinct.len()),
        };
        ColumnStats {
            name: name.to_string(),
            min,
            max,
            distinct_count,
            row_count,
        }
    }
}

/// The incremental form of a table's statistics: one
/// [`ColumnAccumulator`] per column and the number of rows folded so far.
///
/// This is **writer-side** state.  A frozen [`TableStats`] is O(columns)
/// and is what snapshots, the planner and the executor see; the
/// accumulator is O(distinct values) and exists only so the *next* append
/// costs O(batch).  It is deliberately not `Clone`: exactly one table
/// version may continue a lineage, so the accumulator moves (see
/// [`StatsLineage`]) and is never copied.
#[derive(Debug)]
pub(crate) struct StatsAccumulator {
    columns: Vec<ColumnAccumulator>,
    rows: usize,
}

impl StatsAccumulator {
    /// An accumulator that has seen no rows of a table with `schema`.
    pub(crate) fn new(schema: &Schema, expected_rows: usize) -> StatsAccumulator {
        StatsAccumulator {
            columns: schema
                .columns()
                .iter()
                .map(|def| ColumnAccumulator::new(def.data_type, expected_rows))
                .collect(),
            rows: 0,
        }
    }

    /// Fold in the rows of `table` this accumulator has not seen yet:
    /// all of them for a fresh accumulator, the appended tail for one
    /// moved over from the version `table` extends.
    pub(crate) fn extend(&mut self, table: &Table) {
        debug_assert_eq!(self.columns.len(), table.num_columns());
        debug_assert!(self.rows <= table.num_rows());
        for (acc, column) in self.columns.iter_mut().zip(table.columns()) {
            acc.extend(column, self.rows);
        }
        self.rows = table.num_rows();
    }

    /// The O(columns) statistics of `table`, which must be the table
    /// last passed to [`StatsAccumulator::extend`].
    pub(crate) fn freeze(&self, table: &Table) -> TableStats {
        debug_assert_eq!(self.rows, table.num_rows());
        let columns = table
            .schema()
            .columns()
            .iter()
            .zip(&self.columns)
            .map(|(def, acc)| {
                (
                    def.name.to_ascii_lowercase(),
                    acc.freeze(&def.name, self.rows),
                )
            })
            .collect();
        TableStats {
            columns,
            row_count: self.rows,
            chunk_rows: table.chunk_rows(),
            chunk_count: table.chunk_count(),
        }
    }
}

#[derive(Default)]
struct LineageState {
    accumulator: Option<StatsAccumulator>,
    started: u64,
}

/// Where a table version keeps the [`StatsAccumulator`] for its
/// successor, plus a count of how often its lineage had to start one
/// from nothing.
///
/// Ownership rule: the accumulator belongs to **at most one** table
/// version — the newest of its lineage.  [`Catalog::append_rows`]
/// *takes* it from the version being extended, folds in the batch, and
/// parks it on the successor.  A version whose accumulator is gone or was
/// never there — freshly registered, recovered, `clone`d, forked by
/// `TcuDb::clone` after the other side appended, or the predecessor of a
/// commit whose WAL write failed — starts a new one on its first append,
/// which costs one pass over the table, and a table that is never
/// appended to never holds one.  `Clone` therefore yields an empty slot;
/// like the other derived caches it is excluded from table equality.
///
/// [`Catalog::append_rows`]: crate::Catalog::append_rows
#[derive(Default)]
pub(crate) struct StatsLineage {
    // lint: leaf-lock held only to move the accumulator in or out or to
    // bump the counter; the folding itself runs outside the lock
    inner: Mutex<LineageState>,
}

impl StatsLineage {
    /// Move the parked accumulator out, if there is one.
    pub(crate) fn take_accumulator(&self) -> Option<StatsAccumulator> {
        let mut st = locked(&self.inner);
        st.accumulator.take()
    }

    /// A fresh accumulator for `table`; whoever asks is about to pay a
    /// full pass over it, which is what [`StatsLineage::started_count`]
    /// counts.
    pub(crate) fn start_accumulator(&self, table: &Table) -> StatsAccumulator {
        locked(&self.inner).started += 1;
        StatsAccumulator::new(table.schema(), table.num_rows())
    }

    /// Park `accumulator` for the next append to this version.
    pub(crate) fn park_accumulator(&self, accumulator: StatsAccumulator) {
        locked(&self.inner).accumulator = Some(accumulator);
    }

    /// How many accumulators this table's lineage has started from
    /// nothing — each one a full statistics build.  Carried across
    /// `clone` the way [`ZoneCache::build_count`] is.
    ///
    /// [`ZoneCache::build_count`]: crate::ZoneCache::build_count
    pub(crate) fn started_count(&self) -> u64 {
        locked(&self.inner).started
    }
}

impl Clone for StatsLineage {
    fn clone(&self) -> Self {
        StatsLineage {
            inner: Mutex::new(LineageState {
                accumulator: None,
                started: self.started_count(),
            }),
        }
    }
}

impl PartialEq for StatsLineage {
    fn eq(&self, _other: &Self) -> bool {
        // Derived state: never affects table equality.
        true
    }
}

impl fmt::Debug for StatsLineage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StatsLineage({} started)", self.started_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use tcudb_types::{DataType, Value};

    fn table() -> Table {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int64),
            ("val", DataType::Float64),
            ("tag", DataType::Text),
        ]);
        let mut t = Table::new("t", schema);
        for (id, val, tag) in [
            (1, -2.5, "x"),
            (2, 7.25, "y"),
            (2, 7.25, "y"),
            (3, 0.0, "x"),
        ] {
            t.push_row(vec![Value::Int(id), Value::Float(val), Value::from(tag)])
                .unwrap();
        }
        t
    }

    #[test]
    fn column_stats_min_max_distinct() {
        let t = table();
        let stats = t.compute_stats();
        let id = stats.column("ID").unwrap();
        assert_eq!(id.min, Some(1.0));
        assert_eq!(id.max, Some(3.0));
        assert_eq!(id.distinct_count, 3);
        assert_eq!(id.row_count, 4);

        let val = stats.column("val").unwrap();
        assert_eq!(val.min, Some(-2.5));
        assert_eq!(val.max, Some(7.25));
        assert_eq!(val.distinct_count, 3);
        assert_eq!(val.abs_max(), 7.25);

        let tag = stats.column("tag").unwrap();
        assert_eq!(tag.min, None);
        assert_eq!(tag.distinct_count, 2);
        assert_eq!(tag.abs_max(), 0.0);
    }

    #[test]
    fn selectivity_and_density() {
        let t = table();
        let stats = t.compute_stats();
        let id = stats.column("id").unwrap();
        assert!((id.eq_selectivity() - 1.0 / 3.0).abs() < 1e-12);
        assert!((id.one_hot_density() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_column_stats() {
        let empty = Column::Int64(vec![]);
        let s = ColumnStats::compute("e", &empty);
        assert_eq!(s.min, None);
        assert_eq!(s.distinct_count, 0);
        assert_eq!(s.eq_selectivity(), 1.0);
        assert_eq!(s.one_hot_density(), 0.0);
    }

    #[test]
    fn stats_record_chunk_partitioning() {
        let mut t = table();
        assert_eq!(t.compute_stats().chunk_count, 1);
        t.set_chunk_rows(3);
        let s = t.compute_stats();
        assert_eq!(s.chunk_rows, 3);
        assert_eq!(s.chunk_count, 2);
    }

    #[test]
    fn distinct_or_rows_fallback() {
        let t = table();
        let stats = t.compute_stats();
        assert_eq!(stats.distinct_or_rows("id"), 3);
        assert_eq!(stats.distinct_or_rows("nonexistent"), 4);
    }
}

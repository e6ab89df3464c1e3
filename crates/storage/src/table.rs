//! Tables: a schema plus equal-length columns.

use crate::chunk::{self, ColumnZones, ZoneCache, DEFAULT_CHUNK_ROWS};
use crate::column::Column;
use crate::encoded::{DictColumn, EncodingCache};
use crate::schema::{ColumnDef, Schema};
use crate::stats::{StatsLineage, TableStats};
use std::sync::Arc;
use tcudb_types::{DataType, TcuError, TcuResult, Value};

/// An in-memory columnar table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
    /// Lazily built per-column dictionary encodings (derived state,
    /// excluded from equality).  Construction paths start cold; `clone`
    /// carries warm entries over, and `push_row` extends them in place
    /// (copy-on-write) so ingest never discards a warm dictionary.
    encodings: EncodingCache,
    /// Chunking granularity plus lazily built per-column zone maps
    /// (derived state, excluded from equality).  Maintained incrementally
    /// by `push_row` / `append_rows` the same way the encodings are.
    zones: ZoneCache,
    /// The statistics accumulator parked for this version's successor
    /// (writer-side derived state, excluded from equality, never cloned).
    stats: StatsLineage,
}

impl Table {
    /// Create an empty table with the given schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Table {
        let columns = schema
            .columns()
            .iter()
            .map(|c| Column::empty(c.data_type))
            .collect();
        Table {
            name: name.into(),
            schema,
            columns,
            rows: 0,
            encodings: EncodingCache::default(),
            zones: ZoneCache::new(DEFAULT_CHUNK_ROWS),
            stats: StatsLineage::default(),
        }
    }

    /// Create a table directly from columns (all must have equal length).
    pub fn from_columns(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Column>,
    ) -> TcuResult<Table> {
        if schema.len() != columns.len() {
            return Err(TcuError::InvalidArgument(format!(
                "schema has {} columns but {} columns were provided",
                schema.len(),
                columns.len()
            )));
        }
        let rows = columns.first().map(|c| c.len()).unwrap_or(0);
        for (i, c) in columns.iter().enumerate() {
            if c.len() != rows {
                return Err(TcuError::InvalidArgument(format!(
                    "column {} has {} rows, expected {}",
                    schema.column(i).name,
                    c.len(),
                    rows
                )));
            }
            if c.data_type() != schema.column(i).data_type {
                return Err(TcuError::InvalidArgument(format!(
                    "column {} type mismatch",
                    schema.column(i).name
                )));
            }
        }
        Ok(Table {
            name: name.into(),
            schema,
            columns,
            rows,
            encodings: EncodingCache::default(),
            zones: ZoneCache::new(DEFAULT_CHUNK_ROWS),
            stats: StatsLineage::default(),
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the table (used when registering intermediate results).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column by index.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Column by name (case-insensitive).
    pub fn column_by_name(&self, name: &str) -> TcuResult<&Column> {
        let idx = self.schema.require(name)?;
        Ok(&self.columns[idx])
    }

    /// All columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Append a row of values (one per column, in schema order): the
    /// one-row case of [`Table::append_row_slice`].
    pub fn push_row(&mut self, row: Vec<Value>) -> TcuResult<()> {
        self.append_row_slice(std::slice::from_ref(&row))
    }

    /// Append a batch of rows atomically; see [`Table::append_row_slice`].
    pub fn append_rows(&mut self, rows: Vec<Vec<Value>>) -> TcuResult<()> {
        self.append_row_slice(&rows)
    }

    /// Append a borrowed batch of rows atomically: the whole batch is
    /// validated (arity and value types) before any column is touched, so
    /// a rejected batch leaves the table — including its warm
    /// [`EncodingCache`] and zone maps — exactly as it was.
    ///
    /// Warm dictionary encodings and zone maps are then extended **once
    /// per batch** from the appended column slices (copy-on-write, so
    /// structures pinned by concurrent snapshots of the pre-ingest table
    /// are unaffected): one lock and one `Arc::make_mut` per warm column,
    /// never a rebuild and never a per-row `Value`.
    pub fn append_row_slice(&mut self, rows: &[Vec<Value>]) -> TcuResult<()> {
        for (r, row) in rows.iter().enumerate() {
            if row.len() != self.columns.len() {
                return Err(TcuError::InvalidArgument(format!(
                    "batch row {r} has {} values, table {} has {} columns",
                    row.len(),
                    self.name,
                    self.columns.len()
                )));
            }
            for (i, (col, val)) in self.columns.iter().zip(row).enumerate() {
                if !col.can_push(val) {
                    return Err(TcuError::InvalidArgument(format!(
                        "batch row {r}: cannot push {val:?} into {:?} column {} of table {}",
                        col.data_type(),
                        self.schema.column(i).name,
                        self.name
                    )));
                }
            }
        }
        let start = self.rows;
        for row in rows {
            for (col, val) in self.columns.iter_mut().zip(row) {
                col.push(val.clone())?;
            }
        }
        self.rows += rows.len();
        self.encodings.extend_from(&self.columns, start);
        self.zones.extend_from(&self.columns, start);
        Ok(())
    }

    /// The dictionary encoding of column `idx`, built on first use and
    /// cached on the table — the "encode once per `(table, column)`" step
    /// of the encoded query data path.
    pub fn encoded_column(&self, idx: usize) -> Arc<DictColumn> {
        self.encodings
            .get_or_build(idx, || DictColumn::build(&self.columns[idx]))
    }

    /// Number of columns with a cached encoding (tests / telemetry).
    pub fn encoded_column_count(&self) -> usize {
        self.encodings.len()
    }

    /// Rows per chunk of this table's partitioning (zone-map and morsel
    /// granularity). Defaults to [`DEFAULT_CHUNK_ROWS`].
    pub fn chunk_rows(&self) -> usize {
        self.zones.chunk_rows()
    }

    /// Number of row chunks the table is partitioned into.
    pub fn chunk_count(&self) -> usize {
        chunk::chunk_count(self.rows, self.chunk_rows())
    }

    /// Override the chunking granularity (tests / benchmarks). Discards
    /// warm zone maps — they were built at the old boundaries.
    pub fn set_chunk_rows(&mut self, chunk_rows: usize) {
        self.zones.set_chunk_rows(chunk_rows);
    }

    /// The zone map of column `idx`, built on first use and cached on the
    /// table; ingest extends warm maps incrementally (no rebuild).
    pub fn zone_map(&self, idx: usize) -> Arc<ColumnZones> {
        let cr = self.chunk_rows();
        self.zones
            .get_or_build(idx, || ColumnZones::build(&self.columns[idx], cr))
    }

    /// How many full zone-map builds this table has performed (regression
    /// hook: appends must extend warm maps, not rebuild them).
    pub fn zone_map_build_count(&self) -> u64 {
        self.zones.build_count()
    }

    /// Read one full row.
    pub fn row(&self, idx: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(idx)).collect()
    }

    /// Iterate over all rows (materialising each as a `Vec<Value>`).
    pub fn rows_iter(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// Project to the named columns (in the given order).
    pub fn project(&self, names: &[&str]) -> TcuResult<Table> {
        let schema = self.schema.project(names)?;
        let mut cols = Vec::with_capacity(names.len());
        for n in names {
            let idx = self.schema.require(n)?;
            cols.push(self.columns[idx].clone());
        }
        Table::from_columns(format!("{}_proj", self.name), schema, cols)
    }

    /// Keep only the rows at the given indices (gather), preserving order.
    pub fn gather(&self, rows: &[usize]) -> Table {
        let cols = self.columns.iter().map(|c| c.gather(rows)).collect();
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            columns: cols,
            rows: rows.len(),
            encodings: EncodingCache::default(),
            zones: ZoneCache::new(self.zones.chunk_rows()),
            stats: StatsLineage::default(),
        }
    }

    /// Filter rows with a predicate over the full row.
    pub fn filter<F: FnMut(&[Value]) -> bool>(&self, mut pred: F) -> Table {
        let mut keep = Vec::new();
        for i in 0..self.rows {
            let row = self.row(i);
            if pred(&row) {
                keep.push(i);
            }
        }
        self.gather(&keep)
    }

    /// Total host-memory footprint in bytes.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }

    /// Bytes occupied by just the named columns — what a column store
    /// actually moves over PCIe for a query touching those columns.
    pub fn columns_byte_size(&self, names: &[&str]) -> TcuResult<usize> {
        let mut total = 0;
        for n in names {
            total += self.column_by_name(n)?.byte_size();
        }
        Ok(total)
    }

    /// Compute per-column statistics (min / max / distinct count), the
    /// metadata the TCUDB optimizer consults (§4.2.1), from scratch.
    /// Catalogs do not call this per commit: they keep the statistics
    /// current along the table's lineage (see
    /// [`Catalog::append_rows`](crate::Catalog::append_rows)), and must
    /// agree with it field for field.
    pub fn compute_stats(&self) -> TableStats {
        TableStats::compute(self)
    }

    /// Where this version parks the statistics accumulator for its
    /// successor.
    pub(crate) fn stats_lineage(&self) -> &StatsLineage {
        &self.stats
    }

    /// How many full statistics builds the catalog has performed along
    /// this table's lineage (regression hook: appends must extend the
    /// accumulator their predecessor left, not start over).
    pub fn stats_build_count(&self) -> u64 {
        self.stats.started_count()
    }

    /// Sort the table by a column (ascending or descending), returning a
    /// new table.  Used by ORDER BY and by the order-preserving matrix
    /// layout described in §3.4.
    pub fn sort_by_column(&self, column: &str, ascending: bool) -> TcuResult<Table> {
        let col = self.column_by_name(column)?;
        let mut idx: Vec<usize> = (0..self.rows).collect();
        idx.sort_by(|&a, &b| {
            let ord = col.value(a).sql_cmp(&col.value(b));
            if ascending {
                ord
            } else {
                ord.reverse()
            }
        });
        Ok(self.gather(&idx))
    }

    /// Pretty-print the first `limit` rows as an ASCII table (for examples
    /// and the benchmark harness).
    pub fn format_preview(&self, limit: usize) -> String {
        let mut out = String::new();
        let names: Vec<&str> = self.schema.names();
        out.push_str(&names.join(" | "));
        out.push('\n');
        out.push_str(&"-".repeat(names.join(" | ").len().max(8)));
        out.push('\n');
        for i in 0..self.rows.min(limit) {
            let row: Vec<String> = self.row(i).iter().map(|v| v.to_string()).collect();
            out.push_str(&row.join(" | "));
            out.push('\n');
        }
        if self.rows > limit {
            out.push_str(&format!("... ({} rows total)\n", self.rows));
        }
        out
    }

    /// Helper used by tests and generators: build a table from integer
    /// columns only.
    pub fn from_int_columns(name: &str, cols: &[(&str, Vec<i64>)]) -> TcuResult<Table> {
        let schema = Schema::new(
            cols.iter()
                .map(|(n, _)| ColumnDef::new(*n, DataType::Int64))
                .collect(),
        );
        let columns = cols.iter().map(|(_, v)| Column::Int64(v.clone())).collect();
        Table::from_columns(name, schema, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int64),
            ("val", DataType::Float64),
            ("tag", DataType::Text),
        ]);
        let mut t = Table::new("sample", schema);
        t.push_row(vec![Value::Int(1), Value::Float(1.5), Value::from("a")])
            .unwrap();
        t.push_row(vec![Value::Int(2), Value::Float(2.5), Value::from("b")])
            .unwrap();
        t.push_row(vec![Value::Int(3), Value::Float(3.5), Value::from("c")])
            .unwrap();
        t
    }

    #[test]
    fn push_and_row_round_trip() {
        let t = sample();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(
            t.row(1),
            vec![Value::Int(2), Value::Float(2.5), Value::from("b")]
        );
        assert!(!t.is_empty());
    }

    #[test]
    fn push_row_validates_arity() {
        let mut t = sample();
        assert!(t.push_row(vec![Value::Int(4)]).is_err());
        assert_eq!(t.num_rows(), 3);
    }

    #[test]
    fn from_columns_validates_lengths_and_types() {
        let schema = Schema::from_pairs(&[("a", DataType::Int64), ("b", DataType::Int64)]);
        let bad = Table::from_columns(
            "t",
            schema.clone(),
            vec![Column::Int64(vec![1]), Column::Int64(vec![1, 2])],
        );
        assert!(bad.is_err());
        let bad_type = Table::from_columns(
            "t",
            schema.clone(),
            vec![Column::Int64(vec![1]), Column::Float64(vec![1.0])],
        );
        assert!(bad_type.is_err());
        let bad_arity = Table::from_columns("t", schema, vec![Column::Int64(vec![1])]);
        assert!(bad_arity.is_err());
    }

    #[test]
    fn projection_and_gather() {
        let t = sample();
        let p = t.project(&["tag", "id"]).unwrap();
        assert_eq!(p.schema().names(), vec!["tag", "id"]);
        assert_eq!(p.row(0), vec![Value::from("a"), Value::Int(1)]);

        let g = t.gather(&[2, 0]);
        assert_eq!(g.num_rows(), 2);
        assert_eq!(g.row(0)[0], Value::Int(3));
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let t = sample();
        let f = t.filter(|row| row[0].as_i64().unwrap() >= 2);
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.row(0)[0], Value::Int(2));
    }

    #[test]
    fn sort_by_column_desc() {
        let t = sample();
        let s = t.sort_by_column("val", false).unwrap();
        assert_eq!(s.row(0)[0], Value::Int(3));
        let s2 = t.sort_by_column("tag", true).unwrap();
        assert_eq!(s2.row(0)[2], Value::from("a"));
    }

    #[test]
    fn byte_size_and_column_subset() {
        let t = sample();
        assert!(t.byte_size() > 0);
        let sub = t.columns_byte_size(&["id"]).unwrap();
        assert_eq!(sub, 3 * 8);
        assert!(t.columns_byte_size(&["ghost"]).is_err());
    }

    #[test]
    fn preview_formatting() {
        let t = sample();
        let p = t.format_preview(2);
        assert!(p.contains("id | val | tag"));
        assert!(p.contains("3 rows total"));
    }

    #[test]
    fn push_row_extends_warm_encodings_instead_of_wiping_them() {
        let mut t = sample();
        // Warm two of the three columns.
        let id_before = t.encoded_column(0);
        let _ = t.encoded_column(2);
        assert_eq!(t.encoded_column_count(), 2);

        t.push_row(vec![Value::Int(2), Value::Float(9.5), Value::from("d")])
            .unwrap();

        // The cache survived ingest (regression: push_row used to reset
        // the whole cache) and each warm entry now covers the new row.
        assert_eq!(t.encoded_column_count(), 2);
        let id_after = t.encoded_column(0);
        assert_eq!(id_after.len(), 4);
        assert_eq!(id_after.codes(), DictColumn::build(t.column(0)).codes());
        let tag_after = t.encoded_column(2);
        assert_eq!(tag_after.len(), 4);
        assert_eq!(tag_after.codes(), DictColumn::build(t.column(2)).codes());
        // A pinned pre-ingest encoding is untouched (copy-on-write).
        assert_eq!(id_before.len(), 3);
    }

    #[test]
    fn push_row_extension_matches_rebuild_for_new_distinct_values() {
        let mut t = Table::from_int_columns("t", &[("k", vec![5, 7, 5])]).unwrap();
        let warm = t.encoded_column(0);
        assert_eq!(warm.dict_len(), 2);
        t.push_row(vec![Value::Int(11)]).unwrap();
        t.push_row(vec![Value::Int(7)]).unwrap();
        let extended = t.encoded_column(0);
        let rebuilt = DictColumn::build(t.column(0));
        assert_eq!(extended.codes(), rebuilt.codes());
        assert_eq!(extended.values(), rebuilt.values());
        assert_eq!(extended.code_of(&Value::Int(11)), Some(2));
    }

    #[test]
    fn append_rows_appends_the_whole_batch() {
        let mut t = sample();
        t.append_rows(vec![
            vec![Value::Int(4), Value::Float(4.5), Value::from("d")],
            vec![Value::Int(5), Value::Float(5.5), Value::from("e")],
        ])
        .unwrap();
        assert_eq!(t.num_rows(), 5);
        assert_eq!(
            t.row(4),
            vec![Value::Int(5), Value::Float(5.5), Value::from("e")]
        );
    }

    #[test]
    fn rejected_batch_leaves_table_and_encodings_untouched() {
        let mut t = sample();
        // Warm the cache, then keep a full "before" image.
        let _ = t.encoded_column(0);
        let _ = t.encoded_column(2);
        let before = t.clone();
        let warm_before = t.encoded_column_count();

        // Row 0 is valid, row 1 has a type error in its LAST column: an
        // eager implementation would have pushed row 0 and two of row 1's
        // values before noticing.
        let err = t.append_rows(vec![
            vec![Value::Int(4), Value::Float(4.5), Value::from("d")],
            vec![Value::Int(5), Value::Float(5.5), Value::Int(99)],
        ]);
        assert!(err.is_err());
        assert_eq!(t, before, "table mutated by a rejected batch");
        assert_eq!(t.encoded_column_count(), warm_before);
        assert_eq!(t.encoded_column(0).len(), 3);

        // Arity errors are rejected just as atomically.
        let err = t.append_rows(vec![
            vec![Value::Int(4), Value::Float(4.5), Value::from("d")],
            vec![Value::Int(5)],
        ]);
        assert!(err.is_err());
        assert_eq!(t, before);
    }

    #[test]
    fn push_row_mid_row_type_error_keeps_columns_even() {
        let mut t = sample();
        // Type error in the LAST column: every column must stay length 3.
        let err = t.push_row(vec![Value::Int(4), Value::Float(4.5), Value::Int(99)]);
        assert!(err.is_err());
        assert_eq!(t.num_rows(), 3);
        for i in 0..t.num_columns() {
            assert_eq!(t.column(i).len(), 3, "column {i} partially mutated");
        }
    }

    #[test]
    fn append_extends_warm_zone_maps_without_rebuild() {
        let mut t = Table::from_int_columns("t", &[("k", (0..10).collect())]).unwrap();
        t.set_chunk_rows(4);
        let pinned = t.zone_map(0);
        assert_eq!(pinned.chunk_count(), 3);
        assert_eq!(t.zone_map_build_count(), 1);

        // Append across the mutable tail and several chunk boundaries: the
        // warm map must stay correct WITHOUT a rebuild.
        t.append_rows((10..26).map(|v| vec![Value::Int(v)]).collect())
            .unwrap();
        assert_eq!(t.zone_map_build_count(), 1, "append rebuilt the zone map");
        assert_eq!(*t.zone_map(0), ColumnZones::build(t.column(0), 4));
        // The pre-append map pinned by a concurrent reader is untouched.
        assert_eq!(pinned.rows(), 10);

        // push_row maintains the tail the same way.
        t.push_row(vec![Value::Int(-7)]).unwrap();
        assert_eq!(t.zone_map_build_count(), 1);
        assert_eq!(*t.zone_map(0), ColumnZones::build(t.column(0), 4));
        assert_eq!(t.chunk_count(), 7);

        // Changing granularity discards warm maps (old boundaries).
        t.set_chunk_rows(8);
        assert_eq!(t.zone_map(0).chunk_count(), 4);
        assert_eq!(t.zone_map_build_count(), 2);
    }

    #[test]
    fn from_int_columns_helper() {
        let t = Table::from_int_columns("t", &[("x", vec![1, 2]), ("y", vec![3, 4])]).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.column_by_name("y").unwrap().as_i64().unwrap(), &[3, 4]);
    }
}

//! Named-table registry shared by the query engines.

use crate::stats::TableStats;
use crate::table::Table;
use std::collections::HashMap;
use std::sync::Arc;
use tcudb_types::{TcuError, TcuResult, Value};

/// A catalog of registered tables plus their statistics.
///
/// Every engine in the workspace (TCUDB, the YDB baseline, the CPU
/// baseline) executes queries against a `Catalog`, so the same data is
/// guaranteed to be visible to every engine in a comparison experiment.
///
/// Statistics are exact and are kept current along each table's lineage
/// rather than recomputed: [`Catalog::register`] pays one pass over the
/// table, [`Catalog::append_rows`] pays for the appended rows only.  What
/// the catalog stores — and what a snapshot of it shares — is the frozen
/// O(columns) [`TableStats`]; the accumulator behind it is writer-side
/// state parked on the newest table version.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: HashMap<String, Arc<Table>>,
    stats: HashMap<String, Arc<TableStats>>,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a table under its own name, computing its statistics
    /// (one full build; the accumulator is dropped, so a table that is
    /// never appended to carries nothing but the frozen numbers).
    /// Re-registering a name replaces the previous table.
    pub fn register(&mut self, table: Table) {
        let mut acc = table.stats_lineage().start_accumulator(&table);
        acc.extend(&table);
        let stats = acc.freeze(&table);
        self.insert(table, stats);
    }

    /// Append `rows` to the registered table `name`, replacing it with
    /// the extended version — the write half of a copy-on-write commit.
    ///
    /// Cost: one clone of the current version (a memcpy of its column
    /// vectors and warm dictionary codes; readers pinned to it keep it),
    /// then O(batch) — [`Table::append_row_slice`] extends warm encodings
    /// and zone maps in place, and the statistics accumulator is *moved*
    /// from the current version to the new one and folds in only the
    /// appended rows.  A version that holds no accumulator (freshly
    /// registered, recovered, forked, or left behind by a commit that was
    /// staged but never published) starts one here: a single full build,
    /// after which every further append to its successors is O(batch).
    ///
    /// The batch is validated before anything is taken or replaced: a
    /// rejected batch leaves the catalog and the current version's
    /// accumulator untouched.
    pub fn append_rows(&mut self, name: &str, rows: &[Vec<Value>]) -> TcuResult<()> {
        let base = self.table(name)?;
        let mut table = (*base).clone();
        table.append_row_slice(rows)?;
        let mut acc = base
            .stats_lineage()
            .take_accumulator()
            .unwrap_or_else(|| table.stats_lineage().start_accumulator(&table));
        acc.extend(&table);
        let stats = acc.freeze(&table);
        table.stats_lineage().park_accumulator(acc);
        self.insert(table, stats);
        Ok(())
    }

    fn insert(&mut self, table: Table, stats: TableStats) {
        let key = table.name().to_ascii_lowercase();
        self.tables.insert(key.clone(), Arc::new(table));
        self.stats.insert(key, Arc::new(stats));
    }

    /// Register a table under an explicit name.
    pub fn register_as(&mut self, name: &str, mut table: Table) {
        table.set_name(name);
        self.register(table);
    }

    /// Look up a table by name (case-insensitive).
    pub fn table(&self, name: &str) -> TcuResult<Arc<Table>> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| {
                TcuError::Analysis(format!(
                    "table '{name}' not found (registered: {})",
                    self.table_names().join(", ")
                ))
            })
    }

    /// Look up the statistics of a table by name.
    pub fn stats(&self, name: &str) -> TcuResult<Arc<TableStats>> {
        self.stats
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| TcuError::Analysis(format!("statistics for '{name}' not found")))
    }

    /// True if a table with this name is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_lowercase())
    }

    /// Remove a table, returning whether it existed.
    pub fn drop_table(&mut self, name: &str) -> bool {
        let key = name.to_ascii_lowercase();
        self.stats.remove(&key);
        self.tables.remove(&key).is_some()
    }

    /// Names of all registered tables (sorted for deterministic output).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total host-memory footprint of all registered tables.
    pub fn total_bytes(&self) -> usize {
        self.tables.values().map(|t| t.byte_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(name: &str) -> Table {
        Table::from_int_columns(name, &[("id", vec![1, 2, 3]), ("v", vec![7, 8, 9])]).unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let mut cat = Catalog::new();
        cat.register(small("A"));
        assert!(cat.contains("a"));
        assert!(cat.contains("A"));
        let t = cat.table("a").unwrap();
        assert_eq!(t.num_rows(), 3);
        assert!(cat.table("missing").is_err());
        assert_eq!(cat.len(), 1);
        assert!(!cat.is_empty());
    }

    #[test]
    fn stats_are_computed_on_registration() {
        let mut cat = Catalog::new();
        cat.register(small("A"));
        let s = cat.stats("a").unwrap();
        assert_eq!(s.row_count, 3);
        assert_eq!(s.column("id").unwrap().distinct_count, 3);
        assert!(cat.stats("missing").is_err());
    }

    #[test]
    fn register_as_renames() {
        let mut cat = Catalog::new();
        cat.register_as("renamed", small("orig"));
        assert!(cat.contains("renamed"));
        assert!(!cat.contains("orig"));
        assert_eq!(cat.table("renamed").unwrap().name(), "renamed");
    }

    #[test]
    fn drop_and_names() {
        let mut cat = Catalog::new();
        cat.register(small("b"));
        cat.register(small("a"));
        assert_eq!(cat.table_names(), vec!["a".to_string(), "b".to_string()]);
        assert!(cat.total_bytes() > 0);
        assert!(cat.drop_table("A"));
        assert!(!cat.drop_table("A"));
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn reregistration_replaces() {
        let mut cat = Catalog::new();
        cat.register(small("t"));
        let bigger =
            Table::from_int_columns("t", &[("id", vec![1, 2, 3, 4]), ("v", vec![1, 2, 3, 4])])
                .unwrap();
        cat.register(bigger);
        assert_eq!(cat.table("t").unwrap().num_rows(), 4);
        assert_eq!(cat.len(), 1);
    }
}

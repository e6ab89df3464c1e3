//! Dictionary encoding for key columns.
//!
//! The query-side data path (domain build, matrix scatter, hash joins)
//! used to re-hash a boxed [`Value`] per row on every query.  A
//! [`DictColumn`] is built **once** per `(table, column)` and cached on the
//! [`crate::Table`], after which every query over that column works on flat
//! `u32` codes: domains are unioned by remapping dictionary codes (hashing
//! only the distinct values, not the rows) and matrices are scattered by
//! array indexing with no `Value` materialisation at all.
//!
//! Codes are assigned in **first-row-seen order**, and two values share a
//! code exactly when their [`Value::group_key`]s are equal — the same
//! normalisation `Value` equality, hashing and the row-at-a-time
//! reference use — so domains built from codes reproduce `Value`-built
//! ones (and therefore their result ordering) bit for bit.

use crate::column::Column;
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;
use tcudb_types::sync::locked;
use tcudb_types::value::ValueKey;
use tcudb_types::Value;

/// A dictionary-encoded view of one column: per-row `u32` codes plus the
/// distinct values (and their normalised keys) in first-seen order.
#[derive(Debug, Clone, PartialEq)]
pub struct DictColumn {
    codes: Vec<u32>,
    keys: Vec<ValueKey>,
    values: Vec<Value>,
    /// Key → code, kept from the build so [`DictColumn::code_of`] is a
    /// hash lookup rather than a scan over the distinct values.
    index: HashMap<ValueKey, u32>,
}

impl DictColumn {
    /// Encode a column.  One hash lookup per row here buys zero hash
    /// lookups per row on every subsequent query over the column.
    pub fn build(col: &Column) -> DictColumn {
        match col {
            // Integer keys hash as plain `i64` (group_key of an Int is
            // always `ValueKey::Int`).
            Column::Int64(v) => {
                let mut seen: HashMap<i64, u32> = HashMap::new();
                let mut keys = Vec::new();
                let mut values = Vec::new();
                let codes = v
                    .iter()
                    .map(|&x| {
                        *seen.entry(x).or_insert_with(|| {
                            keys.push(ValueKey::Int(x));
                            values.push(Value::Int(x));
                            (keys.len() - 1) as u32
                        })
                    })
                    .collect();
                DictColumn::with_index(codes, keys, values)
            }
            // Strings hash by `&str` and are cloned once per distinct
            // value, never per row.
            Column::Text(v) => {
                let mut seen: HashMap<&str, u32> = HashMap::new();
                let mut keys = Vec::new();
                let mut values = Vec::new();
                let codes = v
                    .iter()
                    .map(|s| {
                        *seen.entry(s.as_str()).or_insert_with(|| {
                            keys.push(ValueKey::Text(s.clone()));
                            values.push(Value::Text(s.clone()));
                            (keys.len() - 1) as u32
                        })
                    })
                    .collect();
                DictColumn::with_index(codes, keys, values)
            }
            // Floats key by their group_key normalisation (integral floats
            // unify with Ints so INT⋈FLOAT joins keep working).
            Column::Float64(v) => {
                Self::from_value_iter(v.len(), v.iter().map(|&x| Value::Float(x)))
            }
        }
    }

    /// Encode an arbitrary value sequence (used for gathered intermediate
    /// key vectors and by tests; unlike base columns this may contain
    /// [`Value::Null`], which keys as [`ValueKey::Null`]).
    pub fn from_values(values: &[Value]) -> DictColumn {
        Self::from_value_iter(values.len(), values.iter().cloned())
    }

    fn from_value_iter(len: usize, iter: impl Iterator<Item = Value>) -> DictColumn {
        let mut index: HashMap<ValueKey, u32> = HashMap::new();
        let mut keys = Vec::new();
        let mut dict_values = Vec::new();
        let mut codes = Vec::with_capacity(len);
        for v in iter {
            let key = v.group_key();
            let code = *index.entry(key.clone()).or_insert_with(|| {
                keys.push(key);
                dict_values.push(v);
                (keys.len() - 1) as u32
            });
            codes.push(code);
        }
        DictColumn {
            codes,
            keys,
            values: dict_values,
            index,
        }
    }

    /// Assemble a dictionary, deriving the key→code index from `keys`
    /// (one hash insert per *distinct* value).
    fn with_index(codes: Vec<u32>, keys: Vec<ValueKey>, values: Vec<Value>) -> DictColumn {
        let index = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as u32))
            .collect();
        DictColumn {
            codes,
            keys,
            values,
            index,
        }
    }

    /// Per-row dictionary codes (one per source row).
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Number of source rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if the source column had no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of distinct values.
    pub fn dict_len(&self) -> usize {
        self.values.len()
    }

    /// The representative (first-seen) value of a code.
    pub fn value(&self, code: u32) -> &Value {
        &self.values[code as usize]
    }

    /// The normalised key of a code.
    pub fn key(&self, code: u32) -> &ValueKey {
        &self.keys[code as usize]
    }

    /// All distinct values in code order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The code of a value, if it occurs in the column.
    pub fn code_of(&self, value: &Value) -> Option<u32> {
        self.index.get(&value.group_key()).copied()
    }

    /// Append the rows `col[start..]` — how `Table::append_row_slice`
    /// keeps a warm encoding valid through ingest instead of discarding
    /// it.  Keys exactly like the build paths (`group_key` normalisation),
    /// so an incrementally extended dictionary is indistinguishable from
    /// one rebuilt from scratch over the longer column.  Reads the typed
    /// column slice directly: a `Value` is built only for a value the
    /// dictionary has not seen.
    pub fn extend_from_column(&mut self, col: &Column, start: usize) {
        match col {
            Column::Int64(v) => {
                for &x in v.get(start..).unwrap_or(&[]) {
                    self.push_keyed(ValueKey::Int(x), || Value::Int(x));
                }
            }
            Column::Float64(v) => {
                for &x in v.get(start..).unwrap_or(&[]) {
                    self.push_keyed(ValueKey::from_f64(x), || Value::Float(x));
                }
            }
            Column::Text(v) => {
                for s in v.get(start..).unwrap_or(&[]) {
                    self.push_keyed(ValueKey::Text(s.clone()), || Value::Text(s.clone()));
                }
            }
        }
    }

    fn push_keyed(&mut self, key: ValueKey, value: impl FnOnce() -> Value) {
        let code = match self.index.get(&key) {
            Some(&code) => code,
            None => {
                let code = self.keys.len() as u32;
                self.index.insert(key.clone(), code);
                self.keys.push(key);
                self.values.push(value());
                code
            }
        };
        self.codes.push(code);
    }

    /// Rank of each code in the dictionary's **sorted value order**
    /// (`ranks[code] = position of value(code) in ascending `sql_cmp`
    /// order`).  Lets MIN/MAX over a text column run as a segmented
    /// integer min/max over ranks — one string comparison per *distinct*
    /// value instead of one per row.
    pub fn ordered_ranks(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.values.len() as u32).collect();
        order.sort_by(|&a, &b| self.values[a as usize].sql_cmp(&self.values[b as usize]));
        let mut ranks = vec![0u32; self.values.len()];
        for (rank, &code) in order.iter().enumerate() {
            ranks[code as usize] = rank as u32;
        }
        ranks
    }
}

/// Lazy per-table cache of column encodings, keyed by column index.
///
/// Lives inside [`crate::Table`] behind a `Mutex` so a `&Table` (tables are
/// shared as `Arc<Table>` once registered in a catalog) can encode on first
/// use and hit the cache on every later query.  The cache is ignored by
/// `PartialEq` — two tables with the same data are equal regardless of
/// which columns happen to be encoded — and `Clone` carries the warm
/// entries over (they are `Arc`s, so this is cheap).
#[derive(Default)]
pub struct EncodingCache {
    inner: Mutex<HashMap<usize, std::sync::Arc<DictColumn>>>,
}

impl EncodingCache {
    /// The cached encoding of column `idx`, building it with `make` on the
    /// first request.
    pub fn get_or_build(
        &self,
        idx: usize,
        make: impl FnOnce() -> DictColumn,
    ) -> std::sync::Arc<DictColumn> {
        let mut map = locked(&self.inner);
        map.entry(idx)
            .or_insert_with(|| std::sync::Arc::new(make()))
            .clone()
    }

    /// Extend every warm entry with the rows `columns[idx][start..]`,
    /// keeping the cache valid through an append instead of invalidating
    /// it: one lock acquisition and one copy-on-write per warm column,
    /// however many rows the batch holds.
    ///
    /// Entries are copy-on-write: if a pinned snapshot still holds an
    /// `Arc` to the old encoding (covering the shorter column), that
    /// encoding is left untouched and this table gets an extended copy —
    /// [`std::sync::Arc::make_mut`] semantics.
    pub fn extend_from(&self, columns: &[Column], start: usize) {
        let mut map = locked(&self.inner);
        for (&idx, dict) in map.iter_mut() {
            if let Some(col) = columns.get(idx) {
                std::sync::Arc::make_mut(dict).extend_from_column(col, start);
            }
        }
    }

    /// Number of cached column encodings (telemetry / tests).
    pub fn len(&self) -> usize {
        locked(&self.inner).len()
    }

    /// True if no column has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Clone for EncodingCache {
    fn clone(&self) -> Self {
        EncodingCache {
            inner: Mutex::new(locked(&self.inner).clone()),
        }
    }
}

impl PartialEq for EncodingCache {
    fn eq(&self, _other: &Self) -> bool {
        // The cache is derived state; it never affects table equality.
        true
    }
}

impl fmt::Debug for EncodingCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EncodingCache({} columns)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcudb_types::DataType;

    #[test]
    fn int_encoding_first_seen_order() {
        let col = Column::Int64(vec![10, 20, 10, 30, 20]);
        let d = DictColumn::build(&col);
        assert_eq!(d.codes(), &[0, 1, 0, 2, 1]);
        assert_eq!(d.dict_len(), 3);
        assert_eq!(d.value(0), &Value::Int(10));
        assert_eq!(d.value(2), &Value::Int(30));
        assert_eq!(d.len(), 5);
        assert!(!d.is_empty());
        assert_eq!(d.code_of(&Value::Int(20)), Some(1));
        assert_eq!(d.code_of(&Value::Int(99)), None);
    }

    #[test]
    fn text_encoding_clones_once_per_distinct() {
        let col = Column::Text(vec!["x".into(), "y".into(), "x".into()]);
        let d = DictColumn::build(&col);
        assert_eq!(d.codes(), &[0, 1, 0]);
        assert_eq!(d.key(1), &ValueKey::Text("y".into()));
        assert_eq!(d.values().len(), 2);
    }

    #[test]
    fn float_encoding_normalises_integral_values() {
        let col = Column::Float64(vec![5.0, 5.5, 5.0]);
        let d = DictColumn::build(&col);
        assert_eq!(d.codes(), &[0, 1, 0]);
        // Integral floats unify with Int keys, matching Value::group_key.
        assert_eq!(d.key(0), &ValueKey::Int(5));
        assert_eq!(d.code_of(&Value::Int(5)), Some(0));
    }

    #[test]
    fn from_values_supports_null() {
        let d = DictColumn::from_values(&[Value::Int(1), Value::Null, Value::Null]);
        assert_eq!(d.codes(), &[0, 1, 1]);
        assert_eq!(d.key(1), &ValueKey::Null);
    }

    #[test]
    fn empty_column_encodes_empty() {
        let d = DictColumn::build(&Column::empty(DataType::Text));
        assert!(d.is_empty());
        assert_eq!(d.dict_len(), 0);
    }

    #[test]
    fn ordered_ranks_follow_sorted_value_order() {
        let col = Column::Text(vec!["b".into(), "a".into(), "c".into(), "a".into()]);
        let d = DictColumn::build(&col);
        // codes: b=0, a=1, c=2; ascending value order a < b < c.
        assert_eq!(d.ordered_ranks(), vec![1, 0, 2]);
        let ints = DictColumn::build(&Column::Int64(vec![30, 10, 20]));
        assert_eq!(ints.ordered_ranks(), vec![2, 0, 1]);
    }

    #[test]
    fn cache_builds_once_and_clones_warm() {
        let cache = EncodingCache::default();
        assert!(cache.is_empty());
        let col = Column::Int64(vec![1, 2, 1]);
        let mut built = 0;
        let a = cache.get_or_build(0, || {
            built += 1;
            DictColumn::build(&col)
        });
        let b = cache.get_or_build(0, || {
            built += 1;
            DictColumn::build(&col)
        });
        assert_eq!(built, 1);
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        let cloned = cache.clone();
        assert_eq!(cloned.len(), 1);
    }
}

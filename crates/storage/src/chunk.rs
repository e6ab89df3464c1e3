//! Partitioned column chunks and per-chunk min/max **zone maps**.
//!
//! Every [`Table`](crate::Table) is logically partitioned into fixed-size
//! row chunks of [`DEFAULT_CHUNK_ROWS`] rows (the same granularity the
//! durability layer uses when it slices large appends into WAL records and
//! seals columnar segments, so a sealed segment maps 1:1 onto a chunk).
//! For each `(column, chunk)` pair the zone map records the minimum and
//! maximum value in that chunk; a scan constrained by a range predicate —
//! a `FilterAtom` in the executor, or a semi-join key range pushed down
//! from an already-filtered join partner — can skip every chunk whose
//! bounds cannot intersect the constraint.
//!
//! Zone maps are *derived* state, exactly like the dictionary encodings in
//! [`EncodingCache`](crate::EncodingCache): built lazily per column,
//! cached on the table behind a mutex, excluded from table equality, and
//! extended **incrementally** by `push_row`/`append_rows` so the mutable
//! tail of an ingesting table never forces a full rebuild.
//!
//! Bounds are stored as `f64`. To stay *sound* for pruning (a pruned
//! chunk must be provably empty under the constraint) a chunk's entry is
//! recorded as unprunable (`None`) whenever exact `f64` bounds cannot be
//! guaranteed: text columns, chunks containing a NaN, and integers outside
//! the ±2⁵² range where `i64 → f64` conversion rounds.

use crate::column::Column;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use tcudb_types::sync::locked;

/// Default rows per chunk (64Ki) — matches the durability layer's append
/// slicing so sealed segments and zone-map chunks share boundaries.
pub const DEFAULT_CHUNK_ROWS: usize = 65_536;

/// Largest magnitude an `i64` may have while converting to `f64` exactly.
const EXACT_I64: i64 = 1 << 52;

/// Number of chunks covering `rows` rows at `chunk_rows` rows per chunk.
pub fn chunk_count(rows: usize, chunk_rows: usize) -> usize {
    rows.div_ceil(chunk_rows.max(1))
}

/// Half-open row range `[start, end)` of chunk `k`.
pub fn chunk_span(rows: usize, chunk_rows: usize, k: usize) -> (usize, usize) {
    let cr = chunk_rows.max(1);
    let start = k * cr;
    (start.min(rows), ((k + 1) * cr).min(rows))
}

/// Inclusive min/max bounds of one chunk of one column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneEntry {
    /// Smallest value in the chunk.
    pub min: f64,
    /// Largest value in the chunk.
    pub max: f64,
}

impl ZoneEntry {
    /// True if the chunk may contain a value in the inclusive `[lo, hi]`
    /// range (i.e. the zone intersects the constraint interval).
    pub fn may_intersect(&self, lo: f64, hi: f64) -> bool {
        self.max >= lo && self.min <= hi
    }
}

/// The zone map of one column: per-chunk min/max bounds.
///
/// `None` entries are **unprunable** — the chunk must always be scanned.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnZones {
    chunk_rows: usize,
    rows: usize,
    zones: Vec<Option<ZoneEntry>>,
}

/// Fold `x` into an optional zone entry (NaN poisons the entry).
fn fold(entry: &mut Option<ZoneEntry>, first: bool, x: f64) {
    if x.is_nan() {
        *entry = None;
        return;
    }
    if first {
        *entry = Some(ZoneEntry { min: x, max: x });
    } else if let Some(z) = entry {
        z.min = z.min.min(x);
        z.max = z.max.max(x);
    }
}

/// Exact `f64` image of an integer value, or `None` when it would round.
/// Public because scan pruning must apply the same soundness rule when it
/// derives constraint intervals from integer keys and literals.
pub fn int_bound(v: i64) -> Option<f64> {
    if (-EXACT_I64..=EXACT_I64).contains(&v) {
        Some(v as f64)
    } else {
        None
    }
}

impl ColumnZones {
    /// Build the zone map of `col` at `chunk_rows` rows per chunk.
    pub fn build(col: &Column, chunk_rows: usize) -> ColumnZones {
        let cr = chunk_rows.max(1);
        let rows = col.len();
        let n = chunk_count(rows, cr);
        let mut zones = Vec::with_capacity(n);
        for k in 0..n {
            let (start, end) = chunk_span(rows, cr, k);
            let mut entry = None;
            match col {
                Column::Int64(data) => {
                    for (i, v) in data[start..end].iter().enumerate() {
                        match int_bound(*v) {
                            Some(x) => fold(&mut entry, i == 0, x),
                            None => {
                                entry = None;
                                break;
                            }
                        }
                        if entry.is_none() {
                            break;
                        }
                    }
                }
                Column::Float64(data) => {
                    for (i, v) in data[start..end].iter().enumerate() {
                        fold(&mut entry, i == 0, *v);
                        if entry.is_none() {
                            break;
                        }
                    }
                }
                // Text chunks carry no numeric bounds.
                Column::Text(_) => {}
            }
            zones.push(entry);
        }
        ColumnZones {
            chunk_rows: cr,
            rows,
            zones,
        }
    }

    /// Rows per chunk this map was built at.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Rows covered by the map.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.zones.len()
    }

    /// Bounds of chunk `k`; `None` means the chunk is unprunable.
    pub fn bounds(&self, k: usize) -> Option<ZoneEntry> {
        self.zones.get(k).copied().flatten()
    }

    /// True if chunk `k` may contain a value in inclusive `[lo, hi]`.
    /// Unprunable and out-of-range chunks conservatively return true.
    pub fn may_intersect(&self, k: usize, lo: f64, hi: f64) -> bool {
        match self.zones.get(k) {
            Some(Some(z)) => z.may_intersect(lo, hi),
            _ => true,
        }
    }

    /// Extend the map with the rows `col[start..]` — the incremental-tail
    /// path appends use to keep warm zone maps correct without a rebuild.
    pub fn extend_from_column(&mut self, col: &Column, start: usize) {
        match col {
            Column::Int64(v) => {
                for &x in v.get(start..).unwrap_or(&[]) {
                    self.push_bound(int_bound(x));
                }
            }
            Column::Float64(v) => {
                for &x in v.get(start..).unwrap_or(&[]) {
                    self.push_bound(Some(x));
                }
            }
            // Text chunks carry no numeric bounds.
            Column::Text(v) => {
                for _ in v.get(start..).unwrap_or(&[]) {
                    self.push_bound(None);
                }
            }
        }
    }

    /// Fold one appended value's exact `f64` image into the tail chunk;
    /// `None` (no exact image) makes the chunk unprunable.
    fn push_bound(&mut self, bound: Option<f64>) {
        let k = self.rows / self.chunk_rows;
        let first = self.rows.is_multiple_of(self.chunk_rows);
        if first {
            debug_assert_eq!(k, self.zones.len(), "zone map lost sync with rows");
            self.zones.push(None);
        }
        let entry = &mut self.zones[k];
        match bound {
            Some(x) => fold(entry, first, x),
            None => *entry = None,
        }
        self.rows += 1;
    }
}

/// How many of `total` chunks a scan constrained by `(zones, lo, hi)`
/// pairs must still read. Used both by the executor's pruning pass and by
/// admission control's working-set pricing.
pub fn kept_chunks(total: usize, constraints: &[(&ColumnZones, f64, f64)]) -> usize {
    (0..total)
        .filter(|&k| {
            constraints
                .iter()
                .all(|(z, lo, hi)| z.may_intersect(k, *lo, *hi))
        })
        .count()
}

#[derive(Default)]
struct ZoneState {
    zones: HashMap<usize, Arc<ColumnZones>>,
    builds: u64,
}

/// Per-table cache of [`ColumnZones`], keyed by column index, plus the
/// table's chunking granularity. Mirrors [`EncodingCache`](crate::EncodingCache):
/// lazily built, copy-on-write extended on ingest, excluded from equality.
pub struct ZoneCache {
    chunk_rows: usize,
    // lint: leaf-lock held only to build or clone-extend the zone vectors
    // from plain column data; never calls out to code that takes locks
    inner: Mutex<ZoneState>,
}

impl ZoneCache {
    /// An empty cache at the given chunking granularity.
    pub fn new(chunk_rows: usize) -> ZoneCache {
        ZoneCache {
            chunk_rows: chunk_rows.max(1),
            inner: Mutex::new(ZoneState::default()),
        }
    }

    /// Rows per chunk.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Change the chunking granularity, discarding warm maps (they were
    /// built at the old boundaries).
    pub fn set_chunk_rows(&mut self, chunk_rows: usize) {
        self.chunk_rows = chunk_rows.max(1);
        let mut st = locked(&self.inner);
        st.zones.clear();
    }

    /// The zone map for column `idx`, building (and caching) on first use.
    pub fn get_or_build<F: FnOnce() -> ColumnZones>(
        &self,
        idx: usize,
        build: F,
    ) -> Arc<ColumnZones> {
        let mut st = locked(&self.inner);
        if let Some(z) = st.zones.get(&idx) {
            return Arc::clone(z);
        }
        let built = Arc::new(build());
        st.builds += 1;
        st.zones.insert(idx, Arc::clone(&built));
        built
    }

    /// Extend every *warm* zone map with the rows `columns[idx][start..]`
    /// (copy-on-write: maps pinned by concurrent readers are unaffected);
    /// one lock acquisition per batch.
    pub fn extend_from(&self, columns: &[Column], start: usize) {
        let mut st = locked(&self.inner);
        for (idx, z) in st.zones.iter_mut() {
            if let Some(col) = columns.get(*idx) {
                Arc::make_mut(z).extend_from_column(col, start);
            }
        }
    }

    /// Number of warm (cached) column zone maps.
    pub fn len(&self) -> usize {
        // `.keys().count()` rather than a nested `.len()` call: the
        // lock-order lint resolves same-named method calls made while
        // `inner` is held as potential re-entry into this function.
        locked(&self.inner).zones.keys().count()
    }

    /// True if no zone map has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many full builds the cache has performed — the regression hook
    /// proving ingest extends warm maps instead of rebuilding them.
    pub fn build_count(&self) -> u64 {
        locked(&self.inner).builds
    }
}

impl Clone for ZoneCache {
    fn clone(&self) -> Self {
        let st = locked(&self.inner);
        let zones = st.zones.iter().map(|(k, z)| (*k, Arc::clone(z))).collect();
        let builds = st.builds;
        drop(st);
        ZoneCache {
            chunk_rows: self.chunk_rows,
            inner: Mutex::new(ZoneState { zones, builds }),
        }
    }
}

impl PartialEq for ZoneCache {
    fn eq(&self, _other: &Self) -> bool {
        // Derived state: never affects table equality (chunking granularity
        // included — two tables with identical rows are equal regardless of
        // how they are partitioned).
        true
    }
}

impl fmt::Debug for ZoneCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ZoneCache({} rows/chunk, {} columns)",
            self.chunk_rows,
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_bounds_per_chunk() {
        let col = Column::Int64(vec![5, 1, 9, 100, 40, 60, 7]);
        let z = ColumnZones::build(&col, 3);
        assert_eq!(z.chunk_count(), 3);
        assert_eq!(z.bounds(0), Some(ZoneEntry { min: 1.0, max: 9.0 }));
        assert_eq!(
            z.bounds(1),
            Some(ZoneEntry {
                min: 40.0,
                max: 100.0
            })
        );
        assert_eq!(z.bounds(2), Some(ZoneEntry { min: 7.0, max: 7.0 }));
        assert!(z.may_intersect(0, 9.0, 20.0));
        assert!(!z.may_intersect(1, 0.0, 39.0));
        // Out-of-range chunks are conservatively scanned.
        assert!(z.may_intersect(99, 0.0, 0.0));
    }

    #[test]
    fn text_nan_and_huge_ints_are_unprunable() {
        let z = ColumnZones::build(&Column::Text(vec!["a".into(), "b".into()]), 8);
        assert_eq!(z.bounds(0), None);
        assert!(z.may_intersect(0, 1.0, 2.0));

        let z = ColumnZones::build(&Column::Float64(vec![1.0, f64::NAN, 3.0]), 8);
        assert_eq!(z.bounds(0), None);

        let z = ColumnZones::build(&Column::Int64(vec![1, i64::MAX]), 8);
        assert_eq!(z.bounds(0), None);
        // A clean chunk alongside a poisoned one still prunes.
        let z = ColumnZones::build(&Column::Int64(vec![i64::MAX, 5]), 1);
        assert_eq!(z.bounds(0), None);
        assert_eq!(z.bounds(1), Some(ZoneEntry { min: 5.0, max: 5.0 }));
    }

    #[test]
    fn incremental_push_matches_rebuild_across_boundaries() {
        let mut data = vec![3_i64, 8, 1];
        let col = Column::Int64(data.clone());
        let mut z = ColumnZones::build(&col, 2);
        data.extend([9_i64, -4, 2, 7]);
        let longer = Column::Int64(data);
        z.extend_from_column(&longer, 3);
        assert_eq!(z, ColumnZones::build(&longer, 2));
        assert_eq!(z.chunk_count(), 4);
    }

    #[test]
    fn kept_chunks_intersects_all_constraints() {
        let a = ColumnZones::build(&Column::Int64(vec![1, 2, 10, 20, 30, 40]), 2);
        let b = ColumnZones::build(&Column::Int64(vec![5, 5, 5, 5, 9, 9]), 2);
        // a-chunks: [1,2] [10,20] [30,40]; b-chunks: [5,5] [5,5] [9,9]
        assert_eq!(kept_chunks(3, &[(&a, 0.0, 15.0)]), 2);
        assert_eq!(kept_chunks(3, &[(&a, 0.0, 15.0), (&b, 9.0, 9.0)]), 0);
        assert_eq!(kept_chunks(3, &[]), 3);
    }

    #[test]
    fn cache_builds_once_and_extends_warm_maps() {
        let col = Column::Int64(vec![4, 6]);
        let cache = ZoneCache::new(2);
        let z = cache.get_or_build(0, || ColumnZones::build(&col, 2));
        assert_eq!(cache.build_count(), 1);
        let z2 = cache.get_or_build(0, || ColumnZones::build(&col, 2));
        assert!(Arc::ptr_eq(&z, &z2));
        cache.extend_from(&[Column::Int64(vec![4, 6, 99])], 2);
        // Pinned map unaffected; warm map extended without a rebuild.
        assert_eq!(z.rows(), 2);
        let z3 = cache.get_or_build(0, || unreachable!("warm map must not rebuild"));
        assert_eq!(z3.rows(), 3);
        assert_eq!(
            z3.bounds(1),
            Some(ZoneEntry {
                min: 99.0,
                max: 99.0
            })
        );
        assert_eq!(cache.build_count(), 1);
    }
}

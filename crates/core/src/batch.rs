//! Late-materialized tuple batches.
//!
//! Join intermediates travel as a [`TupleBatch`], the struct-of-arrays
//! form of a list of joined tuples: one flat `Vec<u32>` row-index column
//! per bound table, with no per-tuple allocation.  A join step is a
//! columnar gather (the star route instead appends whole tuples per morsel
//! and concatenates the morsels, `TupleBatch::concat`), the final remap
//! to bound-table order is a column permutation (O(tables) instead of
//! O(tuples·tables)), and the one finalize path
//! (`relops::finalize_output_columnar`) gathers typed columns directly.  Only its expression evaluator turns a tuple back
//! into row indices ([`TupleBatch::write_row`]), for expressions it must
//! interpret one tuple at a time.
//!
//! Row indices are `u32`: the storage layer addresses at most `u32::MAX`
//! rows per table (the SSB mini-scale generator tops out around 10⁶), and
//! halving the index width doubles the rows per cache line during the
//! gather-heavy finalize stage.

use tcudb_types::{TcuError, TcuResult};

/// Sentinel for "not yet assigned" slots in dense-id remap tables.
pub const NO_GROUP: u32 = u32::MAX;

/// A batch of joined tuples in struct-of-arrays layout: `cols[p][i]` is
/// the row index of slot `p`'s table for tuple `i`.  Which bound table a
/// slot refers to is tracked by the executor's join order until
/// [`TupleBatch::remap_slots`] rearranges the columns into bound-table
/// order.
#[derive(Debug, Clone, Default)]
pub struct TupleBatch {
    cols: Vec<Vec<u32>>,
    len: usize,
}

impl TupleBatch {
    /// A single-slot batch over the given row indices.
    pub fn from_rows(rows: &[usize]) -> TcuResult<TupleBatch> {
        let col = rows
            .iter()
            .map(|&r| {
                u32::try_from(r).map_err(|_| {
                    TcuError::Execution(format!("row index {r} exceeds the u32 batch index width"))
                })
            })
            .collect::<TcuResult<Vec<u32>>>()?;
        Ok(TupleBatch {
            len: col.len(),
            cols: vec![col],
        })
    }

    /// Build from row-oriented tuples (the reference representation).
    pub fn from_tuples(tuples: &[Vec<usize>], slots: usize) -> TcuResult<TupleBatch> {
        let mut cols = vec![Vec::with_capacity(tuples.len()); slots];
        for t in tuples {
            debug_assert_eq!(t.len(), slots);
            for (p, &r) in t.iter().enumerate() {
                cols[p].push(u32::try_from(r).map_err(|_| {
                    TcuError::Execution(format!("row index {r} exceeds the u32 batch index width"))
                })?);
            }
        }
        Ok(TupleBatch {
            cols,
            len: tuples.len(),
        })
    }

    /// Assemble a batch from per-morsel column sets — `slots` equal-length
    /// row-index columns each — concatenated in order into exact-capacity
    /// columns.
    pub(crate) fn concat(slots: usize, parts: Vec<Vec<Vec<u32>>>) -> TupleBatch {
        let len = parts.iter().map(|p| p.first().map_or(0, Vec::len)).sum();
        let mut cols: Vec<Vec<u32>> = (0..slots).map(|_| Vec::with_capacity(len)).collect();
        for part in parts {
            debug_assert_eq!(part.len(), slots);
            for (col, src) in cols.iter_mut().zip(part) {
                col.extend(src);
            }
        }
        TupleBatch { cols, len }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of table slots.
    pub fn num_slots(&self) -> usize {
        self.cols.len()
    }

    /// The row-index column of slot `p`.
    pub fn col(&self, p: usize) -> &[u32] {
        &self.cols[p]
    }

    /// Extend the batch through one join step: tuple `i` of the result is
    /// `self`'s tuple `pairs[i].0` plus row `right_rows[pairs[i].1]` in a
    /// new slot.  Pure columnar gathers — no per-tuple allocation.
    pub fn extend_join(
        &self,
        pairs: &[(usize, usize)],
        right_rows: &[usize],
    ) -> TcuResult<TupleBatch> {
        let mut cols = Vec::with_capacity(self.cols.len() + 1);
        for col in &self.cols {
            cols.push(pairs.iter().map(|&(li, _)| col[li]).collect());
        }
        let new_col = pairs
            .iter()
            .map(|&(_, rj)| {
                let r = right_rows[rj];
                u32::try_from(r).map_err(|_| {
                    TcuError::Execution(format!("row index {r} exceeds the u32 batch index width"))
                })
            })
            .collect::<TcuResult<Vec<u32>>>()?;
        cols.push(new_col);
        Ok(TupleBatch {
            cols,
            len: pairs.len(),
        })
    }

    /// Keep only the tuples at positions `keep` (in that order).
    pub fn select(&self, keep: &[u32]) -> TupleBatch {
        TupleBatch {
            cols: self
                .cols
                .iter()
                .map(|col| keep.iter().map(|&i| col[i as usize]).collect())
                .collect(),
            len: keep.len(),
        }
    }

    /// Permute the slot columns into bound-table order: slot `p` currently
    /// holds the table `slot_tables[p]`; afterwards column `t` holds table
    /// `t` (slots for tables absent from `slot_tables` are zero-filled,
    /// matching the old row remap).  O(slots) column moves, no per-tuple
    /// work.
    pub fn remap_slots(self, slot_tables: &[usize], num_tables: usize) -> TupleBatch {
        debug_assert_eq!(slot_tables.len(), self.cols.len());
        let len = self.len;
        let mut out: Vec<Vec<u32>> = (0..num_tables).map(|_| Vec::new()).collect();
        for (col, &t) in self.cols.into_iter().zip(slot_tables) {
            out[t] = col;
        }
        for col in &mut out {
            if col.is_empty() && len > 0 {
                *col = vec![0; len];
            }
        }
        TupleBatch { cols: out, len }
    }

    /// Materialise tuple `i` as row indices into `buf` (one per slot) —
    /// the bridge to the per-tuple expression interpreter.
    pub fn write_row(&self, i: usize, buf: &mut [usize]) {
        debug_assert_eq!(buf.len(), self.cols.len());
        for (slot, col) in buf.iter_mut().zip(&self.cols) {
            *slot = col[i] as usize;
        }
    }
}

/// Incremental dense group-id assignment in first-seen order.
///
/// Starts with every tuple in group 0 and folds key columns in one at a
/// time: after each [`GroupIds::compose`] call, two tuples share an id iff
/// they agreed on every key folded so far, and ids count up in order of
/// first appearance — exactly the group order of a row-at-a-time
/// aggregation with first-seen `HashMap` bookkeeping (the reference's),
/// but computed with array lookups (hashing at most once per *distinct*
/// combination, and only on the wide-key fallback).
#[derive(Debug, Clone)]
pub struct GroupIds {
    ids: Vec<u32>,
    groups: usize,
    /// First-seen tuple index per group (the representative whose key
    /// values the output row reports).
    representatives: Vec<u32>,
}

/// Absolute cap on the dense composition table (`current_groups ×
/// code_space` slots); beyond it — or when the table would dwarf the
/// batch itself (see [`GroupIds::compose`]) — fall back to hashing the
/// (id, code) pair: still one lookup per row, one insert per distinct
/// combination.
const DENSE_COMPOSE_LIMIT: usize = 1 << 24;

impl GroupIds {
    /// Every tuple starts in one implicit group (id 0).
    pub fn new(len: usize) -> GroupIds {
        GroupIds {
            ids: vec![0; len],
            groups: usize::from(len > 0),
            representatives: if len > 0 { vec![0] } else { Vec::new() },
        }
    }

    /// Fold one key column in: `codes[i]` is tuple `i`'s dictionary code,
    /// `code_space` the exclusive upper bound on codes.
    pub fn compose(&mut self, codes: &[u32], code_space: usize) {
        debug_assert_eq!(codes.len(), self.ids.len());
        let code_space = code_space.max(1);
        let mut next = 0u32;
        let mut reps = Vec::new();
        // Dense only when the remap table is proportionate to the batch:
        // `code_space` is the base column's full dictionary, so a small
        // filtered batch grouping on a high-cardinality key would
        // otherwise allocate and zero a table far larger than the data.
        let dense_budget = DENSE_COMPOSE_LIMIT.min(self.ids.len().saturating_mul(16) + 1024);
        if let Some(table_len) = self
            .groups
            .checked_mul(code_space)
            .filter(|&n| n <= dense_budget)
        {
            let mut table = vec![NO_GROUP; table_len];
            for (i, id) in self.ids.iter_mut().enumerate() {
                let slot = &mut table[*id as usize * code_space + codes[i] as usize];
                if *slot == NO_GROUP {
                    *slot = next;
                    reps.push(i as u32);
                    next += 1;
                }
                *id = *slot;
            }
        } else {
            let mut table: std::collections::HashMap<(u32, u32), u32> =
                std::collections::HashMap::new();
            for (i, id) in self.ids.iter_mut().enumerate() {
                let slot = table.entry((*id, codes[i])).or_insert_with(|| {
                    reps.push(i as u32);
                    let id = next;
                    next += 1;
                    id
                });
                *id = *slot;
            }
        }
        self.groups = next as usize;
        self.representatives = reps;
    }

    /// Dense group id per tuple.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Number of distinct groups seen.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// First-seen tuple index of each group, in id order.
    pub fn representatives(&self) -> &[u32] {
        &self.representatives
    }
}

#[cfg(test)]
impl TupleBatch {
    /// Convert back to row-oriented tuples.
    pub fn to_tuples(&self) -> Vec<Vec<usize>> {
        (0..self.len)
            .map(|i| self.cols.iter().map(|c| c[i] as usize).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_tuples_round_trips() {
        let tuples = vec![vec![1, 5], vec![2, 6], vec![3, 7]];
        let b = TupleBatch::from_tuples(&tuples, 2).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b.num_slots(), 2);
        assert_eq!(b.col(1), &[5, 6, 7]);
        assert_eq!(b.to_tuples(), tuples);
        assert!(!b.is_empty());
    }

    #[test]
    fn extend_join_gathers_columns() {
        let b = TupleBatch::from_rows(&[10, 11, 12]).unwrap();
        let pairs = vec![(0, 1), (2, 0), (2, 1)];
        let right_rows = vec![100, 200];
        let j = b.extend_join(&pairs, &right_rows).unwrap();
        assert_eq!(
            j.to_tuples(),
            vec![vec![10, 200], vec![12, 100], vec![12, 200]]
        );
    }

    #[test]
    fn concat_joins_morsel_columns_in_order() {
        let parts = vec![
            vec![vec![1, 2], vec![10, 20]],
            vec![vec![], vec![]],
            vec![vec![3], vec![30]],
        ];
        let b = TupleBatch::concat(2, parts);
        assert_eq!(b.to_tuples(), vec![vec![1, 10], vec![2, 20], vec![3, 30]]);
        assert!(TupleBatch::concat(2, Vec::new()).is_empty());
    }

    #[test]
    fn select_and_remap() {
        let b = TupleBatch::from_tuples(&[vec![1, 5], vec![2, 6], vec![3, 7]], 2).unwrap();
        let s = b.select(&[2, 0]);
        assert_eq!(s.to_tuples(), vec![vec![3, 7], vec![1, 5]]);
        // Slot 0 holds table 1, slot 1 holds table 0.
        let r = s.remap_slots(&[1, 0], 3);
        assert_eq!(r.to_tuples(), vec![vec![7, 3, 0], vec![5, 1, 0]]);
        let mut buf = [0usize; 3];
        r.write_row(1, &mut buf);
        assert_eq!(buf, [5, 1, 0]);
    }

    #[test]
    fn group_ids_first_seen_order() {
        // Keys: (a, x) (b, x) (a, y) (b, x) (a, x)
        let k1 = [0u32, 1, 0, 1, 0];
        let k2 = [0u32, 0, 1, 0, 0];
        let mut g = GroupIds::new(5);
        assert_eq!(g.groups(), 1);
        g.compose(&k1, 2);
        assert_eq!(g.ids(), &[0, 1, 0, 1, 0]);
        g.compose(&k2, 2);
        assert_eq!(g.ids(), &[0, 1, 2, 1, 0]);
        assert_eq!(g.groups(), 3);
        assert_eq!(g.representatives(), &[0, 1, 2]);
    }

    #[test]
    fn group_ids_hash_fallback_matches_dense() {
        let codes: Vec<u32> = (0..500).map(|i| (i * 37) % 91).collect();
        let mut dense = GroupIds::new(codes.len());
        dense.compose(&codes, 91);
        let mut sparse = GroupIds::new(codes.len());
        // Force the HashMap path with an absurd code space.
        sparse.compose(&codes, DENSE_COMPOSE_LIMIT + 1);
        assert_eq!(dense.ids(), sparse.ids());
        assert_eq!(dense.groups(), sparse.groups());
        assert_eq!(dense.representatives(), sparse.representatives());
    }

    #[test]
    fn empty_batches_and_groups() {
        let b = TupleBatch::from_rows(&[]).unwrap();
        assert!(b.is_empty());
        let g = GroupIds::new(0);
        assert_eq!(g.groups(), 0);
        assert!(g.representatives().is_empty());
    }
}

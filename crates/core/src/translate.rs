//! Table → matrix translation (§3.1–§3.4).
//!
//! The paper's code generator maps relational columns onto matrices over a
//! shared key domain:
//!
//! * a **one-hot matrix** `mat(A)` with `mat(A)[i][j] = 1` iff row `i`'s
//!   join key equals the `j`-th domain value (the natural-join encoding of
//!   §3.1),
//! * a **valued matrix** that stores the aggregated payload instead of a 1
//!   (the SUM/COUNT encodings of §3.3),
//! * an **adjacency matrix** over `(attribute domain × key domain)` (the
//!   alternative encoding of §3.1 and the group-by side `mat(B)` of §3.3),
//! * a **comparison matrix** with `mat(A)[i][j] = 1` iff
//!   `key_i <op> domain_j` (the non-equi joins of §3.4).
//!
//! Join operands are built from dictionary codes (the `*_encoded`
//! builders); of the `Value`-walking builders that remain,
//! [`adjacency_matrix`] serves the stand-alone Figure 5 operator in
//! `executor` and [`valued_matrix`] is the reference the encoded valued
//! builders are tested against.

use crate::context::compare;
use std::borrow::Cow;
use std::collections::HashMap;
use tcudb_sql::BinOp;
use tcudb_storage::{Column, DictColumn};
use tcudb_tensor::{CsrMatrix, DenseMatrix};
use tcudb_types::value::ValueKey;
use tcudb_types::{TcuResult, Value};

/// Sentinel in a code-remap table for a dictionary code that never occurs
/// in the selected rows (and therefore has no domain index).
pub const NO_INDEX: u32 = u32::MAX;

/// One side of an encoded domain build: a dictionary, the per-row codes in
/// that dictionary's space (usually [`DictColumn::codes`], but joins pass
/// gathered intermediate code vectors), and an optional row subset.
#[derive(Clone, Copy)]
pub struct EncodedSource<'a> {
    /// The dictionary the codes index into.
    pub dict: &'a DictColumn,
    /// Per-row codes.
    pub codes: &'a [u32],
    /// Row subset (`None` = every row), indices into `codes`.
    pub rows: Option<&'a [usize]>,
}

impl<'a> EncodedSource<'a> {
    /// A source covering a whole encoded column.
    pub fn whole(dict: &'a DictColumn) -> EncodedSource<'a> {
        EncodedSource {
            dict,
            codes: dict.codes(),
            rows: None,
        }
    }

    /// A source over a row subset of an encoded column.
    pub fn subset(dict: &'a DictColumn, rows: &'a [usize]) -> EncodedSource<'a> {
        EncodedSource {
            dict,
            codes: dict.codes(),
            rows: Some(rows),
        }
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.rows.map_or(self.codes.len(), <[usize]>::len)
    }

    /// True if no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn for_each_code(&self, mut f: impl FnMut(u32)) {
        match self.rows {
            Some(rows) => {
                for &r in rows {
                    f(self.codes[r]);
                }
            }
            None => {
                for &c in self.codes {
                    f(c);
                }
            }
        }
    }
}

/// A dictionary over the distinct values of one or more join-key columns:
/// `dom(A.ID) ∪ dom(B.ID)` in the paper's notation.
#[derive(Debug, Clone, Default)]
pub struct Domain {
    index: HashMap<ValueKey, usize>,
    values: Vec<Value>,
}

impl Domain {
    /// Build the union domain over the given `(column, row subset)` pairs.
    /// Passing `None` as the row subset uses every row.  Values are indexed
    /// in first-seen order, which also preserves any pre-sorted input order
    /// (the ORDER BY trick of §3.4).
    pub fn build(sources: &[(&Column, Option<&[usize]>)]) -> Domain {
        let mut dom = Domain::default();
        for (col, rows) in sources {
            match rows {
                Some(rows) => {
                    for &r in rows.iter() {
                        dom.insert(col.value(r));
                    }
                }
                None => {
                    for r in 0..col.len() {
                        dom.insert(col.value(r));
                    }
                }
            }
        }
        dom
    }

    /// Build the union domain from dictionary-encoded sources, returning
    /// the domain plus one code-remap table per source
    /// (`remap[dict code] → domain index`, [`NO_INDEX`] for codes that
    /// never occur in the selected rows).
    ///
    /// This is the fast path of the encoded data path: rows cost one array
    /// read and branch each; hashing happens only once per *distinct*
    /// value per source.  Domain order is identical to [`Domain::build`]
    /// over the same rows (first-seen order under `group_key`
    /// normalisation), so downstream matrix layouts — and therefore result
    /// row order — match the `Value`-based path exactly.
    pub fn build_encoded(sources: &[EncodedSource<'_>]) -> (Domain, Vec<Vec<u32>>) {
        let mut dom = Domain::default();
        let mut maps = Vec::with_capacity(sources.len());
        for src in sources {
            let mut map = vec![NO_INDEX; src.dict.dict_len()];
            src.for_each_code(|code| {
                let slot = &mut map[code as usize];
                if *slot == NO_INDEX {
                    let idx = dom.insert(src.dict.value(code).clone());
                    debug_assert!(idx < NO_INDEX as usize, "domain exceeds u32 code space");
                    *slot = idx as u32;
                }
            });
            maps.push(map);
        }
        (dom, maps)
    }

    /// Insert a value, returning its index.
    pub fn insert(&mut self, value: Value) -> usize {
        let key = value.group_key();
        if let Some(&idx) = self.index.get(&key) {
            return idx;
        }
        let idx = self.values.len();
        self.index.insert(key, idx);
        self.values.push(value);
        idx
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Index of a value, if present.
    pub fn index_of(&self, value: &Value) -> Option<usize> {
        self.index.get(&value.group_key()).copied()
    }

    /// The value at a given index.
    pub fn value_at(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// All values in index order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }
}

/// Row selection helper: the row indices to visit.  An explicit subset is
/// borrowed as-is (zero-copy); only the "all rows" case materialises the
/// identity vector.
fn selected_rows<'a>(col: &Column, rows: Option<&'a [usize]>) -> Cow<'a, [usize]> {
    match rows {
        Some(r) => Cow::Borrowed(r),
        None => Cow::Owned((0..col.len()).collect()),
    }
}

/// Build the valued matrix of §3.3: one row per (selected) table row, one
/// column per domain value; the non-zero entry carries the row's payload
/// value (`a_i.Val` for SUM, 1 for COUNT).
pub fn valued_matrix(
    key_col: &Column,
    payload: &[f64],
    rows: Option<&[usize]>,
    domain: &Domain,
) -> DenseMatrix {
    let rows = selected_rows(key_col, rows);
    let mut m = DenseMatrix::zeros(rows.len(), domain.len());
    for (i, &r) in rows.iter().enumerate() {
        if let Some(j) = domain.index_of(&key_col.value(r)) {
            m.set(i, j, payload[i] as f32);
        }
    }
    m
}

/// Build the adjacency matrix of §3.1/§3.3: one row per distinct value of
/// `row_col` (its domain is given by `row_domain`), one column per key
/// domain value; entry `(i, j)` is the payload (or 1) when some selected
/// table row has `row_col = row_domain[i]` and `key_col = domain[j]`.
/// Multiple matching rows accumulate, which is exactly the behaviour needed
/// for aggregates.
pub fn adjacency_matrix(
    row_col: &Column,
    key_col: &Column,
    payload: Option<&[f64]>,
    rows: Option<&[usize]>,
    row_domain: &Domain,
    key_domain: &Domain,
) -> DenseMatrix {
    let rows = selected_rows(key_col, rows);
    let mut m = DenseMatrix::zeros(row_domain.len(), key_domain.len());
    for (pos, &r) in rows.iter().enumerate() {
        let ri = row_domain.index_of(&row_col.value(r));
        let kj = key_domain.index_of(&key_col.value(r));
        if let (Some(i), Some(j)) = (ri, kj) {
            let v = payload.map(|p| p[pos]).unwrap_or(1.0);
            m.add_to(i, j, v as f32);
        }
    }
    m
}

// ---------------------------------------------------------------------
// Encoded builders: scatter dictionary codes through a remap table with
// no `Value` materialisation and no per-element hash lookup.  The
// `Value`-walking one-hot / CSR / comparison builders they are tested
// against live in the dev-only `tcudb-reference` crate.
// ---------------------------------------------------------------------

impl EncodedSource<'_> {
    /// The dictionary code of the `pos`-th selected row.
    #[inline]
    pub fn code_at(&self, pos: usize) -> u32 {
        match self.rows {
            Some(rows) => self.codes[rows[pos]],
            None => self.codes[pos],
        }
    }
}

/// The one-hot join matrix of §3.1: one row per selected table row, one
/// column per domain value, 1 where the key matches — one array read and
/// one store per row.
pub fn one_hot_matrix_encoded(
    src: &EncodedSource<'_>,
    remap: &[u32],
    domain_len: usize,
) -> DenseMatrix {
    let n = src.len();
    let mut m = DenseMatrix::zeros(n, domain_len);
    for i in 0..n {
        let j = remap[src.code_at(i) as usize];
        if j != NO_INDEX {
            m.row_mut(i)[j as usize] = 1.0;
        }
    }
    m
}

/// Encoded [`valued_matrix`].
pub fn valued_matrix_encoded(
    src: &EncodedSource<'_>,
    payload: &[f64],
    remap: &[u32],
    domain_len: usize,
) -> DenseMatrix {
    let n = src.len();
    let mut m = DenseMatrix::zeros(n, domain_len);
    for i in 0..n {
        let j = remap[src.code_at(i) as usize];
        if j != NO_INDEX {
            m.row_mut(i)[j as usize] = payload[i] as f32;
        }
    }
    m
}

/// Encoded [`adjacency_matrix`].  `row_src` and `key_src` must select the
/// same rows (they come from the same table).
pub fn adjacency_matrix_encoded(
    row_src: &EncodedSource<'_>,
    row_remap: &[u32],
    row_domain_len: usize,
    key_src: &EncodedSource<'_>,
    key_remap: &[u32],
    key_domain_len: usize,
    payload: Option<&[f64]>,
) -> DenseMatrix {
    debug_assert_eq!(row_src.len(), key_src.len());
    let n = key_src.len();
    let mut m = DenseMatrix::zeros(row_domain_len, key_domain_len);
    for pos in 0..n {
        let i = row_remap[row_src.code_at(pos) as usize];
        let j = key_remap[key_src.code_at(pos) as usize];
        if i != NO_INDEX && j != NO_INDEX {
            let v = payload.map(|p| p[pos]).unwrap_or(1.0);
            m.add_to(i as usize, j as usize, v as f32);
        }
    }
    m
}

/// The comparison matrix of §3.4 for non-equi joins: entry `(i, j)` is 1
/// when `key_i <op> domain_j` holds.  The comparison row of each *distinct*
/// key is computed once against the domain and then copied per row, so
/// duplicated keys cost a `memcpy` instead of `len(domain)` comparisons.
pub fn comparison_matrix_encoded(
    src: &EncodedSource<'_>,
    domain: &Domain,
    op: BinOp,
) -> TcuResult<DenseMatrix> {
    let n = src.len();
    let mut m = DenseMatrix::zeros(n, domain.len());
    let mut patterns: Vec<Option<Box<[f32]>>> = vec![None; src.dict.dict_len()];
    for i in 0..n {
        let code = src.code_at(i) as usize;
        if patterns[code].is_none() {
            let key = src.dict.value(code as u32);
            let mut row = vec![0.0f32; domain.len()];
            for (j, slot) in row.iter_mut().enumerate() {
                if compare(key, op, domain.value_at(j))? {
                    *slot = 1.0;
                }
            }
            patterns[code] = Some(row.into_boxed_slice());
        }
        m.row_mut(i)
            .copy_from_slice(patterns[code].as_deref().expect("pattern just built"));
    }
    Ok(m)
}

/// Sparse (CSR) form of [`one_hot_matrix_encoded`], used by the TCU-SpMM
/// plan so the dense matrix never has to be materialised.
pub fn one_hot_csr_encoded(
    src: &EncodedSource<'_>,
    remap: &[u32],
    domain_len: usize,
) -> TcuResult<CsrMatrix> {
    let n = src.len();
    let mut triplets = Vec::with_capacity(n);
    for i in 0..n {
        let j = remap[src.code_at(i) as usize];
        if j != NO_INDEX {
            triplets.push((i, j as usize, 1.0f32));
        }
    }
    CsrMatrix::from_triplets(n, domain_len, &triplets)
}

/// Sparse (CSR) form of [`valued_matrix_encoded`].
pub fn valued_csr_encoded(
    src: &EncodedSource<'_>,
    payload: &[f64],
    remap: &[u32],
    domain_len: usize,
) -> TcuResult<CsrMatrix> {
    let n = src.len();
    let mut triplets = Vec::with_capacity(n);
    for i in 0..n {
        let j = remap[src.code_at(i) as usize];
        if j != NO_INDEX {
            triplets.push((i, j as usize, payload[i] as f32));
        }
    }
    CsrMatrix::from_triplets(n, domain_len, &triplets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_col() -> Column {
        Column::Int64(vec![10, 20, 10, 30])
    }

    #[test]
    fn domain_union_and_lookup() {
        let a = Column::Int64(vec![1, 2, 2]);
        let b = Column::Int64(vec![2, 3]);
        let dom = Domain::build(&[(&a, None), (&b, None)]);
        assert_eq!(dom.len(), 3);
        assert_eq!(dom.index_of(&Value::Int(3)), Some(2));
        assert_eq!(dom.index_of(&Value::Int(9)), None);
        assert_eq!(dom.value_at(0), &Value::Int(1));
        assert!(!dom.is_empty());
        assert_eq!(dom.values().len(), 3);
    }

    #[test]
    fn domain_respects_row_subsets() {
        let a = Column::Int64(vec![1, 2, 3, 4]);
        let dom = Domain::build(&[(&a, Some(&[0, 2]))]);
        assert_eq!(dom.len(), 2);
        assert!(dom.index_of(&Value::Int(2)).is_none());
    }

    #[test]
    fn one_hot_has_single_one_per_row() {
        let dict = DictColumn::build(&key_col());
        let src = EncodedSource::whole(&dict);
        let (dom, maps) = Domain::build_encoded(&[src]);
        let m = one_hot_matrix_encoded(&src, &maps[0], dom.len());
        assert_eq!((m.rows(), m.cols()), (4, 3));
        for i in 0..4 {
            assert_eq!(m.row(i).iter().sum::<f32>(), 1.0);
        }
        // Row 0 and row 2 share key 10 → same column set.
        assert_eq!(m.row(0), m.row(2));
    }

    #[test]
    fn valued_matrix_carries_payload() {
        let col = key_col();
        let dom = Domain::build(&[(&col, None)]);
        let m = valued_matrix(&col, &[1.5, 2.5, 3.5, 4.5], None, &dom);
        assert_eq!(m.row(0).iter().sum::<f32>(), 1.5);
        assert_eq!(m.row(3).iter().sum::<f32>(), 4.5);
    }

    #[test]
    fn adjacency_accumulates_duplicates() {
        // B(Val, ID): Val is the group attribute, ID the join key.
        let group = Column::Int64(vec![7, 7, 8]);
        let key = Column::Int64(vec![1, 1, 2]);
        let gdom = Domain::build(&[(&group, None)]);
        let kdom = Domain::build(&[(&key, None)]);
        let m = adjacency_matrix(&group, &key, None, None, &gdom, &kdom);
        // group 7 / key 1 appears twice.
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(1, 1), 1.0);
        let valued = adjacency_matrix(&group, &key, Some(&[5.0, 6.0, 7.0]), None, &gdom, &kdom);
        assert_eq!(valued.get(0, 0), 11.0);
    }

    #[test]
    fn comparison_matrix_lt() {
        let dict = DictColumn::build(&Column::Int64(vec![1, 2]));
        let src = EncodedSource::whole(&dict);
        let dom = Domain::build(&[(&Column::Int64(vec![1, 2, 3]), None)]);
        let m = comparison_matrix_encoded(&src, &dom, BinOp::Lt).unwrap();
        // key 1 < {2,3}; key 2 < {3}.
        assert_eq!(m.row(0), &[0.0, 1.0, 1.0]);
        assert_eq!(m.row(1), &[0.0, 0.0, 1.0]);
        let ne = comparison_matrix_encoded(&src, &dom, BinOp::NotEq).unwrap();
        assert_eq!(ne.row(0), &[0.0, 1.0, 1.0]);
        assert!(comparison_matrix_encoded(&src, &dom, BinOp::Add).is_err());
    }

    #[test]
    fn csr_builders_match_dense_and_respect_subsets() {
        let col = key_col();
        let dict = DictColumn::build(&col);
        let rows = [3usize, 0, 2];
        for subset in [None, Some(&rows[..])] {
            let src = EncodedSource {
                dict: &dict,
                codes: dict.codes(),
                rows: subset,
            };
            let (dom, maps) = Domain::build_encoded(&[src]);
            assert_eq!(dom.values(), Domain::build(&[(&col, subset)]).values());
            let remap = &maps[0];
            let dense = one_hot_matrix_encoded(&src, remap, dom.len());
            let sparse = one_hot_csr_encoded(&src, remap, dom.len()).unwrap();
            assert_eq!(sparse.to_dense(), dense);

            let payload: Vec<f64> = (0..src.len()).map(|i| i as f64 + 0.5).collect();
            let vd = valued_matrix_encoded(&src, &payload, remap, dom.len());
            assert_eq!(vd, valued_matrix(&col, &payload, subset, &dom));
            let vs = valued_csr_encoded(&src, &payload, remap, dom.len()).unwrap();
            assert_eq!(vs.to_dense(), vd);
        }
    }

    #[test]
    fn encoded_domain_matches_value_domain() {
        let a = Column::Int64(vec![1, 2, 2, 5]);
        let b = Column::Float64(vec![2.0, 3.5, 1.0]);
        let expected = Domain::build(&[(&a, Some(&[0, 1, 2])), (&b, None)]);
        let da = DictColumn::build(&a);
        let db = DictColumn::build(&b);
        let rows = [0usize, 1, 2];
        let (dom, maps) =
            Domain::build_encoded(&[EncodedSource::subset(&da, &rows), EncodedSource::whole(&db)]);
        assert_eq!(dom.values(), expected.values());
        // Remap tables agree with index_of; unseen codes stay NO_INDEX.
        for (code, v) in da.values().iter().enumerate() {
            let want = if v == &Value::Int(5) {
                NO_INDEX
            } else {
                dom.index_of(v).unwrap() as u32
            };
            assert_eq!(maps[0][code], want);
        }
        for (code, v) in db.values().iter().enumerate() {
            assert_eq!(maps[1][code], dom.index_of(v).unwrap() as u32);
        }
    }

    #[test]
    fn encoded_adjacency_matches() {
        let group = Column::Int64(vec![7, 7, 8]);
        let key = Column::Int64(vec![1, 1, 2]);
        let gdom = Domain::build(&[(&group, None)]);
        let kdom = Domain::build(&[(&key, None)]);
        let gd = DictColumn::build(&group);
        let kd = DictColumn::build(&key);
        let (egdom, gmaps) = Domain::build_encoded(&[EncodedSource::whole(&gd)]);
        let (ekdom, kmaps) = Domain::build_encoded(&[EncodedSource::whole(&kd)]);
        assert_eq!(egdom.values(), gdom.values());
        assert_eq!(ekdom.values(), kdom.values());
        let got = adjacency_matrix_encoded(
            &EncodedSource::whole(&gd),
            &gmaps[0],
            gdom.len(),
            &EncodedSource::whole(&kd),
            &kmaps[0],
            kdom.len(),
            Some(&[5.0, 6.0, 7.0]),
        );
        let want = adjacency_matrix(&group, &key, Some(&[5.0, 6.0, 7.0]), None, &gdom, &kdom);
        assert_eq!(got, want);
    }

    #[test]
    fn text_keys_work() {
        let dict = DictColumn::build(&Column::Text(vec!["x".into(), "y".into(), "x".into()]));
        let src = EncodedSource::whole(&dict);
        let (dom, maps) = Domain::build_encoded(&[src]);
        assert_eq!(dom.len(), 2);
        let m = one_hot_matrix_encoded(&src, &maps[0], dom.len());
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(2, 0), 1.0);
        assert_eq!(m.get(1, 1), 1.0);
    }
}

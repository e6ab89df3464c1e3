//! The join pipeline — written once, driven by every engine.
//!
//! TCUDB, the YDB baseline and the CPU baseline walk a query's join graph
//! identically: pick a join order, orient each step's predicate, gather
//! the dictionary codes of both key columns, union them into one
//! [`Domain`], obtain the step's matching pairs, extend the
//! late-materialized [`TupleBatch`], re-check composite keys, and finally
//! hand the batch (in bound-table order) to the output stage.  The engines
//! differ only in *policy* — which operator computes a step's pairs and
//! what it is charged — so [`join`] takes that policy as a callback over
//! one [`JoinStep`] and owns everything around it, and [`finish`] applies
//! `count_only` or the columnar finalize for all of them.
//!
//! ### The star route
//!
//! [`star_join`] is TCUDB's second way to the same [`TupleBatch`], for a
//! join graph that is a star with unique dimension keys: every predicate
//! is `=` between the root of [`join_order`] and one other table, each
//! other table appears in exactly one predicate, and no two surviving rows
//! of a dimension match the same root key.  Each dimension becomes one
//! lookup array indexed by the dictionary code of the root's foreign-key
//! column (the one-hot dimension matrix of the paper's Lemma 3.1, stored
//! as its index vector), and one morsel-parallel pass over the root's
//! surviving rows walks the dimensions in join order and keeps the rows
//! that find a match in every one — no pairs, no [`Domain`], no
//! intermediate batches.  The pass also reports every step's exact
//! [`StepShape`], equal to what [`join`] would observe, so the executor
//! plans and charges both routes identically.  Tuples come out in root
//! row order.

use crate::analyzer::AnalyzedQuery;
use crate::batch::TupleBatch;
use crate::context::compare;
use crate::relops::{self, FinalizeOptions, FinalizeReport};
use crate::translate::{Domain, EncodedSource};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tcudb_sql::BinOp;
use tcudb_storage::{Column, DictColumn, Table, DEFAULT_CHUNK_ROWS};
use tcudb_types::sync::QueryContext;
use tcudb_types::{MorselRun, TcuError, TcuResult, Value, WorkerPool};

/// One step of the join loop, as the driver hands it to an engine's
/// policy: the already-joined tuples on the left, the surviving rows of
/// the table being added on the right.
pub struct JoinStep<'a> {
    /// Bindings of the joined-side table and of the table being added.
    pub bindings: (&'a str, &'a str),
    /// Key column names, joined side first.
    pub cols: (&'a str, &'a str),
    /// The predicate's operator, oriented `joined-side <op> new-side`.
    pub op: BinOp,
    /// Joined-side keys: one dictionary code per tuple of the batch.
    pub left: EncodedSource<'a>,
    /// New-side keys: the surviving rows of the table being added.
    pub right: EncodedSource<'a>,
    /// Union of both sides' keys.
    pub domain: &'a Domain,
    /// `dictionary code → domain index` per side.
    pub remaps: (&'a [u32], &'a [u32]),
    /// The joined side's base key column and each tuple's row in it, for
    /// the typed comparison kernels of non-equi steps.
    pub left_keys: (&'a Column, &'a [u32]),
    /// The new side's base key column and its surviving rows.
    pub right_keys: (&'a Column, &'a [usize]),
    /// Is this the last step of the query?
    pub last: bool,
}

/// The exact operand shape of one join step: the tuples entering it, the
/// surviving rows of the table it adds, the size of the union key domain,
/// and the tuples leaving it.  Both join routes report it, so a step is
/// planned and charged the same whichever route computed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepShape {
    /// Tuples entering the step (`JoinStep::left`).
    pub m: usize,
    /// Surviving rows of the table being added (`JoinStep::right`).
    pub n: usize,
    /// Size of the union key domain (`JoinStep::domain`).
    pub k: usize,
    /// Tuples leaving the step: its matching pairs.
    pub out: usize,
}

impl JoinStep<'_> {
    /// The step's shape, given how many pairs it produced.
    pub fn shape(&self, out: usize) -> StepShape {
        StepShape {
            m: self.left.len(),
            n: self.right.len(),
            k: self.domain.len(),
            out,
        }
    }

    /// The step's matching `(left position, right position)` pairs through
    /// the host operators: the code-bucket join for `=` (probe morsels on
    /// up to `threads` pool threads), the sorted/nested comparison join
    /// otherwise.  Every engine's fallback — and the baselines' only —
    /// way to compute a step.
    pub fn host_pairs(&self, threads: usize) -> TcuResult<(Vec<(usize, usize)>, MorselRun)> {
        if self.op == BinOp::Eq {
            return Ok(relops::join_pairs_by_code(
                &self.left,
                self.remaps.0,
                &self.right,
                self.remaps.1,
                self.domain.len(),
                threads,
                tcudb_storage::DEFAULT_CHUNK_ROWS,
            ));
        }
        let ((lcol, lrows), (rcol, rrows)) = (self.left_keys, self.right_keys);
        let pairs = relops::nonequi_join_pairs(lcol, lrows, rcol, rrows, self.op)?;
        Ok((pairs, MorselRun::default()))
    }
}

/// Join the per-table `surviving` row sets along the query's join graph,
/// calling `step` once per join step for its matching pairs.  Returns the
/// joined tuples with one slot per bound table, in bound-table order (a
/// single-table query is its surviving rows).
///
/// `ctx` is probed before every step: a multi-way join abandons its
/// remaining steps as soon as the query is cancelled or past deadline.
pub fn join(
    analyzed: &AnalyzedQuery,
    surviving: &[Vec<usize>],
    ctx: &QueryContext,
    mut step: impl FnMut(&JoinStep<'_>) -> TcuResult<Vec<(usize, usize)>>,
) -> TcuResult<TupleBatch> {
    let order = join_order(analyzed)?;
    // The batch holds one row-index column per *joined* table (in `joined`
    // order); the columns are permuted into bound-table order at the end.
    let mut joined = vec![order[0]];
    let mut batch = TupleBatch::from_rows(&surviving[order[0]])?;
    for &next in &order[1..] {
        ctx.check()?;
        // The first predicate connecting `next` to the joined set keys the
        // step; written `left <op> right`, it flips when the joined side
        // is its right operand.
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
            .ok_or_else(|| {
                TcuError::Plan(format!(
                    "table '{}' is not connected to the join graph",
                    analyzed.tables[next].binding
                ))
            })?;
        let (joined_table, joined_ci) = key_column(analyzed, joined_key)?;
        let (new_table, new_ci) = key_column(analyzed, new_key)?;
        let joined_pos = joined
            .iter()
            .position(|&t| t == joined_key.0)
            .expect("the step's predicate was chosen for its joined side");
        let (left_rows, right_rows) = (batch.col(joined_pos), &surviving[next]);

        // Dictionary codes end to end: the base columns' dictionaries are
        // cached on the tables and the domain union works on code-remap
        // tables — no per-row `Value`s.
        let joined_dict = joined_table.encoded_column(joined_ci);
        let new_dict = new_table.encoded_column(new_ci);
        let left_codes: Vec<u32> = left_rows
            .iter()
            .map(|&r| joined_dict.codes()[r as usize])
            .collect();
        let left = EncodedSource {
            dict: &joined_dict,
            codes: &left_codes,
            rows: None,
        };
        let right = EncodedSource::subset(&new_dict, right_rows);
        let (domain, maps) = Domain::build_encoded(&[left, right]);
        let pairs = step(&JoinStep {
            bindings: (
                &analyzed.tables[joined_key.0].binding,
                &analyzed.tables[next].binding,
            ),
            cols: (&joined_key.1, &new_key.1),
            op,
            left,
            right,
            domain: &domain,
            remaps: (&maps[0], &maps[1]),
            left_keys: (joined_table.column(joined_ci), left_rows),
            right_keys: (new_table.column(new_ci), right_rows),
            last: joined.len() + 1 == order.len(),
        })?;

        // Columnar gathers, no per-tuple allocation; then any *additional*
        // predicates between already-joined tables (composite keys).
        joined.push(next);
        batch = batch.extend_join(&pairs, right_rows)?;
        batch = filter_by_extra_joins(analyzed, &joined, batch)?;
    }
    // A column permutation — O(tables), not O(tuples × tables).
    Ok(batch.remap_slots(&joined, analyzed.tables.len()))
}

/// Resolve one side of a join predicate to its table and column index.
fn key_column<'a>(
    analyzed: &'a AnalyzedQuery,
    (table, column): &(usize, String),
) -> TcuResult<(&'a Table, usize)> {
    let table: &Table = &analyzed.tables[*table].table;
    Ok((table, table.schema().require(column)?))
}

/// Lookup-array sentinel: no surviving dimension row matches this
/// foreign-key code.
const REJECT: u32 = u32::MAX;

/// One step of a star join: its labels and exact shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StarStep<'a> {
    /// Bindings of the root table and of the dimension being added.
    pub bindings: (&'a str, &'a str),
    /// Key column names, root side first.
    pub cols: (&'a str, &'a str),
    /// What [`join`] would observe for this step.
    pub shape: StepShape,
}

/// What the star route produced.
#[derive(Debug)]
pub struct StarJoin<'a> {
    /// The joined tuples in bound-table order, in root row order.
    pub batch: TupleBatch,
    /// One entry per join step, in join order.
    pub steps: Vec<StarStep<'a>>,
    /// The pass's morsel run.
    pub run: MorselRun,
}

/// One dimension of a star: its foreign-key column on the root and the
/// lookup array `foreign-key code → surviving dimension row | REJECT`.
struct Dimension<'a> {
    table: usize,
    bindings: (&'a str, &'a str),
    cols: (&'a str, &'a str),
    fk: Arc<DictColumn>,
    lookup: Vec<u32>,
    /// Distinct keys among the dimension's surviving rows.
    distinct: usize,
}

/// The star route: join the per-table `surviving` row sets in one
/// morsel-parallel pass over the root's rows, or `None` when the query is
/// not a star with unique dimension keys (see the module docs).
///
/// The batch holds the same tuples as [`join`]'s, in root row order, and
/// the same for every thread count; `ctx` is probed once per morsel.
pub fn star_join<'a>(
    analyzed: &'a AnalyzedQuery,
    surviving: &[Vec<usize>],
    ctx: &QueryContext,
    threads: usize,
) -> TcuResult<Option<StarJoin<'a>>> {
    let Some((root, dims)) = star_dimensions(analyzed, surviving)? else {
        return Ok(None);
    };
    let rows = &surviving[root];
    let root_rows = analyzed.tables[root].table.num_rows();
    if u32::try_from(root_rows).is_err() {
        return Err(TcuError::Execution(format!(
            "row index {root_rows} exceeds the u32 batch index width"
        )));
    }
    let seen: Vec<SeenCodes> = dims
        .iter()
        .map(|d| SeenCodes::new(d.fk.dict_len()))
        .collect();
    let morsels = rows.len().div_ceil(DEFAULT_CHUNK_ROWS);
    let pass = |mi: usize| -> TcuResult<(Vec<Vec<u32>>, Vec<usize>)> {
        ctx.check()?;
        let lo = mi * DEFAULT_CHUNK_ROWS;
        let hi = (lo + DEFAULT_CHUNK_ROWS).min(rows.len());
        let mut entering = vec![0usize; dims.len()];
        let mut hits = vec![0u32; dims.len()];
        let mut cols: Vec<Vec<u32>> = vec![Vec::new(); dims.len() + 1];
        'row: for &r in &rows[lo..hi] {
            for (i, d) in dims.iter().enumerate() {
                entering[i] += 1;
                let code = d.fk.codes()[r];
                seen[i].insert(code);
                match d.lookup[code as usize] {
                    REJECT => continue 'row,
                    hit => hits[i] = hit,
                }
            }
            cols[0].push(r as u32);
            for (col, &hit) in cols[1..].iter_mut().zip(&hits) {
                col.push(hit);
            }
        }
        Ok((cols, entering))
    };
    let (parts, run) = WorkerPool::shared().run_chunks(morsels, threads, pass);
    let mut entering = vec![0usize; dims.len()];
    let mut columns = Vec::with_capacity(parts.len());
    for part in parts {
        let (cols, counts) = part?;
        for (total, count) in entering.iter_mut().zip(counts) {
            *total += count;
        }
        columns.push(cols);
    }
    let batch = TupleBatch::concat(dims.len() + 1, columns);

    let steps = dims
        .iter()
        .zip(&seen)
        .enumerate()
        .map(|(i, (d, seen))| {
            // `Domain::build_encoded`'s union: the distinct foreign keys
            // that entered, plus the distinct dimension keys, minus the
            // keys in both.
            let (fks, matched) = seen.count(|code| d.lookup[code] != REJECT);
            StarStep {
                bindings: d.bindings,
                cols: d.cols,
                shape: StepShape {
                    m: entering[i],
                    n: surviving[d.table].len(),
                    k: fks + d.distinct - matched,
                    out: entering.get(i + 1).copied().unwrap_or(batch.len()),
                },
            }
        })
        .collect();
    let mut joined = vec![root];
    joined.extend(dims.iter().map(|d| d.table));
    Ok(Some(StarJoin {
        batch: batch.remap_slots(&joined, analyzed.tables.len()),
        steps,
        run,
    }))
}

/// Decide whether the query is a star with unique dimension keys, and if
/// so build each dimension's lookup array (in join order).
fn star_dimensions<'a>(
    analyzed: &'a AnalyzedQuery,
    surviving: &[Vec<usize>],
) -> TcuResult<Option<(usize, Vec<Dimension<'a>>)>> {
    let n = analyzed.tables.len();
    if n < 2 {
        return Ok(None);
    }
    let order = join_order(analyzed)?;
    let root = order[0];
    // Every predicate is `root.col = dimension.col`, and every dimension
    // appears in exactly one: no composite keys, cycles or snowflakes.
    let mut uses = vec![0usize; n];
    for j in &analyzed.joins {
        if j.op != BinOp::Eq || (j.left.0 == root) == (j.right.0 == root) {
            return Ok(None);
        }
        let dim = if j.left.0 == root {
            j.right.0
        } else {
            j.left.0
        };
        uses[dim] += 1;
    }
    if order[1..].iter().any(|&t| uses[t] != 1) {
        return Ok(None);
    }
    let mut dims = Vec::with_capacity(n - 1);
    for &t in &order[1..] {
        let j = analyzed
            .joins
            .iter()
            .find(|j| j.left.0 == t || j.right.0 == t)
            .expect("every dimension has one predicate");
        let (root_key, dim_key) = if j.left.0 == root {
            (&j.left, &j.right)
        } else {
            (&j.right, &j.left)
        };
        let (root_table, root_ci) = key_column(analyzed, root_key)?;
        let (dim_table, dim_ci) = key_column(analyzed, dim_key)?;
        let fk = root_table.encoded_column(root_ci);
        let pk = dim_table.encoded_column(dim_ci);
        let Some((lookup, distinct)) = lookup_array(&fk, &pk, &surviving[t])? else {
            return Ok(None);
        };
        dims.push(Dimension {
            table: t,
            bindings: (&analyzed.tables[root].binding, &analyzed.tables[t].binding),
            cols: (&root_key.1, &dim_key.1),
            fk,
            lookup,
            distinct,
        });
    }
    Ok(Some((root, dims)))
}

/// One dimension's lookup array over the root's foreign-key dictionary
/// `fk`: each code maps to the surviving dimension row (of `rows`, keyed
/// by `pk`) whose key equals it under `Value::group_key`, or to `REJECT`.
/// Hashes once per distinct dimension key, never per row.  Returns the
/// array and the number of distinct surviving dimension keys, or `None`
/// when two surviving rows share a key the root can match.
fn lookup_array(
    fk: &DictColumn,
    pk: &DictColumn,
    rows: &[usize],
) -> TcuResult<Option<(Vec<u32>, usize)>> {
    const UNSEEN: u32 = u32::MAX;
    const MISS: u32 = u32::MAX - 1;
    let mut lookup = vec![REJECT; fk.dict_len()];
    // Per dimension code: the foreign-key code it matches, MISS or UNSEEN.
    let mut to_fk = vec![UNSEEN; pk.dict_len()];
    let mut distinct = 0;
    for &r in rows {
        let code = pk.codes()[r];
        match to_fk[code as usize] {
            UNSEEN => {
                distinct += 1;
                // Distinct dimension codes have distinct keys, so they
                // never land on the same slot.
                to_fk[code as usize] = match fk.code_of(pk.value(code)) {
                    Some(fk_code) => {
                        lookup[fk_code as usize] = u32::try_from(r).map_err(|_| {
                            TcuError::Execution(format!(
                                "row index {r} exceeds the u32 batch index width"
                            ))
                        })?;
                        fk_code
                    }
                    None => MISS,
                };
            }
            MISS => {}
            _ => return Ok(None),
        }
    }
    Ok(Some((lookup, distinct)))
}

/// The set of foreign-key codes that entered one star step, shared by the
/// pass's morsels: one bit per dictionary code, set with a read-first
/// `fetch_or` so a code already seen costs one load.  `Relaxed` suffices:
/// the bits publish no other data, and they are counted only after the
/// pool has joined every thread of the pass.
struct SeenCodes(Vec<AtomicU64>);

impl SeenCodes {
    fn new(codes: usize) -> SeenCodes {
        SeenCodes((0..codes.div_ceil(64)).map(|_| AtomicU64::new(0)).collect())
    }

    #[inline]
    fn insert(&self, code: u32) {
        let (word, bit) = (&self.0[code as usize / 64], 1u64 << (code % 64));
        if word.load(Ordering::Relaxed) & bit == 0 {
            word.fetch_or(bit, Ordering::Relaxed);
        }
    }

    /// `(codes seen, seen codes satisfying pred)`.
    fn count(&self, pred: impl Fn(usize) -> bool) -> (usize, usize) {
        let (mut seen, mut matched) = (0, 0);
        for (w, word) in self.0.iter().enumerate() {
            let mut bits = word.load(Ordering::Relaxed);
            seen += bits.count_ones() as usize;
            while bits != 0 {
                matched += usize::from(pred(w * 64 + bits.trailing_zeros() as usize));
                bits &= bits - 1;
            }
        }
        (seen, matched)
    }
}

/// Turn the joined tuples into the query's result table: the
/// matched-tuple count under `count_only` (no [`FinalizeReport`]), the
/// columnar output pipeline otherwise.
pub fn finish(
    analyzed: &AnalyzedQuery,
    batch: &TupleBatch,
    count_only: bool,
    opts: &FinalizeOptions,
) -> TcuResult<(Table, Option<FinalizeReport>)> {
    if count_only {
        let count = vec![vec![Value::Int(batch.len() as i64)]];
        let table = relops::table_from_rows("result_count", &["matched_tuples".into()], count)?;
        return Ok((table, None));
    }
    let (table, report) = relops::finalize_output_columnar(analyzed, batch, opts)?;
    Ok((table, Some(report)))
}

/// Decide the join order: start from the most-connected table (the fact
/// table of a star schema) and greedily add connected tables.
pub fn join_order(analyzed: &AnalyzedQuery) -> TcuResult<Vec<usize>> {
    let n = analyzed.tables.len();
    let start = (0..n)
        .max_by_key(|&i| analyzed.joins_for_table(i).len())
        .unwrap_or(0);
    let mut order = vec![start];
    while order.len() < n {
        let connected = |i: &usize| {
            !order.contains(i)
                && analyzed.joins.iter().any(|j| {
                    (j.left.0 == *i && order.contains(&j.right.0))
                        || (j.right.0 == *i && order.contains(&j.left.0))
                })
        };
        let next = (0..n).find(connected).ok_or_else(|| {
            TcuError::Plan("query contains a cross join (disconnected join graph)".into())
        })?;
        order.push(next);
    }
    Ok(order)
}

/// Filter the batch by join predicates between already-joined tables that
/// were not used as the primary join key of any step (composite join
/// keys).
fn filter_by_extra_joins(
    analyzed: &AnalyzedQuery,
    joined: &[usize],
    batch: TupleBatch,
) -> TcuResult<TupleBatch> {
    let slot_of = |t: usize| joined.iter().position(|&x| x == t);
    // Resolve each predicate between two joined tables to its key columns
    // and batch slots once, then sweep the batch columns.
    let mut preds = Vec::new();
    for p in &analyzed.joins {
        if let (Some(ls), Some(rs)) = (slot_of(p.left.0), slot_of(p.right.0)) {
            let (lt, lc) = key_column(analyzed, &p.left)?;
            let (rt, rc) = key_column(analyzed, &p.right)?;
            preds.push((
                lt.column(lc),
                batch.col(ls),
                rt.column(rc),
                batch.col(rs),
                p.op,
            ));
        }
    }
    if preds.len() < joined.len() {
        // Only the spanning-tree predicates exist; nothing extra to check.
        return Ok(batch);
    }
    let mut keep = Vec::with_capacity(batch.len());
    'tuple: for i in 0..batch.len() {
        for (lcol, lrows, rcol, rrows, op) in &preds {
            let (lv, rv) = (lcol.value(lrows[i] as usize), rcol.value(rrows[i] as usize));
            if !compare(&lv, *op, &rv)? {
                continue 'tuple;
            }
        }
        keep.push(i as u32);
    }
    if keep.len() == batch.len() {
        return Ok(batch);
    }
    Ok(batch.select(&keep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::analyze;
    use tcudb_sql::parse;
    use tcudb_storage::Catalog;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for name in ["A", "B", "C"] {
            cat.register(
                Table::from_int_columns(name, &[("id", vec![1, 2, 2, 3]), ("k", vec![1, 1, 2, 2])])
                    .unwrap(),
            );
        }
        cat
    }

    /// Drive `join` with the host operators only.
    fn host_join(sql: &str) -> TcuResult<TupleBatch> {
        let q = analyze(&parse(sql).unwrap(), &catalog())?;
        let surviving: Vec<Vec<usize>> = q
            .tables
            .iter()
            .map(|b| (0..b.table.num_rows()).collect())
            .collect();
        join(&q, &surviving, &QueryContext::unbounded(), |step| {
            Ok(step.host_pairs(1)?.0)
        })
    }

    #[test]
    fn join_order_starts_at_the_hub_and_rejects_cross_joins() {
        let cat = catalog();
        let q = analyze(
            &parse("SELECT A.id FROM A, B, C WHERE A.id = B.id AND B.id = C.id").unwrap(),
            &cat,
        )
        .unwrap();
        assert_eq!(join_order(&q).unwrap(), vec![1, 0, 2]);
        let cross = analyze(&parse("SELECT A.id FROM A, B").unwrap(), &cat).unwrap();
        assert!(join_order(&cross).is_err());
    }

    #[test]
    fn composite_keys_filter_after_the_keyed_step() {
        // id matches: (0,0) (1,1) (1,2) (2,1) (2,2) (3,3); k agrees on all
        // but (1,2) and (2,1).
        let both = host_join("SELECT A.id FROM A, B WHERE A.id = B.id AND A.k = B.k").unwrap();
        assert_eq!(both.len(), 4);
        // A third table closing a cycle is a residual on the last step.
        let cycle =
            host_join("SELECT A.id FROM A, B, C WHERE A.id = B.id AND B.id = C.id AND A.k = C.k")
                .unwrap();
        assert_eq!(cycle.len(), 6);
        assert!(cycle.to_tuples().iter().all(|t| t[0] == t[2]));
        // Non-equi orientation flips with the joined side.
        let lt = host_join("SELECT A.id FROM A, B WHERE A.id < B.id").unwrap();
        let gt = host_join("SELECT A.id FROM A, B WHERE B.id > A.id").unwrap();
        assert_eq!(lt.to_tuples(), gt.to_tuples());
        assert_eq!(lt.len(), 5);
    }

    /// A fact table `F` (row `i` has `d = i % 5`, `p = i % 3`, with a
    /// NaN-stored NULL `p` every seventh row) and two dimensions with
    /// unique keys: `D` over 0..4 and `P` over 0..3.
    fn star_catalog(fact_rows: usize) -> Catalog {
        let mut cat = Catalog::new();
        let p = |i: usize| if i % 7 == 6 { f64::NAN } else { (i % 3) as f64 };
        cat.register(
            Table::from_columns(
                "F",
                tcudb_storage::Schema::from_pairs(&[
                    ("d", tcudb_types::DataType::Int64),
                    ("p", tcudb_types::DataType::Float64),
                ]),
                vec![
                    Column::Int64((0..fact_rows).map(|i| (i % 5) as i64).collect()),
                    Column::Float64((0..fact_rows).map(p).collect()),
                ],
            )
            .unwrap(),
        );
        cat.register(
            Table::from_int_columns("D", &[("id", vec![3, 1, 0, 2]), ("w", vec![30, 10, 0, 20])])
                .unwrap(),
        );
        cat.register(
            Table::from_int_columns("P", &[("id", vec![2, 0, 1]), ("w", vec![2, 0, 1])]).unwrap(),
        );
        cat
    }

    /// A joined batch and the shape of each step that built it.
    type Routed = (TupleBatch, Vec<StepShape>);

    /// Both routes over every row of every table: the star result (if
    /// eligible) and the pairwise one.
    fn both_routes(cat: &Catalog, sql: &str, threads: usize) -> (Option<Routed>, Routed) {
        let q = analyze(&parse(sql).unwrap(), cat).unwrap();
        let surviving: Vec<Vec<usize>> = q
            .tables
            .iter()
            .map(|b| (0..b.table.num_rows()).collect())
            .collect();
        let ctx = QueryContext::unbounded();
        let star = star_join(&q, &surviving, &ctx, threads)
            .unwrap()
            .map(|s| (s.batch, s.steps.iter().map(|st| st.shape).collect()));
        let mut shapes = Vec::new();
        let batch = join(&q, &surviving, &ctx, |step| {
            let pairs = step.host_pairs(1)?.0;
            shapes.push(step.shape(pairs.len()));
            Ok(pairs)
        })
        .unwrap();
        (star, (batch, shapes))
    }

    fn sorted(batch: &TupleBatch) -> Vec<Vec<usize>> {
        let mut t = batch.to_tuples();
        t.sort();
        t
    }

    #[test]
    fn star_route_matches_the_pairwise_join_shape_for_shape() {
        let cat = star_catalog(40);
        let (star, (pairwise, shapes)) = both_routes(
            &cat,
            "SELECT F.d, D.w, P.w FROM D, P, F WHERE F.d = D.id AND F.p = P.id",
            1,
        );
        let (batch, star_shapes) = star.expect("a star with unique keys");
        assert_eq!(star_shapes, shapes);
        assert_eq!(sorted(&batch), sorted(&pairwise));
        // Fact order: the root slot (F is bound third) is ascending.
        assert!(batch.col(2).windows(2).all(|w| w[0] < w[1]));
        // `F.d = 4` has no `D` row (8 of 40 rows); a NULL `F.p` matches
        // nothing (4 of the remaining 32).
        assert_eq!((shapes[1].m, shapes[1].out), (32, 28));
    }

    #[test]
    fn star_route_is_identical_for_every_thread_count() {
        let cat = star_catalog(2 * DEFAULT_CHUNK_ROWS + 7);
        let sql = "SELECT F.d FROM D, P, F WHERE F.d = D.id AND F.p = P.id";
        let (one, (_, shapes)) = both_routes(&cat, sql, 1);
        let (three, _) = both_routes(&cat, sql, 3);
        let (one, three) = (one.unwrap(), three.unwrap());
        assert_eq!(one.1, shapes);
        assert_eq!(three.1, shapes);
        assert_eq!(one.0.to_tuples(), three.0.to_tuples());
    }

    #[test]
    fn star_route_declines_non_star_shapes() {
        let cat = star_catalog(20);
        for sql in [
            // D's key is unique, but the two-table root is the later table.
            "SELECT F.d FROM F, D WHERE F.d = D.id",
            // A non-equi predicate.
            "SELECT F.d FROM D, F WHERE F.d < D.id",
            // Two predicates on one dimension (a composite key).
            "SELECT F.d FROM D, F WHERE F.d = D.id AND F.p = D.w",
            // A snowflake: P hangs off D, not off the root.
            "SELECT F.d FROM D, P, F WHERE F.d = D.id AND D.id = P.id AND F.p = D.w",
        ] {
            let (star, _) = both_routes(&cat, sql, 1);
            assert!(star.is_none(), "{sql}");
        }
        // A duplicated dimension key the root can match.
        let mut dup = star_catalog(20);
        dup.register(
            Table::from_int_columns("D", &[("id", vec![1, 1]), ("w", vec![0, 1])]).unwrap(),
        );
        let (star, _) = both_routes(&dup, "SELECT F.d FROM D, F WHERE F.d = D.id", 1);
        assert!(star.is_none());
        // ... but a duplicate no root row can match is harmless.
        dup.register(
            Table::from_int_columns("D", &[("id", vec![1, 9, 9]), ("w", vec![0, 1, 2])]).unwrap(),
        );
        let (star, (pairwise, shapes)) =
            both_routes(&dup, "SELECT F.d FROM D, F WHERE F.d = D.id", 1);
        let (batch, star_shapes) = star.unwrap();
        assert_eq!(star_shapes, shapes);
        assert_eq!(sorted(&batch), sorted(&pairwise));
    }

    #[test]
    fn finish_applies_count_only_for_any_table_count() {
        let q = analyze(
            &parse("SELECT A.id FROM A WHERE A.id > 1").unwrap(),
            &catalog(),
        )
        .unwrap();
        let batch = TupleBatch::from_rows(&[1, 2, 3]).unwrap();
        let (table, report) = finish(&q, &batch, true, &FinalizeOptions::baseline()).unwrap();
        assert!(report.is_none());
        assert_eq!(table.row(0)[0], Value::Int(3));
        let (table, report) = finish(&q, &batch, false, &FinalizeOptions::baseline()).unwrap();
        assert_eq!((table.num_rows(), report.unwrap().path), (3, "projection"));
    }
}

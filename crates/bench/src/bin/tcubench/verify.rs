//! Result verification: order-insensitive digests, the committed golden
//! digests for seed 12, and harness-side recomputation of a few answers
//! straight from the generated columns (independent of the engine).

use std::collections::BTreeMap;

use crate::json::Json;

/// The `--seed` `golden.json` was recorded with.  Only `ingest_rw`'s
/// digest depends on it; the other workloads' data is fixed.
pub const GOLDEN_SEED: u64 = 12;
const GOLDEN_JSON: &str = include_str!("golden.json");

/// Order-insensitive digest of a result table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub cols: u32,
    sum: u64,
    xor: u64,
}

impl Digest {
    /// Fold one column value into a row's running hash (order-sensitive
    /// within the row, so swapped columns differ).
    pub fn mix(h: u64, x: u64) -> u64 {
        let mut z = (h ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 32)).wrapping_mul(0xd6e8_feb8_6659_fd93);
        z ^ (z >> 29)
    }

    /// FNV-1a over bytes.
    pub fn hash_bytes(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Combine row hashes commutatively: a wrapping sum and an xor, so a
    /// permutation of the rows gives the same digest while a duplicated
    /// or dropped row does not.
    pub fn of_row_hashes(cols: usize, row_hashes: &[u64]) -> Digest {
        let mut d = Digest {
            rows: row_hashes.len() as u64,
            cols: cols as u32,
            sum: 0,
            xor: 0,
        };
        for h in row_hashes {
            // Finalize each row hash so sum and xor see well-mixed bits.
            let h = Digest::mix(*h, 0x2545_f491_4f6c_dd1d);
            d.sum = d.sum.wrapping_add(h);
            d.xor ^= h;
        }
        d
    }

    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.sum, self.xor)
    }
}

/// Golden `(rows, digest hex)` per statement name of one workload.
pub fn golden(workload: &str) -> BTreeMap<String, (u64, String)> {
    let doc = Json::parse(GOLDEN_JSON).expect("golden.json is committed well-formed");
    let statements = doc
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(Json::as_obj);
    let mut out = BTreeMap::new();
    for (name, entry) in statements.unwrap_or(&[]) {
        let rows = entry.get("rows").and_then(Json::as_f64);
        let digest = entry.get("digest").and_then(Json::as_str);
        if let (Some(rows), Some(digest)) = (rows, digest) {
            out.insert(name.clone(), (rows as u64, digest.to_string()));
        }
    }
    out
}

/// Row count of `SELECT … FROM A, B WHERE A.id = B.id`: the sum over keys
/// of (occurrences in A) x (occurrences in B).
pub fn join_cardinality(a_ids: &[i64], b_ids: &[i64]) -> u64 {
    let mut in_a: BTreeMap<i64, u64> = BTreeMap::new();
    for id in a_ids {
        *in_a.entry(*id).or_default() += 1;
    }
    b_ids.iter().filter_map(|id| in_a.get(id)).sum()
}

/// `SUM(A.val * B.val)` over the same join: the sum over keys of
/// (sum of A.val) x (sum of B.val).
pub fn join_product_sum(a_ids: &[i64], a_vals: &[i64], b_ids: &[i64], b_vals: &[i64]) -> i128 {
    let mut sum_a: BTreeMap<i64, i128> = BTreeMap::new();
    for (id, v) in a_ids.iter().zip(a_vals) {
        *sum_a.entry(*id).or_default() += i128::from(*v);
    }
    b_ids
        .iter()
        .zip(b_vals)
        .filter_map(|(id, v)| sum_a.get(id).map(|s| s * i128::from(*v)))
        .sum()
}

/// A matrix in coordinate form, as the matmul tables store it.
pub struct Coo<'a> {
    pub row: &'a [i64],
    pub col: &'a [i64],
    pub val: &'a [i64],
}

/// The matmul query by the naive triple loop:
/// `res[(A.col, B.row)] = sum over A.row = B.col of A.val * B.val`.
pub fn naive_matmul(a: &Coo, b: &Coo, dim: usize) -> BTreeMap<(i64, i64), i64> {
    let dense = |m: &Coo| {
        let mut d = vec![0i64; dim * dim];
        for ((r, c), v) in m.row.iter().zip(m.col).zip(m.val) {
            d[*r as usize * dim + *c as usize] = *v;
        }
        d
    };
    let (da, db) = (dense(a), dense(b));
    let mut out = BTreeMap::new();
    for a_col in 0..dim {
        for b_row in 0..dim {
            let mut acc = 0i64;
            for k in 0..dim {
                // A.row_num = B.col_num = k
                acc += da[k * dim + a_col] * db[b_row * dim + k];
            }
            out.insert((a_col as i64, b_row as i64), acc);
        }
    }
    out
}

/// Does a `(col_num, row_num, res)` result equal the naive product?
pub fn matmul_matches(
    want: &BTreeMap<(i64, i64), i64>,
    cols: &[i64],
    rows: &[i64],
    res: &[f64],
) -> bool {
    cols.len() == want.len()
        && cols
            .iter()
            .zip(rows)
            .zip(res)
            .all(|((c, r), v)| want.get(&(*c, *r)).is_some_and(|w| *w as f64 == *v))
}

/// The `date` columns SSB flight 1 filters on.
pub struct DateDim<'a> {
    pub datekey: &'a [i64],
    pub year: &'a [i64],
    pub yearmonthnum: &'a [i64],
    pub weeknuminyear: &'a [i64],
}

/// The `lineorder` columns SSB flight 1 reads.
pub struct LineorderFacts<'a> {
    pub orderdate: &'a [i64],
    pub discount: &'a [i64],
    pub quantity: &'a [i64],
    pub extendedprice: &'a [i64],
}

/// SSB Q1.1, Q1.2 and Q1.3 revenue by one filter-and-sum pass over the
/// fact table.
pub fn ssb_flight1(date: &DateDim, lo: &LineorderFacts) -> [i128; 3] {
    let dim: BTreeMap<i64, (i64, i64, i64)> = date
        .datekey
        .iter()
        .enumerate()
        .map(|(i, k)| {
            (
                *k,
                (date.year[i], date.yearmonthnum[i], date.weeknuminyear[i]),
            )
        })
        .collect();
    let mut revenue = [0i128; 3];
    // Consecutive fact rows mostly share a date: cache the last lookup.
    let mut last = (i64::MIN, None);
    for i in 0..lo.orderdate.len() {
        let key = lo.orderdate[i];
        if last.0 != key {
            last = (key, dim.get(&key).copied());
        }
        let Some((year, yearmonthnum, week)) = last.1 else {
            continue;
        };
        let (d, q) = (lo.discount[i], lo.quantity[i]);
        let product = i128::from(lo.extendedprice[i]) * i128::from(d);
        if year == 1993 && (1..=3).contains(&d) && q < 25 {
            revenue[0] += product;
        }
        if yearmonthnum == 199_401 && (4..=6).contains(&d) && (26..=35).contains(&q) {
            revenue[1] += product;
        }
        if week == 6 && year == 1994 && (5..=7).contains(&d) && (26..=35).contains(&q) {
            revenue[2] += product;
        }
    }
    revenue
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(rows: &[[u64; 2]]) -> Digest {
        let hashes: Vec<u64> = rows
            .iter()
            .map(|r| {
                r.iter()
                    .fold(0xcbf2_9ce4_8422_2325, |h, x| Digest::mix(h, *x))
            })
            .collect();
        Digest::of_row_hashes(2, &hashes)
    }

    #[test]
    fn digest_ignores_row_order_but_not_content() {
        let a = digest_of(&[[1, 2], [3, 4], [5, 6]]);
        let permuted = digest_of(&[[5, 6], [1, 2], [3, 4]]);
        assert_eq!(a, permuted);
        assert_eq!(a.hex(), permuted.hex());
        // Swapped columns, a changed value, a dropped row and a duplicated
        // row all change the digest.
        assert_ne!(a, digest_of(&[[2, 1], [3, 4], [5, 6]]));
        assert_ne!(a, digest_of(&[[1, 2], [3, 4], [5, 7]]));
        assert_ne!(a, digest_of(&[[1, 2], [3, 4]]));
        assert_ne!(
            digest_of(&[[1, 2], [1, 2], [3, 4]]),
            digest_of(&[[1, 2], [3, 4], [3, 4]])
        );
        assert_eq!(a.rows, 3);
        assert_eq!(a.hex().len(), 32);
    }

    #[test]
    fn golden_covers_every_workload() {
        let doc = Json::parse(GOLDEN_JSON).unwrap();
        assert_eq!(doc.get("seed").unwrap().as_f64(), Some(GOLDEN_SEED as f64));
        for (name, _) in crate::metrics::WORKLOADS {
            assert!(
                !golden(name).is_empty(),
                "golden.json has no digests for {name}"
            );
        }
        assert!(golden("no_such_workload").is_empty());
    }

    #[test]
    fn join_recomputation_on_a_hand_checked_case() {
        // A ids {1,1,2}, B ids {1,2,2,3}: 2*1 + 1*2 = 4 pairs.
        let (a_ids, a_vals) = ([1, 1, 2], [10, 20, 5]);
        let (b_ids, b_vals) = ([1, 2, 2, 3], [3, 4, 6, 100]);
        assert_eq!(join_cardinality(&a_ids, &b_ids), 4);
        // key 1: 30 * 3; key 2: 5 * 10
        assert_eq!(join_product_sum(&a_ids, &a_vals, &b_ids, &b_vals), 140);
    }

    #[test]
    fn naive_matmul_follows_the_query_orientation() {
        // A = [[2,3],[4,5]], B = [[6,7],[8,9]] as (row, col, val).
        let (r, c) = ([0, 0, 1, 1], [0, 1, 0, 1]);
        let a = Coo {
            row: &r,
            col: &c,
            val: &[2, 3, 4, 5],
        };
        let b = Coo {
            row: &r,
            col: &c,
            val: &[6, 7, 8, 9],
        };
        let got = naive_matmul(&a, &b, 2);
        // res[(a_col, b_row)] = sum_k A[k][a_col] * B[b_row][k]
        assert_eq!(got[&(0, 0)], 2 * 6 + 4 * 7);
        assert_eq!(got[&(1, 0)], 3 * 6 + 5 * 7);
        assert_eq!(got[&(0, 1)], 2 * 8 + 4 * 9);
        assert_eq!(got[&(1, 1)], 3 * 8 + 5 * 9);
        let (cols, rows) = ([0, 1, 0, 1], [0, 0, 1, 1]);
        assert!(matmul_matches(
            &got,
            &cols,
            &rows,
            &[40.0, 53.0, 52.0, 69.0]
        ));
        assert!(!matmul_matches(
            &got,
            &cols,
            &rows,
            &[40.0, 53.0, 52.0, 70.0]
        ));
        assert!(!matmul_matches(&got, &[0], &[0], &[40.0]));
    }

    #[test]
    fn flight1_filters_match_the_query_text() {
        let date = DateDim {
            datekey: &[19930101, 19940115, 19940207],
            year: &[1993, 1994, 1994],
            yearmonthnum: &[199301, 199401, 199402],
            weeknuminyear: &[1, 3, 6],
        };
        let lo = LineorderFacts {
            orderdate: &[19930101, 19930101, 19940115, 19940207, 19990101],
            discount: &[2, 4, 5, 6, 2],
            quantity: &[10, 10, 30, 30, 10],
            extendedprice: &[100, 100, 200, 300, 999],
        };
        // Q1.1: row 0 only (row 1 fails the discount range).
        // Q1.2: row 2.  Q1.3: row 3.  Row 4 has no date row.
        assert_eq!(ssb_flight1(&date, &lo), [200, 1000, 1800]);
    }
}

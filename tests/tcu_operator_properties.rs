//! Property-based integration tests of the core TCU rewrites: the fused
//! operators must agree with scalar SQL semantics on arbitrary data.

use proptest::prelude::*;
use std::collections::HashMap;
use tcudb::core::executor::tcu_matmul_query;
use tcudb::prelude::*;
use tcudb::tensor::GemmPrecision;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lemma 3.1: the fused group-by SUM, run by the engine's star route
    /// (one pass over the fact table with the dimension as a lookup
    /// array), equals the scalar join+aggregate.
    #[test]
    fn fused_group_aggregate_equals_scalar_reference(
        a in prop::collection::vec((0i64..12, 1i64..50), 1..60),
        b in prop::collection::vec((0i64..12, 0i64..6), 1..40),
    ) {
        // A unique dimension key: keep the first row per key.
        let mut seen = std::collections::HashSet::new();
        let b: Vec<(i64, i64)> = b.into_iter().filter(|(k, _)| seen.insert(*k)).collect();
        let fact = Table::from_int_columns(
            "A",
            &[("k", a.iter().map(|(k, _)| *k).collect()),
              ("val", a.iter().map(|(_, v)| *v).collect())],
        ).unwrap();
        let dim = Table::from_int_columns(
            "B",
            &[("k", b.iter().map(|(k, _)| *k).collect()),
              ("g", b.iter().map(|(_, g)| *g).collect())],
        ).unwrap();
        let db = TcuDb::default();
        db.register_table(fact);
        db.register_table(dim);
        // `A`, listed last, is the root of the join order.
        let out = db
            .execute("SELECT SUM(A.val), B.g FROM B, A WHERE A.k = B.k GROUP BY B.g")
            .expect("fused aggregate runs");
        prop_assert!(out.plan.star_join, "the star route was not taken");

        let mut expected: HashMap<i64, f64> = HashMap::new();
        for (ak, av) in &a {
            for (bk, bg) in &b {
                if ak == bk {
                    *expected.entry(*bg).or_default() += *av as f64;
                }
            }
        }
        prop_assert_eq!(out.table.num_rows(), expected.len());
        for i in 0..out.table.num_rows() {
            let row = out.table.row(i);
            let (sum, g) = (row[0].as_f64().unwrap(), row[1].as_i64().unwrap());
            prop_assert!((expected[&g] - sum).abs() < 1e-6, "group {g}: {sum} vs {}", expected[&g]);
        }
    }

    /// The Figure 5 matrix-multiplication query equals a direct computation.
    #[test]
    fn matmul_query_equals_direct_product(dim in 1usize..6, seed in 0u64..500) {
        let mut state = seed.wrapping_add(3);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 9) as f64 - 4.0
        };
        let mut a = vec![vec![0.0f64; dim]; dim];
        let mut b = vec![vec![0.0f64; dim]; dim];
        let mut a_rows = Vec::new();
        let mut a_cols = Vec::new();
        let mut a_vals = Vec::new();
        let mut b_rows = Vec::new();
        let mut b_cols = Vec::new();
        let mut b_vals = Vec::new();
        for i in 0..dim {
            for j in 0..dim {
                a[i][j] = next();
                b[i][j] = next();
                a_rows.push(Value::Int(i as i64));
                a_cols.push(Value::Int(j as i64));
                a_vals.push(a[i][j]);
                b_rows.push(Value::Int(i as i64));
                b_cols.push(Value::Int(j as i64));
                b_vals.push(b[i][j]);
            }
        }
        let result = tcu_matmul_query(
            &a_rows, &a_cols, &a_vals, &b_rows, &b_cols, &b_vals, GemmPrecision::Fp32,
        ).expect("matmul query runs");
        // result[(col, row)] = Σ_key A[key][col] · B[row][key]
        for (c, r, v) in result {
            let (c, r) = (c.as_i64().unwrap() as usize, r.as_i64().unwrap() as usize);
            let mut want = 0.0;
            for key in 0..dim {
                want += a[key][c] * b[r][key];
            }
            prop_assert!((want - v).abs() < 1e-4, "({c},{r}): {v} vs {want}");
        }
    }

    /// End-to-end engine equivalence on random two-table instances.
    #[test]
    fn tcudb_and_ydb_agree_on_random_joins(
        a in prop::collection::vec((0i64..8, 1i64..100), 1..40),
        b in prop::collection::vec((0i64..8, 1i64..100), 1..40),
    ) {
        let table_a = Table::from_int_columns(
            "A",
            &[("id", a.iter().map(|(k, _)| *k).collect()),
              ("val", a.iter().map(|(_, v)| *v).collect())],
        ).unwrap();
        let table_b = Table::from_int_columns(
            "B",
            &[("id", b.iter().map(|(k, _)| *k).collect()),
              ("val", b.iter().map(|(_, v)| *v).collect())],
        ).unwrap();
        let tcudb = TcuDb::default();
        tcudb.register_table(table_a.clone());
        tcudb.register_table(table_b.clone());
        let ydb = YdbEngine::default();
        ydb.register_table(table_a);
        ydb.register_table(table_b);

        let sql = "SELECT SUM(A.val * B.val), COUNT(*) FROM A, B WHERE A.id = B.id";
        let t = tcudb.execute(sql).unwrap();
        let y = ydb.execute(sql).unwrap();
        prop_assert_eq!(t.table.row(0)[1].as_i64().unwrap(), y.table.row(0)[1].as_i64().unwrap());
        let ts = t.table.row(0)[0].as_f64().unwrap();
        let ys = y.table.row(0)[0].as_f64().unwrap();
        prop_assert!((ts - ys).abs() < 1e-6);
    }
}

//! Oracle suite: production's encoded columnar data path (dictionary
//! codes, remap tables, typed filter kernels, code-bucket joins) must
//! produce results **identical** to the dev-only row-at-a-time reference
//! (`tcudb-reference`) across random schemas, row subsets (with
//! duplicates), NULLs and empty tables — from the individual building
//! blocks all the way through `TcuDb::execute`, under every join plan.

use proptest::prelude::*;
use tcudb_core::analyzer::analyze;
use tcudb_core::batch::TupleBatch;
use tcudb_core::relops::{self, FinalizeOptions, ScanOptions};
use tcudb_core::translate::{
    adjacency_matrix, adjacency_matrix_encoded, comparison_matrix_encoded, one_hot_csr_encoded,
    one_hot_matrix_encoded, valued_csr_encoded, valued_matrix, valued_matrix_encoded, Domain,
    EncodedSource,
};
use tcudb_core::{pipeline, EngineConfig, PlanKind, TcuDb};
use tcudb_reference::{
    comparable_rows as rows, comparison_matrix, one_hot_csr, one_hot_matrix, valued_csr,
};
use tcudb_sql::AggFunc;
use tcudb_sql::{parse, BinOp};
use tcudb_storage::{Catalog, Column, ColumnDef, DictColumn, Schema, Table};
use tcudb_types::sync::QueryContext;
use tcudb_types::{DataType, TcuError, Value};

/// Build a column of one of the three storage types from raw draws, with
/// small value domains so joins and filters actually collide.
fn column_from(mode: i64, data: &[i64]) -> Column {
    match mode.rem_euclid(3) {
        0 => Column::Int64(data.iter().map(|&x| x % 7).collect()),
        // Half-steps: a mix of integral floats (which must unify with Int
        // keys) and genuinely fractional ones.
        1 => Column::Float64(data.iter().map(|&x| (x % 9) as f64 * 0.5).collect()),
        _ => Column::Text(data.iter().map(|&x| format!("k{}", x % 5)).collect()),
    }
}

/// The `Value`s of a column at the given rows (the reference's key form).
fn values_at(col: &Column, rows: &[usize]) -> Vec<Value> {
    rows.iter().map(|&r| col.value(r)).collect()
}

/// Map raw index draws into a valid (possibly duplicated) row subset.
fn subset(idx: &[usize], len: usize) -> Vec<usize> {
    if len == 0 {
        Vec::new()
    } else {
        idx.iter().map(|&i| i % len).collect()
    }
}

const OPS: [BinOp; 6] = [
    BinOp::Lt,
    BinOp::LtEq,
    BinOp::Gt,
    BinOp::GtEq,
    BinOp::Eq,
    BinOp::NotEq,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn domain_union_matches_value_path(
        a_mode in 0i64..3,
        a_data in prop::collection::vec(0i64..60, 0..24),
        b_mode in 0i64..3,
        b_data in prop::collection::vec(0i64..60, 0..24),
        asub_raw in prop::collection::vec(0usize..64, 0..16),
        use_asub in 0i64..2,
    ) {
        let a = column_from(a_mode, &a_data);
        let b = column_from(b_mode, &b_data);
        let asub = subset(&asub_raw, a.len());
        let arows = (use_asub == 1).then_some(&asub[..]);

        let expected = Domain::build(&[(&a, arows), (&b, None)]);
        let da = DictColumn::build(&a);
        let db = DictColumn::build(&b);
        let asrc = EncodedSource { dict: &da, codes: da.codes(), rows: arows };
        let (dom, maps) = Domain::build_encoded(&[asrc, EncodedSource::whole(&db)]);

        prop_assert_eq!(dom.values(), expected.values());
        // Every remap entry agrees with index_of on the shared domain.
        for (src, map) in [(&da, &maps[0]), (&db, &maps[1])] {
            for (code, v) in src.values().iter().enumerate() {
                if map[code] != tcudb_core::translate::NO_INDEX {
                    prop_assert_eq!(dom.index_of(v), Some(map[code] as usize));
                }
            }
        }
    }

    #[test]
    fn matrix_builders_match_value_path(
        mode in 0i64..3,
        data in prop::collection::vec(0i64..60, 0..24),
        sub_raw in prop::collection::vec(0usize..64, 0..16),
        use_sub in 0i64..2,
        op_idx in 0usize..6,
        extra in prop::collection::vec(0i64..60, 0..10),
    ) {
        let col = column_from(mode, &data);
        let sub = subset(&sub_raw, col.len());
        let rows = (use_sub == 1).then_some(&sub[..]);
        // Domain over the column plus a disjoint-ish second source so some
        // keys miss (exercising the NO_INDEX sentinel on both sides).
        let other = column_from(mode, &extra);
        let dom = Domain::build(&[(&col, rows), (&other, None)]);
        let dict = DictColumn::build(&col);
        let src = EncodedSource { dict: &dict, codes: dict.codes(), rows };
        let odict = DictColumn::build(&other);
        let (edom, maps) = Domain::build_encoded(&[src, EncodedSource::whole(&odict)]);
        prop_assert_eq!(edom.values(), dom.values());
        let remap = &maps[0];

        let n = rows.map_or(col.len(), <[usize]>::len);
        let payload: Vec<f64> = (0..n).map(|i| (i % 13) as f64 - 3.5).collect();

        prop_assert_eq!(
            one_hot_matrix_encoded(&src, remap, dom.len()),
            one_hot_matrix(&col, rows, &dom)
        );
        prop_assert_eq!(
            valued_matrix_encoded(&src, &payload, remap, dom.len()),
            valued_matrix(&col, &payload, rows, &dom)
        );
        prop_assert_eq!(
            one_hot_csr_encoded(&src, remap, dom.len()).unwrap(),
            one_hot_csr(&col, rows, &dom).unwrap()
        );
        prop_assert_eq!(
            valued_csr_encoded(&src, &payload, remap, dom.len()).unwrap(),
            valued_csr(&col, &payload, rows, &dom).unwrap()
        );
        let op = OPS[op_idx];
        prop_assert_eq!(
            comparison_matrix_encoded(&src, &dom, op).unwrap(),
            comparison_matrix(&col, rows, &dom, op).unwrap()
        );
    }

    #[test]
    fn adjacency_matches_value_path(
        gmode in 0i64..3,
        kmode in 0i64..3,
        rows_data in prop::collection::vec((0i64..60, 0i64..60), 0..24),
        sub_raw in prop::collection::vec(0usize..64, 0..16),
        use_sub in 0i64..2,
        with_payload in 0i64..2,
    ) {
        let gdata: Vec<i64> = rows_data.iter().map(|&(g, _)| g).collect();
        let kdata: Vec<i64> = rows_data.iter().map(|&(_, k)| k).collect();
        let gcol = column_from(gmode, &gdata);
        let kcol = column_from(kmode, &kdata);
        let sub = subset(&sub_raw, kcol.len());
        let rows = (use_sub == 1).then_some(&sub[..]);

        let gdom = Domain::build(&[(&gcol, rows)]);
        let kdom = Domain::build(&[(&kcol, rows)]);
        let n = rows.map_or(kcol.len(), <[usize]>::len);
        let payload: Vec<f64> = (0..n).map(|i| (i % 11) as f64 * 0.25).collect();
        let pay = (with_payload == 1).then_some(&payload[..]);
        let want = adjacency_matrix(&gcol, &kcol, pay, rows, &gdom, &kdom);

        let gd = DictColumn::build(&gcol);
        let kd = DictColumn::build(&kcol);
        let gsrc = EncodedSource { dict: &gd, codes: gd.codes(), rows };
        let ksrc = EncodedSource { dict: &kd, codes: kd.codes(), rows };
        let (egdom, gmaps) = Domain::build_encoded(&[gsrc]);
        let (ekdom, kmaps) = Domain::build_encoded(&[ksrc]);
        prop_assert_eq!(egdom.values(), gdom.values());
        prop_assert_eq!(ekdom.values(), kdom.values());
        let got = adjacency_matrix_encoded(
            &gsrc, &gmaps[0], gdom.len(),
            &ksrc, &kmaps[0], kdom.len(),
            pay,
        );
        prop_assert_eq!(got, want);
    }

    #[test]
    fn code_join_matches_hash_join(
        lmode in 0i64..3,
        ldata in prop::collection::vec(0i64..60, 0..28),
        rdata in prop::collection::vec(0i64..60, 0..28),
        lsub_raw in prop::collection::vec(0usize..64, 0..20),
        rsub_raw in prop::collection::vec(0usize..64, 0..20),
    ) {
        // Same mode on both sides plus the Int/Float mixed case.
        for rmode in [lmode, (lmode + 1).min(1)] {
            let left = column_from(lmode, &ldata);
            let right = column_from(rmode, &rdata);
            if lmode.rem_euclid(3).min(1) != rmode.rem_euclid(3).min(1) {
                continue; // text never joins numeric in these queries
            }
            let lsub = subset(&lsub_raw, left.len());
            let rsub = subset(&rsub_raw, right.len());

            let ld = DictColumn::build(&left);
            let rd = DictColumn::build(&right);
            let lsrc = EncodedSource::subset(&ld, &lsub);
            let rsrc = EncodedSource::subset(&rd, &rsub);
            let (dom, maps) = Domain::build_encoded(&[lsrc, rsrc]);
            let (got, _) = relops::join_pairs_by_code(
                &lsrc, &maps[0], &rsrc, &maps[1], dom.len(), 1, usize::MAX,
            );
            // Morsel size and thread count never change the pair sequence.
            let (split, _) = relops::join_pairs_by_code(
                &lsrc, &maps[0], &rsrc, &maps[1], dom.len(), 2, 3,
            );
            prop_assert_eq!(&got, &split);

            // Reference: positional `ValueKey` hash join over the keys.
            let want = tcudb_reference::hash_join_pairs(
                &values_at(&left, &lsub),
                &values_at(&right, &rsub),
            );
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn nonequi_join_matches_reference_order(
        lmode in 0i64..3,
        ldata in prop::collection::vec(0i64..60, 0..20),
        rdata in prop::collection::vec(0i64..60, 0..20),
        lsub_raw in prop::collection::vec(0usize..64, 0..20),
        rsub_raw in prop::collection::vec(0usize..64, 0..20),
        op_idx in 0usize..6,
    ) {
        // Same type on both sides plus the Int/Float mixed case; row
        // selections repeat rows, as a tuple batch's key column does.
        for rmode in [lmode, (lmode + 1).min(1)] {
            if lmode.rem_euclid(3).min(1) != rmode.rem_euclid(3).min(1) {
                continue;
            }
            let left = column_from(lmode, &ldata);
            let right = column_from(rmode, &rdata);
            let lsub = subset(&lsub_raw, left.len());
            let rsub = subset(&rsub_raw, right.len());
            let lrows: Vec<u32> = lsub.iter().map(|&r| r as u32).collect();
            let op = OPS[op_idx];
            let got = relops::nonequi_join_pairs(&left, &lrows, &right, &rsub, op).unwrap();
            // Reference: the nested loop over materialised Values.
            let want = tcudb_reference::nested_loop_pairs(
                &values_at(&left, &lsub),
                &values_at(&right, &rsub),
                op,
            )
            .unwrap();
            prop_assert_eq!(got, want);
        }
    }
}

// ---------------------------------------------------------------------
// Vectorized filters and full end-to-end queries.
// ---------------------------------------------------------------------

fn filter_table(rows: &[(i64, i64, i64)]) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::new("i", DataType::Int64),
        ColumnDef::new("f", DataType::Float64),
        ColumnDef::new("s", DataType::Text),
    ]);
    Table::from_columns(
        "T",
        schema,
        vec![
            Column::Int64(rows.iter().map(|&(a, _, _)| a % 10).collect()),
            Column::Float64(
                rows.iter()
                    .map(|&(_, b, _)| (b % 12) as f64 * 0.5)
                    .collect(),
            ),
            Column::Text(
                rows.iter()
                    .map(|&(_, _, c)| format!("s{}", c % 4))
                    .collect(),
            ),
        ],
    )
    .unwrap()
}

/// One random conjunct of the WHERE clause; mixes vectorizable atoms with
/// expressions that must fall back to the interpreter.
fn conjunct(kind: i64, lit: i64) -> String {
    let ops = [">", ">=", "<", "<=", "=", "<>"];
    let op = ops[(lit.unsigned_abs() as usize) % ops.len()];
    match kind.rem_euclid(9) {
        0 => format!("T.i {op} {}", lit % 10),
        1 => format!("T.f {op} {}.5", lit % 6),
        2 => format!("T.s {op} 's{}'", lit.rem_euclid(5)), // sometimes absent
        3 => format!("{} {op} T.i", lit % 10),             // literal first
        4 => format!("T.i BETWEEN {} AND {}", lit % 5, lit % 5 + 4),
        5 => format!("T.f BETWEEN {} AND {}.5", lit % 4, lit % 4 + 2),
        6 => format!("T.i + 1 {op} {}", lit % 10), // interpreter
        7 => format!("T.s = 's1' OR T.s = 's{}'", lit.rem_euclid(4)), // interpreter
        _ => format!("T.f {op} {}", lit % 6),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn vectorized_filters_match_interpreter(
        rows in prop::collection::vec((0i64..40, 0i64..40, 0i64..40), 0..40),
        conjs in prop::collection::vec((0i64..9, -12i64..12), 1..4),
    ) {
        let mut cat = Catalog::new();
        cat.register(filter_table(&rows));
        let preds: Vec<String> = conjs.iter().map(|&(k, l)| conjunct(k, l)).collect();
        let sql = format!("SELECT T.i FROM T WHERE {}", preds.join(" AND "));
        let q = analyze(&parse(&sql).unwrap(), &cat).unwrap();
        let fast = relops::apply_filters_scan(&q, &QueryContext::unbounded(), &ScanOptions::serial())
            .map(|(surviving, ..)| surviving);
        let slow = tcudb_reference::apply_filters(&q);
        match (fast, slow) {
            (Ok(f), Ok(s)) => prop_assert_eq!(f, s, "{}", sql),
            (f, s) => prop_assert_eq!(f.is_err(), s.is_err(), "{}", sql),
        }
    }

    #[test]
    fn execute_matches_reference_under_every_plan(
        a_rows in prop::collection::vec((0i64..12, 0i64..30), 0..40),
        b_rows in prop::collection::vec((0i64..12, 0i64..30, 0i64..4), 0..30),
        c_rows in prop::collection::vec((0i64..12, 0i64..30), 0..20),
        query_idx in 0usize..22,
    ) {
        let a = Table::from_columns(
            "A",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int64),
                ColumnDef::new("val", DataType::Int64),
                ColumnDef::new("tag", DataType::Text),
            ]),
            vec![
                Column::Int64(a_rows.iter().map(|&(i, _)| i).collect()),
                Column::Int64(a_rows.iter().map(|&(_, v)| v).collect()),
                Column::Text(a_rows.iter().map(|&(i, v)| format!("s{}", (i + v) % 5)).collect()),
            ],
        ).unwrap();
        let b = Table::from_columns(
            "B",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int64),
                ColumnDef::new("val", DataType::Float64),
                ColumnDef::new("tag", DataType::Text),
            ]),
            vec![
                Column::Int64(b_rows.iter().map(|&(i, _, _)| i).collect()),
                Column::Float64(b_rows.iter().map(|&(_, v, _)| v as f64 * 0.5).collect()),
                Column::Text(b_rows.iter().map(|&(_, _, t)| format!("s{t}")).collect()),
            ],
        ).unwrap();
        let c = Table::from_int_columns(
            "C",
            &[
                ("id", c_rows.iter().map(|&(i, _)| i).collect()),
                ("w", c_rows.iter().map(|&(_, w)| w).collect()),
            ],
        ).unwrap();
        let mut catalog = Catalog::new();
        catalog.register(a);
        catalog.register(b);
        catalog.register(c);
        // NULLs reach storage as NaN (`table_from_rows` coerces them so):
        // two tables whose float key is NULL on every fifth value.
        catalog.register(nullable_table("N", a_rows.iter().map(|&(i, v)| (i, v))));
        catalog.register(nullable_table("M", c_rows.iter().map(|&(i, w)| (i, w + 1))));

        let queries = [
            "SELECT A.val, B.val FROM A, B WHERE A.id = B.id",
            "SELECT SUM(A.val), B.tag FROM A, B WHERE A.id = B.id GROUP BY B.tag",
            "SELECT SUM(A.val * B.val) FROM A, B WHERE A.id = B.id",
            "SELECT A.val, B.val FROM A, B WHERE A.id = B.id AND A.val >= 5 AND B.tag = 's1'",
            "SELECT A.val, B.val FROM A, B WHERE A.id < B.id LIMIT 7",
            "SELECT A.val, C.w FROM A, B, C WHERE A.id = B.id AND B.id = C.id",
            "SELECT COUNT(A.val), B.tag FROM A, B WHERE A.id = B.id AND B.val > 2 GROUP BY B.tag",
            "SELECT A.id, B.id, SUM(A.val * B.val) AS res FROM A, B WHERE A.id = B.id GROUP BY A.id, B.id",
            // Non-equi joins on text keys and on mixed Int64/Float64 keys.
            "SELECT A.val, B.val FROM A, B WHERE A.tag < B.tag",
            "SELECT A.id, B.id FROM A, B WHERE A.tag >= B.tag LIMIT 11",
            "SELECT A.val, B.val FROM A, B WHERE A.id < B.val",
            "SELECT A.id, B.id FROM A, B WHERE A.val = B.val",
            // `<>` and an ordering comparison over NULL keys.
            "SELECT N.id, M.id FROM N, M WHERE N.f <> M.f",
            "SELECT A.id, N.id FROM A, N WHERE A.val <= N.f",
            // Composite keys: a third table closing a cycle, and two
            // predicates between one pair of tables.
            "SELECT A.val, B.val, C.w FROM A, B, C WHERE A.id = B.id AND B.id = C.id AND A.val = C.w",
            "SELECT A.val, B.val FROM A, B WHERE A.id = B.id AND A.tag <> B.tag",
            // GROUP BY over complex expressions: integer arithmetic,
            // arithmetic over NaN-stored NULLs, a key mixing Int64 and
            // Float64, and a comparison.
            "SELECT A.id + B.id, SUM(A.val) FROM A, B WHERE A.id = B.id GROUP BY A.id + B.id",
            "SELECT N.f * 2, COUNT(*), SUM(A.val) FROM A, N WHERE A.id = N.id GROUP BY N.f * 2",
            "SELECT A.id + B.val, SUM(A.val), MAX(B.tag) FROM A, B WHERE A.id = B.id GROUP BY A.id + B.val",
            "SELECT A.val > 5, COUNT(*) FROM A, B WHERE A.id = B.id GROUP BY A.val > 5",
            // A residual across three tables, and two residuals where the
            // second divides by zero only on tuples the first rejects.
            "SELECT A.val, B.val, C.w FROM A, B, C WHERE A.id = B.id AND B.id = C.id AND A.val + B.val > C.w",
            "SELECT A.val, C.w FROM A, C WHERE A.id = C.id AND A.val - C.w <> 0 AND A.val / (A.val - C.w) > 0",
        ];
        let sql = queries[query_idx];
        let want = tcudb_reference::execute(&catalog, sql).unwrap();
        for (plan, db) in production_engines(&catalog) {
            let got = db.execute(sql).unwrap().table;
            prop_assert_eq!(rows(sql, &got), rows(sql, &want), "{} under {}", sql, plan);
            // A second run hits the warm dictionary and plan caches and
            // must be byte-identical to the first.
            let warm = db.execute(sql).unwrap().table;
            prop_assert_eq!(exact(&warm), exact(&got), "warm {} under {}", sql, plan);
        }
    }
}

/// Fixed filter shapes — every atom kind, literal-first comparisons, OR
/// and arithmetic falling back to the interpreter — plus the one
/// documented divergence from the reference: error ordering.
#[test]
fn filter_fixtures_match_reference_and_pin_error_ordering() {
    let scan = |cat: &Catalog, sql: &str| {
        let q = analyze(&parse(sql).unwrap(), cat).unwrap();
        let fast =
            relops::apply_filters_scan(&q, &QueryContext::unbounded(), &ScanOptions::serial())
                .map(|(surviving, ..)| surviving);
        (fast, tcudb_reference::apply_filters(&q))
    };
    let mut cat = Catalog::new();
    cat.register(filter_table(&[
        (1, 3, 0),
        (2, 4, 1),
        (3, -2, 0),
        (4, 8, 2),
        (5, 11, 1),
    ]));
    for sql in [
        "SELECT T.i FROM T WHERE T.i >= 2 AND T.i < 5",
        "SELECT T.i FROM T WHERE T.f > 1.5 AND T.s <> 's1'",
        "SELECT T.i FROM T WHERE T.s = 's0' OR T.s = 's2'",
        "SELECT T.i FROM T WHERE T.i BETWEEN 2 AND 4 AND T.f = 2",
        "SELECT T.i FROM T WHERE 3 < T.i",
        "SELECT T.i FROM T WHERE T.s >= 's1'",
        "SELECT T.i FROM T WHERE T.i + 1 > 3 AND T.i <= 4",
        "SELECT T.i FROM T WHERE T.f = 2.5",
    ] {
        let (fast, slow) = scan(&cat, sql);
        assert_eq!(fast.unwrap(), slow.unwrap(), "{sql}");
    }
    // The atom `T.i = 5` masks out the i=0 row before the division
    // predicate runs, so production succeeds where the reference (textual
    // predicate order on every row) raises division by zero.
    let mut cat = Catalog::new();
    cat.register(Table::from_int_columns("T", &[("i", vec![0, 5]), ("v", vec![1, 2])]).unwrap());
    let (fast, slow) = scan(&cat, "SELECT T.v FROM T WHERE T.v / T.i > 0 AND T.i = 5");
    assert_eq!(fast.unwrap(), vec![vec![1]]);
    assert!(slow.is_err());
}

/// `(id, f)` with `f = x / 2`, NULL (stored as NaN) when `x % 5 == 0`.
fn nullable_table(name: &str, rows: impl Iterator<Item = (i64, i64)> + Clone) -> Table {
    let f = |x: i64| if x % 5 == 0 { f64::NAN } else { x as f64 * 0.5 };
    Table::from_columns(
        name,
        Schema::from_pairs(&[("id", DataType::Int64), ("f", DataType::Float64)]),
        vec![
            Column::Int64(rows.clone().map(|(i, _)| i).collect()),
            Column::Float64(rows.map(|(_, x)| f(x)).collect()),
        ],
    )
    .unwrap()
}

/// Production under the cost-based optimizer and under every forced join
/// plan, plus a dense plan too large to materialise (the host operators
/// compute the pairs, the timeline is charged the kernel).
fn production_engines(catalog: &Catalog) -> Vec<(String, TcuDb)> {
    let mut configs = vec![("optimizer".to_string(), EngineConfig::default())];
    for kind in [
        PlanKind::GpuFallback,
        PlanKind::TcuDense,
        PlanKind::TcuSparse,
        PlanKind::TcuBlocked,
    ] {
        configs.push((
            kind.to_string(),
            EngineConfig::default().with_forced_plan(kind),
        ));
    }
    let mut at_scale = EngineConfig::default().with_forced_plan(PlanKind::TcuDense);
    at_scale.kernel_mac_limit = 0;
    configs.push(("TCU dense at scale".to_string(), at_scale));
    configs
        .into_iter()
        .map(|(label, config)| {
            let db = TcuDb::new(config);
            db.set_catalog(catalog.clone());
            (label, db)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Grouped aggregation: the vectorized output pipeline (group-id
// composition, segmented and one-hot-GEMM reduction, ORDER BY/LIMIT)
// against the row-at-a-time `Value` oracle.
// ---------------------------------------------------------------------

/// A three-column table whose group keys collide heavily: an integer key,
/// a text key and a numeric value column (int or float by `vmode`).
fn agg_table(rows: &[(i64, i64, i64)], vmode: i64) -> Table {
    let vals: Vec<i64> = rows.iter().map(|&(_, _, v)| v % 50 - 10).collect();
    let (vdef, vcol) = if vmode.rem_euclid(2) == 0 {
        (
            ColumnDef::new("v", DataType::Int64),
            Column::Int64(vals.clone()),
        )
    } else {
        (
            ColumnDef::new("v", DataType::Float64),
            Column::Float64(vals.iter().map(|&v| v as f64 * 0.5).collect()),
        )
    };
    Table::from_columns(
        "G",
        Schema::new(vec![
            ColumnDef::new("k", DataType::Int64),
            ColumnDef::new("tag", DataType::Text),
            vdef,
        ]),
        vec![
            Column::Int64(rows.iter().map(|&(k, _, _)| k % 5).collect()),
            Column::Text(
                rows.iter()
                    .map(|&(_, t, _)| format!("t{}", t % 3))
                    .collect(),
            ),
            vcol,
        ],
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All five aggregate functions × single/multi group keys × ORDER BY
    /// direction × LIMIT × empty inputs: the columnar pipeline (segmented
    /// or GEMM) must match the row-at-a-time reference end to end, twice
    /// (cold and warm dictionary caches).
    #[test]
    fn grouped_aggregation_matches_reference(
        g_rows in prop::collection::vec((0i64..8, 0i64..8, 0i64..80), 0..48),
        j_rows in prop::collection::vec(0i64..8, 0..12),
        vmode in 0i64..2,
        query_idx in 0usize..10,
    ) {
        let g = agg_table(&g_rows, vmode);
        let j = Table::from_int_columns(
            "J",
            &[("k", j_rows.clone()), ("w", j_rows.iter().map(|&k| k * 3 + 1).collect())],
        ).unwrap();

        let queries = [
            "SELECT SUM(G.v), G.k FROM G, J WHERE G.k = J.k GROUP BY G.k",
            "SELECT COUNT(G.v), G.tag FROM G, J WHERE G.k = J.k GROUP BY G.tag",
            "SELECT AVG(G.v), G.k, G.tag FROM G, J WHERE G.k = J.k GROUP BY G.k, G.tag",
            "SELECT MIN(G.v), MAX(G.v), G.k FROM G, J WHERE G.k = J.k GROUP BY G.k",
            "SELECT MIN(G.tag), MAX(G.tag), G.k FROM G, J WHERE G.k = J.k GROUP BY G.k",
            "SELECT SUM(G.v), G.tag FROM G, J WHERE G.k = J.k GROUP BY G.tag ORDER BY G.tag DESC",
            "SELECT COUNT(*), AVG(G.v * J.w), G.k FROM G, J WHERE G.k = J.k GROUP BY G.k ORDER BY G.k LIMIT 3",
            "SELECT SUM(G.v - J.w), COUNT(*) FROM G, J WHERE G.k = J.k",
            "SELECT MAX(G.v) FROM G, J WHERE G.k = J.k",
            "SELECT SUM(G.v), G.k FROM G, J WHERE G.k = J.k AND G.v > 1000 GROUP BY G.k",
        ];
        let sql = queries[query_idx];

        let mut catalog = Catalog::new();
        catalog.register(g);
        catalog.register(j);
        let want = tcudb_reference::execute(&catalog, sql).unwrap();
        for (plan, db) in production_engines(&catalog) {
            let got = db.execute(sql).unwrap().table;
            prop_assert_eq!(rows(sql, &got), rows(sql, &want), "{} under {}", sql, plan);
            let warm = db.execute(sql).unwrap().table;
            prop_assert_eq!(exact(&warm), exact(&got), "warm {} under {}", sql, plan);
        }
    }

    /// The segmented and the §3.3 fused one-hot-GEMM reductions must
    /// produce identical tables whenever the GEMM is admitted, both
    /// matching the reference's own finalize over the same tuples.
    #[test]
    fn segmented_and_gemm_finalize_agree(
        g_rows in prop::collection::vec((0i64..8, 0i64..8, 0i64..80), 1..40),
        tuple_raw in prop::collection::vec((0usize..64, 0usize..64), 0..48),
        vmode in 0i64..2,
        query_idx in 0usize..6,
    ) {
        let g = agg_table(&g_rows, vmode);
        let j = Table::from_int_columns("J", &[("k", vec![0, 1, 2, 3])]).unwrap();
        let mut cat = Catalog::new();
        cat.register(g);
        cat.register(j);

        let queries = [
            "SELECT SUM(G.v), G.k FROM G, J WHERE G.k = J.k GROUP BY G.k",
            "SELECT COUNT(G.v), G.k, G.tag FROM G, J WHERE G.k = J.k GROUP BY G.k, G.tag",
            "SELECT AVG(G.v), G.tag FROM G, J WHERE G.k = J.k GROUP BY G.tag ORDER BY G.tag",
            "SELECT SUM(G.v), COUNT(*) FROM G, J WHERE G.k = J.k",
            "SELECT SUM(G.v), G.k FROM G, J WHERE G.k = J.k GROUP BY G.k ORDER BY SUM(G.v) LIMIT 2",
            // A complex key: evaluated, then coded like a column's codes.
            "SELECT G.k * 2 + J.k, SUM(G.v), G.tag FROM G, J WHERE G.k = J.k GROUP BY G.k * 2 + J.k, G.tag",
        ];
        let sql = queries[query_idx];
        let q = analyze(&parse(sql).unwrap(), &cat).unwrap();

        let grows = cat.table("G").unwrap().num_rows();
        let jrows = cat.table("J").unwrap().num_rows();
        let tuples: Vec<Vec<usize>> = tuple_raw
            .iter()
            .map(|&(a, b)| vec![a % grows.max(1), b % jrows])
            .collect();
        let oracle = tcudb_reference::finalize_output(&q, &tuples);
        let batch = TupleBatch::from_tuples(&tuples, 2).unwrap();
        let segmented = relops::finalize_output_columnar(&q, &batch, &FinalizeOptions::baseline());
        let gemm = relops::finalize_output_columnar(&q, &batch, &FinalizeOptions::tensor(1 << 24));
        match (oracle, segmented, gemm) {
            (Ok(want), Ok((seg, seg_report)), Ok((via_gemm, gemm_report))) => {
                prop_assert_eq!(exact(&seg), exact(&want), "segmented {}", sql);
                prop_assert_eq!(exact(&via_gemm), exact(&want), "gemm {}", sql);
                // The complex key takes the grouped path and counts real
                // groups, like a column key.
                if query_idx == 5 {
                    prop_assert_eq!(seg_report.path, "grouped");
                    prop_assert!(matches!(gemm_report.path, "grouped" | "grouped-gemm"));
                    prop_assert_eq!(gemm_report.groups, want.num_rows());
                }
            }
            (o, s, g2) => {
                // ORDER BY SUM(...) is unresolvable on every path alike.
                prop_assert!(o.is_err() && s.is_err() && g2.is_err());
            }
        }
    }

    /// NULL-density sweep over the scalar aggregation oracle: NULLs are
    /// skipped by every function, SUM/AVG over zero non-NULL inputs are
    /// NULL, COUNT counts only non-NULL, MIN/MAX preserve types.
    #[test]
    fn aggregate_null_semantics(
        raw in prop::collection::vec((0i64..100, 0i64..4), 0..40),
        vmode in 0i64..3,
    ) {
        // NULL density ~25%; value type by vmode (int / float / text).
        let vals: Vec<Value> = raw
            .iter()
            .map(|&(x, null)| {
                if null == 0 {
                    Value::Null
                } else {
                    match vmode {
                        0 => Value::Int(x - 50),
                        1 => Value::Float((x - 50) as f64 * 0.25),
                        _ => Value::Text(format!("s{:02}", x % 20)),
                    }
                }
            })
            .collect();
        let live: Vec<&Value> = vals.iter().filter(|v| !v.is_null()).collect();

        prop_assert_eq!(
            relops::aggregate_values(AggFunc::Count, &vals),
            Value::Int(live.len() as i64)
        );
        let sum: f64 = live.iter().map(|v| v.as_f64().unwrap_or(0.0)).sum();
        let want_sum = if live.is_empty() { Value::Null } else { Value::Float(sum) };
        prop_assert_eq!(relops::aggregate_values(AggFunc::Sum, &vals), want_sum);
        let want_avg = if live.is_empty() {
            Value::Null
        } else {
            Value::Float(sum / live.len() as f64)
        };
        prop_assert_eq!(relops::aggregate_values(AggFunc::Avg, &vals), want_avg);
        // MIN/MAX: first-seen extreme under sql_cmp, type preserved.
        let mut want_min: Option<&Value> = None;
        let mut want_max: Option<&Value> = None;
        for v in &live {
            if want_min.is_none_or(|b| v.sql_cmp(b) == std::cmp::Ordering::Less) {
                want_min = Some(v);
            }
            if want_max.is_none_or(|b| v.sql_cmp(b) == std::cmp::Ordering::Greater) {
                want_max = Some(v);
            }
        }
        prop_assert_eq!(
            relops::aggregate_values(AggFunc::Min, &vals),
            want_min.cloned().unwrap_or(Value::Null)
        );
        prop_assert_eq!(
            relops::aggregate_values(AggFunc::Max, &vals),
            want_max.cloned().unwrap_or(Value::Null)
        );
    }
}

/// A table's schema and rows in order, cells in `Debug` form — which
/// tells `Int(1)` from `Float(1.0)` and lets a NaN cell equal itself.
fn exact(t: &Table) -> (Schema, Vec<String>) {
    let rows = (0..t.num_rows()).map(|i| format!("{:?}", t.row(i)));
    (t.schema().clone(), rows.collect())
}

/// A SELECT item with more than one aggregate call is rejected by the
/// analyzer with a typed error, in production and the reference alike;
/// one aggregate wrapped in arithmetic is fine.
#[test]
fn several_aggregates_in_one_item_are_an_analysis_error() {
    let mut cat = Catalog::new();
    cat.register(Table::from_int_columns("A", &[("val", vec![10, 20, 30])]).unwrap());
    let db = TcuDb::new(EngineConfig::default());
    db.set_catalog(cat.clone());
    for sql in [
        "SELECT SUM(A.val) + COUNT(*) FROM A",
        "SELECT SUM(A.val) / COUNT(A.val) FROM A",
    ] {
        assert!(
            matches!(db.execute(sql), Err(TcuError::Analysis(_))),
            "{sql}"
        );
        assert!(
            matches!(
                tcudb_reference::execute(&cat, sql),
                Err(TcuError::Analysis(_))
            ),
            "{sql}"
        );
    }
    let sql = "SELECT SUM(A.val) + (1 - 0.85) / 3 FROM A";
    let want = Value::Float(60.0 + (1.0 - 0.85) / 3.0);
    assert_eq!(db.execute(sql).unwrap().table.row(0), vec![want.clone()]);
    assert_eq!(
        tcudb_reference::execute(&cat, sql).unwrap().row(0),
        vec![want]
    );
}

/// NULL keys (only producible through intermediate value vectors, never
/// base columns) encode under the same group_key semantics as `Value`s.
#[test]
fn null_keys_encode_like_domain_inserts() {
    let vals = [
        Value::Int(1),
        Value::Null,
        Value::Float(1.0),
        Value::Null,
        Value::Text("x".into()),
    ];
    let dict = DictColumn::from_values(&vals);
    let mut dom = Domain::default();
    for v in &vals {
        dom.insert(v.clone());
    }
    let src = EncodedSource::whole(&dict);
    let (edom, maps) = Domain::build_encoded(&[src]);
    assert_eq!(edom.values(), dom.values());
    // Int(1) and Float(1.0) share a code; Nulls share another.
    assert_eq!(dict.codes(), &[0, 1, 0, 1, 2]);
    let m = one_hot_matrix_encoded(&src, &maps[0], edom.len());
    assert_eq!(m.rows(), 5);
    for (i, v) in vals.iter().enumerate() {
        let j = dom.index_of(v).unwrap();
        assert_eq!(m.get(i, j), 1.0, "row {i}");
    }
}

// ---------------------------------------------------------------------
// Star joins: the star route (one pass over the fact table, each
// dimension a lookup array over the foreign-key codes) against the
// reference under every plan, and against the pairwise driver shape for
// shape and tuple for tuple.
// ---------------------------------------------------------------------

/// Key types: 0 = Int64 on both sides; 1 = Float64 half-steps on both
/// sides; 2 = integral Float64 foreign keys against Int64 dimension keys.
/// Float foreign keys are NULL (stored as NaN) where the draw is 9.
fn star_fk(mode: usize, x: i64) -> f64 {
    match (mode, x) {
        (0, _) => x as f64,
        (_, 9) => f64::NAN,
        (1, _) => x as f64 * 0.5,
        _ => x as f64,
    }
}

/// The fact table `F(f1, f2, f3, val, g)`.
fn star_fact(mode: usize, rows: &[(i64, i64, i64, i64, i64)]) -> Table {
    let fk = |pick: fn(&(i64, i64, i64, i64, i64)) -> i64| -> Column {
        if mode == 0 {
            Column::Int64(rows.iter().map(pick).collect())
        } else {
            Column::Float64(rows.iter().map(|r| star_fk(mode, pick(r))).collect())
        }
    };
    let kt = if mode == 0 {
        DataType::Int64
    } else {
        DataType::Float64
    };
    Table::from_columns(
        "F",
        Schema::from_pairs(&[
            ("f1", kt),
            ("f2", kt),
            ("f3", kt),
            ("val", DataType::Int64),
            ("g", DataType::Int64),
        ]),
        vec![
            fk(|r| r.0),
            fk(|r| r.1),
            fk(|r| r.2),
            Column::Int64(rows.iter().map(|r| r.3).collect()),
            Column::Int64(rows.iter().map(|r| r.4).collect()),
        ],
    )
    .unwrap()
}

/// Dimension `D{i}(id, a, w)` with one row per `(id, a, w)`.
fn star_dim(i: usize, mode: usize, rows: &[(i64, i64, i64)]) -> Table {
    let ids = rows.iter().map(|r| r.0);
    let id = if mode == 1 {
        Column::Float64(ids.map(|x| x as f64 * 0.5).collect())
    } else {
        Column::Int64(ids.collect())
    };
    let kt = if mode == 1 {
        DataType::Float64
    } else {
        DataType::Int64
    };
    Table::from_columns(
        format!("D{i}"),
        Schema::from_pairs(&[("id", kt), ("a", DataType::Text), ("w", DataType::Int64)]),
        vec![
            id,
            Column::Text(rows.iter().map(|r| format!("a{}", r.1)).collect()),
            Column::Int64(rows.iter().map(|r| r.2).collect()),
        ],
    )
    .unwrap()
}

/// The joined tuples of a batch as sorted row-index lists.
fn sorted_tuples(batch: &TupleBatch) -> Vec<Vec<u32>> {
    let mut t: Vec<Vec<u32>> = (0..batch.len())
        .map(|i| (0..batch.num_slots()).map(|p| batch.col(p)[i]).collect())
        .collect();
    t.sort();
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A fact table and 1–3 dimensions: Int64, Float64 and mixed keys with
    /// NULL foreign keys, a duplicated dimension key that must fall back,
    /// filters that reject every dimension row, group keys on either side,
    /// all five aggregates, a residual across two dimensions and a plain
    /// projection.
    #[test]
    fn star_route_matches_reference_and_pairwise_driver(
        fact in prop::collection::vec((0i64..10, 0i64..10, 0i64..10, -5i64..20, 0i64..3), 0..40),
        present in prop::collection::vec(prop::collection::vec(0u8..4, 10..11), 3..4),
        attrs in prop::collection::vec(prop::collection::vec((0i64..4, 0i64..9), 10..11), 3..4),
        ndims in 1usize..4,
        mode in 0usize..3,
        dup in 0u8..4,
        filters in prop::collection::vec(0usize..5, 3..4),
        query_idx in 0usize..6,
    ) {
        let (mut fact, dup) = (fact, dup == 0);
        let mut catalog = Catalog::new();
        for i in 0..3 {
            let mut rows: Vec<(i64, i64, i64)> = (0..10)
                .filter(|&k| present[i][k] > 0 && !(dup && i == 0 && k == 0))
                .map(|k| (k as i64, attrs[i][k].0, attrs[i][k].1))
                .collect();
            if dup && i == 0 {
                // Two rows keyed 0, both passing the partial filter (and
                // query 4's residual, a filter on D1 when it is the only
                // dimension), and a fact row that matches them.
                rows.push((0, 1, 3));
                rows.push((0, 2, 4));
                fact.push((0, 1, 1, 7, 0));
            }
            catalog.register(star_dim(i + 1, mode, &rows));
        }
        catalog.register(star_fact(mode, &fact));
        // Filter modes: 1 keeps some rows, 2 rejects every row, the rest
        // filter nothing.  Only a duplicate that survives D1's filter
        // makes the query ineligible.
        let eligible = !(dup && filters[0] != 2);

        let dims: Vec<usize> = (1..=ndims).collect();
        let from: Vec<String> = dims.iter().map(|i| format!("D{i}")).collect();
        let mut wheres: Vec<String> = dims.iter().map(|i| format!("F.f{i} = D{i}.id")).collect();
        for &i in &dims {
            match filters[i - 1] {
                1 => wheres.push(format!("D{i}.w < 6")),
                2 => wheres.push(format!("D{i}.w > 100")),
                _ => {}
            }
        }
        let (from, wheres) = (from.join(", "), wheres.join(" AND "));
        let attrs: Vec<String> = dims.iter().map(|i| format!("D{i}.a")).collect();
        let sql = match query_idx {
            0 => format!("SELECT F.val, {} FROM {from}, F WHERE {wheres}", attrs.join(", ")),
            1 => format!("SELECT D1.a, SUM(F.val) FROM {from}, F WHERE {wheres} GROUP BY D1.a"),
            2 => format!("SELECT F.g, COUNT(*) FROM {from}, F WHERE {wheres} GROUP BY F.g"),
            3 => format!(
                "SELECT D{ndims}.a, AVG(F.val), MIN(F.val), MAX(D1.w) FROM {from}, F \
                 WHERE {wheres} GROUP BY D{ndims}.a"
            ),
            4 => format!(
                "SELECT F.val, D1.w FROM {from}, F WHERE {wheres} AND D1.w + D{ndims}.w > 3"
            ),
            _ => format!(
                "SELECT F.g, D1.a, SUM(F.val * D1.w) FROM {from}, F WHERE {wheres} \
                 GROUP BY F.g, D1.a ORDER BY F.g, D1.a LIMIT 5"
            ),
        };

        let want = tcudb_reference::execute(&catalog, &sql).unwrap();
        for (plan, db) in production_engines(&catalog) {
            let got = db.execute(&sql).unwrap();
            prop_assert_eq!(rows(&sql, &got.table), rows(&sql, &want), "{} under {}", sql, plan);
            prop_assert!(eligible || !got.plan.star_join, "{} under {}", sql, plan);
            if plan == PlanKind::GpuFallback.to_string() {
                // The GPU fallback never runs a kernel, so the star route
                // is taken exactly when the query is eligible.
                prop_assert_eq!(got.plan.star_join, eligible, "{}", sql);
            }
            let warm = db.execute(&sql).unwrap();
            prop_assert_eq!(exact(&warm.table), exact(&got.table), "warm {} under {}", sql, plan);
            prop_assert_eq!(warm.plan.star_join, got.plan.star_join);
        }

        // The star route against the pairwise driver on the same query.
        let q = analyze(&parse(&sql).unwrap(), &catalog).unwrap();
        let ctx = QueryContext::unbounded();
        let (surviving, ..) = relops::apply_filters_scan(&q, &ctx, &ScanOptions::serial()).unwrap();
        let star = pipeline::star_join(&q, &surviving, &ctx, 2).unwrap();
        prop_assert_eq!(star.is_some(), eligible, "{}", sql);
        if let Some(star) = star {
            let mut shapes = Vec::new();
            let pairwise = pipeline::join(&q, &surviving, &ctx, |step| {
                let pairs = step.host_pairs(1)?.0;
                shapes.push(step.shape(pairs.len()));
                Ok(pairs)
            }).unwrap();
            let star_shapes: Vec<_> = star.steps.iter().map(|s| s.shape).collect();
            prop_assert_eq!(star_shapes, shapes, "{}", sql);
            prop_assert_eq!(sorted_tuples(&star.batch), sorted_tuples(&pairwise), "{}", sql);
        }
    }
}

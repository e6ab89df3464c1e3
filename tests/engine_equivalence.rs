//! Cross-engine integration tests: TCUDB, the YDB baseline and the CPU
//! baseline must return identical answers for every workload family of the
//! paper's evaluation.  (Timings differ — that is the point of the paper —
//! but answers never do.)

use tcudb::datagen::{em, graph, matmul, micro, ssb, Xorshift};
use tcudb::prelude::*;

/// Run one query on all three engines and assert the result tables match
/// row for row (after sorting rows textually, since row order is only
/// defined when the query has an ORDER BY).
fn assert_engines_agree(catalog: &Catalog, sql: &str) {
    let tcudb = TcuDb::default();
    tcudb.set_catalog(catalog.clone());
    let ydb = YdbEngine::default();
    ydb.set_catalog(catalog.clone());
    let monet = MonetEngine::default();
    monet.set_catalog(catalog.clone());

    let t = tcudb.execute(sql).expect("tcudb executes");
    let y = ydb.execute(sql).expect("ydb executes");
    let m = monet.execute(sql).expect("monet executes");

    let normalize = |table: &Table| -> Vec<String> {
        let mut rows: Vec<String> = (0..table.num_rows())
            .map(|i| {
                table
                    .row(i)
                    .iter()
                    .map(|v| match v {
                        Value::Float(f) => format!("{:.6}", f),
                        other => other.to_string(),
                    })
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect();
        rows.sort();
        rows
    };

    assert_eq!(
        normalize(&t.table),
        normalize(&y.table),
        "TCUDB vs YDB on {sql}"
    );
    assert_eq!(
        normalize(&t.table),
        normalize(&m.table),
        "TCUDB vs CPU on {sql}"
    );
}

#[test]
fn microbenchmark_queries_agree_across_engines() {
    let catalog = micro::gen_catalog(&micro::MicroConfig::new(512, 16));
    for (_, sql) in micro::queries() {
        assert_engines_agree(&catalog, sql);
    }
    assert_engines_agree(&catalog, micro::Q5);
}

#[test]
fn microbenchmark_agreement_across_distinct_counts() {
    for distinct in [4, 64, 256] {
        let catalog = micro::gen_catalog(&micro::MicroConfig::new(256, distinct));
        assert_engines_agree(&catalog, micro::Q1);
        assert_engines_agree(&catalog, micro::Q3);
    }
}

#[test]
fn matrix_multiplication_query_agrees_across_engines() {
    let catalog = matmul::gen_catalog(24, 1.0, matmul::ValueRange::Int7, 3);
    assert_engines_agree(&catalog, matmul::MATMUL_QUERY);
    // Sparse matrices exercise the TCU-SpMM path.
    let sparse = matmul::gen_catalog(48, 0.05, matmul::ValueRange::Binary, 5);
    assert_engines_agree(&sparse, matmul::MATMUL_QUERY);
}

#[test]
fn entity_matching_blocking_agrees_across_engines() {
    // A shrunken BeerAdvo-style dataset keeps the debug-mode runtime low
    // while exercising every blocking attribute.
    let dataset = em::EmDataset {
        name: "mini-beer",
        rows_a: 400,
        rows_b: 300,
        attributes: vec![
            ("ABV", 20),
            ("STYLE", 71),
            ("FACTORY", 368),
            ("BEER_NAME", 623),
        ],
    };
    let catalog = em::gen_catalog(&dataset, 23);
    for (attr, _) in &dataset.attributes {
        assert_engines_agree(&catalog, &em::blocking_query(attr));
    }
}

#[test]
fn ssb_flight_representatives_agree_across_engines() {
    // A hand-shrunk SSB instance (the mini generator's smallest scale is
    // still 60 000 fact rows, too slow for a debug-mode test).
    let mut rng = Xorshift::new(9);
    let date = ssb::gen_date();
    let customer = ssb::gen_customer(60, &mut rng);
    let supplier = ssb::gen_supplier(10, &mut rng);
    let part = ssb::gen_part(80, &mut rng);
    let scale = ssb::SsbScale {
        sf: 1,
        lineorder: 2_000,
        customer: 60,
        supplier: 10,
        part: 80,
        date: 2_556,
    };
    let lineorder = ssb::gen_lineorder(&scale, &date, &mut rng);
    let mut catalog = Catalog::new();
    catalog.register(date);
    catalog.register(customer);
    catalog.register(supplier);
    catalog.register(part);
    catalog.register(lineorder);

    for (_, sql) in ssb::figure9_queries() {
        assert_engines_agree(&catalog, &sql);
    }
}

/// On SSB-mini, flight 2 (`lineorder` joined to three unique-keyed
/// dimensions) runs on the star route; flight 1's two-table join roots at
/// `date` and joins the non-unique `lineorder` keys pairwise.
#[test]
fn ssb_mini_takes_the_star_route_where_eligible() {
    let db = TcuDb::default();
    db.set_catalog(ssb::gen_catalog(1, 0x55B));
    for (name, sql) in ssb::queries() {
        let want = match name {
            "Q1.1" | "Q1.2" | "Q1.3" => false,
            "Q2.1" | "Q2.2" | "Q2.3" => true,
            _ => continue,
        };
        let out = db.execute(&sql).expect("tcudb executes");
        assert_eq!(out.plan.star_join, want, "{name}");
    }
}

#[test]
fn pagerank_queries_agree_across_engines() {
    let g = graph::gen_road_graph(256, 520, 7);
    let mut catalog = graph::gen_catalog(&g);
    graph::register_pagerank_state(&mut catalog, &g, &vec![1.0 / 256.0; 256]);
    assert_engines_agree(&catalog, graph::PR_Q1);
    assert_engines_agree(&catalog, &graph::pr_q2(g.nodes));
    assert_engines_agree(&catalog, &graph::pr_q3(g.nodes));
}

#[test]
fn forced_plans_do_not_change_answers() {
    let catalog = micro::gen_catalog(&micro::MicroConfig::new(300, 8));
    let sql = micro::Q3;
    let normalize = |table: &Table| -> Vec<String> {
        let mut rows: Vec<String> = (0..table.num_rows())
            .map(|i| {
                table
                    .row(i)
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect();
        rows.sort();
        rows
    };
    let reference = {
        let db = TcuDb::default();
        db.set_catalog(catalog.clone());
        normalize(&db.execute(sql).unwrap().table)
    };
    for plan in [
        PlanKind::TcuDense,
        PlanKind::TcuSparse,
        PlanKind::GpuFallback,
    ] {
        let db = TcuDb::new(EngineConfig::default().with_forced_plan(plan));
        db.set_catalog(catalog.clone());
        let out = db.execute(sql).unwrap();
        assert_eq!(normalize(&out.table), reference, "plan {plan:?}");
    }
}

/// Composite join keys: the second predicate between an already-joined
/// pair of tables is a residual of the shared join driver, so it holds on
/// every engine (dropping it would return all six `id` matches).
#[test]
fn composite_join_keys_hold_on_every_engine() {
    let mut catalog = Catalog::new();
    catalog.register(
        Table::from_int_columns(
            "A",
            &[
                ("id", vec![1, 1, 2]),
                ("k", vec![1, 2, 3]),
                ("val", vec![10, 11, 20]),
            ],
        )
        .unwrap(),
    );
    catalog.register(
        Table::from_int_columns(
            "B",
            &[
                ("id", vec![1, 1, 2, 2]),
                ("k", vec![1, 3, 3, 4]),
                ("val", vec![5, 6, 7, 8]),
            ],
        )
        .unwrap(),
    );
    let tcudb = TcuDb::default();
    tcudb.set_catalog(catalog.clone());
    let ydb = YdbEngine::default();
    ydb.set_catalog(catalog.clone());
    let monet = MonetEngine::default();
    monet.set_catalog(catalog.clone());
    let pairs = |table: &Table| -> Vec<(i64, i64)> {
        let mut rows: Vec<(i64, i64)> = (0..table.num_rows())
            .map(|i| {
                let row = table.row(i);
                (row[0].as_i64().unwrap(), row[1].as_i64().unwrap())
            })
            .collect();
        rows.sort();
        rows
    };
    for (sql, want) in [
        (
            "SELECT A.val, B.val FROM A, B WHERE A.id = B.id AND A.k = B.k",
            vec![(10, 5), (20, 7)],
        ),
        (
            "SELECT A.val, B.val FROM A, B WHERE A.id = B.id AND A.k < B.k",
            vec![(10, 6), (11, 6), (20, 8)],
        ),
    ] {
        assert_eq!(
            pairs(&tcudb.execute(sql).unwrap().table),
            want,
            "TCUDB {sql}"
        );
        assert_eq!(pairs(&ydb.execute(sql).unwrap().table), want, "YDB {sql}");
        assert_eq!(pairs(&monet.execute(sql).unwrap().table), want, "CPU {sql}");
        assert_engines_agree(&catalog, sql);
    }
}

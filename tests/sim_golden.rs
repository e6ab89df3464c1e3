//! "No plan and no simulated timing moved", in tree: for the micro set
//! (Q1, Q3, Q4, Q5) and the 13 SSB-mini queries, `TcuDb`'s plan text and
//! the bit pattern of every engine's simulated total must equal the table
//! in `tests/golden/sim_golden.txt`.
//!
//! The table is a recording, not a specification: re-record it (the
//! failure message prints the block to paste) only in a change that means
//! to move a plan or a cost formula, and say so in that change.

use tcudb::datagen::{micro, ssb};
use tcudb::prelude::*;

const GOLDEN: &str = include_str!("golden/sim_golden.txt");

/// One golden block: engine totals as f64 bit patterns, then the plan.
fn block(name: &str, catalog: &Catalog, sql: &str) -> String {
    let tcu = TcuDb::default();
    tcu.set_catalog(catalog.clone());
    let ydb = YdbEngine::default();
    ydb.set_catalog(catalog.clone());
    let monet = MonetEngine::default();
    monet.set_catalog(catalog.clone());
    let t = tcu.execute(sql).expect("tcudb executes");
    let y = ydb.execute(sql).expect("ydb executes");
    let m = monet.execute(sql).expect("monet executes");
    format!(
        "== {name}\ntcu={:#018x} ydb={:#018x} monet={:#018x}\n{}",
        t.timeline.total_seconds().to_bits(),
        y.total_seconds().to_bits(),
        m.total_seconds().to_bits(),
        t.plan.format()
    )
}

#[test]
fn plans_and_simulated_totals_match_the_recording() {
    let mut actual = String::new();
    let micro_catalog = micro::gen_catalog(&micro::MicroConfig::new(2048, 64));
    for (name, sql) in [
        ("Q1", micro::Q1),
        ("Q3", micro::Q3),
        ("Q4", micro::Q4),
        ("Q5", micro::Q5),
    ] {
        actual.push_str(&block(&format!("micro/{name}"), &micro_catalog, sql));
    }
    let ssb_catalog = ssb::gen_catalog(1, 0x55B);
    for (name, sql) in ssb::queries() {
        actual.push_str(&block(&format!("ssb-mini/{name}"), &ssb_catalog, &sql));
    }
    let (mut want, mut got) = (GOLDEN.split("== "), actual.split("== "));
    loop {
        match (want.next(), got.next()) {
            (None, None) => break,
            (w, g) => assert_eq!(
                w.unwrap_or("<missing>"),
                g.unwrap_or("<missing>"),
                "block moved (left: recorded, right: this build)"
            ),
        }
    }
}

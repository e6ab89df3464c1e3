//! `ssb_sf1`: the 13 Star Schema Benchmark queries, one in-process
//! caller, on the paper's full scale factor 1 (6M-row `lineorder`).
//!
//! Chosen because scanning, zone-map pruning, the morsel pool and
//! multi-way star joins on data far larger than any cache do nearly all
//! the work here, while the tensor kernels, `net` and `serve` do none: it
//! is the workload for scan and join-planning changes, and the one that
//! must not move when those other layers change.

use super::corpus::{self, Built, Expect, Spec, Stmt};
use super::{Outcome, RunArgs, DATA_SEED};
use crate::probe::{self, Dataset, Res};
use crate::trace::Tracer;
use crate::verify::{ssb_flight1, DateDim, LineorderFacts};

fn flight_layer(name: &str) -> &'static str {
    match name.as_bytes().get(1) {
        Some(b'1') => "core.flight1_ms",
        Some(b'2') => "core.flight2_ms",
        Some(b'3') => "core.flight3_ms",
        _ => "core.flight4_ms",
    }
}

fn build(args: &RunArgs) -> Res<Built> {
    let data = if args.smoke {
        Dataset::ssb_mini(DATA_SEED)
    } else {
        Dataset::ssb_full(DATA_SEED)
    };
    // Flight 1 recomputed by the harness: one filter-and-sum pass.
    let revenue = data.with_ints(
        "date",
        &["d_datekey", "d_year", "d_yearmonthnum", "d_weeknuminyear"],
        |d| {
            data.with_ints(
                "lineorder",
                &[
                    "lo_orderdate",
                    "lo_discount",
                    "lo_quantity",
                    "lo_extendedprice",
                ],
                |lo| {
                    ssb_flight1(
                        &DateDim {
                            datekey: d[0],
                            year: d[1],
                            yearmonthnum: d[2],
                            weeknuminyear: d[3],
                        },
                        &LineorderFacts {
                            orderdate: lo[0],
                            discount: lo[1],
                            quantity: lo[2],
                            extendedprice: lo[3],
                        },
                    )
                },
            )
        },
    )??;
    let stmts = probe::ssb_queries()
        .into_iter()
        .map(|(name, sql)| {
            let expect = match name.as_str() {
                "Q1.1" => Expect::Scalar(revenue[0] as f64),
                "Q1.2" => Expect::Scalar(revenue[1] as f64),
                "Q1.3" => Expect::Scalar(revenue[2] as f64),
                _ => Expect::Repeatable,
            };
            Stmt {
                layers: vec![flight_layer(&name)],
                name,
                sql,
                engine: 0,
                expect,
            }
        })
        .collect();
    Ok(Built {
        datasets: vec![data],
        stmts,
    })
}

pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Res<Outcome> {
    corpus::run(
        &Spec {
            workload: "ssb_sf1",
            // One set-up generates and loads 6M rows (about ten seconds):
            // long enough to be steady without repeating it.
            setup_reps: 1,
            build: &build,
            leaves: None,
        },
        args,
        tracer,
    )
}

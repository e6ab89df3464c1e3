//! `tcu_apps`: the paper's TCU applications, one in-process caller —
//! micro joins (Q1/Q3/Q4), matrix multiplication as SQL, entity-matching
//! blocking, and PageRank.
//!
//! Chosen because two-way high-fan-out joins, matrix building, grouped
//! aggregation and large result materialisation dominate, and storage
//! scanning is negligible.  Two classes of statement:
//!
//! * **model-only**: shapes over the engine's `kernel_mac_limit`, so the
//!   host computes the answer through the hash-equivalent path and only
//!   *prices* the tensor kernel.  A change to `tensor` must not move
//!   these.
//! * **kernel-resident**: shapes inside the MAC budget, so the emulated
//!   tensor kernels really execute.  This is where a `tensor` change
//!   reaches an end-to-end number.

use std::time::Instant;

use super::corpus::{self, Built, Expect, Spec, Stmt};
use super::{Outcome, RunArgs, DATA_SEED, SHORT_SETUP_REPS};
use crate::probe::{self, Dataset, Precision, Res};
use crate::schedule::Rng;
use crate::stats::median;
use crate::trace::Tracer;
use crate::verify::{join_cardinality, join_product_sum, naive_matmul, Coo};

const MODEL_ONLY: &str = "core.model_only_ms";
const KERNEL_RESIDENT: &str = "core.kernel_resident_ms";
const MICRO: &str = "core.micro_ms";
const MATMUL: &str = "core.matmul_ms";
const EM: &str = "core.em_ms";
const PAGERANK: &str = "core.pagerank_ms";

/// Input sizes; the smoke column is about 1/100 of the full one.
struct Sizes {
    micro_small: (usize, usize),
    micro_large: (usize, usize),
    matmul_dims: [usize; 2],
    graph_model_only: (usize, usize),
    /// Micro Q1 inside the MAC budget: planned as an int8 dense GEMM.
    micro_int8: (usize, usize),
    /// Micro Q1 inside the MAC budget: planned as a half dense GEMM.
    micro_half: (usize, usize),
    graph_kernel_resident: (usize, usize),
    spmm: (usize, usize),
    grouped: (usize, usize),
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            micro_small: (200, 41),
            micro_large: (2_000, 328),
            matmul_dims: [12, 16],
            graph_model_only: (256, 515),
            micro_int8: (150, 12),
            micro_half: (128, 16),
            graph_kernel_resident: (64, 128),
            spmm: (256, 64),
            grouped: (4_096, 10),
        }
    } else {
        Sizes {
            micro_small: (20_000, 4_096),
            micro_large: (200_000, 32_768),
            matmul_dims: [96, 128],
            // Graph #4 of the paper's Table 4.
            graph_model_only: Dataset::table4_size(3),
            micro_int8: (1_500, 48),
            micro_half: (1_024, 128),
            graph_kernel_resident: (512, 1_024),
            spmm: (2_048, 512),
            grouped: (65_536, 50),
        }
    }
}

/// Position of the kernel-resident micro datasets in [`Built::datasets`];
/// the tensor leaves reuse their key columns as kernel inputs.
const MICRO_INT8_AT: usize = 2;
const MICRO_HALF_AT: usize = 3;

fn micro_columns(data: &Dataset) -> Res<[Vec<i64>; 4]> {
    let a = data.with_ints("A", &["id", "val"], |c| (c[0].to_vec(), c[1].to_vec()))?;
    let b = data.with_ints("B", &["id", "val"], |c| (c[0].to_vec(), c[1].to_vec()))?;
    Ok([a.0, a.1, b.0, b.1])
}

fn build(args: &RunArgs) -> Res<Built> {
    let sz = sizes(args.smoke);
    let mut datasets = Vec::new();
    let mut stmts = Vec::new();
    let mut seed = DATA_SEED;
    let mut next_seed = || {
        seed = seed.wrapping_add(0x9e37_79b9);
        seed
    };

    // Micro joins.  Q1's cardinality and Q4's sum are recomputed from the
    // generated columns.
    let mut micro = |label: &str,
                     (records, distinct): (usize, usize),
                     queries: &[(&str, &str)],
                     class: &'static str,
                     datasets: &mut Vec<Dataset>,
                     stmts: &mut Vec<Stmt>|
     -> Res<()> {
        let data = Dataset::micro(records, distinct, next_seed());
        let [a_ids, a_vals, b_ids, b_vals] = micro_columns(&data)?;
        for (q, sql) in queries {
            let expect = match *q {
                "Q1" => Expect::Rows(join_cardinality(&a_ids, &b_ids)),
                "Q4" => Expect::Scalar(join_product_sum(&a_ids, &a_vals, &b_ids, &b_vals) as f64),
                _ => Expect::Repeatable,
            };
            stmts.push(Stmt {
                name: format!("{label}/{q}"),
                sql: sql.to_string(),
                engine: datasets.len(),
                layers: vec![class, MICRO],
                expect,
            });
        }
        datasets.push(data);
        Ok(())
    };
    let all = [
        ("Q1", probe::MICRO_Q1),
        ("Q3", probe::MICRO_Q3),
        ("Q4", probe::MICRO_Q4),
    ];
    micro(
        "micro_small",
        sz.micro_small,
        &all,
        MODEL_ONLY,
        &mut datasets,
        &mut stmts,
    )?;
    micro(
        "micro_large",
        sz.micro_large,
        &all[1..],
        MODEL_ONLY,
        &mut datasets,
        &mut stmts,
    )?;
    micro(
        "micro_int8",
        sz.micro_int8,
        &all[..1],
        KERNEL_RESIDENT,
        &mut datasets,
        &mut stmts,
    )?;
    micro(
        "micro_half",
        sz.micro_half,
        &all[..1],
        KERNEL_RESIDENT,
        &mut datasets,
        &mut stmts,
    )?;

    // Matrix multiplication as SQL, checked against the naive product.
    for dim in sz.matmul_dims {
        let data = Dataset::matmul(dim, next_seed());
        let columns = ["row_num", "col_num", "val"];
        let want = data.with_ints("A", &columns, |a| {
            data.with_ints("B", &columns, |b| {
                fn coo<'a>(m: &[&'a [i64]]) -> Coo<'a> {
                    Coo {
                        row: m[0],
                        col: m[1],
                        val: m[2],
                    }
                }
                naive_matmul(&coo(a), &coo(b), dim)
            })
        })??;
        stmts.push(Stmt {
            name: format!("matmul{dim}"),
            sql: probe::MATMUL_QUERY.to_string(),
            engine: datasets.len(),
            layers: vec![MODEL_ONLY, MATMUL],
            expect: Expect::Matmul(want),
        });
        datasets.push(data);
    }

    // Entity-matching blocking on every attribute; the pair count is the
    // join cardinality of the attribute columns.
    let (beer, attributes) = Dataset::beer(next_seed());
    for attr in attributes {
        let a = beer.with_ints("TABLE_A", &[attr], |c| c[0].to_vec())?;
        let b = beer.with_ints("TABLE_B", &[attr], |c| c[0].to_vec())?;
        stmts.push(Stmt {
            name: format!("em/{attr}"),
            sql: probe::em_blocking_query(attr),
            engine: datasets.len(),
            layers: vec![MODEL_ONLY, EM],
            expect: Expect::Rows(join_cardinality(&a, &b)),
        });
    }
    datasets.push(beer);

    // PageRank Q1-Q3 on a graph over the MAC budget and one inside it.
    for (label, (nodes, edges), class) in [
        ("pr_large", sz.graph_model_only, MODEL_ONLY),
        ("pr_small", sz.graph_kernel_resident, KERNEL_RESIDENT),
    ] {
        let queries = [
            ("Q1", probe::PR_Q1.to_string()),
            ("Q2", probe::pr_q2(nodes)),
            ("Q3", probe::pr_q3(nodes)),
        ];
        for (q, sql) in queries {
            stmts.push(Stmt {
                name: format!("{label}/{q}"),
                sql,
                engine: datasets.len(),
                layers: vec![class, PAGERANK],
                // Every node has out-degree >= 1 (ring backbone), so Q1
                // and Q2 return one row per node.
                expect: if q == "Q3" {
                    Expect::Repeatable
                } else {
                    Expect::Rows(nodes as u64)
                },
            });
        }
        datasets.push(Dataset::road_graph(nodes, edges, next_seed()));
    }

    Ok(Built { datasets, stmts })
}

/// Median seconds of `f` over repetitions filling `budget_s` (at least
/// three), each repetition a span.
fn time_kernel<R>(
    name: &str,
    budget_s: f64,
    tracer: &mut Tracer,
    mut f: impl FnMut() -> Res<R>,
) -> Res<(R, f64, u64)> {
    let t = Instant::now();
    let mut secs = Vec::new();
    loop {
        let (r, s) = tracer.time(name, None, None, &mut f);
        let r = r?;
        secs.push(s);
        if secs.len() >= 3 && t.elapsed().as_secs_f64() >= budget_s {
            return Ok((r, median(&secs), secs.len() as u64));
        }
    }
}

/// The tensor kernels called directly, on operands built from the
/// workload's own key columns: what a `tensor` change moves before any
/// of `core` is involved.
fn tensor_leaves(
    built: &Built,
    args: &RunArgs,
    budget_s: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Res<()> {
    let sz = sizes(args.smoke);
    let each = budget_s / 4.0;
    let mut total_macs = 0u64;

    for (at, precision, ms_metric, rate_metric) in [
        (
            MICRO_INT8_AT,
            Precision::Int8,
            "tensor.gemm_bt_int8_ms",
            "tensor.gmacs_per_s_int8",
        ),
        (
            MICRO_HALF_AT,
            Precision::Half,
            "tensor.gemm_bt_half_ms",
            "tensor.gmacs_per_s_half",
        ),
    ] {
        let [a_ids, _, b_ids, _] = micro_columns(&built.datasets[at])?;
        let domain = a_ids
            .iter()
            .chain(&b_ids)
            .max()
            .map_or(1, |m| *m as usize + 1);
        let a = probe::one_hot_dense(&a_ids, domain);
        let b = probe::one_hot_dense(&b_ids, domain);
        let ((sum, macs), secs, n) = time_kernel(ms_metric, each, tracer, || {
            probe::gemm_bt_sum(&a, &b, precision)
        })?;
        // The product of two one-hot operands counts the joining pairs.
        let want = join_cardinality(&a_ids, &b_ids);
        out.check(sum == want as f64, || {
            format!("{ms_metric}: product sums to {sum}, join has {want} pairs")
        });
        out.metrics.set(ms_metric, secs * 1e3, n);
        out.metrics.set(rate_metric, macs as f64 / secs / 1e9, n);
        total_macs += macs;
    }

    let mut rng = Rng::new(0x5_9A11);
    let (rows, domain) = sz.spmm;
    let keys = |rng: &mut Rng| -> Vec<i64> {
        (0..rows).map(|_| rng.below(domain as u64) as i64).collect()
    };
    let (a_keys, b_keys) = (keys(&mut rng), keys(&mut rng));
    let a = probe::one_hot_csr(&a_keys, domain)?;
    let b = probe::one_hot_csr(&b_keys, domain)?;
    let ((sum, skip, macs), secs, n) = time_kernel("tensor.spmm_half_ms", each, tracer, || {
        probe::spmm_sum(&a, &b)
    })?;
    let want = join_cardinality(&a_keys, &b_keys);
    out.check(sum == want as f64, || {
        format!("tensor.spmm_half_ms: product sums to {sum}, join has {want} pairs")
    });
    out.metrics.set("tensor.spmm_half_ms", secs * 1e3, n);
    out.metrics.set("tensor.spmm_tile_skip", skip, 1);
    total_macs += macs;

    let (count, groups) = sz.grouped;
    let values: Vec<f32> = (0..count).map(|_| 1.0 + rng.below(100) as f32).collect();
    let ids: Vec<u32> = (0..count)
        .map(|_| rng.below(groups as u64) as u32)
        .collect();
    let ((sums, macs), secs, n) = time_kernel("tensor.grouped_sum_ms", each, tracer, || {
        probe::grouped_sum(&values, &ids, groups)
    })?;
    let mut want = vec![0f64; groups];
    for (v, g) in values.iter().zip(&ids) {
        want[*g as usize] += f64::from(*v);
    }
    let same = sums.len() == groups && sums.iter().zip(&want).all(|(s, w)| f64::from(*s) == *w);
    out.check(same, || {
        "tensor.grouped_sum_ms: sums differ from a scalar loop".to_string()
    });
    out.metrics.set("tensor.grouped_sum_ms", secs * 1e3, n);
    total_macs += macs;

    out.metrics.set("tensor.macs", total_macs as f64, 4);
    tracer.counter("tensor.macs", total_macs as f64);
    Ok(())
}

pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Res<Outcome> {
    corpus::run(
        &Spec {
            workload: "tcu_apps",
            setup_reps: if args.smoke { 1 } else { SHORT_SETUP_REPS },
            build: &build,
            leaves: Some(&tensor_leaves),
        },
        args,
        tracer,
    )
}

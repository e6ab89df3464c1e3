#![forbid(unsafe_code)]
//! # tcudb-bench
//!
//! Experiment runners that regenerate every table and figure of the
//! paper's evaluation (§5).  Each `figN_*` / `tableN_*` function returns
//! structured rows; the `figures` binary renders them as text tables and
//! `tests/paper_claims.rs` checks the paper's claims against them.
//!
//! All timings are **simulated device seconds** produced by the cost model
//! of `tcudb-device` driven by the exact operation counts of each engine's
//! physical operators (see DESIGN.md §2).  Dataset sizes default to the
//! "mini" scales described in EXPERIMENTS.md so a full sweep finishes in
//! seconds; pass `--full` to the `figures` binary for paper-scale sweeps.

use tcudb_core::{EngineConfig, TcuDb};
use tcudb_datagen::{em, graph, matmul, micro, ssb};
use tcudb_device::{CostModel, DeviceProfile, Phase};
use tcudb_magiq::{Graph as MagiqGraph, MagiqEngine};
use tcudb_monet::MonetEngine;
use tcudb_storage::Catalog;
use tcudb_tensor::GemmStats;
use tcudb_types::{Precision, TcuResult};
use tcudb_ydb::{YdbConfig, YdbEngine};

/// Simulated timings of the three relational engines on one query.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Label of the configuration (e.g. "4096,32" or "Q1.1").
    pub label: String,
    /// TCUDB total simulated seconds.
    pub tcudb: f64,
    /// YDB (GPU hash join) total simulated seconds.
    pub ydb: f64,
    /// MonetDB-style CPU engine total modelled seconds.
    pub monet: f64,
    /// TCUDB per-phase breakdown.
    pub tcudb_breakdown: Vec<(Phase, f64)>,
    /// YDB per-phase breakdown.
    pub ydb_breakdown: Vec<(Phase, f64)>,
}

impl Comparison {
    /// Speedup of TCUDB over YDB.
    pub fn speedup_vs_ydb(&self) -> f64 {
        if self.tcudb > 0.0 {
            self.ydb / self.tcudb
        } else {
            f64::INFINITY
        }
    }

    /// Speedup of TCUDB over the CPU engine.
    pub fn speedup_vs_monet(&self) -> f64 {
        if self.tcudb > 0.0 {
            self.monet / self.tcudb
        } else {
            f64::INFINITY
        }
    }
}

/// Run one query on TCUDB, YDB and the CPU engine over a shared catalog.
///
/// `count_only` skips host-side result materialisation (the simulated
/// device timings are unaffected); comparison experiments use it for the
/// configurations whose join outputs run into the tens of millions of rows.
pub fn compare_engines(
    catalog: &Catalog,
    label: &str,
    sql: &str,
    device: &DeviceProfile,
    count_only: bool,
) -> TcuResult<Comparison> {
    let mut config = EngineConfig::for_device(device.clone());
    config.count_only = count_only;
    let tcudb = TcuDb::new(config);
    tcudb.set_catalog(catalog.clone());

    let ydb = YdbEngine::new(YdbConfig {
        device: device.clone(),
        count_only,
    });
    ydb.set_catalog(catalog.clone());

    let mut monet = MonetEngine::new();
    monet.count_only = count_only;
    monet.set_catalog(catalog.clone());

    let t = tcudb.execute(sql)?;
    let y = ydb.execute(sql)?;
    let m = monet.execute(sql)?;

    Ok(Comparison {
        label: label.to_string(),
        tcudb: t.timeline.total_seconds(),
        ydb: y.timeline.total_seconds(),
        monet: m.timeline.total_seconds(),
        tcudb_breakdown: t.timeline.breakdown(),
        ydb_breakdown: y.timeline.breakdown(),
    })
}

// ----------------------------------------------------------------------
// Figure 3: GEMM on CUDA cores vs TCUs
// ----------------------------------------------------------------------

/// One row of Figure 3.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Square matrix dimension.
    pub dim: usize,
    /// Simulated CUDA-core GEMM seconds.
    pub cuda_seconds: f64,
    /// Simulated tensor-core GEMM seconds.
    pub tcu_seconds: f64,
}

/// Figure 3: relative latency of square GEMMs on CUDA cores vs TCUs.
pub fn fig3_gemm(dims: &[usize], device: &DeviceProfile) -> Vec<Fig3Row> {
    let cost = CostModel::new(device.clone());
    dims.iter()
        .map(|&dim| {
            let stats = GemmStats {
                m: dim,
                n: dim,
                k: dim,
                flops: 2.0 * (dim as f64).powi(3),
                bytes_touched: 2.0 * (dim * dim) as f64 * 2.0 + (dim * dim) as f64 * 4.0,
                precision: Precision::Half,
            };
            Fig3Row {
                dim,
                cuda_seconds: cost.cuda_gemm_seconds(&stats),
                tcu_seconds: cost.tcu_gemm_seconds(&stats),
            }
        })
        .collect()
}

// ----------------------------------------------------------------------
// Figures 7 and 8: microbenchmarks
// ----------------------------------------------------------------------

/// Figure 7: Q1/Q3/Q4 with a varying number of records and 32 distinct
/// join-key values.  Returns `(query name, comparisons per record count)`.
pub fn fig7_micro_records(
    record_counts: &[usize],
    distinct: usize,
    device: &DeviceProfile,
) -> TcuResult<Vec<(String, Vec<Comparison>)>> {
    let mut out = Vec::new();
    for (qname, sql) in micro::queries() {
        let mut rows = Vec::new();
        for &records in record_counts {
            let catalog = micro::gen_catalog(&micro::MicroConfig::new(records, distinct));
            let label = format!("{records},{distinct}");
            rows.push(compare_engines(&catalog, &label, sql, device, true)?);
        }
        out.push((qname.to_string(), rows));
    }
    Ok(out)
}

/// Figure 8: Q1/Q3/Q4 with 4096 records and a varying number of distinct
/// join-key values.
pub fn fig8_micro_distinct(
    records: usize,
    distinct_counts: &[usize],
    device: &DeviceProfile,
) -> TcuResult<Vec<(String, Vec<Comparison>)>> {
    let mut out = Vec::new();
    for (qname, sql) in micro::queries() {
        let mut rows = Vec::new();
        for &distinct in distinct_counts {
            let catalog = micro::gen_catalog(&micro::MicroConfig::new(records, distinct));
            let label = format!("{records},{distinct}");
            rows.push(compare_engines(&catalog, &label, sql, device, true)?);
        }
        out.push((qname.to_string(), rows));
    }
    Ok(out)
}

// ----------------------------------------------------------------------
// Figure 9: Star Schema Benchmark
// ----------------------------------------------------------------------

/// Figure 9: SSB queries at the given scale factors.  When `all_queries`
/// is false only the four flight representatives (Q1.1/Q2.1/Q3.1/Q4.1)
/// plotted in the paper's figure are run.
pub fn fig9_ssb(
    scale_factors: &[usize],
    all_queries: bool,
    device: &DeviceProfile,
) -> TcuResult<Vec<(usize, Vec<Comparison>)>> {
    let queries = if all_queries {
        ssb::queries()
    } else {
        ssb::figure9_queries()
    };
    let mut out = Vec::new();
    for &sf in scale_factors {
        let catalog = ssb::gen_catalog(sf, 0x55B + sf as u64);
        let mut rows = Vec::new();
        for (name, sql) in &queries {
            rows.push(compare_engines(&catalog, name, sql, device, true)?);
        }
        out.push((sf, rows));
    }
    Ok(out)
}

// ----------------------------------------------------------------------
// Figure 10 and Table 1: matrix-multiplication queries
// ----------------------------------------------------------------------

/// Figure 10 (executed): matrix-multiplication query on TCUDB vs YDB at
/// mini dimensions (see EXPERIMENTS.md for the scale mapping).
pub fn fig10_matmul(dims: &[usize], device: &DeviceProfile) -> TcuResult<Vec<Comparison>> {
    let mut out = Vec::new();
    for &dim in dims {
        let catalog = matmul::gen_catalog(dim, 1.0, matmul::ValueRange::Int7, 17);
        let label = format!("{dim}x{dim}x{dim}");
        out.push(compare_engines(
            &catalog,
            &label,
            matmul::MATMUL_QUERY,
            device,
            true,
        )?);
    }
    Ok(out)
}

/// One row of the analytic (paper-scale) Figure 10 projection.
#[derive(Debug, Clone)]
pub struct Fig10Projection {
    /// Matrix dimension.
    pub dim: usize,
    /// Chosen TCU plan kind at this scale.
    pub plan: String,
    /// Estimated TCUDB seconds.
    pub tcudb_seconds: f64,
    /// Estimated YDB seconds.
    pub ydb_seconds: f64,
}

/// Figure 10 (projected): cost-model estimates at the paper's 4096²–32768²
/// scales, showing the switch to the blocked MSplitGEMM plan at the largest
/// size.
pub fn fig10_projection(dims: &[usize], device: &DeviceProfile) -> Vec<Fig10Projection> {
    use tcudb_core::optimizer::{JoinShape, Optimizer};
    let optimizer = Optimizer::new(device.clone());
    dims.iter()
        .map(|&dim| {
            let table_rows = dim.saturating_mul(dim);
            let shape = JoinShape {
                m: dim,
                n: dim,
                k: dim,
                density: 1.0,
                left_abs_max: 127.0,
                right_abs_max: 127.0,
                left_table_rows: table_rows,
                right_table_rows: table_rows,
                estimated_output: table_rows.saturating_mul(dim),
                raw_bytes: table_rows.saturating_mul(24),
                fused_aggregate: true,
                groups: table_rows,
            };
            let choice = optimizer.choose_join_plan(&shape);
            Fig10Projection {
                dim,
                plan: choice.kind.to_string(),
                tcudb_seconds: choice.estimated_tcu_seconds,
                ydb_seconds: choice.estimated_gpu_seconds,
            }
        })
        .collect()
}

/// One row of Table 1: MAPE of the matrix-multiplication query per value
/// range and matrix dimension.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Value-range label.
    pub range: &'static str,
    /// `(dimension, MAPE %)` pairs.
    pub mape_by_dim: Vec<(usize, f64)>,
}

/// Table 1: mean absolute percentage error of fp16-input matrix
/// multiplication vs. an exact f64 reference.
///
/// Operands whose magnitude exceeds the binary16 range are pre-scaled by a
/// power of two (and the product rescaled afterwards), which is how the
/// code generator feeds wide integer columns to the fp16 WMMA fragments;
/// the residual error is the fp16 mantissa rounding the paper's Table 1
/// reports.
pub fn table1_mape(dims: &[usize], seed: u64) -> Vec<Table1Row> {
    use tcudb_datagen::Xorshift;
    use tcudb_tensor::{gemm, DenseMatrix};
    let mut out = Vec::new();
    for range in matmul::ValueRange::all() {
        let mut row = Vec::new();
        for &dim in dims {
            let mut rng = Xorshift::new(seed ^ dim as u64);
            let mut a = DenseMatrix::zeros(dim, dim);
            let mut b = DenseMatrix::zeros(dim, dim);
            for i in 0..dim {
                for j in 0..dim {
                    a.set(i, j, range.sample(&mut rng) as f32);
                    b.set(i, j, range.sample(&mut rng) as f32);
                }
            }
            // Power-of-two pre-scaling so the operands stay within the
            // exactly-representable fp16 integer range.
            let mut scale = 1.0f32;
            while range.magnitude() as f32 * scale > 2048.0 {
                scale *= 0.5;
            }
            let exact = gemm::gemm_exact_f64(&a, &b).expect("shapes match");
            let (a, b) = if scale < 1.0 {
                let mut sa = a.clone();
                let mut sb = b.clone();
                sa.data_mut().iter_mut().for_each(|v| *v *= scale);
                sb.data_mut().iter_mut().for_each(|v| *v *= scale);
                (sa, sb)
            } else {
                (a, b)
            };
            let (mut approx, _) =
                gemm::gemm(&a, &b, tcudb_tensor::GemmPrecision::Half).expect("shapes match");
            if scale < 1.0 {
                let rescale = 1.0 / (scale * scale);
                approx.data_mut().iter_mut().for_each(|v| *v *= rescale);
            }
            row.push((dim, gemm::mape(&approx, &exact)));
        }
        out.push(Table1Row {
            range: range.label(),
            mape_by_dim: row,
        });
    }
    out
}

// ----------------------------------------------------------------------
// Figure 11 and Tables 2–3: entity matching
// ----------------------------------------------------------------------

/// Figure 11: EM blocking queries per attribute of a dataset.
pub fn fig11_entity_matching(
    dataset: &em::EmDataset,
    device: &DeviceProfile,
) -> TcuResult<Vec<Comparison>> {
    let catalog = em::gen_catalog(dataset, 23);
    let mut out = Vec::new();
    for (attr, _) in &dataset.attributes {
        let sql = em::blocking_query(attr);
        out.push(compare_engines(&catalog, attr, &sql, device, true)?);
    }
    Ok(out)
}

// ----------------------------------------------------------------------
// Figures 12, 13 and Table 4: PageRank / graph engines
// ----------------------------------------------------------------------

/// Figure 12: the three PageRank queries on graphs of increasing size,
/// compared between TCUDB and YDB (and the CPU engine).
pub fn fig12_pagerank(
    graph_sizes: &[usize],
    device: &DeviceProfile,
) -> TcuResult<Vec<(String, Vec<Comparison>)>> {
    let mut per_query: Vec<(String, Vec<Comparison>)> = vec![
        ("PR Q1".to_string(), Vec::new()),
        ("PR Q2".to_string(), Vec::new()),
        ("PR Q3".to_string(), Vec::new()),
    ];
    for &idx in graph_sizes {
        let g = graph::gen_table4_graph(idx, 31);
        let mut catalog = graph::gen_catalog(&g);
        let ranks = vec![1.0 / g.nodes as f64; g.nodes];
        graph::register_pagerank_state(&mut catalog, &g, &ranks);
        let label = format!("{}K", g.nodes / 1024);
        let queries = [
            graph::PR_Q1.to_string(),
            graph::pr_q2(g.nodes),
            graph::pr_q3(g.nodes),
        ];
        for (qi, sql) in queries.iter().enumerate() {
            per_query[qi]
                .1
                .push(compare_engines(&catalog, &label, sql, device, true)?);
        }
    }
    Ok(per_query)
}

/// One row of Figure 13: core join+aggregation latency of PR Q3 per engine.
#[derive(Debug, Clone)]
pub struct Fig13Row {
    /// Graph label ("1K" … "32K").
    pub label: String,
    /// MonetDB-style CPU engine seconds.
    pub monet: f64,
    /// YDB seconds.
    pub ydb: f64,
    /// MAGiQ (GraphBLAS on CUDA cores) seconds.
    pub magiq: f64,
    /// TCUDB seconds.
    pub tcudb: f64,
}

/// Figure 13: PR Q3 core join+aggregation on MonetDB, YDB, MAGiQ and TCUDB.
pub fn fig13_graph_engines(
    graph_sizes: &[usize],
    device: &DeviceProfile,
) -> TcuResult<Vec<Fig13Row>> {
    let magiq = MagiqEngine::new(device.clone());
    let mut out = Vec::new();
    for &idx in graph_sizes {
        let g = graph::gen_table4_graph(idx, 31);
        let mut catalog = graph::gen_catalog(&g);
        let ranks = vec![1.0 / g.nodes as f64; g.nodes];
        graph::register_pagerank_state(&mut catalog, &g, &ranks);
        let sql = graph::pr_q3(g.nodes);
        // The paper reports only the latency of the *core join and
        // aggregation* operation for this figure (it excludes MAGiQ's
        // sparse-matrix retrieval overhead and the engines' data-movement
        // phases), so sum just the join/aggregation phases of each engine.
        let cmp = compare_engines(&catalog, "prq3", &sql, device, true)?;
        let core_of = |breakdown: &[(Phase, f64)], phases: &[Phase]| -> f64 {
            breakdown
                .iter()
                .filter(|(p, _)| phases.contains(p))
                .map(|(_, s)| *s)
                .sum()
        };
        let tcudb_core = core_of(
            &cmp.tcudb_breakdown,
            &[
                Phase::TcuKernel,
                Phase::HashJoin,
                Phase::GroupByAggregation,
                Phase::ResultMaterialize,
            ],
        );
        let ydb_core = core_of(
            &cmp.ydb_breakdown,
            &[Phase::HashJoin, Phase::GroupByAggregation],
        );
        let magiq_graph = MagiqGraph::from_edges(g.nodes, &g.edges)?;
        out.push(Fig13Row {
            label: format!("{}K", g.nodes / 1024),
            monet: cmp.monet,
            ydb: ydb_core,
            magiq: magiq.core_join_agg_seconds(&magiq_graph),
            tcudb: tcudb_core,
        });
    }
    Ok(out)
}

/// Table 4: node and edge counts of the reduced road-network graphs.
pub fn table4_graphs() -> Vec<(usize, usize)> {
    graph::TABLE4_SIZES.to_vec()
}

// ----------------------------------------------------------------------
// Figure 14: RTX 3090 vs RTX 2080 scaling
// ----------------------------------------------------------------------

/// One row of Figure 14: generation-over-generation speedups per query.
#[derive(Debug, Clone)]
pub struct Fig14Row {
    /// Configuration label ("4096,32" …).
    pub label: String,
    /// Query name (Q1 / Q3 / Q4).
    pub query: String,
    /// RTX 2080 time / RTX 3090 time for YDB.
    pub ydb_speedup: f64,
    /// RTX 2080 time / RTX 3090 time for TCUDB.
    pub tcudb_speedup: f64,
}

/// Figure 14: speedup of moving from an RTX 2080 to an RTX 3090 for YDB
/// and TCUDB on the microbenchmark queries.
pub fn fig14_gpu_scaling(record_counts: &[usize], distinct: usize) -> TcuResult<Vec<Fig14Row>> {
    let d3090 = DeviceProfile::rtx_3090();
    let d2080 = DeviceProfile::rtx_2080();
    let mut out = Vec::new();
    for (qname, sql) in micro::queries() {
        for &records in record_counts {
            let catalog = micro::gen_catalog(&micro::MicroConfig::new(records, distinct));
            let label = format!("{records},{distinct}");
            let new = compare_engines(&catalog, &label, sql, &d3090, true)?;
            let old = compare_engines(&catalog, &label, sql, &d2080, true)?;
            out.push(Fig14Row {
                label,
                query: qname.to_string(),
                ydb_speedup: old.ydb / new.ydb,
                tcudb_speedup: old.tcudb / new.tcudb,
            });
        }
    }
    Ok(out)
}

// ----------------------------------------------------------------------
// Tables 2 and 3
// ----------------------------------------------------------------------

/// Tables 2 and 3: the EM datasets' attribute cardinalities as generated.
pub fn table23_em_stats() -> Vec<(String, Vec<(String, usize)>)> {
    let mut out = Vec::new();
    for dataset in [
        em::beer_advo_ratebeer(),
        em::itunes_amazon(),
        em::itunes_amazon_scaled(),
    ] {
        let catalog = em::gen_catalog(&dataset, 23);
        let stats = catalog.stats("TABLE_A").expect("TABLE_A registered");
        let attrs = dataset
            .attributes
            .iter()
            .map(|(a, _)| {
                (
                    a.to_string(),
                    stats.column(a).map(|c| c.distinct_count).unwrap_or(0),
                )
            })
            .collect();
        out.push((dataset.name.to_string(), attrs));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> DeviceProfile {
        DeviceProfile::rtx_3090()
    }

    #[test]
    fn fig3_tcu_wins_on_large_gemms() {
        let rows = fig3_gemm(&[1024, 4096, 8192], &device());
        assert_eq!(rows.len(), 3);
        let last = rows.last().unwrap();
        assert!(last.cuda_seconds / last.tcu_seconds > 2.0);
        // Latency grows with dimension.
        assert!(rows[2].tcu_seconds > rows[0].tcu_seconds);
    }

    #[test]
    fn fig7_shape_tcudb_beats_ydb_and_monet_is_slowest() {
        let results = fig7_micro_records(&[512, 1024], 16, &device()).unwrap();
        assert_eq!(results.len(), 3);
        for (query, rows) in &results {
            for cmp in rows {
                assert!(
                    cmp.speedup_vs_ydb() > 1.0,
                    "{query} {}: TCUDB {} vs YDB {}",
                    cmp.label,
                    cmp.tcudb,
                    cmp.ydb
                );
                assert!(
                    cmp.monet > cmp.ydb,
                    "{query} {}: CPU should be slowest",
                    cmp.label
                );
            }
        }
    }

    #[test]
    fn fig8_advantage_shrinks_with_distinct_count() {
        let results = fig8_micro_distinct(1024, &[16, 256], &device()).unwrap();
        let (_, q1_rows) = &results[0];
        assert!(q1_rows[0].speedup_vs_ydb() > q1_rows[1].speedup_vs_ydb());
    }

    #[test]
    fn fig10_projection_switches_to_blocked_at_largest_scale() {
        let proj = fig10_projection(&[4096, 16384, 65536], &device());
        assert!(proj[0].plan.contains("dense") || proj[0].plan.contains("GEMM"));
        assert!(proj.last().unwrap().plan.contains("blocked"));
        for p in &proj {
            assert!(p.tcudb_seconds < p.ydb_seconds, "dim {}", p.dim);
        }
    }

    #[test]
    fn table1_mape_grows_with_value_range_and_binary_is_exact() {
        let rows = table1_mape(&[32, 64], 3);
        assert_eq!(rows.len(), 4);
        let binary = &rows[0];
        for (_, mape) in &binary.mape_by_dim {
            assert_eq!(*mape, 0.0);
        }
        let int31 = rows.last().unwrap();
        assert!(int31.mape_by_dim.iter().all(|(_, m)| *m < 1.0));
        assert!(int31.mape_by_dim.iter().any(|(_, m)| *m > 0.0));
    }

    #[test]
    fn table4_matches_paper_counts() {
        let t = table4_graphs();
        assert_eq!(t[0], (1_024, 2_058));
        assert_eq!(t[6], (32_768, 82_070));
    }

    #[test]
    fn table23_reports_attribute_cardinalities() {
        let t = table23_em_stats();
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].1.len(), 4);
        assert!(t[0].1[0].1 <= 20);
    }
}

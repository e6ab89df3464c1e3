//! The benchmark's metric and workload names.
//!
//! `BENCHMARK.json` at the repository root repeats these tables for the
//! driver; a unit test keeps the two in step.  Every later performance
//! claim names one metric from here on one workload from here.

use std::collections::BTreeMap;

use crate::json::Json;

/// `(name, why)` of each workload, in run order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "ssb_sf1",
        "13 SSB queries on a 6M-row fact table: scans, zone pruning, morsel pool and star joins do the work; tensor kernels, net and serve do none",
    ),
    (
        "tcu_apps",
        "the paper's micro joins, matmul, entity matching and PageRank: matrix build, two-way joins, tensor kernels and big results dominate; scanning is negligible",
    ),
    (
        "serve_tcup",
        "open-loop Poisson mix of point and 98K-row bulk statements over 2 TCUP sockets: framing, reactor, queueing and plan-cache replay are a large share",
    ),
    (
        "ingest_rw",
        "durable 1000-row appends with interleaved reads, then crash recovery: WAL, checkpoints and write-side upkeep of read structures run nowhere else",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; per-layer metrics have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off.  Every one is reported
/// on every workload (see README.md for what each means where).
pub const END_TO_END: [MetricDef; 11] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("stmt_geomean_ms", "ms", Lower, 0.25),
    e2e("stmt_slowest_ms", "ms", Lower, 0.25),
    e2e("stmt_p50_ms", "ms", Lower, 0.25),
    e2e("stmt_p95_ms", "ms", Lower, 0.25),
    e2e("achieved_frac", "ratio", Higher, 0.03),
    e2e("rows_per_s", "1/s", Higher, 0.25),
    e2e("read_p50_ms", "ms", Lower, 0.25),
    e2e("recovery_s", "s", Lower, 0.25),
];

/// Per-layer metrics, measured in the traced pass.  A layer a workload
/// does not exercise reports 0 — it did no work there.
pub const PER_LAYER: [MetricDef; 60] = [
    layer("net.point_self_ms", "ms", Lower),
    layer("net.bulk_self_ms", "ms", Lower),
    layer("net.encode_ms_per_mb", "ms/MB", Lower),
    layer("net.decode_ms_per_mb", "ms/MB", Lower),
    layer("net.result_bytes_per_row", "B", Lower),
    layer("net.accepted", "count", Higher),
    layer("net.rejected", "count", Lower),
    layer("net.unattributed_ms", "ms", Lower),
    layer("serve.self_ms", "ms", Lower),
    layer("serve.closed_qps_2c", "1/s", Higher),
    layer("serve.coalesced_frac", "ratio", Higher),
    layer("serve.shed_frac", "ratio", Lower),
    layer("serve.admission_waits", "count", Lower),
    layer("serve.timed_out", "count", Lower),
    layer("core.frontend_us", "us", Lower),
    layer("core.prepare_hit_us", "us", Lower),
    layer("core.plancache_hit_rate", "ratio", Higher),
    layer("core.exec_sum_ms", "ms", Lower),
    layer("core.first_exec_ms", "ms", Lower),
    layer("core.flight1_ms", "ms", Lower),
    layer("core.flight2_ms", "ms", Lower),
    layer("core.flight3_ms", "ms", Lower),
    layer("core.flight4_ms", "ms", Lower),
    layer("core.kernel_resident_ms", "ms", Lower),
    layer("core.model_only_ms", "ms", Lower),
    layer("core.micro_ms", "ms", Lower),
    layer("core.matmul_ms", "ms", Lower),
    layer("core.em_ms", "ms", Lower),
    layer("core.pagerank_ms", "ms", Lower),
    layer("core.plans_tcu", "count", Higher),
    layer("device.sim_ms", "ms", Lower),
    layer("tensor.gemm_bt_int8_ms", "ms", Lower),
    layer("tensor.gemm_bt_half_ms", "ms", Lower),
    layer("tensor.spmm_half_ms", "ms", Lower),
    layer("tensor.grouped_sum_ms", "ms", Lower),
    layer("tensor.gmacs_per_s_int8", "GMAC/s", Higher),
    layer("tensor.gmacs_per_s_half", "GMAC/s", Higher),
    layer("tensor.spmm_tile_skip", "ratio", Higher),
    layer("tensor.macs", "count", Lower),
    layer("storage.append_p50_ms", "ms", Lower),
    layer("storage.append_slowdown", "ratio", Lower),
    layer("storage.table_append_ms", "ms", Lower),
    layer("storage.wal_bytes_per_user_byte", "ratio", Lower),
    layer("storage.disk_bytes_per_user_byte", "ratio", Lower),
    layer("storage.checkpoints", "count", Lower),
    layer("storage.checkpoint_ms", "ms", Lower),
    layer("storage.recover_ms", "ms", Lower),
    layer("storage.replayed_commits", "count", Lower),
    layer("pool.morsels_run", "count", Lower),
    layer("pool.budget", "count", Higher),
    layer("setup.gen_s", "s", Lower),
    layer("setup.load_s", "s", Lower),
    layer("setup.warm_s", "s", Lower),
    layer("proc.cpu_s", "s", Lower),
    layer("proc.sys_frac", "ratio", Lower),
    layer("proc.minor_faults", "count", Lower),
    layer("gen.late_p95_ms", "ms", Lower),
    layer("gen.backlog_end", "count", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_frac", "ratio", Lower),
];

/// Measured values keyed by metric name, each with its sample count.
#[derive(Debug, Default, Clone)]
pub struct MetricSet {
    values: BTreeMap<&'static str, (f64, u64)>,
}

impl MetricSet {
    /// Record `name = value`, computed from `samples` raw samples.
    ///
    /// Panics on a name no table declares: a misspelt metric would
    /// otherwise silently report 0.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|d| d.name == name),
            "metric {name} is not declared in metrics.rs"
        );
        self.values.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    pub fn samples(&self, name: &str) -> u64 {
        self.values.get(name).map_or(0, |(_, n)| *n)
    }

    /// `{"name": {"value": v, "unit": u}, …}` over `defs`, in table order.
    /// A metric the workload did not set reports 0 (no work in that
    /// layer).
    pub fn to_json(&self, defs: &[MetricDef]) -> Json {
        Json::Obj(
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        Json::obj(vec![
                            ("value", Json::Num(self.get(d.name).unwrap_or(0.0))),
                            ("unit", Json::from(d.unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// Sample counts of the metrics in `defs`, for the run record.
    pub fn samples_json(&self, defs: &[MetricDef]) -> Json {
        Json::Obj(
            defs.iter()
                .map(|d| (d.name.to_string(), Json::from(self.samples(d.name))))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    /// Is `name` within the contract's charset (`[A-Za-z0-9_.-]`, at most 64,
    /// starting with a letter or digit)?
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_unique_and_within_the_contract_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .chain(END_TO_END.iter().map(|d| d.name))
            .chain(PER_LAYER.iter().map(|d| d.name))
        {
            assert!(valid_name(name), "{name} is outside [A-Za-z0-9_.-]{{1,64}}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name(""));
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(d.unit.len() <= 16, "{}: unit too long", d.name);
            assert!(
                d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {} outside the charset",
                d.name,
                d.unit
            );
        }
    }

    #[test]
    fn tables_stay_within_the_contract_caps() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(WORKLOADS
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }

    #[test]
    fn benchmark_json_repeats_these_tables_exactly() {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);

        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(w.get("name").unwrap().as_str(), Some(name));
            assert_eq!(w.get("why").unwrap().as_str(), Some(why));
            assert_eq!(w.as_obj().unwrap().len(), 2);
        }
        let check = |key: &str, defs: &[MetricDef], bounded: bool| {
            let listed = doc.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (m, d) in listed.iter().zip(defs) {
                assert_eq!(m.get("name").unwrap().as_str(), Some(d.name));
                assert_eq!(m.get("unit").unwrap().as_str(), Some(d.unit), "{}", d.name);
                assert_eq!(
                    m.get("better").unwrap().as_str(),
                    Some(d.better.as_str()),
                    "{}",
                    d.name
                );
                if bounded {
                    assert_eq!(
                        m.get("bound").unwrap().as_f64(),
                        Some(d.bound),
                        "{}",
                        d.name
                    );
                    assert_eq!(m.as_obj().unwrap().len(), 4);
                } else {
                    assert_eq!(m.as_obj().unwrap().len(), 3);
                }
            }
        };
        check("end_to_end", &END_TO_END, true);
        check("per_layer", &PER_LAYER, false);

        let secs = doc.get("run_seconds").unwrap().as_f64().unwrap();
        assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
        let paths = doc.get("paths").unwrap().as_arr().unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("crates/bench/src/bin/tcubench"));
        let command = doc.get("command").unwrap().as_arr().unwrap();
        assert!(command.len() <= 32);
        assert!(command
            .iter()
            .all(|c| c.as_str().is_some_and(|s| s.len() <= 200)));
    }

    #[test]
    fn metric_set_reports_unset_layers_as_zero() {
        let mut m = MetricSet::default();
        m.set("pool.budget", 2.0, 1);
        let json = m.to_json(&PER_LAYER);
        assert_eq!(
            json.get("pool.budget")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
        assert_eq!(
            json.get("net.rejected")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        assert_eq!(json.as_obj().unwrap().len(), PER_LAYER.len());
        assert_eq!(m.samples("pool.budget"), 1);
    }
}

//! The four workloads and what they share.
//!
//! Each workload runs in the order: set-up (generate, load, warm-up
//! pass) -> measured pass -> teardown.  With `trace` off the measured
//! pass produces the end-to-end metrics; with `trace` on it is the
//! shorter traced pass that produces the per-layer metrics.

use std::path::PathBuf;

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::MetricSet;
use crate::procstat::ProcSample;
use crate::trace::Tracer;
use crate::verify::Digest;

mod apps;
mod corpus;
mod ingest;
mod serve;
mod ssb;

pub use serve::RATE_PER_S;

/// Seed of every generated *data set* (SSB, micro, matmul, entity
/// matching, graphs).  The data is a fixed part of the benchmark, like a
/// standard benchmark's scale-factor-1 database; `--seed` drives the
/// *traffic*: the statement order of every sweep, the arrival schedule and
/// mix of the open loop, and the rows and crash point of the ingest
/// workload.
///
/// Drawing the data from `--seed` as well made no difference at SF=1
/// (eight seeded databases ran within the same 5.45-6.06 statements/s as
/// eight runs on one), but on `serve_tcup`'s 60K-row tables, where a
/// statement's cost follows its selectivity, ten seeded databases spread
/// `stmt_geomean_ms` over 1.89-3.00 ms against 2.49-2.87 ms on one: more
/// than the largest bound a metric may carry.
pub const DATA_SEED: u64 = 12;

/// Set-ups per run on the workloads whose set-up takes a fraction of a
/// second: short enough to be noisy, so `setup_s` and the cold start
/// behind `recovery_s` are medians over this many.
pub const SHORT_SETUP_REPS: usize = 5;

/// How a workload run was asked for.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Seeds the traffic (see [`DATA_SEED`] for the data); the same seed
    /// gives the same inputs.
    pub seed: u64,
    /// Length of the measured pass.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the end-to-end pass.
    pub trace: bool,
    /// 1/100-scale inputs: exercises every code path in well under a
    /// second; its numbers mean nothing.
    pub smoke: bool,
    /// Scratch directory inside the checkout for durable-engine files.
    pub work_dir: PathBuf,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (statements, appends, reads) and verification checks
    /// attempted.
    pub attempted: u64,
    /// Those that errored, were refused or shed, or failed verification.
    pub failed: u64,
    pub metrics: MetricSet,
    /// Run-record fields: operation counts, rates, sizes.
    pub record: Vec<(String, Json)>,
    /// Digest of every corpus statement's result, by statement name.
    pub digests: Vec<(String, Digest)>,
    /// One line per failure, for the operator.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Count one attempted operation or check; a false `ok` fails it.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // Keep the first few messages; a systematic failure would
            // otherwise print one line per operation.
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    pub fn note(&mut self, key: &str, value: impl Into<Json>) {
        self.record.push((key.to_string(), value.into()));
    }

    /// Record a statement's result digest, checking it against the
    /// committed golden entry of that name when there is one.
    pub fn digest(&mut self, golden: &BTreeMap<String, (u64, String)>, name: &str, digest: Digest) {
        if let Some((rows, hex)) = golden.get(name) {
            self.check(digest.rows == *rows && digest.hex() == *hex, || {
                format!(
                    "{name}: {} rows digest {}, golden.json has {rows} rows digest {hex}",
                    digest.rows,
                    digest.hex()
                )
            });
        }
        self.digests.push((name.to_string(), digest));
    }
}

/// Process and pool counters over a measured pass: read at its start,
/// reported as deltas at its end.
pub struct Usage {
    proc: ProcSample,
    morsels: u64,
}

impl Usage {
    pub fn start() -> Usage {
        Usage {
            proc: ProcSample::now(),
            morsels: crate::probe::pool_counters().1,
        }
    }

    /// Set `proc.*` and `pool.*`; the morsel count is per `sweeps`.
    pub fn report(&self, sweeps: u64, metrics: &mut MetricSet, tracer: &mut Tracer) {
        let proc = ProcSample::now().since(&self.proc);
        let (budget, morsels) = crate::probe::pool_counters();
        let run = (morsels - self.morsels) as f64 / sweeps.max(1) as f64;
        metrics.set("pool.morsels_run", run, sweeps);
        metrics.set("pool.budget", budget as f64, 1);
        metrics.set("proc.cpu_s", proc.cpu_s(), 1);
        metrics.set("proc.sys_frac", proc.sys_frac(), 1);
        metrics.set("proc.minor_faults", proc.minor_faults as f64, 1);
        tracer.counter("pool.morsels_run", morsels as f64);
    }
}

/// Set `core.plancache_hit_rate` from the engine's `(hits, misses)`.
pub fn report_plan_cache((hits, misses): (u64, u64), metrics: &mut MetricSet, tracer: &mut Tracer) {
    let lookups = hits + misses;
    metrics.set(
        "core.plancache_hit_rate",
        hits as f64 / lookups.max(1) as f64,
        lookups,
    );
    tracer.counter("core.plancache_hits", hits as f64);
    tracer.counter("core.plancache_misses", misses as f64);
}

/// Run one workload by name.
pub fn run(name: &str, args: &RunArgs, tracer: &mut Tracer) -> Result<Outcome, String> {
    match name {
        "ssb_sf1" => ssb::run(args, tracer),
        "tcu_apps" => apps::run(args, tracer),
        "serve_tcup" => serve::run(args, tracer),
        "ingest_rw" => ingest::run(args, tracer),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Median of per-repetition set-up phase times.
#[derive(Debug, Default, Clone)]
pub struct SetupTimes {
    pub gen_s: Vec<f64>,
    pub load_s: Vec<f64>,
    pub warm_s: Vec<f64>,
}

impl SetupTimes {
    pub fn push(&mut self, gen_s: f64, load_s: f64, warm_s: f64) {
        self.gen_s.push(gen_s);
        self.load_s.push(load_s);
        self.warm_s.push(warm_s);
    }

    fn totals(&self, f: impl Fn(usize) -> f64) -> f64 {
        let per_rep: Vec<f64> = (0..self.gen_s.len()).map(f).collect();
        crate::stats::median(&per_rep)
    }

    /// Data generation + load + warm-up pass.
    pub fn setup_s(&self) -> f64 {
        self.totals(|i| self.gen_s[i] + self.load_s[i] + self.warm_s[i])
    }

    /// Cold start: from "the data exists, no engine does" until the
    /// engine has answered every distinct statement once.
    pub fn cold_start_s(&self) -> f64 {
        self.totals(|i| self.load_s[i] + self.warm_s[i])
    }

    pub fn reps(&self) -> u64 {
        self.gen_s.len() as u64
    }

    /// Set the metrics every workload derives from its set-up.
    pub fn report(&self, trace: bool, metrics: &mut MetricSet) {
        if trace {
            let med = crate::stats::median;
            metrics.set("setup.gen_s", med(&self.gen_s), self.reps());
            metrics.set("setup.load_s", med(&self.load_s), self.reps());
            metrics.set("setup.warm_s", med(&self.warm_s), self.reps());
        } else {
            metrics.set("setup_s", self.setup_s(), self.reps());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};

    /// Every workload, both passes, at 1/100 scale: all four code paths
    /// run end to end, verify their results and report every metric.
    #[test]
    fn smoke_runs_every_workload_end_to_end() {
        let work_dir = std::env::temp_dir().join(format!("tcubench-smoke-{}", std::process::id()));
        for (name, _) in WORKLOADS {
            for trace in [false, true] {
                let args = RunArgs {
                    seed: 7,
                    seconds: 0.2,
                    trace,
                    smoke: true,
                    work_dir: work_dir.join(name),
                };
                let mut tracer = Tracer::new(trace);
                let out = run(name, &args, &mut tracer).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(out.attempted > 0, "{name}: nothing attempted");
                assert_eq!(out.failed, 0, "{name}: {:?}", out.failures);
                if trace {
                    assert!(
                        !tracer.spans().is_empty(),
                        "{name}: traced pass left no spans"
                    );
                    assert!(
                        PER_LAYER.iter().any(|d| out.metrics.get(d.name).is_some()),
                        "{name}: no per-layer metric"
                    );
                } else {
                    for d in END_TO_END {
                        let v = out.metrics.get(d.name);
                        assert!(
                            v.is_some_and(|v| v > 0.0 && v.is_finite()),
                            "{name}: {} = {v:?}",
                            d.name
                        );
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&work_dir);
    }
}

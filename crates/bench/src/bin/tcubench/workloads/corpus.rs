//! The shared shape of the two in-process query workloads (`ssb_sf1`,
//! `tcu_apps`): one caller replays a fixed statement corpus in sweeps
//! against engines holding generated data.
//!
//! End-to-end pass: whole sweeps of `TcuDb::execute`, each in a
//! seed-shuffled order, until the time budget is spent; every reply's digest is checked against the warm-up
//! pass's.  Traced pass: the same sweeps at two depths — `execute`, then
//! `prepare` + `execute_prepared` — each call wrapped in a span, plus the
//! front end (`explain`) on its own.

use std::collections::BTreeMap;
use std::time::Instant;

use super::{report_plan_cache, Outcome, RunArgs, SetupTimes, Usage};
use crate::json::Json;
use crate::probe::{Dataset, Engine, Reply, Res};
use crate::procstat::peak_rss_mb;
use crate::schedule::Rng;
use crate::stats::{self, geomean, mean, median, percentile};
use crate::trace::Tracer;
use crate::verify::{self, Digest};

/// What the harness knows a statement must return, independently of the
/// engine.
pub enum Expect {
    /// Nothing beyond repeatability and the golden digest.
    Repeatable,
    /// This many result rows.
    Rows(u64),
    /// One row, one numeric column, this value.
    Scalar(f64),
    /// `(col_num, row_num, res)` equal to the naive matrix product.
    Matmul(BTreeMap<(i64, i64), i64>),
}

pub struct Stmt {
    pub name: String,
    pub sql: String,
    /// Index into [`Built::datasets`] of the engine that runs it.
    pub engine: usize,
    /// Per-layer metrics this statement's median execution time adds
    /// into (its SSB flight, its application, its kernel class).
    pub layers: Vec<&'static str>,
    pub expect: Expect,
}

/// Generated inputs of one set-up: datasets (one engine each) and the
/// statement corpus over them.
pub struct Built {
    pub datasets: Vec<Dataset>,
    pub stmts: Vec<Stmt>,
}

/// Directly timed leaf functions of a workload (tensor kernels).
pub type Leaves = dyn Fn(&Built, &RunArgs, f64, &mut Tracer, &mut Outcome) -> Res<()>;

pub struct Spec<'a> {
    pub workload: &'static str,
    /// Set-ups per run; `setup_s` is their median.  One where a set-up
    /// takes many seconds, several where it is short enough to be noisy.
    pub setup_reps: usize,
    pub build: &'a dyn Fn(&RunArgs) -> Res<Built>,
    pub leaves: Option<&'a Leaves>,
}

struct Ready {
    built: Built,
    engines: Vec<Engine>,
    /// Warm-up pass reply of every statement: the reference the measured
    /// pass is checked against.
    reference: Vec<Reply>,
    reference_digest: Vec<Digest>,
    /// Cold first execution of every statement (plan costing, dictionary
    /// and zone-map builds included).
    first_exec_s: Vec<f64>,
}

fn set_up(spec: &Spec, args: &RunArgs, tracer: &mut Tracer, times: &mut SetupTimes) -> Res<Ready> {
    let (built, gen_s) = tracer.time("setup.gen", None, None, || (spec.build)(args));
    let built = built?;
    let (engines, load_s) = tracer.time("setup.load", None, None, || {
        built
            .datasets
            .iter()
            .map(|d| {
                let engine = Engine::in_memory();
                engine.load(d.clone());
                engine
            })
            .collect::<Vec<_>>()
    });
    let warm = tracer.begin("setup.warm", None, None);
    let t = Instant::now();
    let mut reference = Vec::with_capacity(built.stmts.len());
    let mut first_exec_s = Vec::with_capacity(built.stmts.len());
    for (i, stmt) in built.stmts.iter().enumerate() {
        let (reply, secs) = tracer.time("core.first_exec", Some(warm), Some(i as u32), || {
            engines[stmt.engine].execute(&stmt.sql)
        });
        reference.push(reply.map_err(|e| format!("{}: {e}", stmt.name))?);
        first_exec_s.push(secs);
    }
    let warm_s = t.elapsed().as_secs_f64();
    tracer.end(warm);
    times.push(gen_s, load_s, warm_s);
    Ok(Ready {
        built,
        engines,
        reference_digest: reference.iter().map(|r| r.table.digest()).collect(),
        reference,
        first_exec_s,
    })
}

/// Check the warm-up replies against everything known independently of
/// the engine: harness-side recomputation and the committed golden
/// digests.
fn verify_reference(spec: &Spec, args: &RunArgs, ready: &Ready, out: &mut Outcome) {
    let golden = if args.smoke {
        BTreeMap::new()
    } else {
        verify::golden(spec.workload)
    };
    for (i, stmt) in ready.built.stmts.iter().enumerate() {
        let table = &ready.reference[i].table;
        let digest = ready.reference_digest[i];
        match &stmt.expect {
            Expect::Repeatable => {}
            Expect::Rows(n) => out.check(table.rows() as u64 == *n, || {
                format!("{}: {} rows, recomputed {n}", stmt.name, table.rows())
            }),
            Expect::Scalar(want) => {
                let got = table.numbers(0).filter(|_| table.rows() == 1).map(|v| v[0]);
                out.check(got == Some(*want), || {
                    format!("{}: returned {got:?}, recomputed {want}", stmt.name)
                });
            }
            Expect::Matmul(want) => {
                let ok = match (table.ints(0), table.ints(1), table.numbers(2)) {
                    (Some(c), Some(r), Some(v)) => verify::matmul_matches(want, c, r, &v),
                    _ => false,
                };
                out.check(ok, || {
                    format!("{}: differs from the naive product", stmt.name)
                });
            }
        }
        out.digest(&golden, &stmt.name, digest);
    }
}

#[derive(Clone, Copy)]
enum Depth {
    /// `TcuDb::execute`.
    Execute,
    /// `TcuDb::prepare` then `TcuDb::execute_prepared`.
    Prepared,
}

/// Per-statement latency samples (seconds) of the sweeps so far.
struct Samples {
    call: Vec<Vec<f64>>,
    /// `prepare` alone, at [`Depth::Prepared`].
    prepare: Vec<Vec<f64>>,
    rows: u64,
    sweeps: usize,
}

impl Samples {
    fn new(n: usize) -> Samples {
        Samples {
            call: vec![Vec::new(); n],
            prepare: vec![Vec::new(); n],
            rows: 0,
            sweeps: 0,
        }
    }

    fn medians_ms(&self) -> Vec<f64> {
        self.call.iter().map(|s| median(s) * 1e3).collect()
    }

    fn all(&self) -> Vec<f64> {
        self.call.iter().flatten().copied().collect()
    }

    fn busy_s(&self) -> f64 {
        self.call.iter().flatten().sum::<f64>() + self.prepare.iter().flatten().sum::<f64>()
    }
}

/// One pass over the corpus.  Verification (digest equal to the warm-up
/// pass's) happens after each call's clock has stopped.
fn sweep(
    ready: &Ready,
    order: &[usize],
    depth: Depth,
    tracer: &mut Tracer,
    samples: &mut Samples,
    out: &mut Outcome,
) {
    for &i in order {
        let stmt = &ready.built.stmts[i];
        let engine = &ready.engines[stmt.engine];
        let id = Some(i as u32);
        let root = tracer.begin("stmt", None, id);
        let reply = match depth {
            Depth::Execute => {
                let (reply, secs) =
                    tracer.time("core.execute", Some(root), id, || engine.execute(&stmt.sql));
                samples.call[i].push(secs);
                reply
            }
            Depth::Prepared => {
                let (prepared, secs) =
                    tracer.time("core.prepare", Some(root), id, || engine.prepare(&stmt.sql));
                samples.prepare[i].push(secs);
                prepared.and_then(|p| {
                    let (reply, secs) =
                        tracer.time("core.execute_prepared", Some(root), id, || {
                            engine.execute_prepared(&p)
                        });
                    samples.call[i].push(secs);
                    reply
                })
            }
        };
        tracer.end(root);
        match reply {
            Ok(reply) => {
                samples.rows += reply.table.rows() as u64;
                let same = reply.table.digest() == ready.reference_digest[i];
                out.check(same, || {
                    format!("{}: result changed between repetitions", stmt.name)
                });
            }
            Err(e) => out.check(false, || format!("{}: {e}", stmt.name)),
        }
    }
    samples.sweeps += 1;
}

/// Whole sweeps until `budget_s` is spent, at least `min_sweeps`.  Every
/// sweep runs the corpus in an order shuffled by the seed; the same seed
/// gives every depth of the traced pass the same sequence of orders.
fn sweep_for(
    ready: &Ready,
    seed: u64,
    depth: Depth,
    budget_s: f64,
    min_sweeps: usize,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Samples {
    let mut samples = Samples::new(ready.built.stmts.len());
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..ready.built.stmts.len()).collect();
    let t = Instant::now();
    while samples.sweeps < min_sweeps || t.elapsed().as_secs_f64() < budget_s {
        rng.shuffle(&mut order);
        sweep(ready, &order, depth, tracer, &mut samples, out);
    }
    samples
}

pub fn run(spec: &Spec, args: &RunArgs, tracer: &mut Tracer) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut times = SetupTimes::default();
    let mut ready = set_up(spec, args, tracer, &mut times)?;
    for _ in 1..spec.setup_reps {
        // Tear the previous set-up down before building the next, as a
        // restarted process would.
        drop(ready);
        ready = set_up(spec, args, tracer, &mut times)?;
    }
    verify_reference(spec, args, &ready, &mut out);
    times.report(args.trace, &mut out.metrics);
    out.note("statements", ready.built.stmts.len());
    out.note("setup_reps", spec.setup_reps);

    if args.trace {
        traced_pass(spec, args, &ready, tracer, &mut out)?;
    } else {
        let min_sweeps = if args.smoke { 1 } else { 3 };
        let s = sweep_for(
            &ready,
            args.seed,
            Depth::Execute,
            args.seconds,
            min_sweeps,
            tracer,
            &mut out,
        );
        let medians = s.medians_ms();
        let all_ms: Vec<f64> = s.all().iter().map(|v| v * 1e3).collect();
        let n = all_ms.len() as u64;
        let per_stmt = s.sweeps as u64;
        let m = &mut out.metrics;
        m.set("ops_per_s", n as f64 / s.busy_s(), n);
        m.set("rows_per_s", s.rows as f64 / s.busy_s(), n);
        m.set("stmt_geomean_ms", geomean(&medians), per_stmt);
        m.set("stmt_slowest_ms", stats::max(&medians), per_stmt);
        // The median statement, every statement weighing the same.  (The
        // median of the pooled samples falls into the gap between two
        // statements' latencies and jumps across it from run to run.)
        m.set("stmt_p50_ms", median(&medians), per_stmt);
        m.set("stmt_p95_ms", percentile(&all_ms, 0.95), n);
        // Every statement of these workloads is a read.
        m.set("read_p50_ms", median(&medians), per_stmt);
        m.set("recovery_s", times.cold_start_s(), times.reps());
        m.set("peak_rss_mb", peak_rss_mb(), 1);
        out.note("sweeps", s.sweeps);
        out.note("operations", n);
        out.note("stmt_median_ms", stmt_medians(&ready.built.stmts, &medians));
        let done = out.attempted - out.failed;
        out.metrics.set(
            "achieved_frac",
            done as f64 / out.attempted as f64,
            out.attempted,
        );
    }
    Ok(out)
}

fn traced_pass(
    spec: &Spec,
    args: &RunArgs,
    ready: &Ready,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Res<()> {
    let stmts = &ready.built.stmts;
    let min_sweeps = if args.smoke { 1 } else { 2 };
    let share = args.seconds / 4.0;
    let usage = Usage::start();

    // Same code with the tracer off, for the overhead of recording spans.
    let mut untraced = Tracer::new(false);
    let plain = sweep_for(
        ready,
        args.seed,
        Depth::Execute,
        share,
        min_sweeps,
        &mut untraced,
        out,
    );
    let traced = sweep_for(
        ready,
        args.seed,
        Depth::Execute,
        share,
        min_sweeps,
        tracer,
        out,
    );
    let prepared = sweep_for(
        ready,
        args.seed,
        Depth::Prepared,
        share,
        min_sweeps,
        tracer,
        out,
    );

    let sweeps = (plain.sweeps + traced.sweeps + prepared.sweeps) as u64;

    // The front end alone: parse + analyze, no plan cache, no execution.
    let mut frontend_us = Vec::with_capacity(stmts.len());
    for (i, stmt) in stmts.iter().enumerate() {
        let engine = &ready.engines[stmt.engine];
        let reps: Vec<f64> = (0..5)
            .map(|_| {
                tracer
                    .time("core.explain", None, Some(i as u32), || {
                        engine.explain(&stmt.sql)
                    })
                    .1
            })
            .collect();
        frontend_us.push(median(&reps) * 1e6);
    }

    let exec_ms = prepared.medians_ms();
    let prepare_us: Vec<f64> = prepared.prepare.iter().map(|s| median(s) * 1e6).collect();
    let plain_sum: f64 = plain.medians_ms().iter().sum();
    let traced_sum: f64 = traced.medians_ms().iter().sum();
    let plan_cache = ready
        .engines
        .iter()
        .map(Engine::plan_cache)
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));

    let n = stmts.len() as u64;
    let per_stmt = prepared.sweeps as u64;
    usage.report(sweeps, &mut out.metrics, tracer);
    report_plan_cache(plan_cache, &mut out.metrics, tracer);
    let m = &mut out.metrics;
    m.set("core.frontend_us", mean(frontend_us), n * 5);
    m.set("core.prepare_hit_us", mean(prepare_us), n * per_stmt);
    m.set("core.exec_sum_ms", exec_ms.iter().sum(), n * per_stmt);
    m.set(
        "core.first_exec_ms",
        ready.first_exec_s.iter().sum::<f64>() * 1e3,
        n,
    );
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (stmt, ms) in stmts.iter().zip(&exec_ms) {
        for layer in &stmt.layers {
            *by_layer.entry(layer).or_default() += ms;
        }
    }
    for (layer, ms) in by_layer {
        m.set(layer, ms, per_stmt);
    }
    let plans_tcu = ready.reference.iter().filter(|r| r.used_tcu).count();
    m.set("core.plans_tcu", plans_tcu as f64, n);
    m.set(
        "device.sim_ms",
        ready.reference.iter().map(|r| r.sim_s).sum::<f64>() * 1e3,
        n,
    );
    m.set(
        "trace.overhead_frac",
        (traced_sum - plain_sum) / plain_sum,
        n,
    );
    out.note("sweeps", sweeps);
    out.note("stmt_median_ms", stmt_medians(stmts, &exec_ms));

    if let Some(leaves) = spec.leaves {
        leaves(&ready.built, args, share, tracer, out)?;
    }
    Ok(())
}

/// `{statement name: median ms}` for the run record.
fn stmt_medians(stmts: &[Stmt], medians_ms: &[f64]) -> Json {
    Json::Obj(
        stmts
            .iter()
            .zip(medians_ms)
            .map(|(s, ms)| (s.name.clone(), Json::Num(*ms)))
            .collect(),
    )
}

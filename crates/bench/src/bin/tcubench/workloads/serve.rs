//! `serve_tcup`: a TCUP socket server in this process, driven open-loop
//! over two blocking client connections.
//!
//! Chosen because the statements are so short that frame decode/encode,
//! reactor wake-ups, queueing, plan-cache replay and reply streaming are
//! a large share of each one.  The mix exercises `net` two ways at once:
//! 15 of every 17 statements are **point** statements (at most a few
//! hundred result rows), 2 are the **bulk** statement (micro Q1, a
//! ~98K-row, ~1.5 MB reply).  The median sits in the point class and the
//! 95th percentile inside the bulk class (11.8% of statements), never on
//! the boundary, so a batching or encoding change that helps one class
//! at the other's expense shows in one of the two.
//!
//! **Open loop**: arrivals follow a seeded Poisson schedule at the fixed
//! [`RATE_PER_S`]; latency counts from each statement's *due* time, so a
//! stall is charged to every statement it delays.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use super::{report_plan_cache, Outcome, RunArgs, SetupTimes, Usage, DATA_SEED, SHORT_SETUP_REPS};
use crate::json::Json;
use crate::probe::{
    self, Conn, Dataset, Engine, InProcServer, Reply, Res, ResultTable, SocketServer,
};
use crate::procstat::peak_rss_mb;
use crate::schedule::{
    achieved_frac, backlog_at_end, poisson_schedule, statement_mix, OpenLoopSample,
};
use crate::stats::{self, geomean, mean, median, percentile};
use crate::trace::Tracer;
use crate::verify;

/// Offered load of the open loop, statements per second.
///
/// Frozen, never re-derived at run time: 40% of the two-connection
/// closed-loop capacity measured once on the pipeline box
/// (`serve.closed_qps_2c`, about 405/s there), rounded down to a multiple
/// of 10.  A later change that makes the server faster must show up as
/// lower latency at this same rate, not as a different rate.
pub const RATE_PER_S: f64 = 160.0;

const CONNECTIONS: usize = 2;

struct Stmt {
    name: String,
    sql: String,
    /// The ~98K-row reply; everything else is the point class.
    bulk: bool,
}

struct Ready {
    engine: Engine,
    server: SocketServer,
    conns: Vec<Conn>,
    stmts: Vec<Stmt>,
    /// In-process `TcuDb::execute` reply of every statement: what every
    /// socket reply must equal.
    reference: Vec<Reply>,
    first_exec_s: Vec<f64>,
}

fn corpus() -> Vec<Stmt> {
    let mut stmts: Vec<Stmt> = probe::ssb_queries()
        .into_iter()
        .map(|(name, sql)| Stmt {
            name: format!("ssb/{name}"),
            sql,
            bulk: false,
        })
        .collect();
    for (name, sql, bulk) in [
        ("micro/Q3", probe::MICRO_Q3, false),
        ("micro/Q4", probe::MICRO_Q4, false),
        ("micro/Q1", probe::MICRO_Q1, true),
    ] {
        stmts.push(Stmt {
            name: name.to_string(),
            sql: sql.to_string(),
            bulk,
        });
    }
    stmts
}

/// One round of the mix: every statement once, the bulk statement twice.
fn round(stmts: &[Stmt]) -> Vec<usize> {
    let mut round: Vec<usize> = (0..stmts.len()).collect();
    round.extend(stmts.iter().position(|s| s.bulk));
    round
}

fn set_up(args: &RunArgs, tracer: &mut Tracer, times: &mut SetupTimes) -> Res<Ready> {
    let micro = if args.smoke {
        (2_000, 400)
    } else {
        (20_000, 4_096)
    };
    let (data, gen_s) = tracer.time("setup.gen", None, None, || {
        Dataset::ssb_mini(DATA_SEED).merge(Dataset::micro(micro.0, micro.1, DATA_SEED ^ 0xA5))
    });
    let stmts = corpus();
    let (loaded, load_s) = tracer.time("setup.load", None, None, || -> Res<_> {
        let engine = Engine::in_memory();
        engine.load(data);
        let server = SocketServer::start(&engine)?;
        let conns = (0..CONNECTIONS)
            .map(|_| Conn::connect(server.addr()))
            .collect::<Res<Vec<_>>>()?;
        Ok((engine, server, conns))
    });
    let (engine, server, mut conns) = loaded?;

    // Warm-up pass: every statement once per connection over the socket.
    // The first is the cold execution (dictionary builds, plan costing).
    let warm = tracer.begin("setup.warm", None, None);
    let t = Instant::now();
    let mut first_exec_s = Vec::with_capacity(stmts.len());
    let mut socket_replies = Vec::with_capacity(stmts.len());
    for (c, conn) in conns.iter_mut().enumerate() {
        for (i, stmt) in stmts.iter().enumerate() {
            let (reply, secs) = tracer.time("net.first_query", Some(warm), Some(i as u32), || {
                conn.query(&stmt.sql)
            });
            let reply = reply.map_err(|e| format!("{}: {e}", stmt.name))?;
            if c == 0 {
                first_exec_s.push(secs);
                socket_replies.push(reply);
            }
        }
    }
    let warm_s = t.elapsed().as_secs_f64();
    tracer.end(warm);
    times.push(gen_s, load_s, warm_s);

    let reference = stmts
        .iter()
        .map(|s| {
            engine
                .execute(&s.sql)
                .map_err(|e| format!("{}: {e}", s.name))
        })
        .collect::<Res<Vec<_>>>()?;
    for ((stmt, socket), inproc) in stmts.iter().zip(&socket_replies).zip(&reference) {
        if *socket != inproc.table {
            return Err(format!(
                "{}: socket reply differs from TcuDb::execute",
                stmt.name
            ));
        }
    }
    Ok(Ready {
        engine,
        server,
        conns,
        stmts,
        reference,
        first_exec_s,
    })
}

/// Close the connections and stop the server; returns the serving
/// layer's counters and the reactor's `(accepted, rejected)`.
fn tear_down(server: SocketServer, conns: Vec<Conn>) -> Res<(probe::ServeCounters, (u64, u64))> {
    for conn in conns {
        conn.close();
    }
    let net = server.net_stats();
    Ok((server.shutdown()?, net))
}

/// Sleep until `due` (seconds after `origin`): coarse sleep, then spin
/// the last stretch, because `thread::sleep` alone overshoots by more
/// than the shortest statement takes.
fn wait_until(origin: Instant, due: f64) {
    const SPIN: f64 = 300e-6;
    let remaining = due - origin.elapsed().as_secs_f64();
    if remaining > SPIN {
        std::thread::sleep(Duration::from_secs_f64(remaining - SPIN));
    }
    while origin.elapsed().as_secs_f64() < due {
        std::hint::spin_loop();
    }
}

/// Dispatch `due`/`mix` over the connections, open loop.  A connection
/// thread claims the next arrival when it is free, waits for its due
/// time if that is still ahead, and sends.  Replies are compared with
/// the reference after the clock has been read.
fn open_loop(
    conns: &mut [Conn],
    stmts: &[Stmt],
    reference: &[Reply],
    due: &[f64],
    mix: &[usize],
) -> (Vec<OpenLoopSample>, Instant, Vec<String>) {
    let next = AtomicUsize::new(0);
    let origin = Instant::now();
    let now = || origin.elapsed().as_secs_f64();
    let per_thread: Vec<(Vec<OpenLoopSample>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let next = &next;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut errors = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= due.len() {
                            return (samples, errors);
                        }
                        let claimed = now();
                        wait_until(origin, due[i]);
                        let sent = now();
                        let reply = conn.query(&stmts[mix[i]].sql);
                        let done = now();
                        let ok = match reply {
                            Ok(table) if table == reference[mix[i]].table => true,
                            Ok(_) => {
                                errors.push(format!("{}: reply differs", stmts[mix[i]].name));
                                false
                            }
                            Err(e) => {
                                errors.push(format!("{}: {e}", stmts[mix[i]].name));
                                false
                            }
                        };
                        samples.push(OpenLoopSample {
                            stmt: mix[i],
                            due: due[i],
                            claimed,
                            sent,
                            done,
                            ok,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop connection thread panicked"))
            .collect()
    });
    let mut samples = Vec::new();
    let mut errors = Vec::new();
    for (s, e) in per_thread {
        samples.extend(s);
        errors.extend(e);
    }
    samples.sort_by(|a, b| a.due.total_cmp(&b.due));
    (samples, origin, errors)
}

fn count_samples(samples: &[OpenLoopSample], errors: Vec<String>, out: &mut Outcome) {
    let mut errors = errors.into_iter();
    for s in samples {
        out.check(s.ok, || errors.next().unwrap_or_default());
    }
}

/// Closed loop: every connection replays the mix back to back for
/// `budget_s`.  Returns statements per second.
fn closed_loop(
    conns: &mut [Conn],
    stmts: &[Stmt],
    reference: &[Reply],
    mix: &[usize],
    budget_s: f64,
    out: &mut Outcome,
) -> f64 {
    let origin = Instant::now();
    let results: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let (mut done, mut bad) = (0u64, 0u64);
                    // Offset the connections so they do not send the same
                    // statement at the same moment (which would coalesce).
                    let mut at = c * mix.len() / CONNECTIONS;
                    while origin.elapsed().as_secs_f64() < budget_s {
                        let s = mix[at % mix.len()];
                        match conn.query(&stmts[s].sql) {
                            Ok(table) if table == reference[s].table => done += 1,
                            _ => bad += 1,
                        }
                        at += 1;
                    }
                    (done, bad)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop connection thread panicked"))
            .collect()
    });
    let wall = origin.elapsed().as_secs_f64();
    let (done, bad) = results.iter().fold((0, 0), |a, r| (a.0 + r.0, a.1 + r.1));
    out.attempted += done + bad;
    out.failed += bad;
    if bad > 0 {
        out.failures
            .push(format!("closed loop: {bad} statements failed or differed"));
    }
    done as f64 / wall
}

pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut times = SetupTimes::default();
    let setup_reps = if args.smoke { 1 } else { SHORT_SETUP_REPS };
    let mut ready = set_up(args, tracer, &mut times)?;
    for _ in 1..setup_reps {
        tear_down(ready.server, ready.conns)?;
        ready = set_up(args, tracer, &mut times)?;
    }
    times.report(args.trace, &mut out.metrics);

    // Golden digests of the in-process replies (the socket replies were
    // compared with them during set-up).
    let golden = if args.smoke {
        Default::default()
    } else {
        verify::golden("serve_tcup")
    };
    for (stmt, reply) in ready.stmts.iter().zip(&ready.reference) {
        out.digest(&golden, &stmt.name, reply.table.digest());
    }

    let rate = RATE_PER_S;
    out.note("rate_per_s", rate);
    out.note("connections", CONNECTIONS);
    out.note("statements", ready.stmts.len());
    out.note("setup_reps", setup_reps);
    let round = round(&ready.stmts);

    if args.trace {
        traced_pass(args, ready, &round, tracer, &mut out)?;
        return Ok(out);
    }

    let due = poisson_schedule(args.seed, rate, args.seconds);
    let mix = statement_mix(args.seed, due.len(), &round);
    let Ready {
        server,
        mut conns,
        stmts,
        reference,
        ..
    } = ready;
    let (samples, _, errors) = open_loop(&mut conns, &stmts, &reference, &due, &mix);
    count_samples(&samples, errors, &mut out);
    let (served, _) = tear_down(server, conns)?;
    // A shed or timed-out statement reached its client as an error and is
    // already counted; the server-side counters must agree.
    out.check(served.shed + served.timed_out + served.errors == 0, || {
        format!("server counted {served:?}")
    });

    let ok: Vec<&OpenLoopSample> = samples.iter().filter(|s| s.ok).collect();
    let latency: Vec<f64> = ok.iter().map(|s| s.latency_ms()).collect();
    // From the start of the schedule until the last reply was in.
    let wall = samples.iter().map(|s| s.done).fold(0.0, f64::max);
    let medians: Vec<f64> = (0..stmts.len())
        .map(|i| {
            let of_stmt: Vec<f64> = ok
                .iter()
                .filter(|s| s.stmt == i)
                .map(|s| s.latency_ms())
                .collect();
            median(&of_stmt)
        })
        .collect();
    let rows: usize = ok.iter().map(|s| reference[s.stmt].table.rows()).sum();
    let n = latency.len() as u64;
    let per_stmt = n / round.len() as u64;
    let m = &mut out.metrics;
    m.set("ops_per_s", n as f64 / wall, n);
    m.set("rows_per_s", rows as f64 / wall, n);
    m.set("stmt_geomean_ms", geomean(&medians), per_stmt);
    m.set("stmt_slowest_ms", stats::max(&medians), per_stmt);
    m.set("stmt_p50_ms", median(&latency), n);
    m.set("stmt_p95_ms", percentile(&latency, 0.95), n);
    m.set("read_p50_ms", median(&latency), n);
    m.set(
        "achieved_frac",
        achieved_frac(&samples, args.seconds),
        samples.len() as u64,
    );
    m.set("recovery_s", times.cold_start_s(), times.reps());
    m.set("peak_rss_mb", peak_rss_mb(), 1);
    out.note("offered", samples.len());
    out.note(
        "stmt_median_ms",
        Json::Obj(
            stmts
                .iter()
                .zip(&medians)
                .map(|(stmt, ms)| (stmt.name.clone(), Json::Num(*ms)))
                .collect(),
        ),
    );
    out.note("backlog_end", backlog_at_end(&samples, args.seconds));
    Ok(out)
}

/// Median seconds per statement of `rounds` replays by one caller.
fn replay<R>(
    name: &str,
    stmts: &[Stmt],
    rounds: usize,
    tracer: &mut Tracer,
    mut call: impl FnMut(usize, &Stmt) -> Res<R>,
    mut verify: impl FnMut(usize, R) -> bool,
    out: &mut Outcome,
) -> Vec<f64> {
    let mut secs = vec![Vec::with_capacity(rounds); stmts.len()];
    for _ in 0..rounds {
        for (i, stmt) in stmts.iter().enumerate() {
            let (reply, s) = tracer.time(name, None, Some(i as u32), || call(i, stmt));
            secs[i].push(s);
            match reply {
                Ok(r) => {
                    let same = verify(i, r);
                    out.check(same, || format!("{name} {}: reply differs", stmt.name));
                }
                Err(e) => out.check(false, || format!("{name} {}: {e}", stmt.name)),
            }
        }
    }
    secs.iter().map(|s| median(s)).collect()
}

fn traced_pass(
    args: &RunArgs,
    ready: Ready,
    round: &[usize],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Res<()> {
    let Ready {
        engine,
        server,
        mut conns,
        stmts,
        reference,
        first_exec_s,
    } = ready;
    let (stmts, reference) = (stmts.as_slice(), reference.as_slice());
    let usage = Usage::start();
    let rounds = if args.smoke { 1 } else { 7 };

    // Head-room behind the fixed offered rate.
    let mix = statement_mix(args.seed, round.len() * 8, round);
    let closed_qps = closed_loop(&mut conns, stmts, reference, &mix, args.seconds * 0.3, out);

    // A short open-loop stretch, for how late the generator runs and
    // whether a backlog builds; one span per statement.
    let window = args.seconds * 0.3;
    let due = poisson_schedule(args.seed, RATE_PER_S, window);
    let mix = statement_mix(args.seed, due.len(), round);
    let (samples, origin, errors) = open_loop(&mut conns, stmts, reference, &due, &mix);
    count_samples(&samples, errors, out);
    for s in &samples {
        tracer.record("net.query", Some(s.stmt as u32), origin, s.sent, s.done);
    }
    let lateness: Vec<f64> = samples.iter().map(OpenLoopSample::lateness_ms).collect();

    // Differential replay by one caller, outermost layer first.  The same
    // socket replay runs untraced as well: the difference is what
    // recording spans costs.
    let same_table = |i: usize, t: ResultTable| t == reference[i].table;
    let same_reply = |i: usize, r: Reply| r.table == reference[i].table;
    let mut conn = Conn::connect(server.addr())?;
    let mut untraced = Tracer::new(false);
    let socket_plain = replay(
        "net.query",
        stmts,
        rounds,
        &mut untraced,
        |_, s| conn.query(&s.sql),
        same_table,
        out,
    );
    let socket = replay(
        "net.query",
        stmts,
        rounds,
        tracer,
        |_, s| conn.query(&s.sql),
        same_table,
        out,
    );
    conn.close();

    // The socket server goes down before the in-process server comes up,
    // so only one worker pool is alive at a time.
    let (served, (accepted, rejected)) = tear_down(server, conns)?;
    let inproc = InProcServer::start(&engine)?;
    let session = inproc.session();
    let sess = replay(
        "serve.session",
        stmts,
        rounds,
        tracer,
        |_, s| session.execute(&s.sql),
        same_reply,
        out,
    );
    inproc.shutdown();

    let exec = replay(
        "core.execute",
        stmts,
        rounds,
        tracer,
        |_, s| engine.execute(&s.sql),
        same_reply,
        out,
    );
    let prepare = replay(
        "core.prepare",
        stmts,
        rounds,
        tracer,
        |_, s| engine.prepare(&s.sql),
        |_, _| true,
        out,
    );
    let prepared: Vec<_> = stmts
        .iter()
        .map(|s| engine.prepare(&s.sql))
        .collect::<Res<_>>()?;
    let exec_prepared = replay(
        "core.execute_prepared",
        stmts,
        rounds,
        tracer,
        |i, _| engine.execute_prepared(&prepared[i]),
        same_reply,
        out,
    );
    let explain = replay(
        "core.explain",
        stmts,
        rounds,
        tracer,
        |_, s| engine.explain(&s.sql),
        |_, _| true,
        out,
    );

    // Leaves: the frame codec on every distinct reply.
    let encoded: Vec<Vec<u8>> = reference
        .iter()
        .map(|r| probe::encode_reply(&r.table))
        .collect();
    let encode = replay(
        "net.encode_result",
        stmts,
        rounds,
        tracer,
        |i, _| Ok(probe::encode_reply(&reference[i].table)),
        |i, bytes| bytes == encoded[i],
        out,
    );
    let decode = replay(
        "net.decode_result",
        stmts,
        rounds,
        tracer,
        |i, _| probe::decode_reply(&encoded[i]),
        same_table,
        out,
    );

    usage.report(1, &mut out.metrics, tracer);
    report_plan_cache(engine.plan_cache(), &mut out.metrics, tracer);
    let n = stmts.len() as u64;
    let samples_per = n * rounds as u64;
    let ms = |a: &[f64], b: &[f64], i: usize| (a[i] - b[i]) * 1e3;
    let class_self = |bulk: bool| {
        mean(
            (0..stmts.len())
                .filter(|i| stmts[*i].bulk == bulk)
                .map(|i| ms(&socket, &sess, i)),
        )
    };
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let mb = bytes as f64 / 1e6;
    let total_rows: usize = reference.iter().map(|r| r.table.rows()).sum();
    let leaves: Vec<f64> = (0..stmts.len())
        .map(|i| decode[i] + prepare[i] + exec_prepared[i] + encode[i])
        .collect();
    let socket_sum: f64 = socket.iter().sum();
    let plain_sum: f64 = socket_plain.iter().sum();

    let m = &mut out.metrics;
    m.set("net.point_self_ms", class_self(false), samples_per);
    m.set("net.bulk_self_ms", class_self(true), rounds as u64);
    m.set(
        "net.encode_ms_per_mb",
        encode.iter().sum::<f64>() * 1e3 / mb,
        samples_per,
    );
    m.set(
        "net.decode_ms_per_mb",
        decode.iter().sum::<f64>() * 1e3 / mb,
        samples_per,
    );
    m.set(
        "net.result_bytes_per_row",
        bytes as f64 / total_rows as f64,
        n,
    );
    m.set("net.accepted", accepted as f64, 1);
    m.set("net.rejected", rejected as f64, 1);
    m.set(
        "net.unattributed_ms",
        mean((0..stmts.len()).map(|i| (socket[i] - leaves[i]) * 1e3)),
        samples_per,
    );
    m.set(
        "serve.self_ms",
        mean((0..stmts.len()).map(|i| ms(&sess, &exec, i))),
        samples_per,
    );
    m.set("serve.closed_qps_2c", closed_qps, 1);
    let submitted = served.submitted.max(1) as f64;
    m.set(
        "serve.coalesced_frac",
        served.coalesced as f64 / submitted,
        served.submitted,
    );
    m.set(
        "serve.shed_frac",
        served.shed as f64 / submitted,
        served.submitted,
    );
    m.set(
        "serve.admission_waits",
        served.admission_waits as f64,
        served.submitted,
    );
    m.set("serve.timed_out", served.timed_out as f64, served.submitted);
    m.set(
        "core.frontend_us",
        mean(explain.iter().map(|s| s * 1e6)),
        samples_per,
    );
    m.set(
        "core.prepare_hit_us",
        mean(prepare.iter().map(|s| s * 1e6)),
        samples_per,
    );
    m.set(
        "core.exec_sum_ms",
        exec_prepared.iter().sum::<f64>() * 1e3,
        samples_per,
    );
    m.set(
        "core.first_exec_ms",
        first_exec_s.iter().sum::<f64>() * 1e3,
        n,
    );
    m.set(
        "core.plans_tcu",
        reference.iter().filter(|r| r.used_tcu).count() as f64,
        n,
    );
    m.set(
        "device.sim_ms",
        reference.iter().map(|r| r.sim_s).sum::<f64>() * 1e3,
        n,
    );
    m.set(
        "gen.late_p95_ms",
        percentile(&lateness, 0.95),
        lateness.len() as u64,
    );
    m.set(
        "gen.backlog_end",
        backlog_at_end(&samples, window) as f64,
        samples.len() as u64,
    );
    m.set(
        "trace.coverage",
        leaves.iter().sum::<f64>() / socket_sum,
        samples_per,
    );
    m.set(
        "trace.overhead_frac",
        (socket_sum - plain_sum) / plain_sum,
        samples_per,
    );
    tracer.counter("serve.submitted", served.submitted as f64);
    tracer.counter("serve.executed", served.executed as f64);
    tracer.counter("serve.coalesced", served.coalesced as f64);
    tracer.counter("net.accepted", accepted as f64);
    out.note("open_loop_offered", samples.len());
    out.note("replay_rounds", rounds);
    Ok(())
}

//! `ingest_rw`: durable appends beside reads over the same growing table,
//! then recovery.
//!
//! Chosen because every read-side structure (dictionary encodings, zone
//! maps, plan-cache epochs, copy-on-write snapshots) is paid for on the
//! write side here, and WAL append/sync, checkpoints and recovery run in
//! no other workload.  Write cost, read cost and bytes on disk trade
//! against each other, so all three are reported.
//!
//! One caller.  The engine is durable with the shipped defaults (fsync
//! on every commit, background flusher on).  The pass appends a fixed
//! number of 1 000-row batches — the table's growth is the point, so the
//! count is fixed by `--seconds`, not cut off by the clock — with two
//! reads after every 8th batch; then the engine is dropped without a
//! checkpoint and reopened.  A second, short pass runs on an in-memory
//! disk with a scripted crash, so unsynced bytes really are discarded.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

use super::{report_plan_cache, Outcome, RunArgs, SetupTimes, Usage, SHORT_SETUP_REPS};
use crate::probe::{CrashDisk, DetachedTable, Engine, Res, Rows};
use crate::procstat::peak_rss_mb;
use crate::schedule::Rng;
use crate::stats::{self, geomean, median, percentile};
use crate::trace::Tracer;
use crate::verify::{self, Digest};

const TABLE: &str = "ingest";
const COLUMNS: [&str; 3] = ["id", "val", "g"];
const GROUPS: i64 = 50;
/// Two reads follow every this-many appends.
const READ_EVERY: usize = 8;
/// Append batches per second of `--seconds`: sized so the pass takes
/// about `--seconds` on the pipeline box (append cost grows with the
/// table, so pass time grows with the square of this).
const BATCHES_PER_S: f64 = 25.0;
/// The sum read covers the newest this-many batches.
const RECENT_BATCHES: usize = 4;

struct Sizes {
    batches: usize,
    batch_rows: usize,
    crash_commits: usize,
}

fn sizes(args: &RunArgs) -> Sizes {
    if args.smoke {
        Sizes {
            batches: 16,
            batch_rows: 100,
            crash_commits: 10,
        }
    } else {
        Sizes {
            batches: ((args.seconds * BATCHES_PER_S).round() as usize).max(2 * READ_EVERY),
            batch_rows: 1_000,
            crash_commits: 50,
        }
    }
}

/// Generated input: the batches, and what the harness knows about them.
struct Input {
    batches: Vec<Vec<[i64; 3]>>,
    /// `SUM(val)` of batch `b`.
    batch_val_sum: Vec<i64>,
}

fn generate(seed: u64, count: usize, batch_rows: usize) -> Input {
    let mut rng = Rng::new(seed ^ 0x0012_6357);
    let mut batches = Vec::with_capacity(count);
    let mut batch_val_sum = Vec::with_capacity(count);
    for b in 0..count {
        let rows: Vec<[i64; 3]> = (0..batch_rows)
            .map(|i| {
                let id = (b * batch_rows + i) as i64;
                [
                    id,
                    1 + rng.below(1_000) as i64,
                    rng.below(GROUPS as u64) as i64,
                ]
            })
            .collect();
        batch_val_sum.push(rows.iter().map(|r| r[1]).sum());
        batches.push(rows);
    }
    Input {
        batches,
        batch_val_sum,
    }
}

/// Per-column wrapping sums of the first `batches` batches.
fn checksum(input: &Input, batches: usize) -> Vec<i64> {
    let mut sums = vec![0i64; COLUMNS.len()];
    for row in input.batches[..batches].iter().flatten() {
        for (s, v) in sums.iter_mut().zip(row) {
            *s = s.wrapping_add(*v);
        }
    }
    sums
}

fn fresh_dir(dir: &Path) -> Res<()> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

fn recent_sum_sql(first_id: usize) -> String {
    format!("SELECT SUM(val) FROM {TABLE} WHERE id >= {first_id}")
}

fn group_sql() -> String {
    format!("SELECT g, SUM(val) FROM {TABLE} GROUP BY g")
}

/// Latency samples (seconds) of one append/read pass.
#[derive(Default)]
struct Pass {
    append: Vec<f64>,
    read_recent: Vec<f64>,
    read_groups: Vec<f64>,
    rows_read: u64,
    /// Digest of the group read at the second read point: the same rows
    /// whatever `--seconds` is, so `golden.json` can hold it.
    early_groups: Option<Digest>,
}

/// WAL bytes seen in the directory: rotated logs are deleted at
/// checkpoints, so each file's largest observed size is kept.
#[derive(Default)]
struct DiskWatch {
    wal_peak: BTreeMap<String, u64>,
    manifests: BTreeSet<String>,
}

impl DiskWatch {
    fn poll(&mut self, dir: &Path) -> u64 {
        let mut total = 0;
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let len = entry.metadata().map_or(0, |m| m.len());
            total += len;
            if name.ends_with(".log") {
                let peak = self.wal_peak.entry(name).or_default();
                *peak = (*peak).max(len);
            } else if name.starts_with("manifest-") {
                self.manifests.insert(name);
            }
        }
        total
    }

    fn wal_bytes(&self) -> u64 {
        self.wal_peak.values().sum()
    }
}

/// Append every batch of `input` to a fresh table, reading after every
/// [`READ_EVERY`]th; each read is checked against what the harness knows
/// was appended.
fn append_and_read(
    engine: &Engine,
    input: &Input,
    batches: usize,
    batch_rows: usize,
    tracer: &mut Tracer,
    mut watch: Option<(&Path, &mut DiskWatch)>,
    out: &mut Outcome,
) -> Pass {
    let mut pass = Pass::default();
    let mut group_sums = vec![0i64; GROUPS as usize];
    for b in 0..batches {
        let rows = Rows::from_ints(&input.batches[b]);
        let (result, secs) = tracer.time("storage.append_rows", None, Some(b as u32), || {
            engine.append(TABLE, rows)
        });
        pass.append.push(secs);
        out.check(result.is_ok(), || {
            format!("append {b}: {}", result.unwrap_err())
        });
        for row in &input.batches[b] {
            group_sums[row[2] as usize] += row[1];
        }
        if (b + 1) % READ_EVERY != 0 {
            continue;
        }

        let first = (b + 1).saturating_sub(RECENT_BATCHES);
        let want: i64 = input.batch_val_sum[first..=b].iter().sum();
        let sql = recent_sum_sql(first * batch_rows);
        let (reply, secs) = tracer.time("core.read_recent", None, Some(b as u32), || {
            engine.execute(&sql)
        });
        pass.read_recent.push(secs);
        match reply {
            Ok(reply) => {
                pass.rows_read += reply.table.rows() as u64;
                let got = reply.table.numbers(0).map(|v| v[0]);
                out.check(got == Some(want as f64), || {
                    format!("read after batch {b}: SUM(val) = {got:?}, appended {want}")
                });
            }
            Err(e) => out.check(false, || format!("read after batch {b}: {e}")),
        }

        let (reply, secs) = tracer.time("core.read_groups", None, Some(b as u32), || {
            engine.execute(&group_sql())
        });
        pass.read_groups.push(secs);
        match reply {
            Ok(reply) => {
                pass.rows_read += reply.table.rows() as u64;
                if b + 1 == 2 * READ_EVERY {
                    pass.early_groups = Some(reply.table.digest());
                }
                let same = match (reply.table.ints(0), reply.table.numbers(1)) {
                    (Some(g), Some(sums)) => {
                        g.len() == group_sums.iter().filter(|s| **s != 0).count()
                            && g.iter()
                                .zip(&sums)
                                .all(|(g, s)| group_sums[*g as usize] as f64 == *s)
                    }
                    _ => false,
                };
                out.check(same, || format!("group read after batch {b}: sums differ"));
            }
            Err(e) => out.check(false, || format!("group read after batch {b}: {e}")),
        }
        if let Some((dir, watch)) = watch.as_mut() {
            let bytes = watch.poll(dir);
            tracer.counter("storage.dir_bytes", bytes as f64);
        }
    }
    pass
}

/// One set-up repetition: generate the input, open a durable engine on a
/// fresh directory, and run a tenth of the pass as warm-up.
fn set_up(args: &RunArgs, sz: &Sizes, tracer: &mut Tracer, times: &mut SetupTimes) -> Res<Input> {
    let (input, gen_s) = tracer.time("setup.gen", None, None, || {
        generate(args.seed, sz.batches, sz.batch_rows)
    });
    let dir = args.work_dir.join("warm");
    let (engine, load_s) = tracer.time("setup.load", None, None, || -> Res<Engine> {
        fresh_dir(&dir)?;
        let engine = Engine::open_dir(&dir)?;
        engine.create_int_table(TABLE, &COLUMNS);
        Ok(engine)
    });
    let engine = engine?;
    let warm_batches = (sz.batches / 10).max(READ_EVERY);
    let mut scratch = Outcome::default();
    let mut quiet = Tracer::new(false);
    let (_, warm_s) = tracer.time("setup.warm", None, None, || {
        append_and_read(
            &engine,
            &input,
            warm_batches,
            sz.batch_rows,
            &mut quiet,
            None,
            &mut scratch,
        )
    });
    if scratch.failed > 0 {
        return Err(format!("warm-up pass: {:?}", scratch.failures));
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    times.push(gen_s, load_s, warm_s);
    Ok(input)
}

/// Reopen the dropped database and read from it; verifies that every
/// acknowledged row came back.  Returns seconds from open until both
/// reads were answered, the open alone, and the reopened engine.
fn recover(
    dir: &Path,
    input: &Input,
    sz: &Sizes,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Res<(f64, f64, [f64; 2], Engine)> {
    let t = Instant::now();
    let (engine, open_s) = tracer.time("storage.recover", None, None, || Engine::open_dir(dir));
    let engine = engine?;
    let first = sz.batches.saturating_sub(RECENT_BATCHES);
    let (recent, recent_s) = tracer.time("core.first_exec", None, Some(0), || {
        engine.execute(&recent_sum_sql(first * sz.batch_rows))
    });
    let (groups, groups_s) = tracer.time("core.first_exec", None, Some(1), || {
        engine.execute(&group_sql())
    });
    let total_s = t.elapsed().as_secs_f64();

    let want: i64 = input.batch_val_sum[first..].iter().sum();
    let got = recent.ok().and_then(|r| r.table.numbers(0)).map(|v| v[0]);
    out.check(got == Some(want as f64), || {
        format!("after recovery: SUM(val) = {got:?}, acknowledged {want}")
    });
    out.check(
        groups.is_ok_and(|r| r.table.rows() == GROUPS as usize),
        || "after recovery: group read failed".to_string(),
    );
    let acked = (sz.batches * sz.batch_rows, checksum(input, sz.batches));
    let recovered = engine.int_table_checksum(TABLE)?;
    out.check(recovered == acked, || {
        format!(
            "after recovery: {} rows checksum {:?}; acknowledged {} rows checksum {:?}",
            recovered.0, recovered.1, acked.0, acked.1
        )
    });
    Ok((total_s, open_s, [recent_s, groups_s], engine))
}

/// Commits on an in-memory disk that crashes at a seeded operation and
/// loses unsynced bytes on reboot: every acknowledged commit must be
/// there after recovery, and nothing beyond the one that was in flight.
fn crash_check(seed: u64, input: &Input, sz: &Sizes, out: &mut Outcome) -> Res<()> {
    let commits = sz.crash_commits.min(input.batches.len());
    let mut rng = Rng::new(seed ^ 0xC4A5);
    // A commit is a write and a sync: land the crash inside the run.
    let crash_at = 4 + rng.below(2 * commits as u64 - 4);
    let disk = CrashDisk::crashing_at(crash_at, rng.next_u64());
    let engine = disk.open()?;
    engine.create_int_table(TABLE, &COLUMNS);
    let mut acked = 0;
    for rows in &input.batches[..commits] {
        match engine.append(TABLE, Rows::from_ints(rows)) {
            Ok(()) => acked += 1,
            Err(_) => break,
        }
    }
    out.check(disk.crashed(), || {
        format!("crash check: the scripted crash at op {crash_at} never fired")
    });
    drop(engine);
    disk.reboot();
    let engine = disk.open()?;
    // The table's creation may itself be the commit the crash tore.
    let (rows, sums) = engine
        .int_table_checksum(TABLE)
        .unwrap_or((0, vec![0; COLUMNS.len()]));
    let survived = rows / sz.batch_rows;
    let whole = rows % sz.batch_rows == 0 && (acked..=acked + 1).contains(&survived);
    out.check(
        whole && sums == checksum(input, survived.min(commits)),
        || format!("crash check: {acked} commits acknowledged, {rows} rows recovered"),
    );
    // The recovered engine must accept writes again.
    if rows == 0 && engine.int_table_checksum(TABLE).is_err() {
        engine.create_int_table(TABLE, &COLUMNS);
    }
    let again = engine.append(TABLE, Rows::from_ints(&input.batches[0]));
    out.check(again.is_ok(), || {
        format!("crash check: append after recovery: {again:?}")
    });
    out.note("crash_at_op", crash_at);
    out.note("crash_acked_commits", acked);
    Ok(())
}

pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Res<Outcome> {
    let mut out = Outcome::default();
    let sz = sizes(args);
    let mut times = SetupTimes::default();
    let setup_reps = if args.smoke { 1 } else { SHORT_SETUP_REPS };
    let mut input = set_up(args, &sz, tracer, &mut times)?;
    for _ in 1..setup_reps {
        input = set_up(args, &sz, tracer, &mut times)?;
    }
    times.report(args.trace, &mut out.metrics);
    out.note("batches", sz.batches);
    out.note("batch_rows", sz.batch_rows);
    out.note("read_every", READ_EVERY);
    out.note("setup_reps", setup_reps);

    let dir = args.work_dir.join("db");
    fresh_dir(&dir)?;
    let engine = Engine::open_dir(&dir)?;
    engine.create_int_table(TABLE, &COLUMNS);
    let usage = Usage::start();
    let mut watch = DiskWatch::default();
    let wall = Instant::now();
    let pass = append_and_read(
        &engine,
        &input,
        sz.batches,
        sz.batch_rows,
        tracer,
        args.trace.then_some((dir.as_path(), &mut watch)),
        &mut out,
    );
    let wall_s = wall.elapsed().as_secs_f64();
    let dir_bytes = watch.poll(&dir);
    let plan_cache = engine.plan_cache();
    // Crash-style stop: no checkpoint, the WAL tail is all there is.
    drop(engine);

    let (recovery_s, open_s, first_reads_s, engine) = recover(&dir, &input, &sz, tracer, &mut out)?;
    let recovery = engine.recovery();
    // The appended rows come from `--seed`, so the committed digest only
    // applies to the seed it was recorded with.
    let golden = if args.smoke || args.seed != verify::GOLDEN_SEED {
        Default::default()
    } else {
        verify::golden("ingest_rw")
    };
    if let Some(digest) = pass.early_groups {
        out.digest(&golden, "read_groups@16", digest);
    }

    let ms = |v: &[f64]| -> Vec<f64> { v.iter().map(|s| s * 1e3).collect() };
    let append_ms = ms(&pass.append);
    // One read point = both reads; taken together, because the pooled
    // median of two statements with different latencies sits in the gap
    // between them.
    let reads_ms: Vec<f64> = pass
        .read_recent
        .iter()
        .zip(&pass.read_groups)
        .map(|(a, b)| (a + b) * 1e3)
        .collect();
    let rows = (sz.batches * sz.batch_rows) as f64;

    if args.trace {
        let checkpoint = tracer.time("storage.checkpoint", None, None, || engine.checkpoint());
        out.check(checkpoint.0.is_ok(), || {
            format!("checkpoint: {:?}", checkpoint.0)
        });
        let frontend: Vec<f64> = [recent_sum_sql(0), group_sql()]
            .iter()
            .map(|sql| {
                tracer
                    .time("core.explain", None, None, || engine.explain(sql))
                    .1
                    * 1e6
            })
            .collect();
        let _ = engine.prepare(&group_sql())?;
        let prepare_hit = tracer
            .time("core.prepare", None, None, || engine.prepare(&group_sql()))
            .1
            * 1e6;
        drop(engine);

        // `Table::append_rows` alone, on a table no engine owns.
        let mut detached = DetachedTable::new(TABLE, &COLUMNS);
        let mut detached_ms = Vec::with_capacity(sz.batches);
        for (b, rows) in input.batches.iter().enumerate() {
            let rows = Rows::from_ints(rows);
            let (r, secs) = tracer.time("storage.table_append", None, Some(b as u32), || {
                detached.append(rows)
            });
            r?;
            detached_ms.push(secs * 1e3);
        }
        // What recording one span costs, against the calls it wrapped.
        let mut probe_tracer = Tracer::new(true);
        let t = Instant::now();
        for _ in 0..10_000 {
            probe_tracer.time("x", None, None, || ());
        }
        let span_s = t.elapsed().as_secs_f64() / 10_000.0;
        let spans = (pass.append.len() + pass.read_recent.len() + pass.read_groups.len()) as f64;
        let busy: f64 = pass
            .append
            .iter()
            .chain(&pass.read_recent)
            .chain(&pass.read_groups)
            .sum();

        usage.report(1, &mut out.metrics, tracer);
        report_plan_cache(plan_cache, &mut out.metrics, tracer);
        let edge = 50.min(append_ms.len() / 2).max(1);
        let n = append_ms.len() as u64;
        let m = &mut out.metrics;
        m.set("storage.append_p50_ms", median(&append_ms), n);
        m.set(
            "storage.append_slowdown",
            median(&append_ms[append_ms.len() - edge..]) / median(&append_ms[..edge]),
            2 * edge as u64,
        );
        m.set("storage.table_append_ms", median(&detached_ms), n);
        m.set(
            "storage.wal_bytes_per_user_byte",
            watch.wal_bytes() as f64 / (rows * 24.0),
            1,
        );
        m.set(
            "storage.disk_bytes_per_user_byte",
            dir_bytes as f64 / (rows * 24.0),
            1,
        );
        m.set("storage.checkpoints", watch.manifests.len() as f64, 1);
        m.set("storage.checkpoint_ms", checkpoint.1 * 1e3, 1);
        m.set("storage.recover_ms", open_s * 1e3, 1);
        m.set(
            "storage.replayed_commits",
            recovery.map_or(0.0, |r| r.replayed_commits as f64),
            1,
        );
        m.set("core.frontend_us", frontend.iter().sum::<f64>() / 2.0, 2);
        m.set("core.prepare_hit_us", prepare_hit, 1);
        m.set(
            "core.exec_sum_ms",
            (median(&pass.read_recent) + median(&pass.read_groups)) * 1e3,
            reads_ms.len() as u64,
        );
        m.set(
            "core.first_exec_ms",
            first_reads_s.iter().sum::<f64>() * 1e3,
            2,
        );
        m.set("trace.overhead_frac", spans * span_s / busy, 10_000);
        tracer.counter("storage.wal_bytes", watch.wal_bytes() as f64);
        tracer.counter(
            "storage.manifest_epoch",
            recovery.map_or(0.0, |r| r.manifest_epoch as f64),
        );
    } else {
        drop(engine);
        let append_s: f64 = pass.append.iter().sum();
        let ops = (append_ms.len() + 2 * reads_ms.len()) as u64;
        let kinds = [
            median(&append_ms),
            median(&pass.read_recent) * 1e3,
            median(&pass.read_groups) * 1e3,
        ];
        let m = &mut out.metrics;
        m.set("ops_per_s", ops as f64 / wall_s, ops);
        m.set("rows_per_s", rows / append_s, append_ms.len() as u64);
        m.set("stmt_geomean_ms", geomean(&kinds), 3);
        m.set("stmt_slowest_ms", stats::max(&kinds), 3);
        m.set("stmt_p50_ms", median(&append_ms), append_ms.len() as u64);
        m.set(
            "stmt_p95_ms",
            percentile(&append_ms, 0.95),
            append_ms.len() as u64,
        );
        m.set("read_p50_ms", median(&reads_ms), reads_ms.len() as u64);
        m.set("recovery_s", recovery_s, 1);
        m.set("peak_rss_mb", peak_rss_mb(), 1);
        out.note("operations", ops);
        out.note("rows_read", pass.rows_read);
    }

    crash_check(args.seed, &input, &sz, &mut out)?;
    if !args.trace {
        let done = out.attempted - out.failed;
        out.metrics.set(
            "achieved_frac",
            done as f64 / out.attempted as f64,
            out.attempted,
        );
    }
    let _ = std::fs::remove_dir_all(&args.work_dir);
    Ok(out)
}

//! Serve-level chaos: cancellation, deadlines, overload shedding and
//! transient storage faults composed against one live server.
//!
//! The contract being checked:
//!
//! * every submission resolves — with a result or a typed error
//!   ([`TcuError::Overloaded`], [`TcuError::Cancelled`],
//!   [`TcuError::DeadlineExceeded`]) — never a panic or a hang;
//! * admission accounting returns to zero once the storm passes
//!   (`queue_depth == 0`, `in_flight_bytes == 0`), so aborted queries
//!   leak no budget;
//! * the server stays live throughout and shuts down cleanly;
//! * writer durability is untouched by the chaos: transient backend
//!   blips are retried, and every acknowledged write survives reboot
//!   and recovery.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use tcudb_core::{EngineConfig, QueryOutput, TcuDb};
use tcudb_serve::{ServeConfig, Server};
use tcudb_storage::{DurabilityOptions, MemBackend, Table};
use tcudb_types::{TcuError, TcuResult, Value};

fn open_durable(be: &MemBackend) -> TcuDb {
    TcuDb::open_with_backend(
        Arc::new(be.clone()),
        EngineConfig::default(),
        DurabilityOptions::strict_manual(),
    )
    .expect("open durable engine")
}

fn seed_tables(db: &TcuDb, b_rows: i64) {
    db.try_register_table(
        Table::from_int_columns(
            "A",
            &[
                ("id", vec![1, 2, 3, 4, 5]),
                ("val", vec![10, 20, 30, 40, 50]),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    let ids: Vec<i64> = (0..b_rows).map(|i| i % 6).collect();
    let vals: Vec<i64> = (0..b_rows).map(|i| 100 + i).collect();
    db.try_register_table(Table::from_int_columns("B", &[("id", ids), ("val", vals)]).unwrap())
        .unwrap();
}

/// Distinct statements defeat coalescing so every submission is its own
/// queue entry.
fn distinct_sql(i: usize) -> String {
    format!("SELECT A.val, B.val FROM A, B WHERE A.id = B.id AND B.val > {i}")
}

/// Cancellation, zero deadlines and transient backend blips composed
/// under concurrent load: everything resolves typed, accounting drains
/// to zero, acked writes survive reboot.
#[test]
fn chaos_storm_resolves_typed_and_leaks_nothing() {
    let be = MemBackend::new();
    let db = Arc::new(open_durable(&be));
    seed_tables(&db, 64);

    let server = Server::start(Arc::clone(&db), ServeConfig::with_workers(2));
    let join = "SELECT SUM(A.val), B.val FROM A, B WHERE A.id = B.id GROUP BY B.val";

    let victim = server.session();
    let bystander = server.session();
    let mut acked: Vec<(i64, u64)> = Vec::new();
    let mut outcomes = (0u64, 0u64, 0u64); // (ok, cancelled, timed_out)
    std::thread::scope(|s| {
        // Bystander load: plain submissions racing everything else.
        let bys_handle = s.spawn(|| {
            let mut ok = 0u64;
            for i in 0..40usize {
                let ticket = match bystander.submit(&distinct_sql(i)) {
                    Ok(t) => t,
                    Err(e) => panic!("bystander submit failed: {e}"),
                };
                match ticket.wait() {
                    Ok(_) => ok += 1,
                    // A hard-stopping shutdown could cancel stragglers,
                    // but this test never hard-stops; anything but Ok is
                    // a bug here.
                    Err(e) => panic!("bystander query failed: {e}"),
                }
            }
            ok
        });

        // Writer: appends with transient blips on every third commit.
        let writer_db = Arc::clone(&db);
        let writer_be = be.clone();
        let writer_handle = s.spawn(move || {
            let mut acked = Vec::new();
            for i in 0..30i64 {
                if i % 3 == 0 {
                    writer_be.inject_transient_failures(1 + (i as u64 % 3));
                }
                writer_db
                    .append_rows("B", vec![vec![Value::Int(i % 6), Value::Int(5000 + i)]])
                    .expect("acked write despite transient blips");
                acked.push((5000 + i, writer_db.epoch()));
            }
            acked
        });

        // Victim: floods the queue, then cancels its own session. Every
        // ticket resolves as Ok (already executed) or typed Cancelled.
        let mut tickets = Vec::new();
        for i in 100..140usize {
            tickets.push(victim.submit(&distinct_sql(i)).expect("victim submit"));
        }
        let detached = victim.cancel();
        let (mut ok, mut cancelled) = (0u64, 0u64);
        for t in tickets {
            match t.wait() {
                Ok(_) => ok += 1,
                Err(TcuError::Cancelled(_)) => cancelled += 1,
                Err(e) => panic!("victim ticket resolved with wrong error: {e}"),
            }
        }
        assert_eq!(
            cancelled as usize, detached,
            "every detached waiter resolves Cancelled"
        );
        assert_eq!(ok + cancelled, 40, "every victim ticket resolved");

        // Zero deadlines: typed DeadlineExceeded, never a hang.
        let mut timed_out = 0u64;
        for i in 200..208usize {
            let t = victim
                .submit_with_deadline(&distinct_sql(i), Duration::ZERO)
                .expect("submit with deadline");
            match t.wait() {
                Err(TcuError::DeadlineExceeded(_)) => timed_out += 1,
                Ok(_) => panic!("zero-deadline query executed"),
                Err(e) => panic!("zero-deadline query got wrong error: {e}"),
            }
        }

        acked = writer_handle.join().unwrap();
        let bys_ok = bys_handle.join().unwrap();
        outcomes = (ok + bys_ok, cancelled, timed_out);
    });

    assert!(be.transient_trips() > 0, "fault injection never fired");
    let (ok, cancelled, timed_out) = outcomes;
    assert!(ok >= 40, "bystander work must complete: ok={ok}");
    assert_eq!(timed_out, 8);

    // The storm has passed: the server is live and leaked nothing.
    server.execute(join).expect("server live after the storm");
    let stats = server.stats();
    assert_eq!(stats.queue_depth, 0, "stats: {stats:?}");
    assert_eq!(stats.in_flight_bytes, 0.0, "stats: {stats:?}");
    // `cancelled` counts detached waiters AND executions aborted by the
    // token, so it can exceed the per-ticket count when a cancel caught
    // a job mid-execution.
    assert!(stats.cancelled >= cancelled, "stats: {stats:?}");
    assert_eq!(stats.timed_out, 8, "stats: {stats:?}");
    let stats = server.shutdown();
    assert!(
        stats.checkpoint_epoch.is_some(),
        "graceful shutdown checkpoints"
    );

    // Reboot: every acknowledged write survived the chaos.
    let last_epoch = acked.last().unwrap().1;
    drop(db);
    be.reboot();
    let db = open_durable(&be);
    let report = db.recovery_report().unwrap().clone();
    assert!(
        report.recovered_epoch >= last_epoch,
        "lost acked epoch {last_epoch}, recovered {}",
        report.recovered_epoch
    );
    let snap = db.snapshot();
    let vals = snap
        .table("B")
        .unwrap()
        .column_by_name("val")
        .unwrap()
        .as_i64()
        .unwrap()
        .to_vec();
    for (val, epoch) in &acked {
        assert!(vals.contains(val), "acked val={val} (epoch {epoch}) lost");
    }
}

/// Overload composed with chaos: a one-worker server with a tiny queue
/// sheds the flood with typed errors, keeps the admitted tail within 20x
/// an unloaded run, and drains back to zero.
#[test]
fn overload_sheds_typed_while_admitted_work_completes() {
    let be = MemBackend::new();
    let db = Arc::new(open_durable(&be));
    // A heavier B makes each query slow enough that a flood outruns the
    // single worker and actually hits the queue bound.
    seed_tables(&db, 2048);

    let server = Server::start(
        Arc::clone(&db),
        ServeConfig {
            max_queue: 2,
            ..ServeConfig::with_workers(1)
        },
    );
    let session = server.session();

    // Every flooded statement reads all of B, so each costs about one
    // unloaded run; the `B.id` bound only makes the text distinct.
    let flood_sql = |i: usize| {
        format!(
            "SELECT A.val, B.val FROM A, B WHERE A.id = B.id AND B.id < {}",
            i + 6
        )
    };
    // One unloaded run, on the warmed engine alone (best of 3), of
    // statements the flood does not repeat.
    db.execute(&flood_sql(1_000_000))
        .expect("warm-up run completes");
    let unloaded_ms = (1..=3)
        .map(|k| {
            let t = Instant::now();
            db.execute(&flood_sql(1_000_000 + k))
                .expect("unloaded run completes");
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min);
    // An admitted statement waits behind at most 2 queued + 1 executing
    // ones; 20x an unloaded run (floored against timer jitter) is a
    // generous ceiling. The flood is sized so that without the queue bound
    // its tail would wait behind four bounds' worth of statements.
    let bound_ms = (20.0 * unloaded_ms).max(50.0);
    let flood = ((4.0 * bound_ms / unloaded_ms).ceil() as usize).clamp(120, 10_000);

    // Each admitted statement reports its submit-to-completion latency
    // from the worker that finished it.
    let (done_tx, done_rx) = mpsc::channel();
    let mut admitted_count = 0u64;
    let mut shed = 0u64;
    for i in 0..flood {
        let done_tx = done_tx.clone();
        let submitted = Instant::now();
        let reply = move |r: TcuResult<QueryOutput>| {
            let _ = done_tx.send((submitted.elapsed().as_secs_f64() * 1e3, r));
        };
        match session.submit_callback(&flood_sql(i), None, reply) {
            Ok(()) => admitted_count += 1,
            Err(TcuError::Overloaded(_)) => shed += 1,
            Err(e) => panic!("submit failed with wrong error: {e}"),
        }
    }
    let mut latencies_ms: Vec<f64> = (0..admitted_count)
        .map(|_| {
            let (ms, r) = done_rx.recv().expect("every admitted statement replies");
            r.expect("admitted queries complete");
            ms
        })
        .collect();
    latencies_ms.sort_by(f64::total_cmp);
    let p99_ms = latencies_ms[(latencies_ms.len() * 99).div_ceil(100) - 1];
    assert!(
        p99_ms <= bound_ms,
        "admitted p99 {p99_ms:.3}ms exceeds {bound_ms:.1}ms over a {flood}-statement flood: \
         shedding failed to bound the tail"
    );
    assert!(shed > 0, "flood never hit the queue bound");

    let stats = server.stats();
    assert_eq!(stats.shed, shed, "stats: {stats:?}");
    assert_eq!(stats.queue_depth, 0, "stats: {stats:?}");
    assert_eq!(stats.in_flight_bytes, 0.0, "stats: {stats:?}");
    assert!(stats.executed >= admitted_count, "stats: {stats:?}");
    // Shed submissions are rejections, not submissions.
    assert_eq!(stats.submitted, admitted_count, "stats: {stats:?}");

    // Still live after the flood, and clean shutdown.
    server
        .execute("SELECT A.val FROM A WHERE A.val >= 20")
        .expect("server live");
    server.shutdown();
}

//! Chaos oracle: cooperative cancellation swept across EVERY probe
//! index, composed with transient storage faults and concurrent
//! readers.
//!
//! The contract being checked:
//!
//! * a query cancelled at *any* cooperative checkpoint returns a typed
//!   [`TcuError::Cancelled`] — never a panic, a poisoned lock, or a
//!   partial result — and the engine keeps answering correctly
//!   afterwards;
//! * an expired deadline returns [`TcuError::DeadlineExceeded`] the
//!   same way;
//! * transient backend blips during ingest are absorbed by the
//!   durability retry policy: every acknowledged write survives reboot
//!   and recovery, and the recovered catalog matches the serial shadow
//!   oracle;
//! * probe schedules are deterministic (small inputs stay on the
//!   single-threaded kernels), so the sweep is exhaustive, not sampled.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tcudb_core::{EngineConfig, TcuDb};
use tcudb_reference::comparable_rows;
use tcudb_storage::{Catalog, DurabilityOptions, MemBackend, Table};
use tcudb_types::sync::{CancellationToken, Deadline, QueryContext};
use tcudb_types::{TcuError, Value};

/// Statements covering the engine's pattern space: plain joins, grouped
/// and fused aggregates, non-equi joins, single-table filters, a
/// three-way join, and a star join over the unique-keyed `C` (one probe
/// per morsel of its pass) — each exercises a different probe schedule.
const QUERIES: [&str; 8] = [
    "SELECT A.val, B.val FROM A, B WHERE A.id = B.id",
    "SELECT SUM(A.val), B.val FROM A, B WHERE A.id = B.id GROUP BY B.val",
    "SELECT SUM(A.val * B.val) FROM A, B WHERE A.id = B.id",
    "SELECT A.val, B.val FROM A, B WHERE A.id < B.id",
    "SELECT A.val FROM A WHERE A.val >= 20 ORDER BY A.val DESC",
    "SELECT COUNT(*), B.val FROM A, B WHERE A.id = B.id GROUP BY B.val ORDER BY B.val",
    "SELECT A.val, B.val, C.w FROM A, B, C WHERE A.id = B.id AND B.id = C.id",
    "SELECT C.w, SUM(A.val) FROM C, A WHERE A.id = C.id GROUP BY C.w",
];

fn base_catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.register(
        Table::from_int_columns(
            "A",
            &[
                ("id", vec![1, 1, 2, 3, 5, 5]),
                ("val", vec![10, 11, 12, 13, 14, 15]),
            ],
        )
        .unwrap(),
    );
    cat.register(
        Table::from_int_columns(
            "B",
            &[("id", vec![1, 2, 2, 4, 5]), ("val", vec![5, 6, 7, 8, 9])],
        )
        .unwrap(),
    );
    cat.register(
        Table::from_int_columns("C", &[("id", vec![1, 2, 4]), ("w", vec![100, 200, 400])]).unwrap(),
    );
    cat
}

/// Run `sql` under a fresh counting context; returns the output and the
/// number of cooperative probes the query hit.
fn run_counted(db: &TcuDb, sql: &str) -> (Table, u64) {
    let token = CancellationToken::new();
    let ctx = QueryContext::with_token(token.clone());
    let snap = db.snapshot();
    let entry = db.prepare(sql, &snap).unwrap();
    let out = db
        .execute_prepared_ctx(&entry, &ctx)
        .expect("uncancelled run succeeds");
    (out.table, token.checks())
}

/// Cancel `sql` at probe `k` and require a typed `Cancelled` error.
fn run_cancelled_at(db: &TcuDb, sql: &str, k: u64) {
    let token = CancellationToken::new();
    token.cancel_at_check(k);
    let ctx = QueryContext::with_token(token);
    let snap = db.snapshot();
    let entry = db.prepare(sql, &snap).unwrap();
    match db.execute_prepared_ctx(&entry, &ctx) {
        Err(TcuError::Cancelled(_)) => {}
        Ok(_) => panic!("{sql}: cancel at probe {k} still returned a result"),
        Err(e) => panic!("{sql}: cancel at probe {k} returned wrong error: {e}"),
    }
}

/// Sweep cancellation across every cooperative probe index of every
/// query shape, checking the engine answers correctly after each abort.
#[test]
fn cancellation_sweep_covers_every_probe_index() {
    let db = TcuDb::default();
    db.set_catalog(base_catalog());

    let star = db.execute(QUERIES[7]).unwrap();
    assert!(
        star.plan.star_join,
        "the star statement took the pairwise route"
    );
    for sql in QUERIES {
        let expected = db.execute(sql).expect("baseline executes").table;
        let (counted, probes) = run_counted(&db, sql);
        assert_eq!(counted, expected, "{sql}: context-threaded run diverged");
        assert!(probes > 0, "{sql}: query hit no cooperative probes");
        // The probe schedule must be deterministic or the sweep is moot.
        let (_, probes2) = run_counted(&db, sql);
        assert_eq!(probes, probes2, "{sql}: probe schedule is nondeterministic");

        for k in 0..probes {
            run_cancelled_at(&db, sql, k);
            // The abort left no poisoned lock and no stale state: the
            // very next run still matches the baseline bitwise.
            let again = db.execute(sql).expect("engine live after cancel").table;
            assert_eq!(
                again, expected,
                "{sql}: result diverged after cancel at probe {k}"
            );
        }
    }
}

/// An already-expired deadline aborts at the first probe with the typed
/// error, and the engine stays live.
#[test]
fn expired_deadline_is_typed_and_engine_stays_live() {
    let db = TcuDb::default();
    db.set_catalog(base_catalog());
    let sql = QUERIES[1];
    let expected = db.execute(sql).unwrap().table;

    let ctx = QueryContext::unbounded().deadline(Deadline::after(std::time::Duration::ZERO));
    let snap = db.snapshot();
    let entry = db.prepare(sql, &snap).unwrap();
    match db.execute_prepared_ctx(&entry, &ctx) {
        Err(TcuError::DeadlineExceeded(_)) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(db.execute(sql).unwrap().table, expected);
}

/// Chunked tables turn scans into many-morsel pipelines; every morsel is
/// a cooperative checkpoint, and cancellation at each of them must stay
/// typed — serially and with parallel morsel workers.
#[test]
fn cancellation_sweep_hits_per_morsel_checkpoints() {
    let mut cat = base_catalog();
    for name in ["A", "B", "C"] {
        let mut t = (*cat.table(name).unwrap()).clone();
        t.set_chunk_rows(2);
        cat.register(t);
    }
    let db = TcuDb::new(EngineConfig::default().with_morsel_threads(Some(1)));
    db.set_catalog(cat.clone());
    let unchunked = TcuDb::default();
    unchunked.set_catalog(base_catalog());

    // A filtered scan over 2-row chunks probes once per surviving morsel:
    // strictly more checkpoints than the same scan over one big chunk.
    let filtered = "SELECT A.val FROM A WHERE A.val >= 12";
    let (_, chunked_probes) = run_counted(&db, filtered);
    let (_, flat_probes) = run_counted(&unchunked, filtered);
    assert!(
        chunked_probes > flat_probes,
        "chunking added no per-morsel checkpoints ({chunked_probes} vs {flat_probes})"
    );

    for sql in QUERIES {
        let expected = unchunked.execute(sql).unwrap().table;
        let (counted, probes) = run_counted(&db, sql);
        assert_eq!(counted, expected, "{sql}: chunked run diverged");
        let (_, probes2) = run_counted(&db, sql);
        assert_eq!(
            probes, probes2,
            "{sql}: chunked probe schedule nondeterministic"
        );
        for k in 0..probes {
            run_cancelled_at(&db, sql, k);
        }
        assert_eq!(
            db.execute(sql).unwrap().table,
            expected,
            "{sql}: diverged after the abort sweep"
        );
    }

    // With two morsel workers the schedule interleaves, but an abort at
    // any reachable probe index is still a typed `Cancelled` and the
    // engine stays live and correct afterwards.
    let par = TcuDb::new(EngineConfig::default().with_morsel_threads(Some(2)));
    par.set_catalog(cat);
    for sql in QUERIES {
        let expected = unchunked.execute(sql).unwrap().table;
        let (tbl, probes) = run_counted(&par, sql);
        assert_eq!(tbl, expected, "{sql}: parallel chunked run diverged");
        for k in [0, probes / 2, probes.saturating_sub(1)] {
            run_cancelled_at(&par, sql, k);
        }
        assert_eq!(
            par.execute(sql).unwrap().table,
            expected,
            "{sql}: diverged after parallel aborts"
        );
    }
}

/// The composition test: concurrent readers cancelling at rotating probe
/// indices race a durable writer whose backend suffers transient blips,
/// then the machine reboots and recovery is checked against the shadow
/// oracle.
#[test]
fn chaos_readers_cancellation_and_transient_faults_compose() {
    const APPENDS: usize = 24;
    let join = "SELECT SUM(A.val), B.val FROM A, B WHERE A.id = B.id GROUP BY B.val";

    // Shadow oracle: the row-at-a-time reference's answer after 0..=k
    // appends.  Any reader snapshot pinned one of these states.
    let rows = |table: &Table| comparable_rows(join, table);
    let mut valid: Vec<Vec<String>> = Vec::new();
    {
        let mut cat = base_catalog();
        let oracle =
            |cat: &Catalog| rows(&tcudb_reference::execute(cat, join).expect("oracle executes"));
        valid.push(oracle(&cat));
        let mut b = (*cat.table("B").unwrap()).clone();
        for i in 0..APPENDS {
            b.push_row(vec![
                Value::Int((i % 6) as i64),
                Value::Int(3000 + i as i64),
            ])
            .unwrap();
            cat.register(b.clone());
            valid.push(oracle(&cat));
        }
    }

    let be = MemBackend::new();
    let db = TcuDb::open_with_backend(
        Arc::new(be.clone()),
        EngineConfig::default(),
        DurabilityOptions::strict_manual(),
    )
    .expect("open durable engine");
    db.try_set_catalog(base_catalog()).unwrap();
    let db = Arc::new(db);

    let stop = AtomicBool::new(false);
    let cancelled_seen = AtomicU64::new(0);
    let completed_seen = AtomicU64::new(0);
    let mut acked: Vec<(i64, u64)> = Vec::new();
    std::thread::scope(|s| {
        let stop = &stop;
        let cancelled_seen = &cancelled_seen;
        let completed_seen = &completed_seen;
        // Readers: rotate the cancel index through 0..32 so aborts land
        // on every probe the query schedule reaches, interleaved with
        // snapshot publishes from the writer.
        for r in 0..3usize {
            let db = Arc::clone(&db);
            let valid = &valid;
            s.spawn(move || {
                let mut k = r as u64; // stagger the sweep across readers
                while !stop.load(Ordering::Relaxed) {
                    let token = CancellationToken::new();
                    token.cancel_at_check(k % 32);
                    k += 1;
                    let ctx = QueryContext::with_token(token);
                    let snap = db.snapshot();
                    let entry = db.prepare(join, &snap).unwrap();
                    match db.execute_prepared_ctx(&entry, &ctx) {
                        Ok(out) => {
                            completed_seen.fetch_add(1, Ordering::Relaxed);
                            assert!(
                                valid.contains(&comparable_rows(join, &out.table)),
                                "reader saw a state no published snapshot had"
                            );
                        }
                        Err(TcuError::Cancelled(_)) => {
                            cancelled_seen.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("reader got non-cancellation error: {e}"),
                    }
                }
            });
        }
        // Writer: every third commit fires through injected transient
        // blips; all of them must be acknowledged (the retry absorbs the
        // blips — strict_manual budgets 4 attempts).
        for i in 0..APPENDS {
            if i % 3 == 0 {
                be.inject_transient_failures(1 + (i as u64 % 3));
            }
            db.append_rows(
                "B",
                vec![vec![
                    Value::Int((i % 6) as i64),
                    Value::Int(3000 + i as i64),
                ]],
            )
            .expect("acked write despite transient blips");
            acked.push((3000 + i as i64, db.epoch()));
        }
        // Keep the chaos window open until both reader outcomes the
        // assertions below require have actually happened: on a
        // single-core box the readers may barely get scheduled while the
        // writer loop runs, and closing the window immediately makes the
        // test a race against the OS scheduler.
        let window = std::time::Instant::now();
        while (cancelled_seen.load(Ordering::Relaxed) == 0
            || completed_seen.load(Ordering::Relaxed) == 0)
            && window.elapsed() < std::time::Duration::from_secs(30)
        {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert!(be.transient_trips() > 0, "fault injection never fired");
    assert!(
        cancelled_seen.load(Ordering::Relaxed) > 0,
        "cancellation sweep never fired"
    );
    assert!(
        completed_seen.load(Ordering::Relaxed) > 0,
        "no reader ever ran to completion"
    );
    // Quiesced: the live engine sits at the fully-ingested oracle state.
    assert_eq!(
        &rows(&db.execute(join).unwrap().table),
        valid.last().unwrap()
    );

    // Reboot and recover: every acknowledged write is present, and the
    // recovered engine answers like the reference.
    let last_epoch = acked.last().unwrap().1;
    drop(db);
    be.reboot();
    let db = TcuDb::open_with_backend(
        Arc::new(be.clone()),
        EngineConfig::default(),
        DurabilityOptions::strict_manual(),
    )
    .expect("recovery after reboot");
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
        assert!(
            vals.contains(val),
            "acked row val={val} (epoch {epoch}) missing after recovery"
        );
    }
    assert_eq!(
        &rows(&db.execute(join).unwrap().table),
        valid.last().unwrap()
    );

    // The recovered engine still honours cancellation.
    let (_, probes) = run_counted(&db, join);
    assert!(probes > 0);
    run_cancelled_at(&db, join, probes / 2);
    assert_eq!(
        &rows(&db.execute(join).unwrap().table),
        valid.last().unwrap()
    );
}

//! Concurrency oracle: N threads hammering one shared `TcuDb` — with
//! overlapping identical and distinct statements, plan-cache hits, and
//! interleaved ingest publishing new snapshots — must produce results
//! **identical** to what the serial, row-at-a-time reference interpreter
//! (`tcudb-reference`) produces for the corresponding catalog state.
//!
//! The reference is the oracle (no caches, no shared state, one `Value`
//! at a time); the shared engine under test runs the full serving
//! configuration: shared dictionary caches, snapshot pinning and the plan
//! cache.

use proptest::prelude::*;
use std::sync::Arc;
use tcudb_core::{EngineConfig, TcuDb};
use tcudb_reference::comparable_rows;
use tcudb_storage::{Catalog, Table};
use tcudb_types::Value;

/// Statements chosen to cover the engine's pattern space: plain joins,
/// grouped/fused aggregates, non-equi joins, single-table filters, and a
/// three-way join.
const QUERIES: [&str; 7] = [
    "SELECT A.val, B.val FROM A, B WHERE A.id = B.id",
    "SELECT SUM(A.val), B.val FROM A, B WHERE A.id = B.id GROUP BY B.val",
    "SELECT SUM(A.val * B.val) FROM A, B WHERE A.id = B.id",
    "SELECT A.val, B.val FROM A, B WHERE A.id < B.id",
    "SELECT A.val FROM A WHERE A.val >= 20 ORDER BY A.val DESC",
    "SELECT COUNT(*), B.val FROM A, B WHERE A.id = B.id GROUP BY B.val ORDER BY B.val",
    "SELECT A.val, B.val, C.w FROM A, B, C WHERE A.id = B.id AND B.id = C.id",
];

fn base_catalog(a_ids: &[i64], b_ids: &[i64]) -> Catalog {
    let mut cat = Catalog::new();
    let a_vals: Vec<i64> = (0..a_ids.len() as i64).map(|i| 10 + i).collect();
    let b_vals: Vec<i64> = (0..b_ids.len() as i64).map(|i| 5 + i).collect();
    cat.register(Table::from_int_columns("A", &[("id", a_ids.to_vec()), ("val", a_vals)]).unwrap());
    cat.register(Table::from_int_columns("B", &[("id", b_ids.to_vec()), ("val", b_vals)]).unwrap());
    cat.register(
        Table::from_int_columns("C", &[("id", vec![1, 2, 4]), ("w", vec![100, 200, 400])]).unwrap(),
    );
    cat
}

/// Serial oracle: the reference's answer per query, in comparable form.
fn oracle_results(catalog: &Catalog, queries: &[&str]) -> Vec<Vec<String>> {
    queries
        .iter()
        .map(|sql| {
            let table = tcudb_reference::execute(catalog, sql).expect("oracle executes");
            comparable_rows(sql, &table)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Read-only phase: every thread sees exactly the serial answers, and
    /// repeat statements are served from the plan cache.
    #[test]
    fn concurrent_reads_match_serial_reference(
        a_ids in prop::collection::vec(0i64..6, 1..24),
        b_ids in prop::collection::vec(0i64..6, 1..16),
        threads in 2usize..6,
        reps in 1usize..4,
    ) {
        let catalog = base_catalog(&a_ids, &b_ids);
        let expected = oracle_results(&catalog, &QUERIES);

        let db = Arc::new(TcuDb::default());
        db.set_catalog(catalog);
        std::thread::scope(|s| {
            for t in 0..threads {
                let db = Arc::clone(&db);
                let expected = &expected;
                s.spawn(move || {
                    for r in 0..reps {
                        // Identical and distinct statements overlap across
                        // threads: each thread walks the query list from a
                        // different offset.
                        for q in 0..QUERIES.len() {
                            let i = (q + t + r) % QUERIES.len();
                            let out = db.execute(QUERIES[i]).expect("query executes");
                            assert_eq!(
                                comparable_rows(QUERIES[i], &out.table),
                                expected[i],
                                "thread {t} rep {r} diverged on {}",
                                QUERIES[i]
                            );
                        }
                    }
                });
            }
        });

        // Each execution performs exactly one cache lookup.  A statement
        // misses once — plus at most once per extra thread racing the
        // same first lookup — and every other execution hits.
        let stats = db.plan_cache_stats();
        let total = (threads * reps * QUERIES.len()) as u64;
        let q = QUERIES.len() as u64;
        prop_assert_eq!(stats.hits + stats.misses, total);
        prop_assert!(stats.misses >= q, "stats: {:?}", stats);
        prop_assert!(stats.misses <= q * threads as u64, "stats: {:?}", stats);
    }

    /// Ingest phase: reader threads race a writer that appends rows and
    /// registers tables (publishing new snapshots).  Every observed result
    /// must equal the serial reference's answer for *some* published
    /// catalog state, and the post-ingest state must equal the oracle's.
    #[test]
    fn concurrent_reads_with_interleaved_ingest_match_some_snapshot(
        a_ids in prop::collection::vec(0i64..6, 1..16),
        b_ids in prop::collection::vec(0i64..6, 1..12),
        ingest_ids in prop::collection::vec(0i64..6, 1..8),
        readers in 2usize..5,
    ) {
        let catalog = base_catalog(&a_ids, &b_ids);
        // The writer appends one row to B per step.  Pre-compute the
        // oracle answer for every intermediate catalog state (0..=k rows
        // appended): any in-flight reader pinned one of these snapshots.
        let join = "SELECT SUM(A.val), B.val FROM A, B WHERE A.id = B.id GROUP BY B.val";
        let mut valid: Vec<Vec<String>> = Vec::new();
        {
            let mut cat = catalog.clone();
            valid.push(oracle_results(&cat, &[join]).remove(0));
            let mut b = (*cat.table("B").unwrap()).clone();
            for (i, &id) in ingest_ids.iter().enumerate() {
                b.push_row(vec![Value::Int(id), Value::Int(1000 + i as i64)]).unwrap();
                cat.register(b.clone());
                valid.push(oracle_results(&cat, &[join]).remove(0));
            }
        }

        let db = Arc::new(TcuDb::default());
        db.set_catalog(catalog);
        std::thread::scope(|s| {
            for _ in 0..readers {
                let db = Arc::clone(&db);
                let valid = &valid;
                s.spawn(move || {
                    for _ in 0..2 * valid.len() {
                        let out = db.execute(join).expect("query executes");
                        assert!(
                            valid.contains(&comparable_rows(join, &out.table)),
                            "result does not match any published snapshot state"
                        );
                    }
                });
            }
            let writer = Arc::clone(&db);
            let ingest = ingest_ids.clone();
            s.spawn(move || {
                for (i, id) in ingest.into_iter().enumerate() {
                    writer
                        .append_rows("B", vec![vec![Value::Int(id), Value::Int(1000 + i as i64)]])
                        .expect("ingest succeeds");
                }
            });
        });

        // Quiesced: the final snapshot equals the fully ingested oracle.
        let final_out = db.execute(join).expect("query executes");
        prop_assert_eq!(&comparable_rows(join, &final_out.table), valid.last().unwrap());
    }

    /// Kill-and-recover under concurrent load: readers hammer a durable
    /// engine while a writer ingests one commit at a time until an
    /// injected crash kills the backend mid-stream.  After reboot and
    /// recovery, every acknowledged write must be present at (or before)
    /// its acknowledged epoch, and queries must match the reference for
    /// the recovered catalog.
    #[test]
    fn kill_and_recover_keeps_every_acked_write_visible(
        a_ids in prop::collection::vec(0i64..6, 1..12),
        b_ids in prop::collection::vec(0i64..6, 1..8),
        readers in 2usize..4,
        crash_at in 5usize..80,
    ) {
        use tcudb_storage::{DurabilityOptions, FaultSpec, MemBackend};

        let backend = MemBackend::with_faults(FaultSpec {
            crash_at_op: Some(crash_at as u64),
            torn_seed: crash_at as u64 * 97 + 11,
            ..FaultSpec::default()
        });
        let open = |be: MemBackend| {
            TcuDb::open_with_backend(
                std::sync::Arc::new(be),
                EngineConfig::default(),
                DurabilityOptions::strict_manual(),
            )
        };

        let catalog = base_catalog(&a_ids, &b_ids);
        let join = "SELECT SUM(A.val), B.val FROM A, B WHERE A.id = B.id GROUP BY B.val";
        let mut acked: Vec<(i64, u64)> = Vec::new();
        if let Ok(db) = open(backend.clone()) {
            if db.try_set_catalog(catalog).is_ok() {
                let db = Arc::new(db);
                let stop = std::sync::atomic::AtomicBool::new(false);
                std::thread::scope(|s| {
                    let stop = &stop;
                    for _ in 0..readers {
                        let db = Arc::clone(&db);
                        s.spawn(move || {
                            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                                // Reads never touch the backend: they must
                                // keep succeeding even after the crash.
                                db.execute(join).expect("reads survive the crash");
                            }
                        });
                    }
                    for id in 0..64i64 {
                        match db.append_rows(
                            "B",
                            vec![vec![Value::Int(id % 6), Value::Int(2000 + id)]],
                        ) {
                            Ok(()) => acked.push((2000 + id, db.epoch())),
                            Err(_) => break, // the injected crash
                        }
                    }
                    stop.store(true, std::sync::atomic::Ordering::Relaxed);
                });
            }
        }

        backend.reboot();
        let db = open(backend).expect("recovery after reboot");
        let report = db.recovery_report().unwrap().clone();
        if let Some(&(_, last_epoch)) = acked.last() {
            prop_assert!(
                report.recovered_epoch >= last_epoch,
                "lost acked epoch {last_epoch}, recovered {}", report.recovered_epoch
            );
            let snap = db.snapshot();
            let vals = snap.table("B").unwrap()
                .column_by_name("val").unwrap()
                .as_i64().unwrap().to_vec();
            for (val, epoch) in &acked {
                prop_assert!(
                    vals.contains(val),
                    "acked row val={val} (epoch {epoch}) missing after recovery"
                );
            }
            // The recovered catalog answers queries exactly like the
            // reference run on the recovered state.
            let expected = oracle_results(snap.catalog(), &[join]).remove(0);
            let got = db.execute(join).expect("query executes").table;
            prop_assert_eq!(comparable_rows(join, &got), expected);
        }
    }
}

/// Deterministic (non-proptest) smoke: mixed identical/distinct statements
/// under maximal thread interleaving, asserting the cache-hit accounting
/// and bitwise result stability across 1 vs N threads.
#[test]
fn eight_threads_agree_with_one_thread_bitwise() {
    let catalog = base_catalog(&[1, 1, 2, 3, 5, 5], &[1, 2, 2, 4, 5]);
    let expected = oracle_results(&catalog, &QUERIES);

    let db = Arc::new(TcuDb::default());
    db.set_catalog(catalog);
    // Warm pass, single thread: correct against the reference.
    let mut warm = Vec::new();
    for (i, sql) in QUERIES.iter().enumerate() {
        let table = db.execute(sql).unwrap().table;
        assert_eq!(comparable_rows(sql, &table), expected[i]);
        warm.push(table);
    }
    // Hammer pass, 8 threads: bitwise equal to the single-thread pass.
    std::thread::scope(|s| {
        for t in 0..8 {
            let db = Arc::clone(&db);
            let expected = &warm;
            s.spawn(move || {
                for r in 0..4 {
                    for q in 0..QUERIES.len() {
                        let i = (q + t + r) % QUERIES.len();
                        let out = db.execute(QUERIES[i]).unwrap();
                        assert_eq!(out.table, expected[i]);
                    }
                }
            });
        }
    });
    let stats = db.plan_cache_stats();
    assert_eq!(stats.misses, QUERIES.len() as u64);
    assert!(stats.hit_rate() > 0.9, "stats: {stats:?}");
}

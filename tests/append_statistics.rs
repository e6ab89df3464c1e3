//! Exactness of the statistics the catalog maintains along a table's
//! lineage: after any sequence of appends — across chunk boundaries,
//! through forks, rejected batches and failed log writes — the published
//! `TableStats`, warm dictionary encodings and warm zone maps must equal
//! what a from-scratch build over the same rows produces, field for
//! field, and only one full statistics build may ever be paid per lineage
//! that is being appended to.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::sync::Arc;
use tcudb::prelude::*;
use tcudb::storage::{
    ColumnZones, DictColumn, DurabilityOptions, FaultSpec, MemBackend, TableStats,
};

/// `TableStats` equality with floats compared by bit pattern: an
/// all-NaN column has `min == Some(NaN)`, which `==` can never confirm.
fn assert_stats_identical(got: &TableStats, want: &TableStats) {
    assert_eq!(got.row_count, want.row_count);
    assert_eq!(got.chunk_rows, want.chunk_rows);
    assert_eq!(got.chunk_count, want.chunk_count);
    let mut names: Vec<&String> = got.columns.keys().collect();
    let mut want_names: Vec<&String> = want.columns.keys().collect();
    names.sort();
    want_names.sort();
    assert_eq!(names, want_names);
    for name in names {
        let (g, w) = (&got.columns[name], &want.columns[name]);
        assert_eq!(g.name, w.name);
        assert_eq!(g.row_count, w.row_count, "{name}: row_count");
        assert_eq!(g.distinct_count, w.distinct_count, "{name}: distinct");
        assert_eq!(
            (g.min.map(f64::to_bits), g.max.map(f64::to_bits)),
            (w.min.map(f64::to_bits), w.max.map(f64::to_bits)),
            "{name}: bounds {:?}..{:?} vs {:?}..{:?}",
            g.min,
            g.max,
            w.min,
            w.max
        );
    }
}

/// The catalog's statistics for `name` against a rebuild of the table.
fn assert_exact(catalog: &Catalog, name: &str) {
    let table = catalog.table(name).unwrap();
    assert_stats_identical(&catalog.stats(name).unwrap(), &table.compute_stats());
}

fn pick<T: Copy>(rng: &mut TestRng, pool: &[T]) -> T {
    pool[(rng.next_u64() % pool.len() as u64) as usize]
}

/// One cell for a column of `data_type`, drawn from the values where the
/// typed distinct sets could disagree with `Value::group_key`: NaNs of
/// two payloads, signed zeros, integral floats (which unify with
/// integers), magnitudes past the `i64` and exact-`f64` ranges, and
/// values the column accepts only by coercion.
fn cell(rng: &mut TestRng, data_type: DataType) -> Value {
    match data_type {
        DataType::Int64 => match rng.next_u64() % 8 {
            0 => Value::Float(pick(rng, &[3.0, -0.0, -2.0])), // coerced
            1 => Value::Int(pick(rng, &[i64::MIN, i64::MAX, 1 << 53, -(1 << 53) - 1])),
            _ => Value::Int((rng.next_u64() % 7) as i64 - 3),
        },
        DataType::Float64 => match rng.next_u64() % 8 {
            0 => Value::Int(pick(rng, &[2, -3, i64::MAX])), // coerced
            1 => Value::Float(pick(
                rng,
                &[f64::NAN, f64::from_bits(0x7ff8_0000_0000_0001), -0.0, 0.0],
            )),
            2 => Value::Float(pick(rng, &[f64::INFINITY, -9.3e18, 9.3e18, 1e300])),
            3 => Value::Float(pick(rng, &[2.5, -7.25, 0.1])),
            _ => Value::Float((rng.next_u64() % 5) as f64 - 2.0),
        },
        DataType::Text => Value::Text(pick(rng, &["", "a", "b", "ab", "A", "é"]).to_string()),
    }
}

fn rows(rng: &mut TestRng, types: &[DataType], n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|_| types.iter().map(|&t| cell(rng, t)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) Random schemas, random batch sizes over 4-row chunks: after
    /// every publish the statistics, every dictionary and every zone map
    /// equal a rebuild — whether the structure was warm before the append
    /// (extended in place) or cold (built afterwards).
    #[test]
    fn statistics_encodings_and_zones_stay_exact_through_appends(
        seed in 0u64..u64::MAX,
        width in 1usize..5,
        initial in 0usize..11,
        batches in prop::collection::vec(0usize..11, 1..9),
    ) {
        let mut rng = TestRng::from_seed(seed);
        let types: Vec<DataType> = (0..width)
            .map(|_| pick(&mut rng, &[DataType::Int64, DataType::Float64, DataType::Text]))
            .collect();
        let schema = Schema::new(
            types.iter().enumerate().map(|(i, &t)| ColumnDef::new(format!("C{i}"), t)).collect(),
        );
        let mut table = Table::new("T", schema);
        table.set_chunk_rows(4);
        table.append_rows(rows(&mut rng, &types, initial)).unwrap();

        let mut catalog = Catalog::new();
        catalog.register(table);
        assert_exact(&catalog, "t");

        for n in batches {
            // Warm a random subset of the read-side structures on the
            // version about to be extended, and pin it like a reader.
            let pinned = catalog.table("t").unwrap();
            for i in 0..width {
                if rng.next_u64().is_multiple_of(2) {
                    pinned.encoded_column(i);
                }
                if rng.next_u64().is_multiple_of(2) {
                    pinned.zone_map(i);
                }
            }
            let pinned_rows = pinned.num_rows();
            let zone_builds = pinned.zone_map_build_count();

            catalog.append_rows("t", &rows(&mut rng, &types, n)).unwrap();

            assert_exact(&catalog, "t");
            let now = catalog.table("t").unwrap();
            prop_assert_eq!(now.num_rows(), pinned_rows + n);
            prop_assert_eq!(now.zone_map_build_count(), zone_builds, "append rebuilt a zone map");
            for i in 0..width {
                prop_assert_eq!(&*now.encoded_column(i), &DictColumn::build(now.column(i)));
                prop_assert_eq!(&*now.zone_map(i), &ColumnZones::build(now.column(i), 4));
                // Copy-on-write: the pinned version still describes
                // exactly the rows it had.
                prop_assert_eq!(pinned.encoded_column(i).len(), pinned_rows);
                prop_assert_eq!(pinned.zone_map(i).rows(), pinned_rows);
            }
        }
        // register + the first append's accumulator; never again.
        prop_assert_eq!(catalog.table("t").unwrap().stats_build_count(), 2);
    }
}

fn ints(range: std::ops::Range<i64>) -> Vec<Vec<Value>> {
    range
        .map(|v| {
            vec![
                Value::Int(v),
                Value::Int(v % 5),
                Value::Float(v as f64 / 2.0),
            ]
        })
        .collect()
}

fn seed_table() -> Table {
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int64),
        ("g", DataType::Int64),
        ("x", DataType::Float64),
    ]);
    let mut t = Table::new("t", schema);
    t.set_chunk_rows(4);
    t.append_rows(ints(0..6)).unwrap();
    t
}

/// (d) 64 appends start exactly one accumulator — and rebuild no zone map.
#[test]
fn sixty_four_appends_perform_exactly_one_full_statistics_build() {
    let mut catalog = Catalog::new();
    catalog.register(seed_table());
    let registered = catalog.table("t").unwrap();
    assert_eq!(registered.stats_build_count(), 1, "register builds once");
    registered.zone_map(0);
    registered.encoded_column(1);

    for b in 0..64 {
        let lo = 6 + b * 3;
        catalog.append_rows("t", &ints(lo..lo + 3)).unwrap();
        assert_exact(&catalog, "t");
    }
    let t = catalog.table("t").unwrap();
    assert_eq!(t.num_rows(), 6 + 64 * 3);
    assert_eq!(
        t.stats_build_count() - registered.stats_build_count(),
        1,
        "64 appends must share one accumulator"
    );
    assert_eq!(t.zone_map_build_count(), 1, "appends rebuilt a zone map");
    assert_eq!(*t.zone_map(0), ColumnZones::build(t.column(0), 4));
    assert_eq!(*t.encoded_column(1), DictColumn::build(t.column(1)));
}

fn engine_exact(db: &TcuDb) {
    assert_exact(db.snapshot().catalog(), "t");
}

fn builds(db: &TcuDb) -> u64 {
    db.snapshot().table("t").unwrap().stats_build_count()
}

/// (b) A fork shares the table version — and so the one accumulator —
/// with its origin: whichever side appends first takes it, the other
/// starts its own, and both stay exact on diverging data.
#[test]
fn forked_engines_append_independently_and_both_stay_exact() {
    let db = TcuDb::default();
    db.register_table(seed_table());
    db.append_rows("t", ints(6..9)).unwrap();
    assert_eq!(builds(&db), 2);

    let fork = db.clone();
    db.append_rows("t", ints(100..117)).unwrap();
    fork.append_rows("t", ints(-40..-31)).unwrap();
    engine_exact(&db);
    engine_exact(&fork);
    assert_eq!(builds(&db), 2, "the origin kept its accumulator");
    assert_eq!(builds(&fork), 3, "the fork had to start one");

    db.append_rows("t", ints(117..120)).unwrap();
    fork.append_rows("t", ints(-31..-20)).unwrap();
    engine_exact(&db);
    engine_exact(&fork);
    assert_eq!((builds(&db), builds(&fork)), (2, 3));
    assert_eq!(db.snapshot().table("t").unwrap().num_rows(), 29);
    assert_eq!(fork.snapshot().table("t").unwrap().num_rows(), 29);
}

/// (c) A rejected batch takes nothing; a commit whose log write fails
/// takes the accumulator with it — neither publishes, and the next
/// successful append is exact either way.
#[test]
fn rejected_batches_and_failed_log_writes_publish_nothing_and_stay_exact() {
    let backend = MemBackend::with_faults(FaultSpec::default());
    let db = TcuDb::open_with_backend(
        Arc::new(backend.clone()),
        EngineConfig::default(),
        DurabilityOptions::strict_manual(),
    )
    .unwrap();
    db.register_table(seed_table());
    db.append_rows("t", ints(6..9)).unwrap();
    engine_exact(&db);
    assert_eq!(builds(&db), 2);

    // Type error in the last cell of the last row.
    let mut bad = ints(9..12);
    bad[2][2] = Value::Text("nope".into());
    let before = db.snapshot();
    assert!(db.append_rows("t", bad).is_err());
    assert_eq!(db.epoch(), before.epoch(), "a rejected batch published");
    db.append_rows("t", ints(9..12)).unwrap();
    engine_exact(&db);
    assert_eq!(builds(&db), 2, "a rejected batch cost the accumulator");

    // More transient faults than the retry budget: the commit is staged,
    // its log write fails, nothing is published.
    let before = db.snapshot();
    backend.inject_transient_failures(1_000);
    assert!(db.append_rows("t", ints(12..20)).is_err());
    backend.inject_transient_failures(0);
    let after = db.snapshot();
    assert_eq!(
        after.epoch(),
        before.epoch(),
        "a failed log write published"
    );
    assert!(Arc::ptr_eq(
        &after.table("t").unwrap(),
        &before.table("t").unwrap()
    ));
    assert_stats_identical(&after.stats("t").unwrap(), &before.stats("t").unwrap());

    db.append_rows("t", ints(12..15)).unwrap();
    engine_exact(&db);
    assert_eq!(
        builds(&db),
        3,
        "the staged commit took the accumulator; exactly one rebuild replaces it"
    );
    db.append_rows("t", ints(15..16)).unwrap();
    engine_exact(&db);
    assert_eq!(builds(&db), 3);

    // What recovery rebuilds from the log is the same table, with
    // statistics computed by the same accumulator.
    let rows = db.snapshot().table("t").unwrap().num_rows();
    drop(db);
    let reopened = TcuDb::open_with_backend(
        Arc::new(backend),
        EngineConfig::default(),
        DurabilityOptions::strict_manual(),
    )
    .unwrap();
    assert_eq!(reopened.snapshot().table("t").unwrap().num_rows(), rows);
    engine_exact(&reopened);
}

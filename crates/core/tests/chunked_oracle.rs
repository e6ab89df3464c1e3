//! Oracle suite for partitioned storage + morsel-driven execution: a
//! chunked, zone-map-pruned, morsel-parallel engine must produce results
//! **byte-identical** to the single-chunk single-thread engine — and equal
//! to the row-at-a-time reference, which never prunes — across random
//! schemas, chunk sizes (including 1-row chunks and chunks far larger than
//! the table) and thread counts.

use proptest::prelude::*;
use tcudb_core::{EngineConfig, TcuDb};
use tcudb_datagen::ssb;
use tcudb_reference::comparable_rows;
use tcudb_storage::{Catalog, Column, ColumnDef, Schema, Table};
use tcudb_types::DataType;

/// Chunk sizes under test: degenerate 1-row chunks (every row is its own
/// zone), small odd sizes that straddle table boundaries, and a chunk far
/// larger than any generated table (the unpartitioned layout).
const CHUNK_SIZES: [usize; 4] = [1, 3, 7, 1 << 20];

/// Queries mixing prunable atoms (comparisons, BETWEEN), unprunable text
/// predicates, equi joins (exercising semi-join key-range pushdown onto
/// the partner table), grouping and ordering.  The last is a star join
/// over the unique-keyed dimension `C`: its groups come out in the order
/// `A`'s rows first reach them, which must not depend on chunk size or
/// thread count.
const QUERIES: [&str; 9] = [
    "SELECT A.val FROM A WHERE A.val BETWEEN 2 AND 9",
    "SELECT A.val, B.val FROM A, B WHERE A.id = B.id",
    "SELECT A.val, B.val FROM A, B WHERE A.id = B.id AND A.val >= 5",
    "SELECT A.val, B.val FROM A, B WHERE A.id = B.id AND A.val < 4 AND B.tag = 's1'",
    "SELECT SUM(A.val), B.tag FROM A, B WHERE A.id = B.id AND B.val > 2 GROUP BY B.tag",
    "SELECT SUM(A.val * B.val) FROM A, B WHERE A.id = B.id AND A.id BETWEEN 1 AND 6",
    "SELECT A.id, SUM(B.val) FROM A, B WHERE A.id = B.id GROUP BY A.id ORDER BY A.id LIMIT 5",
    "SELECT A.val FROM A, B WHERE A.id = B.id AND A.val + 1 > 3 AND B.tag <> 's2'",
    STAR,
];

/// The star statement of [`QUERIES`].  An aggregate's last join step is
/// the fused operator, which never runs a kernel, so the star route is
/// taken whatever plan the optimizer picks.
const STAR: &str = "SELECT C.w, COUNT(*), SUM(A.val) FROM C, A \
                    WHERE A.id = C.id AND C.w <> 3 AND A.val > -5 GROUP BY C.w";

fn build_tables(
    a_rows: &[(i64, i64)],
    b_rows: &[(i64, i64, i64)],
    chunk_rows: usize,
) -> [Table; 3] {
    let mut a = Table::from_columns(
        "A",
        Schema::from_pairs(&[("id", DataType::Int64), ("val", DataType::Int64)]),
        vec![
            Column::Int64(a_rows.iter().map(|&(i, _)| i).collect()),
            Column::Int64(a_rows.iter().map(|&(_, v)| v).collect()),
        ],
    )
    .unwrap();
    let mut b = Table::from_columns(
        "B",
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int64),
            ColumnDef::new("val", DataType::Float64),
            ColumnDef::new("tag", DataType::Text),
        ]),
        vec![
            Column::Int64(b_rows.iter().map(|&(i, _, _)| i).collect()),
            Column::Float64(b_rows.iter().map(|&(_, v, _)| v as f64 * 0.5).collect()),
            Column::Text(b_rows.iter().map(|&(_, _, t)| format!("s{t}")).collect()),
        ],
    )
    .unwrap();
    // A dimension keyed on every id `A` can hold, once each.
    let mut c = Table::from_int_columns(
        "C",
        &[
            ("id", (0..12).rev().collect()),
            ("w", (0..12).map(|i| i * 5 % 7).collect()),
        ],
    )
    .unwrap();
    a.set_chunk_rows(chunk_rows);
    b.set_chunk_rows(chunk_rows);
    c.set_chunk_rows(chunk_rows);
    [a, b, c]
}

fn engine(threads: usize, tables: &[Table]) -> TcuDb {
    let db = TcuDb::new(EngineConfig::default().with_morsel_threads(Some(threads)));
    for t in tables {
        db.register_table(t.clone());
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full grid: every query must return the same table from the
    /// unchunked single-thread engine and the chunked, pruned,
    /// morsel-parallel one, and both must equal the reference — zone maps
    /// and semi-join pushdown only ever skip chunks that could not have
    /// contributed a row.
    #[test]
    fn chunked_morsel_execution_matches_serial_unchunked(
        a_rows in prop::collection::vec((0i64..12, -20i64..40), 0..70),
        b_rows in prop::collection::vec((0i64..12, 0i64..30, 0i64..4), 0..50),
        chunk_sel in 0usize..4,
        threads in 1usize..4,
        query_idx in 0usize..9,
    ) {
        let sql = QUERIES[query_idx];
        let chunk_rows = CHUNK_SIZES[chunk_sel];

        // Default (unpartitioned-size) chunks, one morsel thread — the
        // pre-partitioning engine — and the oracle over the same tables.
        let unchunked_tables = build_tables(&a_rows, &b_rows, 1 << 20);
        let unchunked = engine(1, &unchunked_tables).execute(sql).unwrap();
        let mut catalog = Catalog::new();
        for t in unchunked_tables {
            catalog.register(t);
        }
        let want = tcudb_reference::execute(&catalog, sql).unwrap();
        prop_assert_eq!(
            comparable_rows(sql, &unchunked.table),
            comparable_rows(sql, &want),
            "{} vs reference",
            sql
        );

        let tables = build_tables(&a_rows, &b_rows, chunk_rows);
        // Chunks of every table the query actually scans.
        let total_chunks: u64 = tables
            .iter()
            .filter(|t| sql.contains(&format!("{}.", t.name())))
            .map(|t| t.chunk_count() as u64)
            .sum();
        let chunked = engine(threads, &tables).execute(sql).unwrap();
        prop_assert_eq!(&chunked.table, &unchunked.table, "{} chunk={}", sql, chunk_rows);
        // Chunking never changes the join route; `C`'s keys are unique, so
        // the star statement always takes the star route.
        prop_assert_eq!(chunked.plan.star_join, unchunked.plan.star_join, "{}", sql);
        prop_assert!(sql != STAR || chunked.plan.star_join);

        // Chunk accounting: every chunk of every scanned table is either
        // scanned or pruned, never dropped on the floor.
        prop_assert_eq!(
            chunked.host.chunks_scanned + chunked.host.chunks_pruned,
            total_chunks,
            "{} chunk={}",
            sql,
            chunk_rows
        );
    }
}

/// Deterministic spot check: a filter that excludes whole chunks must
/// report them pruned, and a 1-row-chunk table must prune at row
/// granularity.
#[test]
fn pruning_stats_reflect_zone_maps() {
    let rows: Vec<(i64, i64)> = (0..30).map(|i| (i, i)).collect();
    let tables = build_tables(&rows, &[], 10);
    // val >= 20 lives entirely in the last of A's three 10-row chunks.
    let db = engine(1, &tables);
    let out = db.execute("SELECT A.val FROM A WHERE A.val >= 20").unwrap();
    assert_eq!(out.table.num_rows(), 10);
    assert_eq!(out.host.chunks_pruned, 2);
    assert_eq!(out.host.chunks_scanned, 1);
    assert!(out
        .plan
        .steps
        .iter()
        .any(|s| s.contains("zone-prune") && s.contains("2/3")));

    let db1 = engine(2, &build_tables(&rows, &[], 1));
    let out1 = db1.execute("SELECT A.val FROM A WHERE A.val = 7").unwrap();
    assert_eq!(out1.table.num_rows(), 1);
    assert_eq!(out1.host.chunks_pruned, 29);
    assert_eq!(out1.host.chunks_scanned, 1);
}

/// The pruning gate: flight 1 of SSB-mini over a `lineorder` partitioned
/// into 4Ki-row chunks must actually skip chunks (or zone maps have
/// silently stopped working) — at least half of them on Q1.1 — without
/// moving the answer.
#[test]
fn ssb_flight_one_prunes_chunked_lineorder() {
    let unchunked = ssb::gen_catalog(1, 0x55B);
    let mut catalog = unchunked.clone();
    let mut lineorder = (*catalog.table("lineorder").unwrap()).clone();
    lineorder.set_chunk_rows(4_096);
    let chunks = lineorder.chunk_count() as u64;
    catalog.register(lineorder);
    let db = TcuDb::default();
    db.set_catalog(catalog);
    for (name, sql) in ssb::queries() {
        if !name.starts_with("Q1.") {
            continue;
        }
        let out = db.execute(&sql).unwrap();
        // "zone-prune lineorder: skipped x/y chunks"
        let step = out
            .plan
            .steps
            .iter()
            .find(|s| s.starts_with("zone-prune lineorder"));
        let step = step.unwrap_or_else(|| panic!("{name} pruned no lineorder chunks"));
        let counts = step.split(' ').nth(3).unwrap();
        let (pruned, total) = counts.split_once('/').unwrap();
        let (pruned, total): (u64, u64) = (pruned.parse().unwrap(), total.parse().unwrap());
        assert!(pruned > 0 && total == chunks, "{name}: {step}");
        assert!(name != "Q1.1" || 2 * pruned >= total, "{name}: {step}");
        let want = tcudb_reference::execute(&unchunked, &sql).unwrap();
        assert_eq!(
            comparable_rows(&sql, &out.table),
            comparable_rows(&sql, &want),
            "{name}"
        );
    }
}

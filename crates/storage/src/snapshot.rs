//! Epoch-tagged immutable catalog snapshots and the shared publish point.
//!
//! Concurrent query serving needs two guarantees the bare [`Catalog`]
//! value cannot give on its own:
//!
//! 1. **A query must see one frozen catalog for its whole lifetime.**  A
//!    [`CatalogSnapshot`] is an immutable, [`Arc`]-shared view of the
//!    catalog at one *epoch*; once a query pins a snapshot, concurrent
//!    writes can never change what it reads.
//! 2. **Writers must never block readers.**  A [`SharedCatalog`] holds the
//!    *current* snapshot behind a lock that is only taken for the duration
//!    of an `Arc` clone (readers) or an `Arc` swap (writers).  Writes are
//!    copy-on-write: the writer clones the catalog (cheap — tables are
//!    `Arc`-shared, so this copies a map of pointers, not data), mutates
//!    the clone, and publishes it as a **new** snapshot with a bumped
//!    epoch.  In-flight queries keep executing against the snapshot they
//!    pinned; the next query picks up the new one.
//!
//! **What one commit costs.**  The catalog clone is O(tables) pointer
//! copies.  A [`Catalog::append_rows`] commit then pays one memcpy of the
//! written table's column vectors (and of any warm dictionary's code
//! vector the old snapshot still pins) plus O(batch) bookkeeping: warm
//! dictionary encodings and zone maps are extended by the appended rows,
//! and the exact column statistics come from an accumulator that *moves*
//! from the version being extended to its successor and folds in only the
//! batch.  Nothing on the commit path is recomputed from the whole table.
//! The snapshot itself carries only the frozen O(columns)
//! [`TableStats`](crate::TableStats); the accumulator is writer-side
//! state owned by the newest version of a table, never cloned, and if the
//! staged catalog is dropped instead of published (`f` or `pre_publish`
//! failed) it is dropped with it — the next append then starts a new one
//! with a single pass over the table.  Sharing the column data itself
//! between versions (chunk-granular copy-on-write) is not done yet; the
//! memcpy is what remains of a commit's dependence on table size.
//!
//! The epoch is the cache-invalidation token for everything derived from
//! catalog state: the plan/statement cache in `tcudb-core` keys entries on
//! `(normalized SQL, epoch)`, so a published write silently retires every
//! cached plan that could observe it.
//!
//! ```text
//!   writers                    SharedCatalog                   readers
//!   ───────                  ┌───────────────┐                 ───────
//!   update(|cat| …) ───────▶ │ RwLock<Arc<──┼──snapshot()──▶ Arc<CatalogSnapshot>
//!    clone · mutate ·        │  CatalogSnap- │                (pinned: epoch N)
//!    publish(epoch N+1)      │  shot{epoch}>>│
//!                            └───────────────┘
//! ```

use crate::catalog::Catalog;
use std::sync::{Arc, Mutex, RwLock};
use tcudb_types::sync::{locked, read_locked, write_locked};

/// An immutable view of the catalog at one point in time.
///
/// Dereferences to [`Catalog`], so every read-only catalog API
/// (`table`, `stats`, `table_names`, …) works directly on a snapshot.
/// There is deliberately no way to mutate a snapshot: writes go through
/// [`SharedCatalog::update`], which builds the *next* snapshot.
#[derive(Debug, Clone)]
pub struct CatalogSnapshot {
    epoch: u64,
    catalog: Catalog,
}

impl CatalogSnapshot {
    /// Wrap a catalog as the snapshot of a given epoch.
    pub fn new(epoch: u64, catalog: Catalog) -> CatalogSnapshot {
        CatalogSnapshot { epoch, catalog }
    }

    /// The epoch this snapshot was published at.  Epochs increase by one
    /// per published write; two snapshots with equal epochs from the same
    /// [`SharedCatalog`] are identical.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen catalog state.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }
}

impl std::ops::Deref for CatalogSnapshot {
    type Target = Catalog;

    fn deref(&self) -> &Catalog {
        &self.catalog
    }
}

/// The shared publish point for catalog snapshots.
///
/// Readers call [`snapshot`](SharedCatalog::snapshot) to pin the current
/// epoch; writers call [`update`](SharedCatalog::update) to build and
/// publish the next one.  All methods take `&self`, so a `SharedCatalog`
/// can be shared across threads directly (it is `Sync`).
#[derive(Debug)]
pub struct SharedCatalog {
    current: RwLock<Arc<CatalogSnapshot>>,
    /// Serializes writers so the copy-on-write clone + mutation runs
    /// *outside* the `current` lock — readers are only ever blocked for
    /// the duration of the final pointer swap.
    writer: Mutex<()>,
}

impl Default for SharedCatalog {
    fn default() -> Self {
        SharedCatalog::new(Catalog::new())
    }
}

impl Clone for SharedCatalog {
    /// Cloning forks the history: the clone starts from this catalog's
    /// current snapshot (same epoch) and evolves independently.
    fn clone(&self) -> Self {
        SharedCatalog {
            current: RwLock::new(self.snapshot()),
            writer: Mutex::new(()),
        }
    }
}

impl SharedCatalog {
    /// Publish `catalog` as the epoch-0 snapshot.
    pub fn new(catalog: Catalog) -> SharedCatalog {
        SharedCatalog {
            current: RwLock::new(Arc::new(CatalogSnapshot::new(0, catalog))),
            writer: Mutex::new(()),
        }
    }

    /// Pin the current snapshot.  O(1): an `Arc` clone under a read lock.
    pub fn snapshot(&self) -> Arc<CatalogSnapshot> {
        Arc::clone(&read_locked(&self.current))
    }

    /// The current epoch without pinning a snapshot.
    pub fn epoch(&self) -> u64 {
        read_locked(&self.current).epoch
    }

    /// Apply a write and publish it as a new snapshot, returning the
    /// published snapshot (its epoch is the previous epoch plus one).
    ///
    /// The mutation runs on a copy-on-write clone of the current catalog:
    /// registered tables are `Arc`-shared, so untouched tables (and their
    /// warm dictionary caches) carry over at pointer cost.  Concurrent
    /// readers are never blocked by `f` itself — only the final pointer
    /// swap takes the write lock.
    ///
    /// Writers are serialized with respect to each other by a dedicated
    /// writer mutex held across clone-mutate-publish, so racing `update`
    /// calls publish epochs N+1 and N+2 exactly like two serial writes —
    /// while readers calling [`snapshot`](SharedCatalog::snapshot) are
    /// only ever blocked for the final pointer swap, never for `f` or the
    /// catalog clone.
    pub fn update<R>(&self, f: impl FnOnce(&mut Catalog) -> R) -> (Arc<CatalogSnapshot>, R) {
        let _writes_serialized = locked(&self.writer);
        // Safe to read without re-checking: only writer-lock holders
        // publish, and we are the only one right now.
        let base = self.snapshot();
        let mut catalog = base.catalog.clone();
        let out = f(&mut catalog);
        let next = Arc::new(CatalogSnapshot::new(base.epoch + 1, catalog));
        *write_locked(&self.current) = Arc::clone(&next);
        (next, out)
    }

    /// Apply a fallible write: publish a new snapshot only when `f`
    /// returns `Ok`.  On `Err` the current snapshot (and epoch) is left
    /// untouched — callers validating a write mid-mutation do not burn an
    /// epoch, so caches keyed on it stay warm.  Same locking discipline
    /// as [`update`](SharedCatalog::update).
    pub fn try_update<R, E>(
        &self,
        f: impl FnOnce(&mut Catalog) -> Result<R, E>,
    ) -> Result<(Arc<CatalogSnapshot>, R), E> {
        let _writes_serialized = locked(&self.writer);
        let base = self.snapshot();
        let mut catalog = base.catalog.clone();
        let out = f(&mut catalog)?;
        let next = Arc::new(CatalogSnapshot::new(base.epoch + 1, catalog));
        *write_locked(&self.current) = Arc::clone(&next);
        Ok((next, out))
    }

    /// Like [`try_update`](SharedCatalog::try_update), but runs
    /// `pre_publish(new_epoch)` after `f` succeeds and **before** the new
    /// snapshot becomes visible — while the writer lock is still held.
    /// If `pre_publish` fails, nothing is published and the epoch is not
    /// burned.
    ///
    /// This is the durability commit point: the WAL writes (and, under
    /// `FlushPolicy::EveryCommit`, syncs) the commit for epoch `N+1`
    /// strictly before any reader can pin epoch `N+1`, so an
    /// acknowledged-and-observed write is always on disk first.
    pub fn try_update_with<R, E>(
        &self,
        f: impl FnOnce(&mut Catalog) -> Result<R, E>,
        pre_publish: impl FnOnce(u64) -> Result<(), E>,
    ) -> Result<(Arc<CatalogSnapshot>, R), E> {
        let _writes_serialized = locked(&self.writer);
        let base = self.snapshot();
        let mut catalog = base.catalog.clone();
        let out = f(&mut catalog)?;
        pre_publish(base.epoch + 1)?;
        let next = Arc::new(CatalogSnapshot::new(base.epoch + 1, catalog));
        *write_locked(&self.current) = Arc::clone(&next);
        Ok((next, out))
    }

    /// Run `f` with the writer lock held, excluding every concurrent
    /// publish for its duration.  The current snapshot cannot change
    /// while `f` runs — checkpoints use this to seal a frozen epoch.
    pub fn with_writer_locked<R>(&self, f: impl FnOnce() -> R) -> R {
        let _writes_serialized = locked(&self.writer);
        f()
    }

    /// Wrap a recovered catalog at its recovered epoch (durable open):
    /// the next published write gets `epoch + 1`, continuing the on-disk
    /// epoch sequence instead of restarting from zero.
    pub fn at_epoch(epoch: u64, catalog: Catalog) -> SharedCatalog {
        SharedCatalog {
            current: RwLock::new(Arc::new(CatalogSnapshot::new(epoch, catalog))),
            writer: Mutex::new(()),
        }
    }

    /// Replace the whole catalog (publishes a new epoch).
    pub fn replace(&self, catalog: Catalog) -> Arc<CatalogSnapshot> {
        self.update(move |c| *c = catalog).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;

    fn small(name: &str, rows: Vec<i64>) -> Table {
        let n = rows.len() as i64;
        Table::from_int_columns(name, &[("id", rows), ("v", (0..n).collect())]).unwrap()
    }

    #[test]
    fn snapshots_pin_state_across_writes() {
        let shared = SharedCatalog::default();
        shared.update(|c| c.register(small("a", vec![1, 2, 3])));
        let pinned = shared.snapshot();
        assert_eq!(pinned.epoch(), 1);
        assert_eq!(pinned.table("a").unwrap().num_rows(), 3);

        shared.update(|c| c.register(small("a", vec![1, 2, 3, 4, 5])));
        // The pinned snapshot still sees the old table; a fresh one sees 5.
        assert_eq!(pinned.table("a").unwrap().num_rows(), 3);
        let fresh = shared.snapshot();
        assert_eq!(fresh.epoch(), 2);
        assert_eq!(fresh.table("a").unwrap().num_rows(), 5);
    }

    #[test]
    fn untouched_tables_share_storage_across_epochs() {
        let shared = SharedCatalog::default();
        shared.update(|c| {
            c.register(small("a", vec![1, 2]));
            c.register(small("b", vec![3, 4]));
        });
        let before = shared.snapshot();
        shared.update(|c| c.register(small("a", vec![9])));
        let after = shared.snapshot();
        // `b` was not written: both snapshots hold the same Arc.
        assert!(Arc::ptr_eq(
            &before.table("b").unwrap(),
            &after.table("b").unwrap()
        ));
        assert!(!Arc::ptr_eq(
            &before.table("a").unwrap(),
            &after.table("a").unwrap()
        ));
    }

    #[test]
    fn clone_forks_history() {
        let shared = SharedCatalog::default();
        shared.update(|c| c.register(small("a", vec![1])));
        let fork = shared.clone();
        shared.update(|c| c.register(small("b", vec![2])));
        assert_eq!(shared.epoch(), 2);
        assert_eq!(fork.epoch(), 1);
        assert!(!fork.snapshot().contains("b"));
    }

    #[test]
    fn try_update_with_runs_pre_publish_before_visibility() {
        let shared = SharedCatalog::default();
        let seen = std::cell::Cell::new(0u64);
        let (snap, ()) = shared
            .try_update_with::<_, ()>(
                |c| {
                    c.register(small("a", vec![1]));
                    Ok(())
                },
                |epoch| {
                    // The new epoch is named but not yet visible.
                    seen.set(epoch);
                    assert_eq!(shared.epoch(), 0, "publish must not have happened yet");
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(seen.get(), 1);
        assert_eq!(snap.epoch(), 1);
        assert_eq!(shared.epoch(), 1);
    }

    #[test]
    fn failed_pre_publish_publishes_nothing() {
        let shared = SharedCatalog::default();
        let err = shared.try_update_with(
            |c| {
                c.register(small("a", vec![1]));
                Ok(())
            },
            |_| Err("wal write failed"),
        );
        assert_eq!(err.err(), Some("wal write failed"));
        assert_eq!(shared.epoch(), 0);
        assert!(!shared.snapshot().contains("a"));
    }

    #[test]
    fn at_epoch_continues_the_sequence() {
        let mut cat = Catalog::new();
        cat.register(small("t", vec![1, 2]));
        let shared = SharedCatalog::at_epoch(41, cat);
        assert_eq!(shared.epoch(), 41);
        let (snap, _) = shared.update(|c| c.register(small("u", vec![3])));
        assert_eq!(snap.epoch(), 42);
    }

    #[test]
    fn with_writer_locked_excludes_publishes() {
        let shared = std::sync::Arc::new(SharedCatalog::default());
        let handle = shared.with_writer_locked(|| {
            let epoch_inside = shared.epoch();
            // A racing writer cannot publish while we hold the section.
            let racing = std::sync::Arc::clone(&shared);
            let handle = std::thread::spawn(move || {
                racing.update(|c| c.register(small("r", vec![1])));
            });
            // Give the racer a moment; the epoch must not move.
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(shared.epoch(), epoch_inside);
            handle
        });
        // Section released: the racer completes and publishes.
        handle.join().unwrap();
        assert_eq!(shared.epoch(), 1);
    }

    #[test]
    fn concurrent_readers_and_writers_agree() {
        let shared = std::sync::Arc::new(SharedCatalog::default());
        shared.update(|c| c.register(small("t", vec![0])));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let shared = std::sync::Arc::clone(&shared);
                s.spawn(move || {
                    for _ in 0..50 {
                        let snap = shared.snapshot();
                        let t = snap.table("t").unwrap();
                        // Row count and column length always agree: no
                        // torn reads of half-published tables.
                        assert_eq!(t.num_rows(), t.column(0).len());
                    }
                });
            }
            let writer = std::sync::Arc::clone(&shared);
            s.spawn(move || {
                for i in 0..50i64 {
                    writer.update(|c| c.register(small("t", (0..=i).collect())));
                }
            });
        });
        assert_eq!(shared.epoch(), 51);
        assert_eq!(shared.snapshot().table("t").unwrap().num_rows(), 50);
    }
}

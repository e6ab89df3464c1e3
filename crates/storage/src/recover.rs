//! Crash recovery and the durable store: manifest + segment load, WAL
//! replay, checkpointing, and the background flusher.
//!
//! # Crash-consistency invariants
//!
//! 1. **Commit point.**  A write is *published* (visible to readers)
//!    only after its WAL commit — operation records plus an
//!    epoch-publish marker — has been handed to the log (and, under
//!    `FlushPolicy::EveryCommit`, fsynced).  Recovery therefore never
//!    reports an epoch newer than the log supports.
//! 2. **Atomic commits.**  Recovery applies a commit's operations only
//!    when its publish marker decodes from the valid log prefix; a torn
//!    commit is truncated away, never half-applied.
//! 3. **Checkpoint supersession.**  A checkpoint writes segment files,
//!    an empty successor WAL, and finally the manifest; the manifest
//!    write is the atomicity point (its CRC catches tearing), and a
//!    crash anywhere during a checkpoint falls back to the previous
//!    manifest + WAL, which are only deleted after the new manifest is
//!    durable.
//! 4. **Sealed images are immutable.**  Segment files are never
//!    modified; a later checkpoint either reuses a table's files
//!    verbatim (appends seal only the new tail rows into an extra
//!    segment) or writes a fresh chain under new names.
//!
//! [`recover`] is deliberately total over damaged inputs: torn WAL
//! tails are truncated, invalid manifests are skipped in favour of older
//! ones, and orphan files are deleted — the only hard errors are I/O
//! failures from the backend itself.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use tcudb_types::sync::{locked, wait_on_timeout};
use tcudb_types::{TcuError, TcuResult};

use crate::backend::StorageBackend;
use crate::catalog::Catalog;
use crate::retry::RetryPolicy;
use crate::segment::{
    self, decode_segment, encode_segment, is_segment_file, is_wal_file, manifest_file_name,
    parse_manifest_epoch, segment_file_name, table_from_segment, wal_file_name, Manifest,
    ManifestTable,
};
use crate::snapshot::SharedCatalog;
use crate::table::Table;
use crate::wal::{decode_stream, FlushPolicy, WalRecord, WalWriter};

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// What recovery found and did; surfaced through `TcuDb::recovery_report`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch of the manifest recovery loaded (0 when none existed).
    pub manifest_epoch: u64,
    /// The last durable epoch: manifest epoch plus replayed commits.
    pub recovered_epoch: u64,
    /// Commits replayed from the WAL.
    pub replayed_commits: u64,
    /// Bytes cut off the WAL tail (torn frames plus unpublished records).
    pub truncated_bytes: u64,
    /// Decodable records discarded because their commit never published.
    pub discarded_records: u64,
    /// Newer manifests skipped because they (or their segments) failed
    /// validation — evidence of a crash mid-checkpoint.
    pub skipped_manifests: u64,
    /// Orphan files (superseded or torn) deleted on open.
    pub removed_files: u64,
}

/// One table's sealed on-disk image, tracked so later checkpoints can
/// reuse segment files instead of rewriting unchanged data.
#[derive(Debug, Clone)]
pub(crate) struct SealedTable {
    /// The table exactly as sealed (recovery: as loaded from segments).
    pub table: Arc<Table>,
    /// Segment files holding it, in concatenation order.
    pub files: Vec<String>,
    /// Row count covered by `files`.
    pub rows: usize,
}

/// The result of [`recover`].
#[derive(Debug)]
pub struct Recovered {
    /// The catalog at the last durable epoch.
    pub catalog: Catalog,
    /// The last durable epoch.
    pub epoch: u64,
    /// Accounting of what recovery found.
    pub report: RecoveryReport,
    /// The WAL file that continues from `epoch`'s manifest.
    pub(crate) wal_file: String,
    /// Valid WAL prefix length; bytes past this must be truncated.
    pub(crate) wal_keep_len: u64,
    /// Sealed images from the loaded manifest (pre-replay state).
    pub(crate) sealed: HashMap<String, SealedTable>,
}

/// Load the newest valid manifest, replay the WAL to the last published
/// epoch, and report torn tails for truncation.  Never fails on damaged
/// content — only on backend I/O errors.
pub fn recover(backend: &dyn StorageBackend) -> TcuResult<Recovered> {
    let files = backend.list()?;
    let mut report = RecoveryReport::default();

    // ---- Newest valid manifest (fall back on any validation failure).
    let mut manifest_epochs: Vec<u64> = files
        .iter()
        .filter_map(|f| parse_manifest_epoch(f))
        .collect();
    manifest_epochs.sort_unstable();
    let mut loaded: Option<(Manifest, Catalog, HashMap<String, SealedTable>)> = None;
    for &epoch in manifest_epochs.iter().rev() {
        match load_manifest(backend, epoch) {
            Ok(ok) => {
                loaded = Some(ok);
                break;
            }
            Err(_) => report.skipped_manifests += 1,
        }
    }
    let (manifest, base_catalog, sealed) = match loaded {
        Some(x) => x,
        None => (
            Manifest {
                epoch: 0,
                wal_file: wal_file_name(0),
                tables: Vec::new(),
            },
            Catalog::new(),
            HashMap::new(),
        ),
    };
    report.manifest_epoch = manifest.epoch;

    // ---- WAL replay: apply whole commits up to the last publish marker.
    let wal_bytes = if backend.exists(&manifest.wal_file)? {
        backend.read_all(&manifest.wal_file)?
    } else {
        Vec::new()
    };
    let decoded = decode_stream(&wal_bytes);
    let (catalog, epoch, keep_len, commits, applied_records) =
        replay(&base_catalog, manifest.epoch, &decoded.records);
    report.recovered_epoch = epoch;
    report.replayed_commits = commits;
    report.truncated_bytes = wal_bytes.len() as u64 - keep_len;
    report.discarded_records = decoded.records.len() as u64 - applied_records;

    Ok(Recovered {
        catalog,
        epoch,
        report,
        wal_file: manifest.wal_file,
        wal_keep_len: keep_len,
        sealed,
    })
}

/// Read and fully validate one manifest: every referenced segment must
/// decode and every table chain must reassemble.
fn load_manifest(
    backend: &dyn StorageBackend,
    epoch: u64,
) -> TcuResult<(Manifest, Catalog, HashMap<String, SealedTable>)> {
    let manifest = Manifest::decode(&backend.read_all(&manifest_file_name(epoch))?)?;
    if manifest.epoch != epoch {
        return Err(TcuError::Io(format!(
            "manifest file for epoch {epoch} claims epoch {}",
            manifest.epoch
        )));
    }
    let mut catalog = Catalog::new();
    let mut sealed = HashMap::new();
    for mt in &manifest.tables {
        let mut chain: Option<segment::DecodedSegment> = None;
        for file in &mt.segments {
            let seg = decode_segment(&backend.read_all(file)?)?;
            match &mut chain {
                None => chain = Some(seg),
                Some(base) => segment::concat_segment(base, seg)?,
            }
        }
        let seg = chain
            .ok_or_else(|| TcuError::Io(format!("manifest table '{}' has no segments", mt.name)))?;
        if !seg.name.eq_ignore_ascii_case(&mt.name) {
            return Err(TcuError::Io(format!(
                "segment chain for '{}' holds table '{}'",
                mt.name, seg.name
            )));
        }
        let table = table_from_segment(seg)?;
        let rows = table.num_rows();
        catalog.register(table);
        let arc = catalog.table(&mt.name)?;
        sealed.insert(
            mt.name.to_ascii_lowercase(),
            SealedTable {
                table: arc,
                files: mt.segments.clone(),
                rows,
            },
        );
    }
    Ok((manifest, catalog, sealed))
}

/// Apply whole commits from `records` onto a clone of `base`.
///
/// Returns `(catalog, epoch, keep_len, commits, applied_records)`.
/// Operations are applied eagerly; if the stream ends inside an open
/// commit or an operation fails to apply, the replay restarts bounded to
/// the last good commit boundary — at most one extra pass, and the
/// returned state never contains a partial commit.
fn replay(
    base: &Catalog,
    base_epoch: u64,
    records: &[(WalRecord, u64)],
) -> (Catalog, u64, u64, u64, u64) {
    let mut limit = records.len();
    loop {
        let mut catalog = base.clone();
        // Tables touched this pass, cloned out of the base catalog once
        // and mutated in place (`None` = dropped); without the staging
        // map every append commit would re-clone the accumulated table
        // and replay cost would grow quadratically with log length.
        let mut staged: HashMap<String, Option<Table>> = HashMap::new();
        let mut epoch = base_epoch;
        let mut keep_len = 0u64;
        let mut commits = 0u64;
        let mut applied = 0u64;
        let mut commit_start = 0usize;
        let mut rerun_at: Option<usize> = None;
        for (i, (rec, end)) in records.iter().take(limit).enumerate() {
            match rec {
                WalRecord::EpochPublish { epoch: e } => {
                    if *e != epoch + 1 {
                        // Epoch discontinuity: damage that happened to
                        // pass the CRC.  Keep only the commits before it.
                        rerun_at = Some(commit_start);
                        break;
                    }
                    epoch = *e;
                    keep_len = *end;
                    commits += 1;
                    applied = (i + 1) as u64;
                    commit_start = i + 1;
                }
                op => {
                    if apply_record(&catalog, &mut staged, op).is_err() {
                        rerun_at = Some(commit_start);
                        break;
                    }
                }
            }
        }
        match rerun_at {
            Some(cut) => {
                // Partial commit was applied in place: rerun bounded to
                // the last good boundary.  `cut` always lands on a commit
                // boundary, so the next pass cannot fail again.
                limit = cut;
            }
            None if commit_start < limit => {
                // Clean decode but the stream ends inside an open commit
                // (its publish marker never hit the disk): those eagerly
                // applied operations must not leak into the result.
                limit = commit_start;
            }
            None => {
                for (name, slot) in staged {
                    match slot {
                        Some(table) => catalog.register(table),
                        None => {
                            catalog.drop_table(&name);
                        }
                    }
                }
                return (catalog, epoch, keep_len, commits, applied);
            }
        }
    }
}

/// Apply one non-publish WAL record to the staging map layered over the
/// (unmutated) base catalog.
fn apply_record(
    catalog: &Catalog,
    staged: &mut HashMap<String, Option<Table>>,
    rec: &WalRecord,
) -> TcuResult<()> {
    match rec {
        WalRecord::CreateTable { name, schema } => {
            staged.insert(
                name.to_ascii_lowercase(),
                Some(Table::new(name.clone(), schema.clone())),
            );
            Ok(())
        }
        WalRecord::DropTable { name } => {
            let key = name.to_ascii_lowercase();
            let exists = match staged.get(&key) {
                Some(slot) => slot.is_some(),
                None => catalog.table(name).is_ok(),
            };
            if !exists {
                return Err(TcuError::Io(format!("WAL drops unknown table '{name}'")));
            }
            staged.insert(key, None);
            Ok(())
        }
        WalRecord::AppendRows { name, rows } => {
            let slot = match staged.entry(name.to_ascii_lowercase()) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(v) => v.insert(Some((*catalog.table(name)?).clone())),
            };
            match slot {
                Some(table) => table.append_row_slice(rows),
                None => Err(TcuError::Io(format!(
                    "WAL appends to dropped table '{name}'"
                ))),
            }
        }
        WalRecord::EpochPublish { .. } => Err(TcuError::Io(
            "publish marker applied as an operation".into(),
        )),
    }
}

// ---------------------------------------------------------------------------
// Durable store
// ---------------------------------------------------------------------------

/// Tunables for the durability subsystem.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// When WAL commits are fsynced.
    pub flush_policy: FlushPolicy,
    /// Checkpoint when the WAL exceeds this many bytes (0 disables
    /// size-triggered checkpoints; explicit checkpoints still work).
    pub checkpoint_wal_bytes: u64,
    /// Run a background flusher thread that checkpoints when the WAL
    /// grows past the threshold.
    pub background_flusher: bool,
    /// How often the background flusher checks the WAL size.
    pub flusher_interval: Duration,
    /// Backoff policy for transient I/O faults on the write path (WAL
    /// appends/syncs and checkpoint file writes).  Permanent faults are
    /// never retried.
    pub retry: RetryPolicy,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            flush_policy: FlushPolicy::EveryCommit,
            checkpoint_wal_bytes: 4 * 1024 * 1024,
            background_flusher: true,
            flusher_interval: Duration::from_millis(200),
            retry: RetryPolicy::default(),
        }
    }
}

impl DurabilityOptions {
    /// Options for tests and oracles: every commit synced, no background
    /// thread (checkpoints only when asked), retries without sleeping so
    /// fault schedules stay deterministic in time.
    pub fn strict_manual() -> DurabilityOptions {
        DurabilityOptions {
            flush_policy: FlushPolicy::EveryCommit,
            checkpoint_wal_bytes: 0,
            background_flusher: false,
            flusher_interval: Duration::from_millis(200),
            retry: RetryPolicy::immediate(4),
        }
    }
}

#[derive(Debug)]
struct WalState {
    writer: WalWriter,
    file: String,
    sealed: HashMap<String, SealedTable>,
    last_checkpoint_epoch: u64,
}

/// The engine-facing durability object: owns the WAL writer and the
/// sealed-segment bookkeeping, and performs checkpoints.
///
/// Lock order: `SharedCatalog.writer` (taken by publishes and
/// checkpoints) → `DurableStore.wal` → the backend's own internals.
#[derive(Debug)]
pub struct DurableStore {
    backend: Arc<dyn StorageBackend>,
    options: DurabilityOptions,
    wal: Mutex<WalState>,
    checkpoint_errors: AtomicU64,
}

impl DurableStore {
    /// Recover the database behind `backend` and open it for writing:
    /// orphan files are removed, the torn WAL tail is truncated, and the
    /// log is reopened for appending.
    pub fn open(
        backend: Arc<dyn StorageBackend>,
        options: DurabilityOptions,
    ) -> TcuResult<(DurableStore, Recovered)> {
        let mut recovered = recover(backend.as_ref())?;

        // Remove everything the chosen manifest does not reference:
        // superseded checkpoints, torn newer manifests, orphan segments.
        let mut keep: HashSet<String> = HashSet::new();
        keep.insert(manifest_file_name(recovered.report.manifest_epoch));
        keep.insert(recovered.wal_file.clone());
        for s in recovered.sealed.values() {
            keep.extend(s.files.iter().cloned());
        }
        for file in backend.list()? {
            let known = is_wal_file(&file)
                || is_segment_file(&file)
                || parse_manifest_epoch(&file).is_some();
            if known && !keep.contains(&file) {
                // Best-effort: a failure here leaves an orphan for the
                // next open, never an inconsistency.
                if backend.remove(&file).is_ok() {
                    recovered.report.removed_files += 1;
                }
            }
        }

        // A database without any manifest gets its epoch-0 manifest now,
        // so every later open finds one.
        if recovered.report.manifest_epoch == 0 && !backend.exists(&manifest_file_name(0))? {
            let manifest = Manifest {
                epoch: 0,
                wal_file: recovered.wal_file.clone(),
                tables: Vec::new(),
            };
            backend.write_file(&manifest_file_name(0), &manifest.encode())?;
        }

        // Truncate the torn tail so the appender continues from the last
        // durable commit.
        if backend.exists(&recovered.wal_file)?
            && backend.file_len(&recovered.wal_file)? > recovered.wal_keep_len
        {
            backend.truncate(&recovered.wal_file, recovered.wal_keep_len)?;
        }
        let handle = backend.appender(&recovered.wal_file)?;
        let store = DurableStore {
            backend,
            wal: Mutex::new(WalState {
                writer: WalWriter::new(handle, options.flush_policy),
                file: recovered.wal_file.clone(),
                sealed: recovered.sealed.clone(),
                last_checkpoint_epoch: recovered.report.manifest_epoch,
            }),
            options,
            checkpoint_errors: AtomicU64::new(0),
        };
        Ok((store, recovered))
    }

    /// Append one commit (operations + publish marker for `epoch`) to
    /// the WAL, retrying transient backend faults per the configured
    /// [`RetryPolicy`].  Called from inside the catalog's pre-publish
    /// hook, so a failure here means the epoch is never published.
    pub fn log_commit(&self, ops: &[WalRecord], epoch: u64) -> TcuResult<()> {
        locked(&self.wal)
            .writer
            .commit_with_retry(ops, epoch, &self.options.retry)
    }

    /// fsync the WAL regardless of flush policy, retrying transient
    /// backend faults.
    pub fn sync(&self) -> TcuResult<()> {
        locked(&self.wal)
            .writer
            .sync_with_retry(&self.options.retry)
    }

    /// Current WAL length in bytes.
    pub fn wal_len(&self) -> u64 {
        locked(&self.wal).writer.len()
    }

    /// Epoch of the last completed checkpoint.
    pub fn last_checkpoint_epoch(&self) -> u64 {
        locked(&self.wal).last_checkpoint_epoch
    }

    /// True when the WAL has outgrown the configured checkpoint
    /// threshold.
    pub fn needs_checkpoint(&self) -> bool {
        self.options.checkpoint_wal_bytes > 0 && self.wal_len() >= self.options.checkpoint_wal_bytes
    }

    /// Checkpoint failures recorded by the background flusher.
    pub fn checkpoint_errors(&self) -> u64 {
        self.checkpoint_errors.load(Ordering::Relaxed)
    }

    fn note_checkpoint_error(&self) {
        self.checkpoint_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// The configured options.
    pub fn options(&self) -> &DurabilityOptions {
        &self.options
    }

    /// Seal the current snapshot of `shared` into segment files, write
    /// the manifest, and rotate to a fresh WAL.  Returns the sealed
    /// epoch, or `None` when the last checkpoint already covers the
    /// current epoch.
    ///
    /// Runs under the catalog's writer lock, so the sealed snapshot is
    /// exactly the current epoch and no commit can race the rotation.
    pub fn checkpoint(&self, shared: &SharedCatalog) -> TcuResult<Option<u64>> {
        shared.with_writer_locked(|| {
            let snap = shared.snapshot();
            let epoch = snap.epoch();
            let mut wal = locked(&self.wal);
            let new_wal_file = wal_file_name(epoch);
            if wal.file == new_wal_file {
                return Ok(None); // nothing published since the last seal
            }

            // 1. Segment files: reuse sealed chains, seal appended tails,
            //    rewrite tables whose history diverged.
            let mut seg_idx = 0u64;
            let mut new_sealed: HashMap<String, SealedTable> = HashMap::new();
            let mut manifest_tables = Vec::new();
            for name in snap.catalog().table_names() {
                let table = snap.catalog().table(&name)?;
                let files = self.seal_table(&name, &table, &wal.sealed, epoch, &mut seg_idx)?;
                new_sealed.insert(
                    name.clone(),
                    SealedTable {
                        table: Arc::clone(&table),
                        files: files.clone(),
                        rows: table.num_rows(),
                    },
                );
                manifest_tables.push(ManifestTable {
                    name: name.clone(),
                    segments: files,
                });
            }

            // 2. A durable empty successor WAL, then the manifest — the
            //    atomicity point.  A crash before the manifest write
            //    leaves the previous checkpoint fully intact.  Whole-file
            //    writes are idempotent, so transient faults retry safely.
            self.options
                .retry
                .run(|| self.backend.write_file(&new_wal_file, &[]))?;
            let manifest = Manifest {
                epoch,
                wal_file: new_wal_file.clone(),
                tables: manifest_tables,
            };
            let manifest_bytes = manifest.encode();
            self.options.retry.run(|| {
                self.backend
                    .write_file(&manifest_file_name(epoch), &manifest_bytes)
            })?;

            // 3. Swap the writer to the new log.
            let handle = self.backend.appender(&new_wal_file)?;
            let old_file = std::mem::replace(&mut wal.file, new_wal_file);
            wal.writer = WalWriter::new(handle, self.options.flush_policy);
            let old_sealed = std::mem::replace(&mut wal.sealed, new_sealed);
            let old_epoch = wal.last_checkpoint_epoch;
            wal.last_checkpoint_epoch = epoch;

            // 4. Best-effort cleanup of the superseded generation.
            let keep: HashSet<&String> = wal.sealed.values().flat_map(|s| s.files.iter()).collect();
            let _ = self.backend.remove(&old_file);
            if old_epoch != epoch {
                let _ = self.backend.remove(&manifest_file_name(old_epoch));
            }
            for s in old_sealed.values() {
                for f in &s.files {
                    if !keep.contains(f) {
                        let _ = self.backend.remove(f);
                    }
                }
            }
            Ok(Some(epoch))
        })
    }

    /// Compute the segment chain for one table at checkpoint time.
    fn seal_table(
        &self,
        name: &str,
        table: &Arc<Table>,
        sealed: &HashMap<String, SealedTable>,
        epoch: u64,
        seg_idx: &mut u64,
    ) -> TcuResult<Vec<String>> {
        if let Some(prev) = sealed.get(name) {
            if Arc::ptr_eq(&prev.table, table) || segment::is_prefix_of(&prev.table, table) {
                if table.num_rows() == prev.rows {
                    return Ok(prev.files.clone()); // unchanged: reuse verbatim
                }
                // Appended: seal only the tail rows.
                let bytes = encode_segment(table, prev.rows)?;
                let file = segment_file_name(epoch, *seg_idx);
                *seg_idx += 1;
                self.options
                    .retry
                    .run(|| self.backend.write_file(&file, &bytes))?;
                let mut files = prev.files.clone();
                files.push(file);
                return Ok(files);
            }
        }
        // New or rewritten table: one full segment.
        let bytes = encode_segment(table, 0)?;
        let file = segment_file_name(epoch, *seg_idx);
        *seg_idx += 1;
        self.options
            .retry
            .run(|| self.backend.write_file(&file, &bytes))?;
        Ok(vec![file])
    }
}

// ---------------------------------------------------------------------------
// Background flusher
// ---------------------------------------------------------------------------

/// Handle to the background flusher thread; dropping it stops and joins
/// the thread.
#[derive(Debug)]
pub struct Flusher {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Spawn the background flusher: every `interval` it checkpoints when
/// the WAL has outgrown the configured threshold.  Checkpoint errors are
/// counted on the store, never propagated (the next tick retries).
pub fn spawn_flusher(
    store: Arc<DurableStore>,
    shared: Arc<SharedCatalog>,
    interval: Duration,
) -> TcuResult<Flusher> {
    let stop = Arc::new((Mutex::new(false), Condvar::new()));
    let stop_worker = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("tcudb-flusher".into())
        .spawn(move || loop {
            let (pair_mutex, pair_cv) = &*stop_worker;
            let guard = locked(pair_mutex);
            if *guard {
                break;
            }
            let (guard, _timed_out) = wait_on_timeout(pair_cv, guard, interval);
            if *guard {
                break;
            }
            drop(guard);
            if store.needs_checkpoint() && store.checkpoint(&shared).is_err() {
                store.note_checkpoint_error();
            }
        })
        .map_err(|e| TcuError::Io(format!("spawn flusher thread: {e}")))?;
    Ok(Flusher {
        stop,
        handle: Some(handle),
    })
}

impl Drop for Flusher {
    fn drop(&mut self) {
        let (pair_mutex, pair_cv) = &*self.stop;
        *locked(pair_mutex) = true;
        pair_cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FaultSpec, MemBackend};
    use crate::schema::Schema;
    use tcudb_types::{DataType, Value};

    fn ops_create(name: &str) -> Vec<WalRecord> {
        vec![WalRecord::CreateTable {
            name: name.into(),
            schema: Schema::from_pairs(&[("id", DataType::Int64), ("tag", DataType::Text)]),
        }]
    }

    fn ops_append(name: &str, ids: &[i64]) -> Vec<WalRecord> {
        vec![WalRecord::AppendRows {
            name: name.into(),
            rows: ids
                .iter()
                .map(|&i| vec![Value::Int(i), Value::Text(format!("t{i}"))])
                .collect(),
        }]
    }

    fn open_mem(be: &MemBackend) -> (DurableStore, Recovered) {
        DurableStore::open(
            Arc::new(be.clone()) as Arc<dyn StorageBackend>,
            DurabilityOptions::strict_manual(),
        )
        .unwrap()
    }

    #[test]
    fn fresh_open_recovers_empty_at_epoch_zero() {
        let be = MemBackend::new();
        let (_store, rec) = open_mem(&be);
        assert_eq!(rec.epoch, 0);
        assert!(rec.catalog.is_empty());
        // The epoch-0 manifest was materialised.
        assert!(be.exists(&manifest_file_name(0)).unwrap());
    }

    #[test]
    fn logged_commits_replay_on_reopen() {
        let be = MemBackend::new();
        {
            let (store, _) = open_mem(&be);
            store.log_commit(&ops_create("t"), 1).unwrap();
            store.log_commit(&ops_append("t", &[1, 2, 3]), 2).unwrap();
        }
        let (_store, rec) = open_mem(&be);
        assert_eq!(rec.epoch, 2);
        assert_eq!(rec.report.replayed_commits, 2);
        let t = rec.catalog.table("t").unwrap();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.row(2), vec![Value::Int(3), Value::Text("t3".into())]);
    }

    #[test]
    fn transient_faults_during_commit_are_retried_without_duplication() {
        let be = MemBackend::new();
        {
            let (store, _) = open_mem(&be);
            store.log_commit(&ops_create("t"), 1).unwrap();
            // Two consecutive blips on the append are absorbed by the
            // retry budget; the commit lands exactly once.
            be.inject_transient_failures(2);
            store.log_commit(&ops_append("t", &[1, 2]), 2).unwrap();
            assert_eq!(be.transient_trips(), 2);
            // And a blip on a bare fsync retries through the sync path.
            be.inject_transient_failures(1);
            store.sync().unwrap();
            assert_eq!(be.transient_trips(), 3);
        }
        let (_store, rec) = open_mem(&be);
        assert_eq!(rec.epoch, 2);
        assert_eq!(
            rec.report.replayed_commits, 2,
            "the retried commit must appear exactly once"
        );
        assert_eq!(rec.catalog.table("t").unwrap().num_rows(), 2);
    }

    #[test]
    fn transient_faults_beyond_the_attempt_budget_surface_as_transient() {
        let be = MemBackend::new();
        let (store, _) = open_mem(&be);
        store.log_commit(&ops_create("t"), 1).unwrap();
        // strict_manual retries 4 attempts; 10 blips exhaust them.
        be.inject_transient_failures(10);
        let err = store.log_commit(&ops_append("t", &[1]), 2).unwrap_err();
        assert!(err.is_transient(), "expected transient error, got {err}");
        // The disk is still up: once the blips drain, commits succeed and
        // the failed commit left no partial frames behind.
        be.inject_transient_failures(0);
        store.log_commit(&ops_append("t", &[7]), 2).unwrap();
        drop(store);
        let (_store, rec) = open_mem(&be);
        assert_eq!(rec.epoch, 2);
        let t = rec.catalog.table("t").unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.row(0)[0], Value::Int(7));
    }

    #[test]
    fn permanent_faults_are_not_retried() {
        // A scripted crash is permanent: the first error must surface
        // without the retry loop hammering a downed disk.
        let be = MemBackend::with_faults(FaultSpec {
            crash_at_op: Some(4),
            torn_seed: 9,
            ..FaultSpec::default()
        });
        let (store, _) = open_mem(&be);
        // open writes the epoch-0 manifest (op 1); the first commit is
        // ops 2 (append) + 3 (sync); the second commit's append is op 4.
        store.log_commit(&ops_create("t"), 1).unwrap();
        let err = store.log_commit(&ops_append("t", &[1]), 2).unwrap_err();
        assert!(!err.is_transient());
        assert!(be.is_crashed());
    }

    #[test]
    fn checkpoint_survives_transient_faults() {
        let be = MemBackend::new();
        {
            let (store, _) = open_mem(&be);
            let shared = SharedCatalog::default();
            let mut t = Table::new(
                "t",
                Schema::from_pairs(&[("id", DataType::Int64), ("tag", DataType::Text)]),
            );
            t.push_row(vec![Value::Int(1), Value::Text("a".into())])
                .unwrap();
            store.log_commit(&ops_create("t"), 1).unwrap();
            shared.update(|c| c.register(t));
            // Blip the segment write, the successor WAL and the manifest.
            be.inject_transient_failures(3);
            assert_eq!(store.checkpoint(&shared).unwrap(), Some(1));
            assert_eq!(be.transient_trips(), 3);
        }
        let (_store, rec) = open_mem(&be);
        assert_eq!(rec.report.manifest_epoch, 1);
        assert_eq!(rec.report.replayed_commits, 0);
        assert_eq!(rec.catalog.table("t").unwrap().num_rows(), 1);
    }

    #[test]
    fn checkpoint_rotates_the_wal_and_reopen_skips_replay() {
        let be = MemBackend::new();
        {
            let (store, _) = open_mem(&be);
            let shared = SharedCatalog::default();
            let mut t = Table::new(
                "t",
                Schema::from_pairs(&[("id", DataType::Int64), ("tag", DataType::Text)]),
            );
            t.push_row(vec![Value::Int(1), Value::Text("a".into())])
                .unwrap();
            store.log_commit(&ops_create("t"), 1).unwrap();
            store.log_commit(&ops_append("t", &[1]), 2).unwrap();
            shared.update(|c| c.register(t));
            shared.update(|c| {
                let _ = c; // second publish to reach epoch 2
            });
            assert_eq!(store.checkpoint(&shared).unwrap(), Some(2));
            // Idempotent at the same epoch.
            assert_eq!(store.checkpoint(&shared).unwrap(), None);
        }
        let (_store, rec) = open_mem(&be);
        assert_eq!(rec.report.manifest_epoch, 2);
        assert_eq!(rec.report.replayed_commits, 0);
        assert_eq!(rec.epoch, 2);
        let t = rec.catalog.table("t").unwrap();
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn torn_wal_tail_is_truncated_to_last_commit() {
        let be = MemBackend::with_faults(FaultSpec {
            torn_seed: 21,
            ..FaultSpec::default()
        });
        {
            let (store, _) = open_mem(&be);
            store.log_commit(&ops_create("t"), 1).unwrap();
            store.log_commit(&ops_append("t", &[1, 2]), 2).unwrap();
        }
        // Simulate a torn append: extra unsynced bytes at the tail.
        {
            let mut h = be.appender(&wal_file_name(0)).unwrap();
            h.append(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02]).unwrap();
            // no sync: reboot tears it
        }
        be.reboot();
        let (_store, rec) = open_mem(&be);
        assert_eq!(rec.epoch, 2);
        assert_eq!(rec.catalog.table("t").unwrap().num_rows(), 2);
        // And the file itself was truncated back to the valid prefix.
        let decoded = decode_stream(&be.read_all(&wal_file_name(0)).unwrap());
        assert!(!decoded.torn);
    }

    /// Byte length of one bare epoch-publish commit (a single
    /// `EpochPublish` frame) — the tail region the bit-flip sweep
    /// corrupts.
    fn publish_marker_len() -> usize {
        let be = MemBackend::new();
        let mut w = WalWriter::new(be.appender("w").unwrap(), FlushPolicy::EveryCommit);
        w.commit(&[], 7).unwrap();
        w.len() as usize
    }

    /// Flip EVERY bit of the last commit's epoch-publish marker frame,
    /// one at a time: the frame CRC (or length sanity check) must catch
    /// each flip, recovery must discard exactly that commit — the
    /// marker never decodes, so its operations never publish — and the
    /// preceding epoch must survive bit-identical.
    #[test]
    fn bit_flips_in_the_publish_marker_discard_exactly_that_commit() {
        let be = MemBackend::new();
        {
            let (store, _) = open_mem(&be);
            store.log_commit(&ops_create("t"), 1).unwrap();
            store.log_commit(&ops_append("t", &[1, 2]), 2).unwrap();
            store.log_commit(&ops_append("t", &[3]), 3).unwrap();
        }
        let wal_file = wal_file_name(0);
        let pristine: Vec<(String, Vec<u8>)> = be
            .list()
            .unwrap()
            .into_iter()
            .map(|f| {
                let bytes = be.read_all(&f).unwrap();
                (f, bytes)
            })
            .collect();
        let wal = be.read_all(&wal_file).unwrap();
        let mlen = publish_marker_len();
        assert!(wal.len() > mlen, "WAL too short to hold a marker");
        let marker_start = wal.len() - mlen;

        for bit in 0..mlen * 8 {
            // A fresh disk with the pristine image, then one flipped bit
            // inside epoch 3's publish marker.
            let nb = MemBackend::new();
            for (f, bytes) in &pristine {
                nb.write_file(f, bytes).unwrap();
            }
            let mut damaged = wal.clone();
            damaged[marker_start + bit / 8] ^= 1 << (bit % 8);
            nb.write_file(&wal_file, &damaged).unwrap();

            let (store, rec) = DurableStore::open(
                Arc::new(nb.clone()) as Arc<dyn StorageBackend>,
                DurabilityOptions::strict_manual(),
            )
            .expect("recovery never fails on damaged content");
            assert_eq!(
                rec.epoch, 2,
                "bit {bit}: epoch 3's marker was damaged, so exactly epoch 2 must survive"
            );
            let t = rec.catalog.table("t").unwrap();
            assert_eq!(t.num_rows(), 2, "bit {bit}: preceding epoch not intact");
            assert!(
                rec.report.truncated_bytes > 0 || rec.report.discarded_records > 0,
                "bit {bit}: damage went unreported: {:?}",
                rec.report
            );
            // The reopened log accepts the re-issued commit.
            store.log_commit(&ops_append("t", &[3]), 3).unwrap();
            drop(store);
            let (_s, rec) = open_mem(&nb);
            assert_eq!(rec.epoch, 3, "bit {bit}: re-issued commit lost");
            assert_eq!(rec.catalog.table("t").unwrap().num_rows(), 3);
        }
    }

    /// Same sweep one commit deeper: damage epoch 2's marker and the
    /// scan stops there — epoch 3's perfectly valid frames AFTER the
    /// damage must not resurrect (prefix-consistency, not salvage).
    #[test]
    fn bit_flip_in_an_interior_marker_truncates_everything_after_it() {
        let be = MemBackend::new();
        {
            let (store, _) = open_mem(&be);
            store.log_commit(&ops_create("t"), 1).unwrap();
            store.log_commit(&ops_append("t", &[1, 2]), 2).unwrap();
        }
        let wal_file = wal_file_name(0);
        let len_through_2 = be.read_all(&wal_file).unwrap().len();
        {
            let (store, _) = open_mem(&be);
            store.log_commit(&ops_append("t", &[3]), 3).unwrap();
        }
        let wal = be.read_all(&wal_file).unwrap();
        let mlen = publish_marker_len();
        let marker2_start = len_through_2 - mlen;

        // One representative flip per byte of epoch 2's marker.
        for byte in 0..mlen {
            let nb = MemBackend::new();
            for f in be.list().unwrap() {
                nb.write_file(&f, &be.read_all(&f).unwrap()).unwrap();
            }
            let mut damaged = wal.clone();
            damaged[marker2_start + byte] ^= 1 << (byte % 8);
            nb.write_file(&wal_file, &damaged).unwrap();

            let (_s, rec) = DurableStore::open(
                Arc::new(nb) as Arc<dyn StorageBackend>,
                DurabilityOptions::strict_manual(),
            )
            .expect("recovery never fails on damaged content");
            assert_eq!(
                rec.epoch, 1,
                "byte {byte}: scan must stop at the damaged marker, not salvage epoch 3"
            );
            assert_eq!(rec.catalog.table("t").unwrap().num_rows(), 0);
        }
    }

    #[test]
    fn unpublished_trailing_ops_are_discarded() {
        let be = MemBackend::new();
        {
            let (store, _) = open_mem(&be);
            store.log_commit(&ops_create("t"), 1).unwrap();
            // Write operation frames WITHOUT a publish marker by hand.
            let mut buf = Vec::new();
            for op in ops_append("t", &[7, 8, 9]) {
                crate::wal::encode_frame(&mut buf, &op).unwrap();
            }
            let mut h = be.appender(&wal_file_name(0)).unwrap();
            h.append(&buf).unwrap();
            h.sync().unwrap();
        }
        let (_store, rec) = open_mem(&be);
        assert_eq!(rec.epoch, 1, "open commit must not count");
        assert_eq!(rec.catalog.table("t").unwrap().num_rows(), 0);
        assert!(rec.report.discarded_records >= 1);
    }

    #[test]
    fn torn_manifest_falls_back_to_previous_checkpoint() {
        let be = MemBackend::new();
        let shared = SharedCatalog::default();
        {
            let (store, _) = open_mem(&be);
            store.log_commit(&ops_create("t"), 1).unwrap();
            shared.update(|c| {
                c.register(Table::new(
                    "t",
                    Schema::from_pairs(&[("id", DataType::Int64), ("tag", DataType::Text)]),
                ))
            });
            store.checkpoint(&shared).unwrap();
        }
        // A later, torn manifest (simulating a crash mid-checkpoint).
        let good = be.read_all(&manifest_file_name(1)).unwrap();
        let mut torn = good.clone();
        torn.truncate(torn.len() / 2);
        be.write_file(&manifest_file_name(9), &torn).unwrap();
        let (_store, rec) = open_mem(&be);
        assert_eq!(rec.report.manifest_epoch, 1);
        assert_eq!(rec.report.skipped_manifests, 1);
        assert!(rec.catalog.contains("t"));
        // The torn manifest was removed as an orphan.
        assert!(!be.exists(&manifest_file_name(9)).unwrap());
    }

    #[test]
    fn append_checkpoint_seals_only_the_tail() {
        let be = MemBackend::new();
        let shared = SharedCatalog::default();
        let (store, _) = open_mem(&be);
        let schema = Schema::from_pairs(&[("id", DataType::Int64), ("tag", DataType::Text)]);
        let mut t = Table::new("t", schema);
        t.push_row(vec![Value::Int(1), Value::Text("a".into())])
            .unwrap();
        store.log_commit(&ops_create("t"), 1).unwrap();
        store.log_commit(&ops_append("t", &[1]), 2).unwrap();
        shared.update(|c| c.register(t.clone()));
        shared.update(|_| ());
        store.checkpoint(&shared).unwrap();
        let first_gen: Vec<String> = be
            .list()
            .unwrap()
            .into_iter()
            .filter(|f| is_segment_file(f))
            .collect();
        assert_eq!(first_gen.len(), 1);

        // Append two rows and checkpoint again: the old segment must be
        // reused and exactly one tail segment added.
        t.push_row(vec![Value::Int(2), Value::Text("b".into())])
            .unwrap();
        t.push_row(vec![Value::Int(3), Value::Text("c".into())])
            .unwrap();
        store.log_commit(&ops_append("t", &[2, 3]), 3).unwrap();
        shared.update(|c| c.register(t));
        store.checkpoint(&shared).unwrap();
        let second_gen: Vec<String> = be
            .list()
            .unwrap()
            .into_iter()
            .filter(|f| is_segment_file(f))
            .collect();
        assert_eq!(second_gen.len(), 2, "files: {second_gen:?}");
        assert!(second_gen.contains(&first_gen[0]), "base segment reused");

        let (_store, rec) = open_mem(&be);
        assert_eq!(rec.catalog.table("t").unwrap().num_rows(), 3);
        assert_eq!(
            rec.catalog.table("t").unwrap().row(2),
            vec![Value::Int(3), Value::Text("c".into())]
        );
    }

    #[test]
    fn crash_during_checkpoint_preserves_previous_generation() {
        // Sweep the crash point across every mutating op of a checkpoint;
        // recovery must always land on one of the two valid states.
        for crash_at in 1..=12u64 {
            let be = MemBackend::new();
            let shared = SharedCatalog::default();
            let (store, _) = open_mem(&be);
            store.log_commit(&ops_create("t"), 1).unwrap();
            store.log_commit(&ops_append("t", &[1, 2]), 2).unwrap();
            let mut t = Table::new(
                "t",
                Schema::from_pairs(&[("id", DataType::Int64), ("tag", DataType::Text)]),
            );
            t.push_row(vec![Value::Int(1), Value::Text("t1".into())])
                .unwrap();
            t.push_row(vec![Value::Int(2), Value::Text("t2".into())])
                .unwrap();
            shared.update(|c| c.register(t));
            shared.update(|_| ());

            be.reboot_with(FaultSpec {
                crash_at_op: Some(crash_at),
                torn_seed: crash_at * 31 + 7,
                ..FaultSpec::default()
            });
            let _ = store.checkpoint(&shared); // may fail: that's the point
            be.reboot();
            let (_s2, rec) = open_mem(&be);
            assert_eq!(rec.epoch, 2, "crash_at={crash_at}");
            let t = rec.catalog.table("t").unwrap();
            assert_eq!(t.num_rows(), 2, "crash_at={crash_at}");
            assert_eq!(t.row(1), vec![Value::Int(2), Value::Text("t2".into())]);
        }
    }

    #[test]
    fn flusher_checkpoints_when_wal_grows() {
        let be = MemBackend::new();
        let shared = Arc::new(SharedCatalog::default());
        let (store, _) = DurableStore::open(
            Arc::new(be.clone()) as Arc<dyn StorageBackend>,
            DurabilityOptions {
                checkpoint_wal_bytes: 1, // any commit triggers
                flusher_interval: Duration::from_millis(5),
                ..DurabilityOptions::default()
            },
        )
        .unwrap();
        let store = Arc::new(store);
        let flusher = spawn_flusher(
            Arc::clone(&store),
            Arc::clone(&shared),
            Duration::from_millis(5),
        )
        .unwrap();
        store.log_commit(&ops_create("t"), 1).unwrap();
        shared.update(|c| {
            c.register(Table::new(
                "t",
                Schema::from_pairs(&[("id", DataType::Int64), ("tag", DataType::Text)]),
            ))
        });
        // Wait for the flusher to seal epoch 1.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while store.last_checkpoint_epoch() < 1 {
            assert!(std::time::Instant::now() < deadline, "flusher never sealed");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(flusher); // stops and joins
        assert!(be.exists(&manifest_file_name(1)).unwrap());
        assert_eq!(store.checkpoint_errors(), 0);
    }
}

//! The plan/statement cache: pay parse → analyze → cost **once** per
//! distinct statement per catalog epoch.
//!
//! TCUDB's cost-model-driven planning (the Figure 6 workflow: feasibility,
//! density, working-set and cost tests per join step) is exactly the kind
//! of per-query work a serving layer should amortize: a dashboard or an
//! application replays the same statements thousands of times against a
//! catalog that changes rarely.  A [`PlanCache`] entry stores everything
//! execution needs that does **not** depend on runtime state:
//!
//! * the parsed AST ([`SelectStatement`]),
//! * the analyzer output ([`AnalyzedQuery`] — bindings, classified
//!   predicates, recognised pattern, with tables pinned by `Arc`),
//! * the [`RecordedPlan`]: the join route (star or pairwise) and the
//!   optimizer's per-join-step [`PlanChoice`]s, recorded on the first
//!   execution and replayed verbatim afterwards (legal because identical
//!   SQL against an identical snapshot produces identical filtered
//!   cardinalities, hence identical [`JoinShape`]s — the inputs the cost
//!   model decides on).  Replaying the route means a warm statement never
//!   pays for a star pass the first execution discarded, and cold and warm
//!   executions produce their rows in the same order.
//!
//! Per-execution observables (the simulated
//! [`ExecutionTimeline`](tcudb_device::ExecutionTimeline), the
//! host-measured `HostBreakdown`) are **not** cached — they are produced
//! fresh by every execution.
//!
//! Entries are keyed on `(normalized SQL, catalog epoch)`.  The epoch
//! comes from [`tcudb_storage::SharedCatalog`]: every published write
//! bumps it, so a cached plan can never be replayed against data it was
//! not planned for.  Stale epochs are evicted eagerly on write
//! publication and lazily by the FIFO capacity bound.
//!
//! [`JoinShape`]: crate::optimizer::JoinShape

use crate::analyzer::AnalyzedQuery;
use crate::optimizer::PlanChoice;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use tcudb_sql::SelectStatement;
use tcudb_types::sync::locked;

/// What one execution decided about its joins: replayed by every later
/// execution of the same statement against the same snapshot.
#[derive(Debug, Clone, Default)]
pub struct RecordedPlan {
    /// The optimizer's decision per executed join step, in execution
    /// order.
    pub choices: Vec<PlanChoice>,
    /// Did the joins take the star route?
    pub star: bool,
}

/// Everything cached for one `(statement, epoch)` pair.
///
/// Entries are deduplicated by the cache: all executions of one statement
/// against one epoch share a single `Arc<CachedStatement>`, so pointer
/// identity (`Arc::ptr_eq`) is a valid equality test for "same statement,
/// same snapshot" — the serving layer coalesces on it.
#[derive(Debug)]
pub struct CachedStatement {
    /// The normalized statement text this entry is keyed on.
    normalized: String,
    /// The catalog epoch this entry was analyzed against.
    epoch: u64,
    /// The parsed AST.
    pub stmt: Arc<SelectStatement>,
    /// The analyzer output, with bound tables pinned to the snapshot the
    /// statement was analyzed against.
    pub analyzed: Arc<AnalyzedQuery>,
    /// The join route and the optimizer's decisions, one per executed
    /// join step, recorded by the first execution.  Empty until that
    /// execution finishes; single assignment so racing first executions
    /// agree.
    plan: OnceLock<Arc<RecordedPlan>>,
    /// Memoized admission-control estimate (see
    /// [`CachedStatement::working_set_bytes`]).
    working_set: OnceLock<f64>,
}

impl CachedStatement {
    /// The normalized statement text this entry is keyed on.
    pub fn normalized_sql(&self) -> &str {
        &self.normalized
    }

    /// The catalog epoch this entry was analyzed against.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The recorded join route and per-join-step plan choices, if an
    /// execution has completed and recorded them.
    pub fn plan(&self) -> Option<Arc<RecordedPlan>> {
        self.plan.get().cloned()
    }

    /// Record the plan of a completed execution (first writer wins;
    /// racing recordings of the same statement are identical).
    pub fn record_plan(&self, plan: RecordedPlan) {
        let _ = self.plan.set(Arc::new(plan));
    }

    /// The statement's estimated working-set bytes, computed once by
    /// `compute` on first request and memoized (the estimate is a pure
    /// function of the analyzed query and the snapshot this entry pins,
    /// so the serving layer's admission control asks once per statement
    /// per epoch, not once per submission).
    pub fn working_set_bytes(&self, compute: impl FnOnce() -> f64) -> f64 {
        *self.working_set.get_or_init(compute)
    }
}

/// Monotonic hit/miss counters, cheap enough to read in hot paths and in
/// tests ("repeat executions hit the plan cache" is asserted on these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache (no parse, no analyze, no costing).
    pub hits: u64,
    /// Lookups that had to parse + analyze (and later record choices).
    pub misses: u64,
    /// Entries evicted because their epoch was retired by a write.
    pub stale_evictions: u64,
}

impl PlanCacheStats {
    /// Hit rate in `[0, 1]` (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded, thread-safe statement cache keyed on
/// `(normalized SQL, catalog epoch)`.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<CacheMap>,
    hits: AtomicU64,
    misses: AtomicU64,
    stale_evictions: AtomicU64,
    capacity: usize,
}

#[derive(Debug, Default)]
struct CacheMap {
    entries: HashMap<(String, u64), Arc<CachedStatement>>,
    /// Insertion order for FIFO eviction once `capacity` is exceeded.
    order: VecDeque<(String, u64)>,
}

/// Default maximum number of cached statements per engine.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::with_capacity(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// A cache bounded to `capacity` statements (FIFO eviction).
    pub fn with_capacity(capacity: usize) -> PlanCache {
        PlanCache {
            inner: Mutex::new(CacheMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale_evictions: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    /// Look up a statement by its prebuilt `(normalized SQL, epoch)` key,
    /// counting a hit or a miss.  Taking the key by reference keeps the
    /// per-query hot path allocation-free inside the cache lock (callers
    /// build the key once and reuse it for the insert on a miss).
    pub fn lookup(&self, key: &(String, u64)) -> Option<Arc<CachedStatement>> {
        let map = locked(&self.inner);
        let found = map.entries.get(key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Insert a freshly analyzed statement.  If another thread raced the
    /// same key in, the earlier entry wins and is returned (so racing
    /// threads converge on one `CachedStatement` and one choice
    /// recording).
    pub fn insert(
        &self,
        normalized_sql: String,
        epoch: u64,
        stmt: Arc<SelectStatement>,
        analyzed: Arc<AnalyzedQuery>,
    ) -> Arc<CachedStatement> {
        let mut map = locked(&self.inner);
        let key = (normalized_sql, epoch);
        if let Some(existing) = map.entries.get(&key) {
            return Arc::clone(existing);
        }
        let entry = Arc::new(CachedStatement {
            normalized: key.0.clone(),
            epoch,
            stmt,
            analyzed,
            plan: OnceLock::new(),
            working_set: OnceLock::new(),
        });
        map.order.push_back(key.clone());
        map.entries.insert(key, Arc::clone(&entry));
        while map.entries.len() > self.capacity {
            if let Some(old) = map.order.pop_front() {
                map.entries.remove(&old);
            } else {
                break;
            }
        }
        entry
    }

    /// Drop every entry whose epoch is older than `current_epoch` (called
    /// when a write publishes a new snapshot).
    ///
    /// Trade-off, chosen deliberately: entries pin `Arc<Table>`s, so
    /// keeping old-epoch plans alive would retain entire pre-ingest table
    /// versions in memory for as long as they sat in the cache.  Eager
    /// retirement bounds that retention at the cost of sessions pinned to
    /// an old snapshot (`TcuDb::execute_at`) re-analyzing their
    /// statements after each concurrent write — correct either way, since
    /// lookups at retired epochs simply miss.
    pub fn retire_epochs_before(&self, current_epoch: u64) {
        let mut map = locked(&self.inner);
        let before = map.entries.len();
        map.entries.retain(|&(_, e), _| e >= current_epoch);
        let evicted = before - map.entries.len();
        if evicted > 0 {
            self.stale_evictions
                .fetch_add(evicted as u64, Ordering::Relaxed);
            let CacheMap { entries, order } = &mut *map;
            order.retain(|k| entries.contains_key(k));
        }
    }

    /// Remove every entry and reset nothing else (used when the engine
    /// configuration changes under the cache: recorded choices may embed
    /// decisions from the old optimizer config).
    pub fn clear(&self) {
        let mut map = locked(&self.inner);
        map.entries.clear();
        map.order.clear();
    }

    /// Number of cached statements.
    pub fn len(&self) -> usize {
        locked(&self.inner).entries.len()
    }

    /// True if the cache holds no statements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stale_evictions: self.stale_evictions.load(Ordering::Relaxed),
        }
    }
}

/// Normalize SQL for cache keying: collapse runs of ASCII whitespace into
/// one space and trim the ends, leaving single-quoted string literals
/// byte-for-byte intact (their whitespace is data, not formatting).
///
/// Two spellings that normalize equal are guaranteed to parse equal; the
/// converse is not attempted (`select` vs `SELECT` key separately — a
/// cache miss, never a wrong answer).
pub fn normalize_sql(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut in_string = false;
    let mut pending_space = false;
    for ch in sql.chars() {
        if in_string {
            out.push(ch);
            if ch == '\'' {
                in_string = false;
            }
            continue;
        }
        if ch.is_ascii_whitespace() {
            pending_space = true;
            continue;
        }
        if pending_space {
            if !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
        }
        out.push(ch);
        if ch == '\'' {
            in_string = true;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcudb_sql::parse;
    use tcudb_storage::{Catalog, Table};

    fn entry_for(cache: &PlanCache, sql: &str, epoch: u64) -> Arc<CachedStatement> {
        let mut cat = Catalog::new();
        cat.register(Table::from_int_columns("a", &[("id", vec![1])]).unwrap());
        let stmt = Arc::new(parse(sql).unwrap());
        let analyzed = Arc::new(crate::analyzer::analyze(&stmt, &cat).unwrap());
        cache.insert(normalize_sql(sql), epoch, stmt, analyzed)
    }

    #[test]
    fn normalization_collapses_whitespace_outside_strings() {
        assert_eq!(
            normalize_sql("  SELECT   a.id\n\tFROM a  "),
            "SELECT a.id FROM a"
        );
        assert_eq!(
            normalize_sql("SELECT 'two  spaces'   FROM a"),
            "SELECT 'two  spaces' FROM a"
        );
        assert_eq!(normalize_sql("x  =  'a''b'"), "x = 'a''b'");
    }

    #[test]
    fn lookup_counts_hits_and_misses_per_epoch() {
        let cache = PlanCache::default();
        let sql = "SELECT a.id FROM a";
        assert!(cache.lookup(&(normalize_sql(sql), 0)).is_none());
        entry_for(&cache, sql, 0);
        assert!(cache.lookup(&(normalize_sql(sql), 0)).is_some());
        // Same SQL at a newer epoch is a different plan.
        assert!(cache.lookup(&(normalize_sql(sql), 1)).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn retire_evicts_only_older_epochs() {
        let cache = PlanCache::default();
        entry_for(&cache, "SELECT a.id FROM a", 0);
        entry_for(&cache, "SELECT a.id FROM a", 1);
        cache.retire_epochs_before(1);
        assert_eq!(cache.len(), 1);
        assert!(cache
            .lookup(&("SELECT a.id FROM a".to_string(), 1))
            .is_some());
        assert_eq!(cache.stats().stale_evictions, 1);
    }

    #[test]
    fn capacity_bound_evicts_fifo() {
        let cache = PlanCache::with_capacity(2);
        entry_for(&cache, "SELECT a.id FROM a", 0);
        entry_for(&cache, "SELECT a.id , a.id FROM a", 0);
        entry_for(&cache, "SELECT a.id , a.id , a.id FROM a", 0);
        assert_eq!(cache.len(), 2);
        assert!(cache
            .lookup(&("SELECT a.id FROM a".to_string(), 0))
            .is_none());
    }

    #[test]
    fn plans_record_once() {
        let cache = PlanCache::default();
        let e = entry_for(&cache, "SELECT a.id FROM a", 0);
        assert!(e.plan().is_none());
        e.record_plan(RecordedPlan {
            choices: vec![],
            star: true,
        });
        e.record_plan(RecordedPlan::default());
        assert!(e.plan().unwrap().star);
    }
}

#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # tcudb-core
//!
//! The TCUDB engine itself: the paper's primary contribution.
//!
//! The crate is organised exactly along the components of Figure 1:
//!
//! * [`analyzer`] — the **query analyzer**: binds a parsed SQL statement to
//!   the catalog, separates join predicates from per-table filters and
//!   recognises the TCU-accelerable query patterns of §3 (two-way joins,
//!   multi-way joins, group-by aggregates over joins, non-equi joins and
//!   the matrix-multiplication query of Figure 5).
//! * [`optimizer`] — the **query optimizer** of Figure 6: the data-range
//!   feasibility test with mixed-precision selection (§4.2.1), the
//!   working-set test that triggers blocked execution (§4.2.3), the matrix
//!   density test that triggers TCU-SpMM (§4.2.4), and the cost comparison
//!   against the conventional GPU hash-join plan (§4.2.2).
//! * [`translate`] — the **code generator**'s data-layout half: mapping
//!   relational columns onto one-hot / valued / adjacency matrices over a
//!   shared key domain (§3.1–3.3).
//! * [`pipeline`] + [`executor`] — the **program driver**: [`pipeline`]
//!   walks the join graph once for every engine; [`executor`] is TCUDB's
//!   per-step policy — physical TCU operators (`TcuJoin`,
//!   `TcuJoinAggregate`, `TcuSpmmJoin`, blocked variants) and the fallback
//!   GPU operators, all reporting a per-phase
//!   [`ExecutionTimeline`](tcudb_device::ExecutionTimeline).
//! * [`engine`] — the public [`TcuDb`] facade: register tables, run SQL,
//!   get back a result table, the chosen plan and the timing breakdown.
//!   Built for concurrent serving: queries and writes take `&self`,
//!   reads pin epoch-tagged catalog snapshots, writes publish new ones.
//! * [`plancache`] — the plan/statement cache keyed on
//!   `(normalized SQL, catalog epoch)`: repeat executions of identical
//!   statements skip parse, analysis and per-join-step optimizer costing
//!   (the `tcudb-serve` crate builds its scheduler on top of this).
//!
//! The baseline engines (`tcudb-ydb`, `tcudb-monet`) drive the same
//! [`pipeline`] with their own step policy; the building blocks under it
//! live in [`context`] (expression evaluation), [`batch`]
//! (late-materialized struct-of-arrays tuple batches) and [`relops`]
//! (chunked scans, code-bucket and comparison joins, the vectorized
//! output pipeline).

pub mod analyzer;
pub mod batch;
pub mod context;
pub mod engine;
pub mod executor;
pub mod optimizer;
pub mod pipeline;
pub mod plancache;
pub mod relops;
pub mod translate;

pub use analyzer::{AnalyzedQuery, JoinPredicate, QueryPattern};
pub use batch::TupleBatch;
pub use engine::{EngineConfig, QueryOutput, TcuDb};
pub use executor::{HostBreakdown, PlanDescription};
pub use optimizer::{Optimizer, PlanChoice, PlanKind};
pub use plancache::{PlanCache, PlanCacheStats};
pub use relops::{FinalizeOptions, FinalizeReport};

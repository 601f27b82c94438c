//! Volcano-style query executor with the traditional access paths.
//!
//! Implements the PostgreSQL operator repertoire the paper measures against
//! (Section II and VI):
//!
//! * **Full Table Scan** — sequential page runs with readahead;
//! * **Index Scan** — B+-tree range cursor driving random heap fetches,
//!   preserving key order;
//! * **Sort Scan** (a.k.a. Bitmap Heap Scan) — drain the index, sort TIDs in
//!   page order, fetch nearly sequentially; blocking, order-destroying;
//! * Filter / Project / Sort;
//! * Nested-Loop, Index-Nested-Loop, Hash and Merge joins;
//! * hash and scalar aggregation.
//!
//! Every operator charges CPU per tuple touched and performs all I/O
//! through [`smooth_storage::Storage`], so the virtual clock and I/O
//! counters measure real executed access patterns. The Smooth Scan operator
//! itself lives in `smooth-core` and plugs into the same [`Operator`]
//! protocol.
//!
//! Operators speak two interchangeable protocols: the classic Volcano
//! `next()` and the columnar `next_columns()`
//! ([`smooth_types::ColumnBatch`]: typed column vectors plus a selection
//! vector). The vectorized scans push predicate evaluation down onto the
//! encoded tuples via [`ScanFilter`] — probing only predicate columns
//! into reused typed vectors, evaluating range/comparison predicates as
//! branch-light kernels, and decoding qualifiers straight into column
//! vectors with no per-row allocation. [`collect_batches`] drives plans
//! through the columnar protocol end to end and keeps the result
//! columnar; [`collect_rows`] is its row-materializing convenience, and
//! [`collect_rows_volcano`] keeps the row-at-a-time reference driver —
//! retained permanently as the semantics oracle the property suites pin
//! every other driver against, not as a performance baseline.
//!
//! The [`parallel`] module adds morsel-driven parallel pipeline
//! execution (HyPer-style worker pool over [`smooth_types::ColumnBatch`]
//! morsels) that is byte-identical to [`collect_rows`] and charges the
//! exact same virtual clock totals.
//!
//! The [`spill`] module owns larger-than-memory execution's accounting:
//! the per-operator memory budget (`SMOOTH_MEM_BYTES`) and the one
//! charged overflow-file I/O formula behind the grace hash join's
//! partition spills ([`JoinBuildTable`]), the external merge sort
//! ([`extsort`]) and the Smooth Scan Result Cache in `smooth-core`. See
//! `docs/larger_than_memory.md`.

pub mod agg;
pub mod expr;
pub mod extsort;
pub mod filter;
pub mod join;
pub mod operator;
pub mod parallel;
pub mod scan;
pub mod schedule;
pub mod sort;
pub mod spill;

pub use agg::{AggFunc, HashAggregate};
pub use expr::{Predicate, ScanFilter};
pub use extsort::ExternalSorter;
pub use filter::{Filter, Project};
pub use join::{
    BuildRef, HashJoin, IndexNestedLoopJoin, JoinBuildPartial, JoinBuildTable, JoinType, MergeJoin,
    NestedLoopJoin, BUILD_PARTITIONS,
};
pub use operator::{collect_batches, collect_rows, collect_rows_volcano, BoxedOperator, Operator};
pub use parallel::{
    multi_query_makespan_ns, run_pipeline, run_pipeline_traced, BuildSpec, ParallelPipeline,
    ParallelSource, ScalingLedger, SinkSpec, StageSpec,
};
pub use scan::{FullTableScan, IndexScan, SortScan};
pub use schedule::{
    default_claim_morsels, default_query_timeout_ms, QueryHandle, QueryOutput, Scheduler,
};
pub use sort::Sort;
pub use spill::{
    charge_spill_io, mem_budget_bytes, spill_io_ns, spill_partitions, spill_write, SpillFile,
};

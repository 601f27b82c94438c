//! The `Database` facade: load tables, build indexes, run measured
//! queries.
//!
//! `run` follows the paper's cold-run methodology (Section VI-A): the
//! buffer pool is flushed before each query and the virtual clock / I/O
//! counters are snapshotted around execution, yielding per-query
//! [`RunStats`] — execution time split into CPU and I/O wait (Fig. 4),
//! I/O requests and bytes moved (Table II).
//!
//! Queries execute through the columnar pipeline: `run_batches` /
//! `run_operator_batches` drain the operator tree with
//! [`collect_batches`], which requests [`smooth_types::ColumnBatch`]es
//! of [`DEFAULT_BATCH_SIZE`] rows per virtual call rather than one tuple
//! at a time, and the
//! result stays columnar — text columns keep their zero-copy views into
//! pinned heap pages. `Row`s materialize only when a caller crosses the
//! user-facing boundary ([`BatchResult::into_rows`], or the
//! row-carrying [`Database::run`] / [`QueryResult`] wrappers).
//!
//! With more than one worker configured (`SMOOTH_WORKERS` /
//! [`Database::with_workers`], default = available cores), `run`
//! decomposes the plan via [`Database::parallel_pipeline`] and submits
//! it to the database's **persistent** worker pool
//! ([`smooth_executor::Scheduler`]) — same rows, byte for byte, and
//! (when the query runs alone) the same virtual clock/I-O totals, with
//! per-worker stages doing the CPU-heavy work in parallel.
//!
//! The pool is engine-global: concurrent [`Session`]s (cheap handles
//! from [`Database::session`]) share it, along with the buffer pool,
//! disk-arm tracker and virtual clock. At most
//! [`Database::max_queries`] queries run concurrently
//! (`SMOOTH_MAX_QUERIES`, default 4); submissions beyond the cap queue
//! FIFO. Every [`QueryResult`] carries per-query
//! [`ScanStatistics`] — tuple flow, pages/bytes read, buffer hits,
//! source-lock wait — attributed exactly to that query even under
//! concurrency (`RunStats`' clock/I-O *deltas*, by contrast, read the
//! shared engine counters and are only meaningful single-session).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use smooth_core::{SmoothScan, SmoothScanConfig, SwitchScan};
use smooth_executor::scan::FULL_SCAN_READAHEAD;
use smooth_executor::sort::SortKey;
use smooth_executor::{
    collect_batches, BoxedOperator, BuildSpec, Filter, FullTableScan, HashAggregate, HashJoin,
    IndexNestedLoopJoin, IndexScan, MergeJoin, NestedLoopJoin, Operator, ParallelPipeline,
    ParallelSource, Predicate, Project, QueryHandle, Scheduler, SinkSpec, Sort, SortScan,
    StageSpec,
};
use smooth_stats::StatsQuality;
use smooth_storage::{
    tap_mark, ClockSnapshot, FaultConfig, HeapLoader, IoStatsDelta, ScanStatistics, Storage,
    StorageConfig,
};
use smooth_types::{ColumnBatch, Error, Result, Row, Schema, DEFAULT_BATCH_SIZE};

use crate::catalog::{Catalog, TableEntry};
use crate::optimizer::{AccessPathKind, Optimizer};
use crate::plan::{AccessPathChoice, JoinSpec, JoinStrategy, LogicalPlan, ScanSpec};

/// Per-query measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Rows returned.
    pub rows: u64,
    /// Virtual clock delta (CPU + I/O wait).
    pub clock: ClockSnapshot,
    /// I/O counter deltas.
    pub io: IoStatsDelta,
}

impl RunStats {
    /// Execution time in virtual seconds.
    pub fn secs(&self) -> f64 {
        self.clock.total_secs()
    }
}

/// A query's rows plus its measurements.
#[derive(Debug)]
pub struct QueryResult {
    /// The result rows.
    pub rows: Vec<Row>,
    /// Engine-counter deltas around the run (clock, I/O). Meaningful
    /// when the query ran alone; under concurrent sessions they include
    /// whatever else the engine did in the window.
    pub stats: RunStats,
    /// Per-query scan statistics, attributed exactly to this query even
    /// under concurrent sessions (`rows_total` is stamped from catalog
    /// cardinalities of the plan's base tables).
    pub scan: ScanStatistics,
}

/// A query's *columnar* result plus its measurements — the
/// late-materialization twin of [`QueryResult`]. Pipeline-shaped output
/// (scans, filters, projections, joins) arrives as [`ColumnBatch`]es in
/// serial morsel order; aggregate/sort sinks, which fold to rows by
/// nature, arrive in `rows`. Exactly one of the two is non-empty for a
/// non-empty result. Callers that want `Row`s call
/// [`BatchResult::into_rows`] (or use [`Database::run`], which does it
/// for them) — that conversion is the only place result tuples
/// materialize.
#[derive(Debug)]
pub struct BatchResult {
    /// Columnar result batches, in serial morsel order.
    pub batches: Vec<ColumnBatch>,
    /// Row results from aggregate / sort sinks.
    pub rows: Vec<Row>,
    /// Engine-counter deltas around the run (see [`QueryResult::stats`]).
    pub stats: RunStats,
    /// Per-query scan statistics (see [`QueryResult::scan`]).
    pub scan: ScanStatistics,
}

impl BatchResult {
    /// Total result rows across batches and folded rows.
    pub fn len(&self) -> usize {
        self.batches.iter().map(ColumnBatch::len).sum::<usize>() + self.rows.len()
    }

    /// True when the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize every result tuple as a [`Row`] — the user-facing
    /// boundary where zero-copy text views become owned strings.
    pub fn into_rows(self) -> Vec<Row> {
        let mut rows: Vec<Row> =
            self.batches.into_iter().flat_map(ColumnBatch::into_rows).collect();
        let mut tail = self.rows;
        rows.append(&mut tail);
        rows
    }

    /// Materialize into the row-carrying [`QueryResult`].
    pub fn into_result(self) -> QueryResult {
        let (stats, scan) = (self.stats, self.scan);
        QueryResult { rows: self.into_rows(), stats, scan }
    }
}

/// Worker-pool width used by [`Database::run`] when none is set on the
/// instance: the `SMOOTH_WORKERS` environment variable (minimum 1, read
/// **once per process** and latched), else the
/// number of available cores.
pub fn default_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::env::var("SMOOTH_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map(|n| n.clamp(1, 1024))
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    })
}

/// Per-operator memory budget used when none is set on the instance:
/// the process-wide `SMOOTH_MEM_BYTES` knob
/// ([`smooth_executor::mem_budget_bytes`]); `0` = unlimited. Each
/// blocking operator instance (hash-join build, sort) of an active
/// query gets this budget and spills to charged overflow files beyond
/// it — see `docs/larger_than_memory.md`.
pub fn default_mem_bytes() -> usize {
    smooth_executor::mem_budget_bytes()
}

/// Concurrent-query admission cap used when none is set on the
/// instance: the `SMOOTH_MAX_QUERIES` environment variable (clamped to
/// 1..=1024, read **once per process** and latched), else 4.
pub fn default_max_queries() -> usize {
    static MAX_QUERIES: OnceLock<usize> = OnceLock::new();
    *MAX_QUERIES.get_or_init(|| {
        std::env::var("SMOOTH_MAX_QUERIES")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map(|n| n.clamp(1, 1024))
            .unwrap_or(4)
    })
}

/// A peeled hash-join build side: its morsel source, the per-worker
/// stages it runs (filters, projections, nested probes), its output
/// schema, and its slot in the serial open cascade (see
/// `Database::peel_build`).
struct PeeledBuild {
    source: ParallelSource,
    stages: Vec<StageSpec>,
    schema: Schema,
    mem_bytes: usize,
    open_at: usize,
    open_order: usize,
}

/// An engine instance: storage manager + catalog + (lazily) the
/// persistent worker pool concurrent sessions share.
pub struct Database {
    storage: Storage,
    catalog: Catalog,
    workers: Option<usize>,
    max_queries: Option<usize>,
    mem_bytes: Option<usize>,
    timeout_ms: Option<u64>,
    claim_morsels: Option<usize>,
    /// The engine's worker pool, built on first parallel run and keyed
    /// by the (workers, max_queries) knobs so knob changes rebuild it.
    scheduler: Mutex<Option<(usize, usize, Arc<Scheduler>)>>,
}

impl Database {
    /// A database over the given storage configuration.
    pub fn new(cfg: StorageConfig) -> Self {
        Database {
            storage: Storage::new(cfg),
            catalog: Catalog::new(),
            workers: None,
            max_queries: None,
            mem_bytes: None,
            timeout_ms: None,
            claim_morsels: None,
            scheduler: Mutex::new(None),
        }
    }

    /// Builder: fix the worker-pool width for [`Database::run`]
    /// (overrides `SMOOTH_WORKERS` / the core count). `1` forces the
    /// single-threaded columnar driver.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.set_workers(workers);
        self
    }

    /// Fix the worker-pool width (see [`Database::with_workers`]).
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = Some(workers.max(1));
    }

    /// Worker-pool width `run` will use.
    pub fn workers(&self) -> usize {
        self.workers.unwrap_or_else(default_workers)
    }

    /// Builder: fix the concurrent-query admission cap (overrides
    /// `SMOOTH_MAX_QUERIES`). Submissions beyond the cap queue FIFO.
    pub fn with_max_queries(mut self, max_queries: usize) -> Self {
        self.set_max_queries(max_queries);
        self
    }

    /// Fix the admission cap (see [`Database::with_max_queries`]).
    pub fn set_max_queries(&mut self, max_queries: usize) {
        self.max_queries = Some(max_queries.max(1));
    }

    /// Concurrent queries the shared worker pool admits at once.
    pub fn max_queries(&self) -> usize {
        self.max_queries.unwrap_or_else(default_max_queries)
    }

    /// Builder: fix the per-operator memory budget in bytes (overrides
    /// `SMOOTH_MEM_BYTES`; 0 = unlimited). Each blocking operator of a
    /// query — hash-join build, sort — spills to charged overflow files
    /// beyond it.
    pub fn with_mem_bytes(mut self, mem_bytes: usize) -> Self {
        self.set_mem_bytes(mem_bytes);
        self
    }

    /// Fix the per-operator memory budget (see
    /// [`Database::with_mem_bytes`]).
    pub fn set_mem_bytes(&mut self, mem_bytes: usize) {
        self.mem_bytes = Some(mem_bytes);
    }

    /// Per-operator memory budget plans will run under (0 = unlimited).
    pub fn mem_bytes(&self) -> usize {
        self.mem_bytes.unwrap_or_else(default_mem_bytes)
    }

    /// Builder: fix the per-query timeout in **virtual-clock**
    /// milliseconds (overrides `SMOOTH_QUERY_TIMEOUT_MS`; 0 disables).
    /// A query whose modeled CPU + I/O time crosses the deadline fails
    /// with [`Error::Cancelled`] at its next morsel boundary, releasing
    /// everything it held; other sessions are untouched.
    pub fn with_query_timeout_ms(mut self, ms: u64) -> Self {
        self.set_query_timeout_ms(ms);
        self
    }

    /// Fix the per-query timeout (see
    /// [`Database::with_query_timeout_ms`]).
    pub fn set_query_timeout_ms(&mut self, ms: u64) {
        self.timeout_ms = Some(ms);
        // The pool may already exist: the knob is a live atomic on the
        // scheduler, so apply it there too rather than forcing a
        // rebuild (which would tear down the worker threads).
        let slot = self.scheduler.lock().unwrap_or_else(|p| p.into_inner());
        if let Some((_, _, s)) = slot.as_ref() {
            s.set_timeout_ms(ms);
        }
    }

    /// Per-query virtual-clock timeout in milliseconds (0 = none).
    pub fn query_timeout_ms(&self) -> u64 {
        self.timeout_ms.unwrap_or_else(smooth_executor::default_query_timeout_ms)
    }

    /// Builder: fix the worker pool's morsels-per-claim chunk size
    /// (overrides `SMOOTH_CLAIM_MORSELS`; 0 = guided by remaining
    /// work). Larger chunks amortize source-lock traffic and feed the
    /// per-worker stealing queues; 1 reproduces the one-at-a-time
    /// claims of the pre-stealing scheduler.
    pub fn with_claim_morsels(mut self, n: usize) -> Self {
        self.set_claim_morsels(n);
        self
    }

    /// Fix the morsels-per-claim chunk size (see
    /// [`Database::with_claim_morsels`]).
    pub fn set_claim_morsels(&mut self, n: usize) {
        self.claim_morsels = Some(n);
        // The pool may already exist: the knob is a live atomic on the
        // scheduler, so apply it there too rather than forcing a
        // rebuild (which would tear down the worker threads).
        let slot = self.scheduler.lock().unwrap_or_else(|p| p.into_inner());
        if let Some((_, _, s)) = slot.as_ref() {
            s.set_claim_morsels(n);
        }
    }

    /// Morsels per source claim (0 = guided).
    pub fn claim_morsels(&self) -> usize {
        self.claim_morsels.unwrap_or_else(smooth_executor::default_claim_morsels)
    }

    /// Builder: install a deterministic fault-injection configuration
    /// on this database's storage (overrides `SMOOTH_FAULTS`; see
    /// `docs/fault_model.md`). Injected faults are a pure function of
    /// the seed and the I/O's coordinates, so runs replay exactly.
    pub fn with_faults(self, cfg: FaultConfig) -> Self {
        self.set_faults(Some(cfg));
        self
    }

    /// Install (or, with `None`, remove) the fault-injection
    /// configuration (see [`Database::with_faults`]).
    pub fn set_faults(&self, cfg: Option<FaultConfig>) {
        self.storage.set_faults(cfg);
    }

    /// A session handle onto this shared database. Sessions are cheap,
    /// carry a process-unique id, and any number may run queries
    /// concurrently: result rows are always exactly the rows a solo run
    /// would return, while clock/I-O deltas interleave (one disk arm,
    /// one buffer pool) — use [`QueryResult::scan`] for per-query
    /// attribution.
    pub fn session(&self) -> Session<'_> {
        static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);
        Session { db: self, id: NEXT_SESSION.fetch_add(1, Ordering::Relaxed) }
    }

    /// The persistent worker pool for the current knob settings,
    /// building (or rebuilding, after a knob change) it on demand.
    fn scheduler(&self) -> Arc<Scheduler> {
        let workers = self.workers();
        let max_queries = self.max_queries();
        let mut slot = self.scheduler.lock().unwrap_or_else(|p| p.into_inner());
        match slot.as_ref() {
            Some((w, m, s)) if *w == workers && *m == max_queries => Arc::clone(s),
            _ => {
                let s = Arc::new(Scheduler::new(workers, max_queries));
                if let Some(ms) = self.timeout_ms {
                    s.set_timeout_ms(ms);
                }
                if let Some(n) = self.claim_morsels {
                    s.set_claim_morsels(n);
                }
                *slot = Some((workers, max_queries, Arc::clone(&s)));
                s
            }
        }
    }

    /// The shared storage handle.
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// The catalog (immutable).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Load a table from a row iterator (setup work, not charged).
    pub fn load_table(
        &mut self,
        name: &str,
        schema: Schema,
        rows: impl IntoIterator<Item = Row>,
    ) -> Result<()> {
        let mut loader = HeapLoader::new_mem(name, schema);
        for row in rows {
            loader.push(&row)?;
        }
        self.catalog.register(Arc::new(loader.finish()?))
    }

    /// Build a secondary index.
    pub fn create_index(&mut self, table: &str, column: usize, name: &str) -> Result<()> {
        self.catalog.create_index(table, column, name)
    }

    /// Set the staleness model for a table's statistics.
    pub fn set_stats_quality(&mut self, table: &str, quality: StatsQuality) -> Result<()> {
        self.catalog.set_stats_quality(table, quality)
    }

    /// Look up a table entry.
    pub fn table(&self, name: &str) -> Result<&TableEntry> {
        self.catalog.get(name)
    }

    /// Build the physical operator tree for a plan.
    pub fn build(&self, plan: &LogicalPlan) -> Result<BoxedOperator> {
        match plan {
            LogicalPlan::Scan(spec) => self.build_scan(spec),
            LogicalPlan::Join(spec) => {
                let strategy = self.resolve_join_strategy(spec);
                let left = self.build(&spec.left)?;
                match strategy {
                    JoinStrategy::IndexNestedLoop => {
                        let LogicalPlan::Scan(rspec) = &spec.right else {
                            return Err(Error::plan(
                                "index-nested-loop join needs a base-table inner",
                            ));
                        };
                        let entry = self.catalog.get(&rspec.table)?;
                        let idx = entry.index_on(spec.right_col).ok_or_else(|| {
                            Error::plan(format!(
                                "no index on {}.{} for INLJ",
                                rspec.table, spec.right_col
                            ))
                        })?;
                        Ok(Box::new(IndexNestedLoopJoin::new(
                            left,
                            spec.left_col,
                            Arc::clone(&entry.heap),
                            Arc::clone(&idx.index),
                            rspec.predicate.clone(),
                            spec.ty,
                            self.storage.clone(),
                        )))
                    }
                    JoinStrategy::Hash | JoinStrategy::Auto => {
                        let right = self.build(&spec.right)?;
                        Ok(Box::new(
                            HashJoin::new(
                                left,
                                right,
                                spec.left_col,
                                spec.right_col,
                                spec.ty,
                                self.storage.clone(),
                            )
                            .with_mem_budget(self.mem_bytes()),
                        ))
                    }
                    JoinStrategy::Merge => {
                        // Guarantee the ordering contract by sorting both
                        // inputs on their join keys.
                        let left = Box::new(
                            Sort::new(
                                left,
                                self.storage.clone(),
                                vec![SortKey::asc(spec.left_col)],
                            )
                            .with_mem_budget(self.mem_bytes()),
                        );
                        let right = Box::new(
                            Sort::new(
                                self.build(&spec.right)?,
                                self.storage.clone(),
                                vec![SortKey::asc(spec.right_col)],
                            )
                            .with_mem_budget(self.mem_bytes()),
                        );
                        Ok(Box::new(MergeJoin::new(
                            left,
                            right,
                            spec.left_col,
                            spec.right_col,
                            self.storage.clone(),
                        )))
                    }
                    JoinStrategy::NestedLoop => {
                        let right = self.build(&spec.right)?;
                        // Equi-join predicate over the concatenated row is
                        // not expressible with IntRange on two columns, so
                        // NLJ here materializes and hashes instead — kept
                        // as an explicit fallback for non-equi needs.
                        let _ = &right;
                        Ok(Box::new(NestedLoopJoin::new(
                            left,
                            right,
                            Predicate::True,
                            spec.ty,
                            self.storage.clone(),
                        )))
                    }
                }
            }
            LogicalPlan::Aggregate { input, group_cols, aggs } => {
                let child = self.build(input)?;
                Ok(Box::new(HashAggregate::new(
                    child,
                    group_cols.clone(),
                    aggs.clone(),
                    self.storage.clone(),
                )?))
            }
            LogicalPlan::Sort { input, keys } => {
                let child = self.build(input)?;
                Ok(Box::new(
                    Sort::new(child, self.storage.clone(), keys.clone())
                        .with_mem_budget(self.mem_bytes()),
                ))
            }
            LogicalPlan::Project { input, cols } => {
                let child = self.build(input)?;
                Ok(Box::new(Project::new(child, cols.clone())?))
            }
            LogicalPlan::Filter { input, predicate } => {
                let child = self.build(input)?;
                Ok(Box::new(Filter::new(child, predicate.clone())))
            }
        }
    }

    /// Resolve `Auto` join strategies the way [`Database::build`] would.
    fn resolve_join_strategy(&self, spec: &JoinSpec) -> JoinStrategy {
        match spec.strategy {
            JoinStrategy::Auto => Optimizer::choose_join_strategy(
                &self.catalog,
                &spec.left,
                &spec.right,
                spec.right_col,
                self.storage.device(),
            ),
            other => other,
        }
    }

    /// Resolve an `Auto` access path the way [`Database::build`] would.
    fn resolve_access(&self, entry: &TableEntry, spec: &ScanSpec) -> AccessPathChoice {
        match &spec.access {
            AccessPathChoice::Auto => match Optimizer::choose_access_path(
                entry,
                &spec.predicate,
                spec.ordered,
                self.storage.device(),
            ) {
                AccessPathKind::FullScan => AccessPathChoice::ForceFull,
                AccessPathKind::IndexScan => AccessPathChoice::ForceIndex,
                AccessPathKind::SortScan => AccessPathChoice::ForceSort,
            },
            other => other.clone(),
        }
    }

    fn build_scan(&self, spec: &ScanSpec) -> Result<BoxedOperator> {
        let entry = self.catalog.get(&spec.table)?;
        let heap = Arc::clone(&entry.heap);
        let split = spec.predicate.split_index_range();
        let indexed = split.clone().filter(|(col, _, _, _)| entry.index_on(*col).is_some());
        let choice = self.resolve_access(entry, spec);
        let need_index = |what: &str| {
            indexed.clone().ok_or_else(|| {
                Error::plan(format!("{what} on '{}' needs an indexed range predicate", spec.table))
            })
        };
        let sort_wrap = |op: BoxedOperator| -> Result<BoxedOperator> {
            if spec.ordered {
                let (col, _, _, _) = split
                    .clone()
                    .ok_or_else(|| Error::plan("ordered scan without a range predicate column"))?;
                Ok(Box::new(
                    Sort::new(op, self.storage.clone(), vec![SortKey::asc(col)])
                        .with_mem_budget(self.mem_bytes()),
                ))
            } else {
                Ok(op)
            }
        };
        match choice {
            AccessPathChoice::ForceFull => {
                let op: BoxedOperator = Box::new(FullTableScan::new(
                    heap,
                    self.storage.clone(),
                    spec.predicate.clone(),
                ));
                sort_wrap(op)
            }
            AccessPathChoice::ForceIndex => {
                let (col, lo, hi, residual) = need_index("index scan")?;
                let idx = entry.index_on(col).expect("checked");
                Ok(Box::new(IndexScan::new(
                    heap,
                    Arc::clone(&idx.index),
                    self.storage.clone(),
                    lo,
                    hi,
                    residual,
                )))
            }
            AccessPathChoice::ForceSort => {
                let (col, lo, hi, residual) = need_index("sort scan")?;
                let idx = entry.index_on(col).expect("checked");
                let op: BoxedOperator = Box::new(SortScan::new(
                    heap,
                    Arc::clone(&idx.index),
                    self.storage.clone(),
                    lo,
                    hi,
                    residual,
                ));
                sort_wrap(op)
            }
            AccessPathChoice::Smooth(config) => {
                let (col, lo, hi, residual) = need_index("smooth scan")?;
                let idx = entry.index_on(col).expect("checked");
                let config = config.with_order(config.ordered || spec.ordered);
                Ok(Box::new(SmoothScan::new(
                    heap,
                    Arc::clone(&idx.index),
                    self.storage.clone(),
                    col,
                    lo,
                    hi,
                    residual,
                    config,
                )))
            }
            AccessPathChoice::Switch { estimate } => {
                let (col, lo, hi, residual) = need_index("switch scan")?;
                let idx = entry.index_on(col).expect("checked");
                Ok(Box::new(SwitchScan::new(
                    heap,
                    Arc::clone(&idx.index),
                    self.storage.clone(),
                    col,
                    lo,
                    hi,
                    residual,
                    estimate,
                )))
            }
            AccessPathChoice::Auto => unreachable!("resolved above"),
        }
    }

    /// Build a Smooth Scan directly (experiments that need
    /// [`smooth_core::SmoothScanMetrics`] after the run).
    pub fn build_smooth_scan(
        &self,
        spec: &ScanSpec,
        config: SmoothScanConfig,
    ) -> Result<SmoothScan> {
        let entry = self.catalog.get(&spec.table)?;
        let (col, lo, hi, residual) = spec
            .predicate
            .split_index_range()
            .filter(|(col, _, _, _)| entry.index_on(*col).is_some())
            .ok_or_else(|| Error::plan("smooth scan needs an indexed range predicate"))?;
        let idx = entry.index_on(col).expect("checked");
        Ok(SmoothScan::new(
            Arc::clone(&entry.heap),
            Arc::clone(&idx.index),
            self.storage.clone(),
            col,
            lo,
            hi,
            residual,
            config.with_order(config.ordered || spec.ordered),
        ))
    }

    /// EXPLAIN: the physical operator tree the plan would run as.
    pub fn explain(&self, plan: &LogicalPlan) -> Result<String> {
        Ok(self.build(plan)?.label())
    }

    /// Decompose `plan` into a [`ParallelPipeline`] for the morsel-driven
    /// worker pool, or `None` when nothing in the plan would fan out
    /// (in which case `run` stays on the single-threaded driver).
    ///
    /// The decomposition peels parallel-safe nodes off the top — one
    /// `Aggregate` (the sink), then `Filter` / `Project` / hash-strategy
    /// `Join` probes (per-worker stages, build sides built and drained
    /// serially) — until it reaches the morsel source. An unordered full
    /// table scan becomes the *partitioned* heap source (workers decode
    /// page runs in parallel); any other subtree (Smooth / Switch /
    /// index / sort scans, non-hash joins, nested aggregates) runs
    /// unchanged as a serial shared source, which is exactly how the
    /// adaptive scans' morph decisions stay centralized while the stages
    /// above them still parallelize. Plan validation errors (missing
    /// tables, bad ordinals) surface here identically to [`Database::build`].
    pub fn parallel_pipeline(&self, plan: &LogicalPlan) -> Result<Option<ParallelPipeline>> {
        if let LogicalPlan::Scan(spec) = plan {
            if let Some(pipeline) = self.ordered_scan_pipeline(spec)? {
                return Ok(Some(pipeline));
            }
        }
        let (sink_spec, inner) = match plan {
            LogicalPlan::Aggregate { input, group_cols, aggs } => {
                (Some((group_cols.clone(), aggs.clone())), input.as_ref())
            }
            other => (None, other),
        };
        let (source, stages, builds, schema) = self.peel(inner)?;
        let sink = match sink_spec {
            Some((group_cols, aggs)) => {
                // Validate exactly like HashAggregate::new.
                smooth_executor::agg::output_schema(&schema, &group_cols, &aggs)?;
                let merge_exact = aggs.iter().all(|a| a.merge_exact(&schema));
                SinkSpec::Aggregate { group_cols, aggs, merge_exact }
            }
            None => SinkSpec::Collect,
        };
        if stages.is_empty()
            && builds.is_empty()
            && matches!(source, ParallelSource::Shared { .. })
            && matches!(sink, SinkSpec::Collect)
        {
            // Nothing would fan out: the whole plan is the serial section.
            return Ok(None);
        }
        Ok(Some(ParallelPipeline {
            source,
            builds,
            stages,
            sink,
            storage: self.storage.clone(),
            morsel_rows: DEFAULT_BATCH_SIZE,
        }))
    }

    /// Validate a projection against `schema` exactly like `Project::new`
    /// and return the projected schema (shared by the probe-side and
    /// build-side peels).
    fn project_schema(schema: &Schema, cols: &[usize]) -> Result<Schema> {
        let kept = cols
            .iter()
            .map(|&c| {
                if c >= schema.len() {
                    Err(Error::schema(format!("project column {c} out of range")))
                } else {
                    Ok(schema.column(c).clone())
                }
            })
            .collect::<Result<Vec<_>>>()?;
        Schema::new(kept)
    }

    /// Parallelize an `ordered:` full table scan: the partitioned heap
    /// source decodes page runs across workers, rows buffer at the sink
    /// in morsel (= heap) order, and completion runs the same charged
    /// stable sort pass the serial `Sort`-over-`FullTableScan` plan
    /// runs — so rows *and* charges are byte-identical to the serial
    /// driver. Other ordered access paths (sort scan, smooth scan)
    /// order at the source and keep their serial shared-source path.
    fn ordered_scan_pipeline(&self, spec: &ScanSpec) -> Result<Option<ParallelPipeline>> {
        if !spec.ordered {
            return Ok(None);
        }
        let entry = self.catalog.get(&spec.table)?;
        if !matches!(self.resolve_access(entry, spec), AccessPathChoice::ForceFull) {
            return Ok(None);
        }
        // Same validation — and error — as the serial plan's sort wrap.
        let (col, _, _, _) = spec
            .predicate
            .split_index_range()
            .ok_or_else(|| Error::plan("ordered scan without a range predicate column"))?;
        Ok(Some(ParallelPipeline {
            source: ParallelSource::Heap {
                heap: Arc::clone(&entry.heap),
                predicate: spec.predicate.clone(),
                readahead: FULL_SCAN_READAHEAD,
            },
            builds: Vec::new(),
            stages: Vec::new(),
            sink: SinkSpec::Sort { keys: vec![SortKey::asc(col)], mem_bytes: self.mem_bytes() },
            storage: self.storage.clone(),
            morsel_rows: DEFAULT_BATCH_SIZE,
        }))
    }

    /// Decompose one scan into a morsel source: an unordered full table
    /// scan becomes the *partitioned* heap source (workers decode page
    /// runs in parallel), anything else runs whole as a serial shared
    /// source. Shared by the probe-side and build-side peels so both
    /// resolve access paths identically.
    fn scan_source(&self, spec: &ScanSpec) -> Result<(ParallelSource, Schema)> {
        let entry = self.catalog.get(&spec.table)?;
        if matches!(self.resolve_access(entry, spec), AccessPathChoice::ForceFull) && !spec.ordered
        {
            let heap = Arc::clone(&entry.heap);
            let schema = heap.schema().clone();
            return Ok((
                ParallelSource::Heap {
                    heap,
                    predicate: spec.predicate.clone(),
                    readahead: FULL_SCAN_READAHEAD,
                },
                schema,
            ));
        }
        let op = self.build_scan(spec)?;
        let schema = op.schema().clone();
        Ok((ParallelSource::Shared { op }, schema))
    }

    /// Bottom-up pipeline peel: returns the source, the per-worker
    /// stages (source side first), the serial hash-join builds
    /// (bottom-up), and the subtree's output schema.
    #[allow(clippy::type_complexity)]
    fn peel(
        &self,
        plan: &LogicalPlan,
    ) -> Result<(ParallelSource, Vec<StageSpec>, Vec<BuildSpec>, Schema)> {
        let mut builds = Vec::new();
        let mut open_seq = 0;
        let (source, stages, schema) = self.peel_into(plan, &mut builds, &mut open_seq)?;
        Ok((source, stages, builds, schema))
    }

    /// The probe-side peel. `builds` accumulates every hash-join build
    /// in completion order (nested builds land before the builds that
    /// probe them); `open_seq` numbers build-source opens in the serial
    /// cascade's open order across the whole tree.
    fn peel_into(
        &self,
        plan: &LogicalPlan,
        builds: &mut Vec<BuildSpec>,
        open_seq: &mut usize,
    ) -> Result<(ParallelSource, Vec<StageSpec>, Schema)> {
        match plan {
            LogicalPlan::Filter { input, predicate } => {
                let (source, mut stages, schema) = self.peel_into(input, builds, open_seq)?;
                stages.push(StageSpec::Filter(predicate.clone()));
                Ok((source, stages, schema))
            }
            LogicalPlan::Project { input, cols } => {
                let (source, mut stages, schema) = self.peel_into(input, builds, open_seq)?;
                let schema = Self::project_schema(&schema, cols)?;
                stages.push(StageSpec::Project(cols.clone()));
                Ok((source, stages, schema))
            }
            LogicalPlan::Join(spec) if self.resolve_join_strategy(spec) == JoinStrategy::Hash => {
                let (source, mut stages, left_schema) =
                    self.peel_into(&spec.left, builds, open_seq)?;
                // The build is a pipeline breaker with a pipeline of its
                // own: decompose the right subtree into a build-side
                // source + stages so the partitioned parallel build can
                // fan its decode/insert CPU out too.
                let build = self.peel_build(&spec.right, builds, open_seq)?;
                let schema = Self::push_build(spec, build, &left_schema, &mut stages, builds)?;
                Ok((source, stages, schema))
            }
            LogicalPlan::Scan(spec) => {
                let (source, schema) = self.scan_source(spec)?;
                Ok((source, Vec::new(), schema))
            }
            // Pipeline breakers that stay serial (sorts, non-hash joins,
            // nested aggregates): the whole subtree is the shared source.
            other => {
                let op = self.build(other)?;
                let schema = op.schema().clone();
                Ok((ParallelSource::Shared { op }, Vec::new(), schema))
            }
        }
    }

    /// Validate one hash join against its peeled build side, append the
    /// probe stage, and push the [`BuildSpec`]. Shared by the probe-side
    /// and build-side peels so bushy trees compose the same way.
    fn push_build(
        spec: &JoinSpec,
        build: PeeledBuild,
        left_schema: &Schema,
        stages: &mut Vec<StageSpec>,
        builds: &mut Vec<BuildSpec>,
    ) -> Result<Schema> {
        if spec.right_col >= build.schema.len() {
            return Err(Error::plan(format!(
                "hash-join build key column {} out of range",
                spec.right_col
            )));
        }
        let schema = match spec.ty {
            smooth_executor::JoinType::Inner => left_schema.join(&build.schema),
            smooth_executor::JoinType::LeftSemi => left_schema.clone(),
        };
        stages.push(StageSpec::Probe(builds.len()));
        builds.push(BuildSpec {
            source: build.source,
            stages: build.stages,
            right_col: spec.right_col,
            left_col: spec.left_col,
            ty: spec.ty,
            partitions: smooth_executor::BUILD_PARTITIONS,
            mem_bytes: build.mem_bytes,
            open_at: build.open_at,
            open_order: build.open_order,
        });
        Ok(schema)
    }

    /// Decompose a hash-join *build side* into its own morsel source
    /// plus per-worker stages. Filters and projections peel into
    /// stages; a nested hash join peels recursively — its own build
    /// lands in `builds` first and the outer build-side pipeline probes
    /// it through a [`StageSpec::Probe`] stage, so bushy trees (hash
    /// joins on the build side of hash joins) parallelize end to end.
    /// Anything deeper (a non-hash join, an aggregate, a sort) runs
    /// unchanged as a serial shared source. An unordered full scan
    /// becomes the partitioned heap source, so the build input's decode
    /// fans out exactly like the probe side's.
    ///
    /// `open_at` captures how many builds must complete before this
    /// source opens: the number of builds already accumulated when the
    /// source is reached, which preserves the left-deep open cascade
    /// (build `i + 1` opens when build `i` drains) and lets bushy
    /// sources open at admission. `open_order` numbers the opens.
    fn peel_build(
        &self,
        plan: &LogicalPlan,
        builds: &mut Vec<BuildSpec>,
        open_seq: &mut usize,
    ) -> Result<PeeledBuild> {
        match plan {
            LogicalPlan::Filter { input, predicate } => {
                let mut build = self.peel_build(input, builds, open_seq)?;
                build.stages.push(StageSpec::Filter(predicate.clone()));
                Ok(build)
            }
            LogicalPlan::Project { input, cols } => {
                let mut build = self.peel_build(input, builds, open_seq)?;
                build.schema = Self::project_schema(&build.schema, cols)?;
                build.stages.push(StageSpec::Project(cols.clone()));
                Ok(build)
            }
            LogicalPlan::Join(spec) if self.resolve_join_strategy(spec) == JoinStrategy::Hash => {
                // Probe side first: its source is this build's source
                // (and opens before the nested build's, mirroring the
                // serial cascade), then the nested build lands below
                // the outer one in `builds`.
                let mut probe = self.peel_build(&spec.left, builds, open_seq)?;
                let inner = self.peel_build(&spec.right, builds, open_seq)?;
                let left_schema = probe.schema.clone();
                probe.schema =
                    Self::push_build(spec, inner, &left_schema, &mut probe.stages, builds)?;
                Ok(probe)
            }
            LogicalPlan::Scan(spec) => {
                let (source, schema) = self.scan_source(spec)?;
                Ok(self.peeled_build(source, schema, builds, open_seq))
            }
            other => {
                let op = self.build(other)?;
                let schema = op.schema().clone();
                Ok(self.peeled_build(ParallelSource::Shared { op }, schema, builds, open_seq))
            }
        }
    }

    /// Stamp a build-side source with its open tranche and order.
    fn peeled_build(
        &self,
        source: ParallelSource,
        schema: Schema,
        builds: &[BuildSpec],
        open_seq: &mut usize,
    ) -> PeeledBuild {
        let open_order = *open_seq;
        *open_seq += 1;
        PeeledBuild {
            source,
            stages: Vec::new(),
            schema,
            mem_bytes: self.mem_bytes(),
            open_at: builds.len(),
            open_order,
        }
    }

    /// Total catalog cardinality of the plan's base tables (the
    /// denominator behind "processed X of Y rows" progress reporting).
    /// Tables missing from the catalog count 0 — the run itself
    /// surfaces the error.
    fn plan_rows_total(&self, plan: &LogicalPlan) -> u64 {
        match plan {
            LogicalPlan::Scan(spec) => self
                .catalog
                .get(&spec.table)
                .map(|entry| entry.stats.honest().row_count)
                .unwrap_or(0),
            LogicalPlan::Join(spec) => {
                self.plan_rows_total(&spec.left) + self.plan_rows_total(&spec.right)
            }
            LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Filter { input, .. } => self.plan_rows_total(input),
        }
    }

    /// Cold-run a plan: flush the buffer pool, execute to completion, and
    /// report rows plus clock/I-O deltas and per-query scan statistics.
    ///
    /// With more than one worker configured (`SMOOTH_WORKERS` /
    /// [`Database::with_workers`]) and a plan with parallelizable work,
    /// execution goes through the engine's persistent worker pool — the
    /// rows are identical to the single-threaded columnar driver either
    /// way, and so are the virtual clock/I-O totals when the query runs
    /// alone.
    pub fn run(&self, plan: &LogicalPlan) -> Result<QueryResult> {
        Ok(self.run_batches(plan)?.into_result())
    }

    /// Cold-run a plan and keep the result *columnar*: the
    /// late-materialization entry point. Same measurement protocol as
    /// [`Database::run`] (which is a thin `into_result()` over this),
    /// but pipeline-shaped results stay as [`ColumnBatch`]es — text
    /// columns keep their zero-copy views — until the caller decides
    /// whether rows are needed at all.
    pub fn run_batches(&self, plan: &LogicalPlan) -> Result<BatchResult> {
        let mut result = if self.workers() > 1 {
            match self.parallel_pipeline(plan)? {
                Some(pipeline) => self.run_parallel_batches(pipeline)?,
                None => {
                    let mut op = self.build(plan)?;
                    self.run_operator_batches(op.as_mut())?
                }
            }
        } else {
            let mut op = self.build(plan)?;
            self.run_operator_batches(op.as_mut())?
        };
        result.scan.rows_total = self.plan_rows_total(plan);
        Ok(result)
    }

    /// Cold-run an already-decomposed pipeline on the database's
    /// persistent worker pool (`scan.rows_total` stays 0 here — only
    /// [`Database::run`] sees the plan).
    pub fn run_parallel(&self, pipeline: ParallelPipeline) -> Result<QueryResult> {
        Ok(self.run_parallel_batches(pipeline)?.into_result())
    }

    /// Columnar twin of [`Database::run_parallel`]: Collect-sink output
    /// arrives as the scheduler's ordered batches, untouched.
    pub fn run_parallel_batches(&self, pipeline: ParallelPipeline) -> Result<BatchResult> {
        self.storage.flush_pool();
        let clock0 = self.storage.clock().snapshot();
        let io0 = self.storage.io_snapshot();
        let scheduler = self.scheduler();
        let out = scheduler.submit(pipeline)?.wait()?;
        let stats = RunStats {
            rows: out.len() as u64,
            clock: self.storage.clock().snapshot().since(&clock0),
            io: self.storage.io_snapshot().since(&io0),
        };
        Ok(BatchResult { batches: out.batches, rows: out.rows, stats, scan: out.stats })
    }

    /// Cold-run an already-built operator (used when the caller needs to
    /// keep the operator around for its metrics). Drives the columnar
    /// protocol end to end; scan statistics come from this thread's
    /// accounting tap bracketing the run.
    pub fn run_operator(&self, op: &mut dyn Operator) -> Result<QueryResult> {
        Ok(self.run_operator_batches(op)?.into_result())
    }

    /// Columnar twin of [`Database::run_operator`]: drains via
    /// [`collect_batches`], so no `Row` materializes anywhere in the
    /// serial path.
    pub fn run_operator_batches(&self, op: &mut dyn Operator) -> Result<BatchResult> {
        self.storage.flush_pool();
        let clock0 = self.storage.clock().snapshot();
        let io0 = self.storage.io_snapshot();
        let mark = tap_mark();
        let batches = collect_batches(op)?;
        let scan = mark.delta();
        let stats = RunStats {
            rows: batches.iter().map(ColumnBatch::len).sum::<usize>() as u64,
            clock: self.storage.clock().snapshot().since(&clock0),
            io: self.storage.io_snapshot().since(&io0),
        };
        Ok(BatchResult { batches, rows: Vec::new(), stats, scan })
    }

    /// Run with a filter applied on top (for plans whose predicate cannot
    /// push into the scan). Routed through [`Database::run`], so the
    /// filter becomes a per-worker stage under the parallel driver.
    pub fn run_filtered(&self, plan: &LogicalPlan, pred: Predicate) -> Result<QueryResult> {
        self.run(&plan.clone().filter(pred))
    }

    /// Submit a plan to the shared worker pool **without blocking**,
    /// returning a [`QueryHandle`] that can be waited on or cancelled
    /// ([`QueryHandle::cancel`]). Plans with nothing to fan out run as
    /// a serial shared source on the pool, so every submitted query —
    /// parallel or not — is cancellable and subject to the per-query
    /// timeout. Unlike [`Database::run`] this neither flushes the
    /// buffer pool nor snapshots the engine counters: the handle's
    /// [`smooth_executor::QueryOutput`] carries per-query
    /// [`ScanStatistics`] instead (with `rows_total` left 0 — only
    /// `run` stamps it).
    pub fn submit(&self, plan: &LogicalPlan) -> Result<QueryHandle> {
        let pipeline = match self.parallel_pipeline(plan)? {
            Some(pipeline) => pipeline,
            None => {
                // Serial section only: wrap the whole operator tree as
                // the shared morsel source with a collect sink, which
                // the pool drains one morsel at a time — checking the
                // cancel flag and deadline at every boundary.
                let op = self.build(plan)?;
                ParallelPipeline {
                    source: ParallelSource::Shared { op },
                    builds: Vec::new(),
                    stages: Vec::new(),
                    sink: SinkSpec::Collect,
                    storage: self.storage.clone(),
                    morsel_rows: DEFAULT_BATCH_SIZE,
                }
            }
        };
        self.scheduler().submit(pipeline)
    }
}

/// One client's handle onto a shared [`Database`]: queries submitted
/// through concurrent sessions interleave on the engine's one worker
/// pool, buffer pool and disk arm (admission-capped at
/// [`Database::max_queries`]), yet each returns exactly the rows a solo
/// run would — only the accounting interleaves. Obtained from
/// [`Database::session`]; cheap enough to create per client or per
/// request.
#[derive(Clone, Copy)]
pub struct Session<'db> {
    db: &'db Database,
    id: u64,
}

impl<'db> Session<'db> {
    /// This session's process-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The shared database this session serves queries against.
    pub fn database(&self) -> &'db Database {
        self.db
    }

    /// Run a plan on the shared engine (see [`Database::run`]).
    pub fn run(&self, plan: &LogicalPlan) -> Result<QueryResult> {
        self.db.run(plan)
    }

    /// Run with a filter applied on top (see [`Database::run_filtered`]).
    pub fn run_filtered(&self, plan: &LogicalPlan, pred: Predicate) -> Result<QueryResult> {
        self.db.run_filtered(plan, pred)
    }

    /// Submit a plan without blocking, returning a cancellable
    /// [`QueryHandle`] (see [`Database::submit`]).
    pub fn submit(&self, plan: &LogicalPlan) -> Result<QueryHandle> {
        self.db.submit(plan)
    }

    /// EXPLAIN a plan (see [`Database::explain`]).
    pub fn explain(&self, plan: &LogicalPlan) -> Result<String> {
        self.db.explain(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_executor::AggFunc;
    use smooth_storage::{CpuCosts, DeviceProfile};
    use smooth_types::{Column, DataType, Value};

    fn db(rows: i64) -> Database {
        let mut db = Database::new(StorageConfig {
            device: DeviceProfile::custom("t", 1, 10),
            cpu: CpuCosts::default(),
            pool_pages: 64,
        });
        let schema = Schema::new(vec![
            Column::new("c0", DataType::Int64),
            Column::new("c1", DataType::Int64),
            Column::new("pad", DataType::Text),
        ])
        .unwrap();
        db.load_table(
            "t",
            schema,
            (0..rows).map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::Int(((i.wrapping_mul(2654435761)) % 1000 + 1000) % 1000),
                    Value::str("x".repeat(40)),
                ])
            }),
        )
        .unwrap();
        db.create_index("t", 1, "t_c1").unwrap();
        db
    }

    fn q(hi: i64, access: AccessPathChoice) -> LogicalPlan {
        LogicalPlan::scan(
            ScanSpec::new("t", Predicate::int_half_open(1, 0, hi)).with_access(access),
        )
    }

    #[test]
    fn all_access_paths_agree() {
        let db = db(3000);
        let reference = db.run(&q(250, AccessPathChoice::ForceFull)).unwrap();
        let mut expected: Vec<i64> = reference.rows.iter().map(|r| r.int(0).unwrap()).collect();
        expected.sort_unstable();
        for access in [
            AccessPathChoice::ForceIndex,
            AccessPathChoice::ForceSort,
            AccessPathChoice::Smooth(SmoothScanConfig::default()),
            AccessPathChoice::Switch { estimate: 100 },
            AccessPathChoice::Auto,
        ] {
            let got = db.run(&q(250, access.clone())).unwrap();
            let mut ids: Vec<i64> = got.rows.iter().map(|r| r.int(0).unwrap()).collect();
            ids.sort_unstable();
            assert_eq!(ids, expected, "{access:?}");
            assert!(got.stats.secs() > 0.0);
            assert!(got.stats.io.pages_read > 0);
        }
    }

    #[test]
    fn ordered_scans_sort_when_needed() {
        let db = db(2000);
        for access in [AccessPathChoice::ForceFull, AccessPathChoice::ForceSort] {
            let plan = LogicalPlan::scan(
                ScanSpec::new("t", Predicate::int_half_open(1, 0, 500))
                    .with_order()
                    .with_access(access.clone()),
            );
            let got = db.run(&plan).unwrap();
            let keys: Vec<i64> = got.rows.iter().map(|r| r.int(1).unwrap()).collect();
            assert!(keys.windows(2).all(|w| w[0] <= w[1]), "{access:?}");
        }
    }

    #[test]
    fn aggregation_over_scan() {
        let db = db(2000);
        let plan = q(100, AccessPathChoice::Auto)
            .aggregate(vec![], vec![AggFunc::CountStar, AggFunc::Min(1), AggFunc::Max(1)]);
        let got = db.run(&plan).unwrap();
        assert_eq!(got.rows.len(), 1);
        let count = got.rows[0].int(0).unwrap();
        assert!(count > 0);
        assert!(got.rows[0].int(2).unwrap() < 100);
    }

    #[test]
    fn join_strategies_agree() {
        let db = db(2000);
        let outer = LogicalPlan::scan(ScanSpec::new("t", Predicate::int_half_open(1, 0, 50)));
        let mk = |strategy| {
            outer.clone().join(
                LogicalPlan::scan(ScanSpec::new("t", Predicate::True)),
                1,
                1,
                smooth_executor::JoinType::Inner,
                strategy,
            )
        };
        let hash = db.run(&mk(JoinStrategy::Hash)).unwrap().rows.len();
        let inlj = db.run(&mk(JoinStrategy::IndexNestedLoop)).unwrap().rows.len();
        let merge = db.run(&mk(JoinStrategy::Merge)).unwrap().rows.len();
        let auto = db.run(&mk(JoinStrategy::Auto)).unwrap().rows.len();
        assert!(hash > 0);
        assert_eq!(hash, inlj);
        assert_eq!(hash, merge);
        assert_eq!(hash, auto);
    }

    #[test]
    fn explain_names_the_operators() {
        let db = db(500);
        let text =
            db.explain(&q(10, AccessPathChoice::Smooth(SmoothScanConfig::default()))).unwrap();
        assert!(text.contains("SmoothScan"), "{text}");
        let text = db.explain(&q(900, AccessPathChoice::Auto)).unwrap();
        assert!(text.contains("FullTableScan"), "{text}");
    }

    #[test]
    fn plan_errors_are_reported() {
        let db = db(500);
        assert!(db.run(&q(10, AccessPathChoice::ForceIndex)).is_ok());
        // Predicate on a non-indexed column cannot be forced to the index.
        let bad = LogicalPlan::scan(
            ScanSpec::new("t", Predicate::int_eq(0, 1)).with_access(AccessPathChoice::ForceIndex),
        );
        assert!(db.run(&bad).is_err());
        let missing = LogicalPlan::scan(ScanSpec::new("nope", Predicate::True));
        assert!(db.run(&missing).is_err());
    }

    /// Serial reference for a plan on `db`: cold-run through the
    /// single-threaded columnar driver regardless of the worker setting.
    fn serial_reference(db: &Database, plan: &LogicalPlan) -> QueryResult {
        let mut op = db.build(plan).unwrap();
        db.run_operator(op.as_mut()).unwrap()
    }

    /// The per-run I/O counters that must match exactly between drivers
    /// (`distinct_pages` is a monotone per-database set, so its *delta*
    /// differs between a first and a repeated run of the same query).
    fn io_key(io: &IoStatsDelta) -> (u64, u64, u64, u64, u64) {
        (io.io_requests, io.pages_read, io.seq_pages, io.rand_pages, io.buffer_hits)
    }

    #[test]
    fn parallel_run_matches_serial_for_every_access_path() {
        let mut db = db(3000);
        for access in [
            AccessPathChoice::ForceFull,
            AccessPathChoice::ForceIndex,
            AccessPathChoice::ForceSort,
            AccessPathChoice::Smooth(SmoothScanConfig::default()),
            AccessPathChoice::Switch { estimate: 100 },
            AccessPathChoice::Auto,
        ] {
            let plan = q(250, access.clone());
            db.set_workers(1);
            let serial = serial_reference(&db, &plan);
            for workers in [2usize, 4, 8] {
                db.set_workers(workers);
                let got = db.run(&plan).unwrap();
                assert_eq!(got.rows, serial.rows, "{access:?} rows at {workers} workers");
                assert_eq!(
                    (got.stats.clock.cpu_ns, got.stats.clock.io_ns),
                    (serial.stats.clock.cpu_ns, serial.stats.clock.io_ns),
                    "{access:?} clock at {workers} workers"
                );
                assert_eq!(
                    io_key(&got.stats.io),
                    io_key(&serial.stats.io),
                    "{access:?} io at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn parallel_run_matches_serial_for_joins_and_aggregates() {
        let mut db = db(2000);
        let outer = LogicalPlan::scan(ScanSpec::new("t", Predicate::int_half_open(1, 0, 120)));
        let join = outer.clone().join(
            LogicalPlan::scan(ScanSpec::new("t", Predicate::True)),
            1,
            1,
            smooth_executor::JoinType::Inner,
            JoinStrategy::Hash,
        );
        let agg_over_join = join
            .clone()
            .aggregate(vec![1], vec![AggFunc::CountStar, AggFunc::Min(0), AggFunc::Max(0)]);
        let filtered = q(400, AccessPathChoice::ForceFull).filter(Predicate::int_lt(0, 900));
        for plan in [join, agg_over_join, filtered] {
            db.set_workers(1);
            let serial = serial_reference(&db, &plan);
            for workers in [2usize, 4] {
                db.set_workers(workers);
                let got = db.run(&plan).unwrap();
                assert_eq!(got.rows, serial.rows, "rows at {workers} workers");
                assert_eq!(
                    (got.stats.clock.cpu_ns, got.stats.clock.io_ns),
                    (serial.stats.clock.cpu_ns, serial.stats.clock.io_ns),
                    "clock at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn parallel_pipeline_decomposition_shapes() {
        let db = db(1000);
        // Unordered full scan → partitioned heap source.
        let p = db.parallel_pipeline(&q(100, AccessPathChoice::ForceFull)).unwrap().unwrap();
        assert!(matches!(p.source, smooth_executor::ParallelSource::Heap { .. }));
        // A bare adaptive scan has no stages to fan out → serial driver.
        assert!(db
            .parallel_pipeline(&q(100, AccessPathChoice::Smooth(SmoothScanConfig::default())))
            .unwrap()
            .is_none());
        // …but an aggregate above it parallelizes on the stages.
        let plan = q(100, AccessPathChoice::Smooth(SmoothScanConfig::default()))
            .aggregate(vec![], vec![AggFunc::CountStar]);
        let p = db.parallel_pipeline(&plan).unwrap().unwrap();
        assert!(matches!(p.source, smooth_executor::ParallelSource::Shared { .. }));
        assert!(matches!(p.sink, smooth_executor::SinkSpec::Aggregate { merge_exact: true, .. }));
        // Plan errors surface from the decomposition exactly like build().
        let bad = LogicalPlan::scan(
            ScanSpec::new("t", Predicate::int_eq(0, 1)).with_access(AccessPathChoice::ForceIndex),
        );
        assert!(db.parallel_pipeline(&bad).is_err());
        assert!(db.with_workers(4).run(&bad).is_err());
    }

    #[test]
    fn run_filtered_matches_under_parallel_driver() {
        let mut db = db(2000);
        let plan = q(300, AccessPathChoice::ForceFull);
        db.set_workers(1);
        let serial = db.run_filtered(&plan, Predicate::int_lt(0, 700)).unwrap();
        db.set_workers(4);
        let parallel = db.run_filtered(&plan, Predicate::int_lt(0, 700)).unwrap();
        assert_eq!(parallel.rows, serial.rows);
        assert_eq!(io_key(&parallel.stats.io), io_key(&serial.stats.io));
        assert!(!serial.rows.is_empty());
    }

    #[test]
    fn worker_knob_defaults_and_overrides() {
        let db = db(100);
        assert!(db.workers() >= 1);
        let db = db.with_workers(0);
        assert_eq!(db.workers(), 1, "worker count floors at 1");
        assert!(default_workers() >= 1);
    }

    #[test]
    fn scan_statistics_attach_to_every_driver() {
        let mut db = db(3000);
        let plan = q(250, AccessPathChoice::ForceFull);
        for workers in [1usize, 4] {
            db.set_workers(workers);
            let got = db.run(&plan).unwrap();
            assert_eq!(
                got.scan.rows_processed,
                got.rows.len() as u64,
                "{workers} workers: processed = emitted"
            );
            assert_eq!(got.scan.rows_scanned, 3000, "{workers} workers: full scan inspects all");
            assert_eq!(got.scan.rows_total, 3000, "{workers} workers: catalog cardinality");
            assert_eq!(got.scan.pages_read, got.stats.io.pages_read, "{workers} workers: solo IO");
            assert!(got.scan.selectivity() < 1.0);
            assert!(got.scan.mb_read() > 0.0);
        }
        // Joins sum both sides' cardinalities into rows_total.
        db.set_workers(1);
        let join = q(50, AccessPathChoice::ForceFull).join(
            LogicalPlan::scan(ScanSpec::new("t", Predicate::True)),
            1,
            1,
            smooth_executor::JoinType::Inner,
            JoinStrategy::Hash,
        );
        assert_eq!(db.run(&join).unwrap().scan.rows_total, 6000);
    }

    #[test]
    fn sessions_share_the_engine_and_number_uniquely() {
        let db = db(1000).with_workers(2).with_max_queries(2);
        let a = db.session();
        let b = db.session();
        assert_ne!(a.id(), b.id());
        let plan = q(100, AccessPathChoice::ForceFull);
        let ra = a.run(&plan).unwrap();
        let rb = b.run(&plan).unwrap();
        assert_eq!(ra.rows, rb.rows);
        assert!(std::ptr::eq(a.database(), b.database()));
        assert!(db.max_queries() == 2);
    }

    #[test]
    fn cold_runs_are_reproducible() {
        let db = db(2000);
        let a = db.run(&q(100, AccessPathChoice::ForceIndex)).unwrap().stats;
        let b = db.run(&q(100, AccessPathChoice::ForceIndex)).unwrap().stats;
        assert_eq!(a.io.pages_read, b.io.pages_read, "cold runs see identical I/O");
        assert_eq!(a.clock.io_ns, b.clock.io_ns);
    }

    #[test]
    fn submit_returns_the_same_rows_as_run() {
        let db = db(2000).with_workers(2);
        // A parallelizable plan and a serial-only one (bare adaptive
        // scan) both go through the pool and match the blocking driver.
        for plan in [
            q(250, AccessPathChoice::ForceFull),
            q(250, AccessPathChoice::Smooth(SmoothScanConfig::default())),
        ] {
            let expected = db.run(&plan).unwrap();
            let out = db.session().submit(&plan).unwrap().wait().unwrap();
            assert_eq!(out.into_rows(), expected.rows);
        }
        // Plan errors surface at submit, before anything runs.
        let missing = LogicalPlan::scan(ScanSpec::new("nope", Predicate::True));
        assert!(db.submit(&missing).is_err());
    }

    #[test]
    fn submitted_queries_are_cancellable() {
        let db = db(2000).with_workers(2);
        let handle = db.submit(&q(250, AccessPathChoice::ForceFull)).unwrap();
        handle.cancel();
        match handle.wait() {
            Err(Error::Cancelled) => {}
            Ok(out) => {
                // Lost the race: the query finished first — it must
                // then be complete, never partial.
                let expected = db.run(&q(250, AccessPathChoice::ForceFull)).unwrap();
                assert_eq!(out.into_rows(), expected.rows);
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
        // The engine still serves queries afterwards.
        assert!(!db.run(&q(250, AccessPathChoice::ForceFull)).unwrap().rows.is_empty());
    }

    #[test]
    fn query_timeout_knob_reaches_the_scheduler() {
        // An existing pool picks the knob up live; a later knob change
        // that rebuilds the pool re-applies it.
        let mut db = db(500).with_workers(2);
        db.run(&q(10, AccessPathChoice::ForceFull)).unwrap();
        db.set_query_timeout_ms(250_000);
        assert_eq!(db.query_timeout_ms(), 250_000);
        assert_eq!(db.scheduler().timeout_ms(), 250_000);
        db.set_workers(3);
        assert_eq!(db.scheduler().timeout_ms(), 250_000, "survives a pool rebuild");
        // Generous virtual budget: queries still complete.
        assert!(!db.run(&q(100, AccessPathChoice::ForceFull)).unwrap().rows.is_empty());
        db.set_query_timeout_ms(0);
        assert_eq!(db.scheduler().timeout_ms(), 0);
    }

    #[test]
    fn injected_faults_fail_queries_typed_through_the_facade() {
        let db = db(2000).with_workers(2).with_faults(FaultConfig::new(21).io_err(1.0));
        let err = db.run(&q(250, AccessPathChoice::ForceFull)).unwrap_err();
        assert!(matches!(err, Error::Faulted { .. }), "{err}");
        // Removing the faults restores the engine.
        db.set_faults(None);
        assert!(!db.run(&q(250, AccessPathChoice::ForceFull)).unwrap().rows.is_empty());
    }
}

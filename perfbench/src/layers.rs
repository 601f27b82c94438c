//! The traced run: per-layer metrics, timed from outside the engine.
//!
//! Layers are the engine's crates. Each traced pass runs every query
//! once more under a `query` span (at the workload's worker count),
//! then decomposes it from outside:
//!
//! * `plan.*` spans re-run each sub-plan at one worker; a node's self
//!   time is its run minus its inputs' runs (`executor.agg.self_ms`,
//!   `executor.join.self_ms`). A Smooth Scan leaf runs as `core.scan`
//!   through `build_smooth_scan` + `run_operator_batches`, which also
//!   yields its morph counters.
//! * Layer-call spans, children of the `query` span, feed the inputs
//!   the sub-plans produced through each crate's public functions:
//!   `BTreeIndex::range`, `ScanFilter::fill_columns`,
//!   `JoinBuildTable::insert_batch` / `apply_budget` / `probe_columns`,
//!   `ExternalSorter::push` / `finish`, `Database::build` +
//!   `parallel_pipeline`.
//!
//! Which heap pages a morphing scan touched cannot be seen from
//! outside, so storage time is attributed per query as unit cost ×
//! count: the pool's miss, hit and run-read costs (measured with
//! `Storage::read_heap_page` / `read_heap_run` on the workload's main
//! table) times the query's own `RunStats.io` counters. Filtering is
//! attributed likewise, at the query's measured ns per inspected row
//! times `ScanStatistics::rows_scanned`.
//!
//! `trace.coverage` is the attributed layer time over the traced query
//! wall; the rest is work inside operators the trace cannot see.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;
use std::time::Instant;

use smooth_core::SmoothScanMetrics;
use smooth_executor::{run_pipeline_traced, ExternalSorter, JoinBuildTable, ScanFilter};
use smooth_index::BTreeIndex;
use smooth_planner::{
    AccessPathChoice, BatchResult, Database, JoinStrategy, LogicalPlan, ScanSpec,
};
use smooth_storage::{HeapFile, PageBuf, PageView};
use smooth_types::columns::decode_columns_append;
use smooth_types::{ColumnBatch, ColumnVector, PageId, Result, Schema};
use smooth_workload::{micro, tpch};

use crate::stats::{self, GridPoint, Summary};
use crate::trace::{self, Tracer, NO_QUERY};
use crate::workloads::{SetupTimes, Workload};
use crate::Runner;

/// Per-layer metric names and units, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("types.decode_ns_per_row", "ns"),
    ("storage.page_miss_ns", "ns"),
    ("storage.page_hit_ns", "ns"),
    ("storage.run_read_ns_per_page", "ns"),
    ("storage.pages_read", "count"),
    ("storage.io_requests", "count"),
    ("storage.seq_pages", "count"),
    ("storage.rand_pages", "count"),
    ("storage.buffer_hit_ratio", "frac"),
    ("storage.read_mb", "MiB"),
    ("storage.virtual_io_s", "s"),
    ("storage.virtual_cpu_s", "s"),
    ("index.range_ns_per_entry", "ns"),
    ("index.entries", "count"),
    ("executor.filter_ns_per_row", "ns"),
    ("executor.join.build_ns_per_row", "ns"),
    ("executor.join.probe_ns_per_row", "ns"),
    ("executor.join.spill_mb", "MiB"),
    ("executor.join.spilled_partitions", "count"),
    ("executor.join.budget_ms", "ms"),
    ("executor.sort.runs", "count"),
    ("executor.sort.ms", "ms"),
    ("executor.agg.self_ms", "ms"),
    ("executor.join.self_ms", "ms"),
    ("executor.schedule.morsels", "count"),
    ("executor.schedule.lock_wait_ms", "ms"),
    ("executor.schedule.wall_speedup", "x"),
    ("executor.schedule.model_speedup", "x"),
    ("core.scan_ms", "ms"),
    ("core.mode0_tuples", "count"),
    ("core.mode1_pages", "count"),
    ("core.mode2_pages", "count"),
    ("core.regions", "count"),
    ("core.max_region_pages", "count"),
    ("core.morph_accuracy", "frac"),
    ("core.cache_hit_rate", "frac"),
    ("core.cache_max_resident", "count"),
    ("core.cache_evicted", "count"),
    ("core.worst_ratio", "x"),
    ("core.worst_ratio_base_s", "s"),
    ("planner.build_ms", "ms"),
    ("workload.gen_s", "s"),
    ("storage.load_s", "s"),
    ("index.build_s", "s"),
    ("trace.coverage", "frac"),
    ("trace.overhead_ms", "ms"),
];

/// Pages sampled for the pool miss/hit costs (they must fit the pool).
const SAMPLE_PAGES: u32 = 128;
/// Pages per `read_heap_run` call (the full scan's read-ahead).
const RUN_PAGES: u32 = 32;

pub struct Traced {
    pub metrics: Vec<(String, &'static str, f64)>,
    pub report: String,
}

/// Per-pass sums, folded into per-pass metric values.
#[derive(Default)]
struct Acc {
    v: BTreeMap<&'static str, f64>,
    smooth: Vec<SmoothScanMetrics>,
    filter_ns: f64,
    filter_rows: f64,
    range_ns: f64,
    build_ns: f64,
    build_rows: f64,
    probe_ns: f64,
    probe_rows: f64,
    hits: f64,
    serial_wall_ns: f64,
    query_wall_ns: f64,
    model_serial_ns: f64,
    model_parallel_ns: f64,
    attributed_ns: f64,
}

impl Acc {
    fn add(&mut self, k: &'static str, x: f64) {
        *self.v.entry(k).or_default() += x;
    }
}

/// Unit costs of the storage and types layers on one table.
#[derive(Default)]
struct UnitCosts {
    miss_ns: f64,
    hit_ns: f64,
    run_ns: f64,
    decode_ns: f64,
}

struct Ctx<'a> {
    w: Workload,
    workers: usize,
    tracer: &'a mut Tracer,
    acc: Acc,
    units: UnitCosts,
}

fn heap_of(db: &Database, table: &str) -> Result<Arc<HeapFile>> {
    Ok(Arc::clone(&db.table(table)?.heap))
}

fn all_pages(heap: &HeapFile) -> Result<Vec<PageBuf>> {
    (0..heap.page_count()).map(|p| heap.read_raw(PageId(p))).collect()
}

/// Pool miss / hit / run-read costs and full-tuple decode cost on `heap`.
fn unit_costs(db: &Database, heap: &HeapFile, tracer: &mut Tracer) -> Result<UnitCosts> {
    let storage = db.storage();
    let pages = heap.page_count();
    let stride = (pages / SAMPLE_PAGES).max(1);
    let sample: Vec<PageId> =
        (0..pages).step_by(stride as usize).map(PageId).take(SAMPLE_PAGES as usize).collect();
    let n = sample.len().max(1) as f64;
    storage.flush_pool();
    let (miss, id) = tracer.span("storage.read_heap_page.miss", None, NO_QUERY, || {
        sample.iter().try_for_each(|&p| storage.read_heap_page(heap, p).map(drop))
    });
    miss?;
    let miss_ns = tracer.duration_ns(id) as f64 / n;
    let (hit, id) = tracer.span("storage.read_heap_page.hit", None, NO_QUERY, || {
        sample.iter().try_for_each(|&p| storage.read_heap_page(heap, p).map(drop))
    });
    hit?;
    let hit_ns = tracer.duration_ns(id) as f64 / n;
    storage.flush_pool();
    let (run, id) = tracer.span("storage.read_heap_run", None, NO_QUERY, || {
        (0..pages).step_by(RUN_PAGES as usize).try_for_each(|start| {
            storage.read_heap_run(heap, PageId(start), RUN_PAGES.min(pages - start)).map(drop)
        })
    });
    run?;
    let run_ns = tracer.duration_ns(id) as f64 / pages.max(1) as f64;
    storage.flush_pool();

    let raw = all_pages(heap)?;
    let schema = heap.schema();
    let cols: Vec<usize> = (0..schema.len()).collect();
    let mut out: Vec<ColumnVector> =
        schema.columns().iter().map(|c| ColumnVector::for_type(c.ty)).collect();
    let mut rows = 0u64;
    let (decoded, id) = tracer.span("types.decode_columns_append", None, NO_QUERY, || {
        raw.iter().try_for_each(|page| {
            let view = PageView::new(page)?;
            for t in view.iter() {
                decode_columns_append(schema, t?, &cols, &mut out, None)?;
                rows += 1;
            }
            out.iter_mut().for_each(ColumnVector::clear);
            Ok::<_, smooth_types::Error>(())
        })
    });
    decoded?;
    let decode_ns = tracer.duration_ns(id) as f64 / rows.max(1) as f64;
    Ok(UnitCosts { miss_ns, hit_ns, run_ns, decode_ns })
}

/// Rows of a sub-plan result as one dense batch per result batch.
fn result_batches(result: BatchResult, schema: &Schema) -> Result<Vec<ColumnBatch>> {
    let mut batches = result.batches;
    if !result.rows.is_empty() {
        batches.push(ColumnBatch::from_rows(schema, &result.rows)?);
    }
    Ok(batches)
}

impl Ctx<'_> {
    /// `BTreeIndex::range` drained over the leaf's key range, and
    /// `ScanFilter::fill_columns` with its predicate over every page.
    fn leaf_layers(&mut self, db: &Database, spec: &ScanSpec, q: usize, root: usize) -> Result<()> {
        let entry = db.table(&spec.table)?;
        let uses_index = !matches!(spec.access, AccessPathChoice::ForceFull);
        let range = spec.predicate.split_index_range().and_then(|(col, lo, hi, _)| {
            entry.index_on(col).map(|idx| (Arc::clone(&idx.index), lo, hi))
        });
        if let (true, Some((index, lo, hi))) = (uses_index, range) {
            let (entries, id) =
                self.tracer.span("index.range", Some(root), q, || drain(&index, db, lo, hi));
            self.acc.add("index.entries", entries as f64);
            let d = self.tracer.duration_ns(id) as f64;
            self.acc.range_ns += d;
            self.acc.attributed_ns += d;
        }
        let heap = &entry.heap;
        let schema = heap.schema();
        let pages = all_pages(heap)?;
        let mut filter = ScanFilter::new(spec.predicate.clone(), schema);
        let mut out = ColumnBatch::for_schema(schema);
        let mut rows = 0u64;
        let (filtered, id) = self.tracer.span("executor.filter", Some(root), q, || {
            pages.iter().try_for_each(|page| {
                let view = PageView::new(page)?;
                let tuples = view.iter().collect::<Result<Vec<&[u8]>>>()?;
                rows += tuples.len() as u64;
                filter.fill_columns(schema, &tuples, Some(page), &mut out)?;
                out.clear();
                Ok::<_, smooth_types::Error>(())
            })
        });
        filtered?;
        self.acc.filter_ns += self.tracer.duration_ns(id) as f64;
        self.acc.filter_rows += rows as f64;
        Ok(())
    }

    /// Re-run `plan` at one worker as a span under `parent`, then its
    /// inputs under it, and feed the inputs through the join and sort
    /// layers. Returns the node's result.
    fn node(
        &mut self,
        db: &Database,
        plan: &LogicalPlan,
        parent: Option<usize>,
        q: usize,
        root: usize,
    ) -> Result<BatchResult> {
        match plan {
            LogicalPlan::Scan(spec) => {
                let result = match spec.access {
                    AccessPathChoice::Smooth(config) => {
                        let id = self.tracer.enter("core.scan", parent, q);
                        let mut scan = db.build_smooth_scan(spec, config)?;
                        let result = db.run_operator_batches(&mut scan)?;
                        let d = self.tracer.exit(id);
                        self.acc.add("core.scan_ms", d as f64 / 1e6);
                        self.acc.smooth.push(scan.metrics());
                        result
                    }
                    _ => self.tracer.span("plan.scan", parent, q, || db.run_batches(plan)).0?,
                };
                self.leaf_layers(db, spec, q, root)?;
                Ok(result)
            }
            LogicalPlan::Join(spec) => {
                let (result, id) =
                    self.tracer.span("plan.join", parent, q, || db.run_batches(plan));
                let result = result?;
                let left = self.node(db, &spec.left, Some(id), q, root)?;
                let hash = matches!(spec.strategy, JoinStrategy::Hash);
                if hash {
                    let right = self.node(db, &spec.right, Some(id), q, root)?;
                    self.hash_join_layers(db, plan, spec, left, right, q, root)?;
                }
                self.acc.add("executor.join.self_ms", self.tracer.self_ns(id) as f64 / 1e6);
                Ok(result)
            }
            LogicalPlan::Aggregate { input, .. } => {
                let (result, id) =
                    self.tracer.span("plan.aggregate", parent, q, || db.run_batches(plan));
                let result = result?;
                self.node(db, input, Some(id), q, root)?;
                let self_ns = self.tracer.self_ns(id) as f64;
                self.acc.add("executor.agg.self_ms", self_ns / 1e6);
                self.acc.attributed_ns += self_ns;
                Ok(result)
            }
            LogicalPlan::Sort { input, keys } => {
                let (result, id) =
                    self.tracer.span("plan.sort", parent, q, || db.run_batches(plan));
                let result = result?;
                let rows = self.node(db, input, Some(id), q, root)?.into_rows();
                let budget = self.w.mem_bytes();
                if budget > 0 {
                    let mut sorter =
                        ExternalSorter::new(db.storage().clone(), keys.clone(), budget);
                    let (sorted, sid) = self.tracer.span("executor.sort", Some(root), q, || {
                        rows.into_iter().try_for_each(|r| sorter.push(r))?;
                        let runs = sorter.run_count();
                        sorter.finish().map(|_| runs)
                    });
                    self.acc.add("executor.sort.runs", sorted? as f64);
                    let d = self.tracer.duration_ns(sid) as f64;
                    self.acc.add("executor.sort.ms", d / 1e6);
                    self.acc.attributed_ns += d;
                }
                Ok(result)
            }
            LogicalPlan::Project { input, .. } | LogicalPlan::Filter { input, .. } => {
                let (result, id) =
                    self.tracer.span("plan.other", parent, q, || db.run_batches(plan));
                let result = result?;
                self.node(db, input, Some(id), q, root)?;
                Ok(result)
            }
        }
    }

    /// `JoinBuildTable::insert_batch` over the build input,
    /// `apply_budget` at the workload's budget, `probe_columns` over the
    /// probe input (and `finish_probe`).
    #[allow(clippy::too_many_arguments)]
    fn hash_join_layers(
        &mut self,
        db: &Database,
        plan: &LogicalPlan,
        spec: &smooth_planner::JoinSpec,
        left: BatchResult,
        right: BatchResult,
        q: usize,
        root: usize,
    ) -> Result<()> {
        let storage = db.storage();
        let right_schema = db.build(&spec.right)?.schema().clone();
        let left_schema = db.build(&spec.left)?.schema().clone();
        let out_schema = db.build(plan)?.schema().clone();
        let build_in = result_batches(right, &right_schema)?;
        let probe_in = result_batches(left, &left_schema)?;
        let build_rows: usize = build_in.iter().map(ColumnBatch::len).sum();
        let probe_rows: usize = probe_in.iter().map(ColumnBatch::len).sum();

        let mut table = JoinBuildTable::new(&right_schema, spec.right_col);
        let (built, id) = self.tracer.span("executor.join.build", Some(root), q, || {
            build_in.into_iter().try_for_each(|b| table.insert_batch(b))
        });
        built?;
        let build_ns = self.tracer.duration_ns(id) as f64;
        let (budget, id) = self.tracer.span("executor.join.budget", Some(root), q, || {
            table.apply_budget(storage, self.w.mem_bytes())
        });
        budget?;
        let budget_ns = self.tracer.duration_ns(id) as f64;
        self.acc.add("executor.join.budget_ms", budget_ns / 1e6);
        self.acc.add("executor.join.spilled_partitions", table.spilled_partition_count() as f64);
        self.acc
            .add("executor.join.spill_mb", table.spilled_build_bytes() as f64 / (1 << 20) as f64);

        let mut out = ColumnBatch::for_schema(&out_schema);
        let (probed, id) = self.tracer.span("executor.join.probe", Some(root), q, || {
            for b in &probe_in {
                table.probe_columns(storage, b, spec.left_col, spec.ty, &mut out)?;
                out.clear();
            }
            table.finish_probe(storage)
        });
        probed?;
        let probe_ns = self.tracer.duration_ns(id) as f64;
        self.acc.build_ns += build_ns;
        self.acc.build_rows += build_rows as f64;
        self.acc.probe_ns += probe_ns;
        self.acc.probe_rows += probe_rows as f64;
        self.acc.attributed_ns += build_ns + budget_ns + probe_ns;
        Ok(())
    }
}

fn drain(index: &Arc<BTreeIndex>, db: &Database, lo: Bound<i64>, hi: Bound<i64>) -> u64 {
    let mut cursor = index.range(db.storage(), lo, hi);
    let mut n = 0u64;
    while cursor.next().is_some() {
        n += 1;
    }
    n
}

/// One traced pass: every query under a `query` span, then its
/// decomposition. Returns per-pass metric values.
fn traced_pass(
    runner: &mut Runner,
    ctx: &mut Ctx,
    traced_walls: &mut [Vec<f64>],
) -> std::result::Result<BTreeMap<&'static str, f64>, String> {
    ctx.acc = Acc::default();
    for (q, walls) in traced_walls.iter_mut().enumerate() {
        let Some((start, wall, result)) = runner.run(q) else { continue };
        let root = ctx.tracer.record("query", None, q, start, wall);
        let wall_ns = wall.as_nanos() as f64;
        walls.push(wall_ns / 1e6);
        let a = &mut ctx.acc;
        let io = result.stats.io;
        a.add("storage.pages_read", io.pages_read as f64);
        a.add("storage.io_requests", io.io_requests as f64);
        a.add("storage.seq_pages", io.seq_pages as f64);
        a.add("storage.rand_pages", io.rand_pages as f64);
        a.add("storage.read_mb", io.mb_read());
        a.add("storage.virtual_io_s", result.stats.clock.io_ns as f64 / 1e9);
        a.add("storage.virtual_cpu_s", result.stats.clock.cpu_ns as f64 / 1e9);
        a.add("executor.schedule.morsels", result.scan.morsels as f64);
        a.add("executor.schedule.lock_wait_ms", result.scan.lock_wait_ns as f64 / 1e6);
        a.hits += io.buffer_hits as f64;
        a.query_wall_ns += wall_ns;
        let u = &ctx.units;
        let storage_ns = u.miss_ns * io.rand_pages as f64
            + u.run_ns * io.seq_pages as f64
            + u.hit_ns * io.buffer_hits as f64;
        let rows_scanned = result.scan.rows_scanned as f64;
        let virtual_ns = result.stats.clock.total_ns() as f64;
        drop(result);

        let plan = runner.queries[q].plan.clone();
        let db = &mut runner.db;
        let (built, id) = ctx.tracer.span("planner.build", Some(root), q, || {
            db.build(&plan)?;
            db.parallel_pipeline(&plan).map(drop)
        });
        built.map_err(|e| e.to_string())?;
        let build_ns = ctx.tracer.duration_ns(id) as f64;
        ctx.acc.add("planner.build_ms", build_ns / 1e6);

        // The scaling model's ledger from the single-worker traced
        // driver; a plan with no parallel pipeline runs serially, so its
        // virtual time counts on both sides.
        let (serial, parallel) = match db.parallel_pipeline(&plan).map_err(|e| e.to_string())? {
            Some(pipeline) => {
                db.storage().flush_pool();
                let (_, ledger) = run_pipeline_traced(pipeline).map_err(|e| e.to_string())?;
                (ledger.makespan_ns(1) as f64, ledger.makespan_ns(ctx.workers) as f64)
            }
            None => (virtual_ns, virtual_ns),
        };
        ctx.acc.model_serial_ns += serial;
        ctx.acc.model_parallel_ns += parallel;

        // Sub-plan decomposition at one worker.
        db.set_workers(1);
        let (filter_ns0, filter_rows0) = (ctx.acc.filter_ns, ctx.acc.filter_rows);
        // `node` opens the root sub-plan's span before any other.
        let root_plan = ctx.tracer.spans().len();
        let decomposed = ctx.node(db, &plan, None, q, root);
        db.set_workers(ctx.workers);
        decomposed.map_err(|e| e.to_string())?;
        let filter_rate =
            (ctx.acc.filter_ns - filter_ns0) / (ctx.acc.filter_rows - filter_rows0).max(1.0);
        ctx.acc.attributed_ns += storage_ns + build_ns + filter_rate * rows_scanned;
        ctx.acc.serial_wall_ns += ctx.tracer.duration_ns(root_plan) as f64;
    }
    Ok(finish_pass(ctx))
}

fn finish_pass(ctx: &mut Ctx) -> BTreeMap<&'static str, f64> {
    let a = &mut ctx.acc;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let pages = a.v.get("storage.pages_read").copied().unwrap_or(0.0);
    let mut v = std::mem::take(&mut a.v);
    v.insert("storage.buffer_hit_ratio", ratio(a.hits, a.hits + pages));
    v.insert("executor.filter_ns_per_row", ratio(a.filter_ns, a.filter_rows));
    let entries = v.get("index.entries").copied().unwrap_or(0.0);
    v.insert("index.range_ns_per_entry", ratio(a.range_ns, entries));
    v.insert("executor.join.build_ns_per_row", ratio(a.build_ns, a.build_rows));
    v.insert("executor.join.probe_ns_per_row", ratio(a.probe_ns, a.probe_rows));
    v.insert("executor.schedule.wall_speedup", ratio(a.serial_wall_ns, a.query_wall_ns));
    v.insert("executor.schedule.model_speedup", ratio(a.model_serial_ns, a.model_parallel_ns));
    v.insert("trace.coverage", ratio(a.attributed_ns, a.query_wall_ns));
    let m = &a.smooth;
    let sum = |f: fn(&SmoothScanMetrics) -> u64| m.iter().map(f).sum::<u64>() as f64;
    v.insert("core.mode0_tuples", sum(|x| x.mode0_tuples));
    v.insert("core.mode1_pages", sum(|x| x.mode1_pages));
    v.insert("core.mode2_pages", sum(|x| x.mode2_pages));
    v.insert("core.regions", sum(|x| x.regions));
    v.insert(
        "core.max_region_pages",
        m.iter().map(|x| x.max_region_pages).max().unwrap_or(0) as f64,
    );
    v.insert("core.morph_accuracy", ratio(sum(|x| x.pages_with_results), sum(|x| x.pages_fetched)));
    v.insert("core.cache_hit_rate", ratio(sum(|x| x.cache.hits), sum(|x| x.cache.requests)));
    v.insert(
        "core.cache_max_resident",
        m.iter().map(|x| x.cache.max_resident).max().unwrap_or(0) as f64,
    );
    v.insert("core.cache_evicted", sum(|x| x.cache.evicted));
    v
}

/// Smooth Scan's virtual time against the static paths' at every grid
/// point of a sweep (deterministic, so measured once).
fn robustness(runner: &Runner) -> std::result::Result<Vec<GridPoint>, String> {
    let mut points = Vec::new();
    for q in &runner.queries {
        let (Some(sel), LogicalPlan::Scan(spec)) = (q.selectivity, &q.plan) else { continue };
        let secs = |access: AccessPathChoice| {
            let plan = micro::query(sel, spec.ordered, access);
            runner.db.run_batches(&plan).map(|r| r.stats.secs()).map_err(|e| e.to_string())
        };
        points.push(GridPoint {
            selectivity: sel,
            smooth_s: secs(spec.access.clone())?,
            static_s: [
                secs(AccessPathChoice::ForceFull)?,
                secs(AccessPathChoice::ForceIndex)?,
                secs(AccessPathChoice::ForceSort)?,
            ],
        });
    }
    Ok(points)
}

/// TPC-H's generator loads and indexes table by table; reload its
/// tables into a fresh database to time loading and primary-key
/// indexing apart from generation.
fn tpch_load_split(db: &Database, w: Workload) -> std::result::Result<(f64, f64), String> {
    use tpch::{c, n, o, p, s};
    let tables =
        ["region", "nation", "customer", "supplier", "part", "partsupp", "orders", "lineitem"];
    let mut fresh = Database::new(w.storage_config());
    let mut load_s = 0.0;
    for t in tables {
        let heap = heap_of(db, t).map_err(|e| e.to_string())?;
        let mut rows = Vec::with_capacity(heap.tuple_count() as usize);
        for page in all_pages(&heap).map_err(|e| e.to_string())? {
            rows.extend(heap.decode_all(&page).map_err(|e| e.to_string())?);
        }
        let start = Instant::now();
        fresh.load_table(t, heap.schema().clone(), rows).map_err(|e| e.to_string())?;
        load_s += start.elapsed().as_secs_f64();
    }
    let start = Instant::now();
    for (t, col) in [
        ("orders", o::ORDERKEY),
        ("customer", c::CUSTKEY),
        ("supplier", s::SUPPKEY),
        ("part", p::PARTKEY),
        ("nation", n::NATIONKEY),
    ] {
        fresh.create_index(t, col, &format!("{t}_pk")).map_err(|e| e.to_string())?;
    }
    Ok((load_s, start.elapsed().as_secs_f64()))
}

/// The traced half of a `--trace 1` run.
pub fn traced_run(
    runner: &mut Runner,
    w: Workload,
    workers: usize,
    setups: &[SetupTimes],
    seed: u64,
    untraced_ms: &[Summary],
    budget: std::time::Duration,
) -> std::result::Result<Traced, String> {
    let start = Instant::now();
    let mut tracer = Tracer::default();
    let main_table = if w == Workload::TpchFig4 { "lineitem" } else { micro::TABLE };
    let heap = heap_of(&runner.db, main_table).map_err(|e| e.to_string())?;
    let mut per_pass: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut traced_walls = vec![Vec::new(); runner.queries.len()];
    let mut ctx =
        Ctx { w, workers, tracer: &mut tracer, acc: Acc::default(), units: UnitCosts::default() };
    while per_pass.is_empty() || start.elapsed() < budget {
        ctx.units = unit_costs(&runner.db, &heap, ctx.tracer).map_err(|e| e.to_string())?;
        let mut pass = traced_pass(runner, &mut ctx, &mut traced_walls)?;
        pass.insert("types.decode_ns_per_row", ctx.units.decode_ns);
        pass.insert("storage.page_miss_ns", ctx.units.miss_ns);
        pass.insert("storage.page_hit_ns", ctx.units.hit_ns);
        pass.insert("storage.run_read_ns_per_page", ctx.units.run_ns);
        per_pass.push(pass);
    }

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (name, _) in PER_LAYER {
        let values: Vec<f64> = per_pass.iter().filter_map(|p| p.get(name).copied()).collect();
        metrics.insert(name, stats::median(&values));
    }

    let worst = if w.is_sweep() { stats::worst_ratio(&robustness(runner)?) } else { None };
    let (ratio, base, worst_sel) = worst.unwrap_or((0.0, 0.0, 0.0));
    metrics.insert("core.worst_ratio", ratio);
    metrics.insert("core.worst_ratio_base_s", base);

    let med = |f: fn(&SetupTimes) -> f64| stats::median(&setups.iter().map(f).collect::<Vec<_>>());
    let (gen_s, load_s, index_s) = if w == Workload::TpchFig4 {
        let (load_s, pk_s) = tpch_load_split(&runner.db, w)?;
        let install_s = med(|t| t.gen_s);
        ((install_s - load_s - pk_s).max(0.0), load_s, pk_s + med(|t| t.index_s))
    } else {
        (med(|t| t.gen_s), med(|t| t.load_s), med(|t| t.index_s))
    };
    metrics.insert("workload.gen_s", gen_s);
    metrics.insert("storage.load_s", load_s);
    metrics.insert("index.build_s", index_s);

    let traced_ms: Vec<f64> = traced_walls.iter().map(|s| stats::median(s)).collect();
    let overhead: f64 = traced_ms.iter().zip(untraced_ms).map(|(t, u)| t - u.median).sum();
    metrics.insert("trace.overhead_ms", overhead);

    let trace_file = write_spans(&tracer, w, seed);
    let self_ns = trace::self_times(tracer.spans());
    let unaccounted: f64 = tracer
        .spans()
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == "query")
        .map(|(_, &ns)| ns as f64 / 1e6)
        .sum::<f64>()
        / per_pass.len() as f64;
    let unmeasured = not_exercised(w);
    let report = crate::obj(&[
        ("traced_passes", per_pass.len().to_string()),
        ("spans", tracer.spans().len().to_string()),
        ("span_file", crate::json_str(&trace_file)),
        ("worst_ratio_selectivity", crate::num(worst_sel)),
        ("query_self_ms_per_pass", crate::num(unaccounted)),
        (
            "traced_query_ms",
            format!(
                "[{}]",
                traced_ms.iter().map(|x| crate::num(*x)).collect::<Vec<_>>().join(", ")
            ),
        ),
        ("not_exercised", crate::json_strs(unmeasured)),
    ]);
    let metrics =
        PER_LAYER.iter().map(|(name, unit)| (name.to_string(), *unit, metrics[name])).collect();
    Ok(Traced { metrics, report })
}

/// Per-layer metrics a workload reports as 0 because it never runs the
/// layer, with the reason.
fn not_exercised(w: Workload) -> Vec<&'static str> {
    const NO_OPERATORS: &str =
        "executor.join.*, executor.sort.*, executor.agg.self_ms: no join, sort or aggregate";
    const SERIAL: &str = "executor.schedule.morsels, .lock_wait_ms: a lone Smooth Scan has no \
                          parallel pipeline, so it runs on the serial driver";
    const NO_SWEEP: &str = "core.worst_ratio*: defined on the micro sweeps only";
    match w {
        Workload::ScanSweep => {
            vec![NO_OPERATORS, SERIAL, "core.cache_*: unordered scans never fill the Result Cache"]
        }
        Workload::OrderedSweep => vec![NO_OPERATORS, SERIAL],
        Workload::TpchFig4 => vec![
            "executor.sort.*: no query sorts",
            "executor.join.spill_*: no memory budget",
            NO_SWEEP,
            "core.cache_*: LINEITEM scans are unordered",
        ],
        Workload::SpillJoinSort => vec![NO_SWEEP, "core.cache_*: all scans are unordered"],
    }
}

/// Write the spans as JSON lines under `perfbench/out/`, returning the
/// path (or the error, as text, when the directory is not writable).
fn write_spans(tracer: &Tracer, w: Workload, seed: u64) -> String {
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("spans-{}-{seed}.jsonl", w.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json_lines()))
    {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("not written: {e}"),
    }
}

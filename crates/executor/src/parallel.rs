//! Morsel-driven parallel pipeline execution (HyPer-style).
//!
//! A [`ParallelPipeline`] runs one query pipeline across a fixed worker
//! pool: workers pull columnar morsels from a shared source, push each
//! morsel through a per-worker chain of [`StageSpec`]s (filter, projection,
//! hash-join probe) with thread-local state, fold it into a per-worker
//! partial aggregate where that is exact, and hand everything else to an
//! *ordered* sink that merges morsels back into source order. The
//! result is **deterministic and byte-identical** to the single-threaded
//! columnar driver ([`crate::collect_rows`]), and the total virtual
//! CPU/IO clock charges are **exactly equal** to the single-threaded
//! run. Two structural decisions make that possible:
//!
//! * **Source sections are serialized in morsel order.** The disk model
//!   ([`smooth_storage::Storage`]) classifies a transfer as sequential
//!   or random by whether it physically continues the previous one, and
//!   buffer-pool residency depends on access order — so all charged I/O
//!   happens inside the source lock, in exactly the order the
//!   single-threaded driver would issue it. For a heap scan the lock
//!   covers only the page-run fetch (readahead-sized, cheap — a pool
//!   probe plus a memcpy per page); the expensive part, probing encoded
//!   tuples and decoding qualifiers into column vectors, runs on the
//!   claiming worker *outside* the lock with a thread-local
//!   [`ScanFilter`]. For any other operator (Smooth Scan, Switch Scan,
//!   index/sort scans, sorts) the whole operator *is* the serial
//!   section: adaptive morph decisions stay centralized in one operator
//!   instance, untouched by parallelism, exactly as the single-threaded
//!   driver runs them.
//! * **Worker-side charges are per-tuple, never per-batch-boundary.**
//!   Every stage charges the shared virtual clock (lock-free atomics —
//!   the contention-light accounting core) the same per-row amounts the
//!   serial operators charge, so totals are independent of how rows are
//!   grouped into morsels and of which worker processed them.
//!
//! Pipeline breakers merge deterministically. Hash-join builds are their
//! own parallel phase, run before the probe phase starts: each
//! [`BuildSpec`] carries a morsel source (and filter/projection/nested
//! probe stages) of its own plus an open tranche
//! ([`BuildSpec::open_at`]/[`BuildSpec::open_order`] — the serial
//! driver's open cascade, generalized to bushy trees), workers claim
//! build morsels under the source lock (so build-input I/O happens in
//! the exact serial order) and fold them into per-worker
//! **hash-partitioned** partial builds ([`crate::JoinBuildPartial`]: a
//! payload [`ColumnBatch`] plus position-keyed match lists — no
//! `Vec<Row>` anywhere), which then merge by global build position
//! ([`crate::JoinBuildTable::merge_partition`]) — mirroring the
//! aggregate sink's first-seen-position rule, so the probe table is
//! byte-identical to the serial [`crate::HashJoin`] build no matter
//! which worker ingested which morsel. Grouped aggregates use
//! per-worker partial maps merged by global first-seen `(seq, idx)`
//! position when the merge is exact ([`AggFunc::merge_exact`]), and
//! otherwise fold on the ordered sink in morsel order so float sums
//! stay byte-identical; plain row output is concatenated in morsel
//! order, and `ordered:` heap-range scans sort on the sink
//! ([`SinkSpec::Sort`] — the serial `Sort` operator's exact charges,
//! stable over serial-order input, recorded as the ledger's serial
//! suffix).
//!
//! Multi-worker execution lives in [`crate::schedule`]: the worker pool
//! belongs to a persistent [`crate::Scheduler`] serving *queries* (each
//! an independent phase state machine with its own source lock,
//! per-worker work-stealing morsel deques, and sink), not to a single
//! pipeline run. [`run_pipeline`] at `workers > 1` submits the pipeline
//! as the sole query of an ephemeral scheduler; this module keeps the
//! specs, the per-morsel machinery (sources, stages, partial sinks) and
//! the single-worker inline driver that the traced ledger runs on.
//!
//! [`run_pipeline_traced`] additionally records a per-morsel
//! virtual-clock ledger ([`ScalingLedger`]) — with separate build-phase
//! sections and a serial suffix — from which a deterministic scaling
//! model predicts the parallel makespan at any worker count: a
//! discrete-event replay of the scheduler's own policy (chunked
//! claiming via `claim_size`, per-worker queues, steal-from-longest
//! with the [`STEAL_PENALTY_PERMILLE`] locality surcharge on stolen
//! morsels — modeled only; execution charges nothing for a steal). The
//! perf-smoke `parallel`, `join` and `serve` experiments gate on that
//! model because, unlike wall clock on a shared CI runner (or this
//! repo's build hosts), it is bit-stable across machines. See
//! `docs/scheduler_v2.md`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use smooth_storage::{HeapFile, PageBuf, PageView, Storage};
use smooth_types::{ColumnBatch, Error, PageId, Result, Row, Schema, Value};

use crate::agg::Acc;
use crate::expr::{Predicate, ScanFilter};
use crate::join::{JoinBuildPartial, JoinBuildTable};
use crate::operator::BoxedOperator;
use crate::scan::fill_page_columns;
use crate::{AggFunc, JoinType};

/// Where morsels come from.
pub enum ParallelSource {
    /// A partitioned heap scan: workers claim readahead-sized page runs
    /// (I/O under the source lock, in page order), then probe + decode
    /// on their own thread via a thread-local [`ScanFilter`]. This is
    /// the fully parallel source — the CPU-heavy decode fans out.
    Heap {
        /// The heap to scan.
        heap: Arc<HeapFile>,
        /// Scan predicate (pushed into the per-worker [`ScanFilter`]).
        predicate: Predicate,
        /// Pages fetched per morsel (use
        /// [`crate::scan::FULL_SCAN_READAHEAD`] to match the serial
        /// scan's request pattern).
        readahead: u32,
    },
    /// Any operator as a serial morsel source: workers take turns
    /// pulling `next_columns(morsel_rows)` under the source lock. The
    /// operator runs exactly as it would single-threaded — this is how
    /// Smooth/Switch Scan morph accounting stays centralized — while
    /// the stages above it still fan out.
    Shared {
        /// The source operator (opened by the driver).
        op: BoxedOperator,
    },
}

impl ParallelSource {
    /// The schema of the morsels this source emits.
    pub(crate) fn schema(&self) -> Schema {
        match self {
            ParallelSource::Heap { heap, .. } => heap.schema().clone(),
            ParallelSource::Shared { op } => op.schema().clone(),
        }
    }
}

/// One hash-join build input: a pipeline of its own (morsel source plus
/// filter/projection stages), drained **before** the probe phase starts.
/// Build-input I/O serializes under the build source's lock in morsel
/// order — exactly the order the serial [`crate::HashJoin`] build would
/// issue it — while the per-row partition + map-insert CPU fans out
/// across the worker pool into per-worker [`JoinBuildPartial`]s.
pub struct BuildSpec {
    /// The build-side morsel source (right input).
    pub source: ParallelSource,
    /// Per-worker build-side stages: [`StageSpec::Filter`] /
    /// [`StageSpec::Project`] plus [`StageSpec::Probe`] against
    /// *earlier* builds — a hash join sitting on the build side of
    /// another hash join runs as a fully parallel build phase of its
    /// own instead of collapsing into a serial `Shared` source.
    pub stages: Vec<StageSpec>,
    /// Key ordinal in the build rows.
    pub right_col: usize,
    /// Key ordinal in the probe rows.
    pub left_col: usize,
    /// Join semantics.
    pub ty: JoinType,
    /// Hash partitions of the build table (probe results are independent
    /// of it; [`crate::BUILD_PARTITIONS`] is the default).
    pub partitions: usize,
    /// Operator memory budget in bytes for the build table (0 =
    /// unlimited); enforced after the partial merge, so every worker
    /// count charges identical spill I/O
    /// ([`crate::JoinBuildTable::apply_budget`]).
    pub mem_bytes: usize,
    /// How many builds must have *completed* before this build's source
    /// opens: the serial open cascade reaches its `open()` right after
    /// build `open_at - 1` drains (0 = opens during admission, before
    /// any build runs). Bushy trees open sources earlier than they
    /// drain, so this is independent of the build's own position.
    pub open_at: usize,
    /// Position of this source's `open()` among the build-source opens
    /// sharing the same `open_at` tranche — together they reproduce the
    /// serial cascade's exact open order, so sources whose `open()`
    /// charges the clock charge in the serial order.
    pub open_order: usize,
}

/// A per-worker morsel transform, declared against the build list.
#[derive(Clone)]
pub enum StageSpec {
    /// Keep rows satisfying the predicate (selection refinement on
    /// columnar morsels — no row moves).
    Filter(Predicate),
    /// Keep the listed columns, in order (column pruning).
    Project(Vec<usize>),
    /// Probe the `i`-th build table; emits gathered columnar batches.
    Probe(usize),
}

/// What happens to the ordered morsel stream at the pipeline end.
pub enum SinkSpec {
    /// Concatenate rows in morsel order.
    Collect,
    /// Grouped / scalar aggregation.
    Aggregate {
        /// Group-by ordinals (empty = scalar).
        group_cols: Vec<usize>,
        /// Aggregates per group.
        aggs: Vec<AggFunc>,
        /// When every aggregate merges exactly
        /// ([`AggFunc::merge_exact`]), workers hold partial maps merged
        /// by first-seen position; otherwise the sink folds morsels in
        /// order on the coordinator, keeping float sums byte-identical
        /// to the serial fold.
        merge_exact: bool,
    },
    /// Ordered-scan terminal: workers stream morsels to the sink in
    /// morsel order (exactly like `Collect`) and one final
    /// `sort_rows_charged` pass — the identical charge
    /// the serial [`crate::Sort`] operator above a full scan makes —
    /// restores global key order as the query's serial suffix
    /// ([`ScalingLedger::suffix_ns`] in the model). This is what lets
    /// `ordered:` plans use the fully parallel heap source instead of
    /// the serial shared-operator fallback.
    Sort {
        /// Sort keys (the ordered scan's range column, ascending).
        keys: Vec<crate::sort::SortKey>,
        /// Memory budget for the final sort (0 = unlimited; beyond it
        /// the sort goes external, charging spill I/O exactly as the
        /// serial operator would).
        mem_bytes: usize,
    },
}

/// A decomposed pipeline ready for the worker pool.
pub struct ParallelPipeline {
    /// Morsel source.
    pub source: ParallelSource,
    /// Hash-join builds, bottom-up (the order the serial open cascade
    /// would drain them). Each is a parallel phase of its own.
    pub builds: Vec<BuildSpec>,
    /// Per-worker stages, source side first.
    pub stages: Vec<StageSpec>,
    /// Terminal merge.
    pub sink: SinkSpec,
    /// Shared storage handle (clock + pool the whole pipeline charges).
    pub storage: Storage,
    /// Rows per morsel for [`ParallelSource::Shared`] pulls
    /// ([`smooth_types::DEFAULT_BATCH_SIZE`] matches the serial driver
    /// exactly).
    pub morsel_rows: usize,
}

/// A shared, read-only hash-join probe table: the merged columnar build
/// plus the probe-side key ordinal and join semantics.
pub(crate) struct ProbeTable {
    pub(crate) table: JoinBuildTable,
    pub(crate) left_col: usize,
    pub(crate) ty: JoinType,
}

/// A runtime stage (build references resolved; the probe stage carries
/// its output schema so gathered batches type correctly).
#[derive(Clone)]
pub(crate) enum Stage {
    Filter(Predicate),
    Project(Vec<usize>),
    Probe(Arc<ProbeTable>, Schema),
}

impl Stage {
    fn apply(&self, storage: &Storage, mut batch: ColumnBatch) -> Result<ColumnBatch> {
        match self {
            Stage::Filter(pred) => {
                let selection = pred.filter_batch(&batch)?;
                batch.set_selection(selection);
                Ok(batch)
            }
            Stage::Project(cols) => batch.project(cols),
            Stage::Probe(table, out_schema) => {
                // The shared probe loop ([`JoinBuildTable::probe_columns`]
                // — the exact code the serial [`crate::HashJoin`] runs, so
                // the charge model lives in one place) gathers probe and
                // matched payload columns into a fresh batch.
                let mut out = ColumnBatch::for_schema(out_schema);
                table.table.probe_columns(storage, &batch, table.left_col, table.ty, &mut out)?;
                Ok(out)
            }
        }
    }
}

/// Global first-seen position of a group: (morsel seq, index within the
/// morsel). Minimizing over workers reproduces the serial first-seen
/// group order exactly.
type FirstPos = (u64, u64);

/// A (partial) grouped-aggregation state — per worker when the merge is
/// exact, on the ordered sink otherwise. Accumulator semantics and
/// clock charges mirror [`crate::HashAggregate`] exactly.
pub(crate) struct PartialAgg {
    group_cols: Vec<usize>,
    aggs: Vec<AggFunc>,
    groups: HashMap<Vec<Value>, (FirstPos, Vec<Acc>)>,
}

impl PartialAgg {
    pub(crate) fn new(group_cols: &[usize], aggs: &[AggFunc]) -> Self {
        PartialAgg { group_cols: group_cols.to_vec(), aggs: aggs.to_vec(), groups: HashMap::new() }
    }

    /// Fold one morsel in, charging `(hash + update·|aggs|)` per live
    /// row — the serial operator's per-batch bulk charge, which is
    /// per-row underneath and therefore boundary-independent.
    pub(crate) fn update(
        &mut self,
        storage: &Storage,
        seq: u64,
        batch: &ColumnBatch,
    ) -> Result<()> {
        let cpu = *storage.cpu();
        storage.clock().charge_cpu(
            (cpu.hash_op_ns + cpu.agg_update_ns * self.aggs.len() as u64) * batch.len() as u64,
        );
        // A partial is no longer fed by one worker in monotone seq
        // order: the scheduler's slot pool hands a partial to whichever
        // worker frees up next, so one slot can fold seq 3 before
        // seq 2. Minimizing the first-seen position on *every* row (not
        // just on insert) keeps the recorded position equal to the
        // global first occurrence regardless of fold order.
        let PartialAgg { group_cols, aggs, groups } = self;
        for (idx, phys) in batch.live_rows().enumerate() {
            let key: Vec<Value> = group_cols.iter().map(|&c| batch.column(c).value(phys)).collect();
            let (pos, accs) = groups
                .entry(key)
                .or_insert_with(|| ((u64::MAX, u64::MAX), aggs.iter().map(Acc::new).collect()));
            *pos = (*pos).min((seq, idx as u64));
            for (acc, f) in accs.iter_mut().zip(aggs.iter()) {
                acc.update_columns(f, batch, phys)?;
            }
        }
        Ok(())
    }

    /// Combine another worker's partial in (order-independent: the
    /// caller guarantees every aggregate merges exactly).
    pub(crate) fn merge(&mut self, other: PartialAgg) {
        for (key, (pos, accs)) in other.groups {
            match self.groups.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert((pos, accs));
                }
                Entry::Occupied(mut slot) => {
                    let (cur_pos, cur_accs) = slot.get_mut();
                    *cur_pos = (*cur_pos).min(pos);
                    for (a, b) in cur_accs.iter_mut().zip(accs) {
                        a.merge(b);
                    }
                }
            }
        }
    }

    /// Emit the groups in global first-seen order (a scalar aggregate
    /// over empty input still yields one row, as in the serial
    /// operator).
    pub(crate) fn finish(mut self) -> Vec<Row> {
        if self.groups.is_empty() && self.group_cols.is_empty() {
            self.groups.insert(Vec::new(), ((0, 0), self.aggs.iter().map(Acc::new).collect()));
        }
        let mut entries: Vec<_> = self.groups.into_iter().collect();
        entries.sort_by_key(|(_, (pos, _)): &(Vec<Value>, (FirstPos, Vec<Acc>))| *pos);
        entries
            .into_iter()
            .map(|(key, (_, accs))| {
                let mut values = key;
                values.extend(accs.into_iter().map(Acc::finish));
                Row::new(values)
            })
            .collect()
    }
}

/// What the source hands a worker under the lock.
pub(crate) enum SourceItem {
    /// A page run still to be probed + decoded (worker-side CPU).
    Pages(Vec<(PageId, PageBuf)>),
    /// A ready columnar morsel pulled from a shared operator.
    Batch(ColumnBatch),
}

/// The serial section: pulled in morsel order under one lock, so all
/// charged I/O happens in exactly the single-threaded order.
pub(crate) enum SourceCore {
    Heap { heap: Arc<HeapFile>, next: u32, readahead: u32 },
    Shared { op: BoxedOperator, max: usize },
}

impl SourceCore {
    pub(crate) fn pull(&mut self, storage: &Storage) -> Result<Option<SourceItem>> {
        match self {
            SourceCore::Heap { heap, next, readahead } => {
                let total = heap.page_count();
                if *next >= total {
                    return Ok(None);
                }
                let len = (*readahead).min(total - *next);
                let pages = storage.read_heap_run(heap, PageId(*next), len)?;
                *next += len;
                Ok(Some(SourceItem::Pages(pages)))
            }
            SourceCore::Shared { op, max } => Ok(op.next_columns(*max)?.map(SourceItem::Batch)),
        }
    }

    pub(crate) fn close(self) -> Result<()> {
        match self {
            SourceCore::Heap { .. } => Ok(()),
            SourceCore::Shared { mut op, .. } => op.close(),
        }
    }

    /// The heap file this source reads, if any — the coordinate
    /// scoped fault injection keys morsel-panic draws on (shared
    /// operator sources have no file attribution).
    pub(crate) fn file_id(&self) -> Option<smooth_storage::FileId> {
        match self {
            SourceCore::Heap { heap, .. } => Some(heap.file_id()),
            SourceCore::Shared { .. } => None,
        }
    }

    /// Morsels left to pull, when the source can tell: a heap scan
    /// knows its remaining page runs, so guided chunk claiming
    /// ([`claim_size`]) can size lock holds; a shared operator cannot,
    /// so its claims stay single-morsel.
    pub(crate) fn remaining_hint(&self) -> Option<usize> {
        match self {
            SourceCore::Heap { heap, next, readahead } => {
                let left = heap.page_count().saturating_sub(*next) as usize;
                Some(left.div_ceil((*readahead).max(1) as usize))
            }
            SourceCore::Shared { .. } => None,
        }
    }

    /// The schema of the morsels this source emits.
    pub(crate) fn schema(&self) -> Schema {
        match self {
            SourceCore::Heap { heap, .. } => heap.schema().clone(),
            SourceCore::Shared { op, .. } => op.schema().clone(),
        }
    }
}

/// Modeled NUMA-style locality penalty on stolen morsels, in permille:
/// a morsel processed by a worker other than the one whose local queue
/// held it costs 15% extra worker-side time **in the scaling model
/// only**. Execution never charges it — the virtual clock stays
/// byte-identical across worker counts — it prices remote-queue
/// traffic into the deterministic model so the perf gates reward
/// locality-preserving schedules over steal-happy ones.
pub const STEAL_PENALTY_PERMILLE: u64 = 150;

/// Morsels a worker claims from the source in one lock hold: the fixed
/// override when `fixed > 0` (the `SMOOTH_CLAIM_MORSELS` knob), else
/// guided self-scheduling — the remaining work split over twice the
/// pool, clamped to `[1, 64]` — so runs start large (amortizing lock
/// traffic) and shrink toward single morsels at the tail (keeping the
/// finish balanced). Execution and the scaling model share this one
/// formula so modeled chunk boundaries match the real ones.
pub(crate) fn claim_size(fixed: usize, remaining: usize, workers: usize) -> usize {
    if fixed > 0 {
        fixed
    } else {
        (remaining / (2 * workers.max(1))).clamp(1, 64)
    }
}

/// Claim size for a source given its [`SourceCore::remaining_hint`]:
/// hinted sources (heap scans) chunk via [`claim_size`]; hint-less
/// sources (Smooth/Switch shared operators, which run whole as the
/// serial section) always claim one morsel — even under a fixed
/// `SMOOTH_CLAIM_MORSELS` override, since queued chunks behind a serial
/// source can never fan out and only inflate the lock hold. Matches the
/// scaling model, which never chunks non-chunked sources.
pub(crate) fn source_claim(fixed: usize, hint: Option<usize>, workers: usize) -> usize {
    match hint {
        Some(remaining) => claim_size(fixed, remaining, workers),
        None => 1,
    }
}

/// An opened source: the locked core plus (for heap sources) the
/// thread-local decoder recipe workers instantiate per claim.
pub(crate) type OpenedSource = (SourceCore, Option<(Schema, Predicate)>);

/// Open a [`ParallelSource`] into its locked core plus (for heap
/// sources) the thread-local decoder recipe.
pub(crate) fn open_source(source: ParallelSource, morsel_rows: usize) -> Result<OpenedSource> {
    match source {
        ParallelSource::Heap { heap, predicate, readahead } => {
            let schema = heap.schema().clone();
            Ok((
                SourceCore::Heap { heap, next: 0, readahead: readahead.max(1) },
                Some((schema, predicate)),
            ))
        }
        ParallelSource::Shared { mut op } => {
            op.open()?;
            Ok((SourceCore::Shared { op, max: morsel_rows.max(1) }, None))
        }
    }
}

/// Thread-local decode state for the partitioned heap source.
pub(crate) struct HeapDecoder {
    schema: Schema,
    filter: ScanFilter,
}

impl HeapDecoder {
    pub(crate) fn new(schema: Schema, predicate: Predicate) -> Self {
        let filter = ScanFilter::new(predicate, &schema);
        HeapDecoder { schema, filter }
    }

    fn decode(&mut self, storage: &Storage, pages: &[(PageId, PageBuf)]) -> Result<ColumnBatch> {
        // The per-page buffer-pool probe CPU for this run is charged
        // here, on the decoding worker, not inside the source lock —
        // see [`Storage::charge_page_probes`]. Totals stay equal to the
        // serial scan (which charges beside its own `read_heap_run`
        // call) while the serialized source section holds only the
        // irreducible device I/O.
        storage.charge_page_probes(pages.len() as u64);
        let mut out = ColumnBatch::for_schema(&self.schema);
        for (_, page) in pages {
            let view = PageView::new(page)?;
            fill_page_columns(
                storage,
                &mut self.filter,
                &self.schema,
                page,
                &view,
                0..view.slot_count(),
                &mut out,
            )?;
        }
        Ok(out)
    }
}

/// Run one source item through the worker's stage chain.
pub(crate) fn process_item(
    item: SourceItem,
    decoder: &mut Option<HeapDecoder>,
    stages: &[Stage],
    storage: &Storage,
) -> Result<ColumnBatch> {
    let mut batch = match item {
        SourceItem::Batch(batch) => batch,
        SourceItem::Pages(pages) => {
            let decoder = decoder
                .as_mut()
                .ok_or_else(|| Error::exec("heap source item reached a worker with no decoder"))?;
            decoder.decode(storage, &pages)?
        }
    };
    for stage in stages {
        batch = stage.apply(storage, batch)?;
    }
    Ok(batch)
}

/// Per-morsel virtual-clock ledger recorded by
/// [`run_pipeline_traced`]: the deterministic input to the scaling
/// model. All values are virtual nanoseconds off the shared clock.
#[derive(Debug, Default, Clone)]
pub struct ScalingLedger {
    /// Serial prefix: source open (builds are traced separately below).
    pub prefix_ns: u64,
    /// Per-morsel build-phase source sections (serialized build-input
    /// I/O), concatenated across all builds in build order.
    pub build_src_ns: Vec<u64>,
    /// End index (exclusive) of each build's sections within the build
    /// vectors: the driver runs each build to completion before the next
    /// one starts, so the model must barrier between builds too.
    pub build_bounds: Vec<usize>,
    /// Per-morsel build-phase worker sections (decode, build stages,
    /// key partitioning and map inserts) — these fan out across the
    /// pool.
    pub build_proc_ns: Vec<u64>,
    /// Per-morsel source-section charges (I/O + in-lock CPU) — a
    /// serialized resource.
    pub src_ns: Vec<u64>,
    /// Per-morsel worker-side charges (decode, stages, exact partial
    /// aggregation) — these fan out across the pool.
    pub proc_ns: Vec<u64>,
    /// Per-morsel ordered-sink charges (the order-preserving aggregate
    /// fold when the merge is not exact) — a second serialized resource.
    pub sink_ns: Vec<u64>,
    /// Serial suffix after the last morsel: the ordered-scan sink's
    /// final sort pass ([`SinkSpec::Sort`]) — one thread, after every
    /// worker drained.
    pub suffix_ns: u64,
    /// Whether each build phase's source supports chunked claiming
    /// (heap-backed — one entry per recorded build bound). Shared
    /// operator sources claim one morsel per lock hold.
    pub build_chunked: Vec<bool>,
    /// Whether the probe phase's source supports chunked claiming.
    pub src_chunked: bool,
}

impl ScalingLedger {
    /// Total virtual time of the single-threaded run.
    pub fn total_ns(&self) -> u64 {
        self.prefix_ns
            + self.build_src_ns.iter().sum::<u64>()
            + self.build_proc_ns.iter().sum::<u64>()
            + self.src_ns.iter().sum::<u64>()
            + self.proc_ns.iter().sum::<u64>()
            + self.sink_ns.iter().sum::<u64>()
            + self.suffix_ns
    }

    /// The per-build section ranges within the build vectors. The driver
    /// runs each build to completion before the next starts, so each
    /// range schedules behind a barrier; sections past the last recorded
    /// bound (or all of them, when no bounds were recorded) form a final
    /// segment so the model never silently drops work.
    fn build_segments(&self) -> Vec<std::ops::Range<usize>> {
        let mut segments = Vec::with_capacity(self.build_bounds.len() + 1);
        let mut start = 0usize;
        for &end in &self.build_bounds {
            let end = end.min(self.build_src_ns.len());
            if end > start {
                segments.push(start..end);
            }
            start = start.max(end);
        }
        if start < self.build_src_ns.len() {
            segments.push(start..self.build_src_ns.len());
        }
        segments
    }

    /// Deterministic makespan of the pipeline at `workers` workers,
    /// from the unified scheduling model (`simulate`): build phases
    /// first (each with its own source serialization, chunked claiming,
    /// work stealing and completion barrier), then the probe phase,
    /// then the serial suffix.
    pub fn makespan_ns(&self, workers: usize) -> u64 {
        simulate(std::slice::from_ref(self), workers, 1).0
    }

    /// Modeled speedup over the single-worker makespan (which equals
    /// [`ScalingLedger::total_ns`] — the serial run — by construction).
    pub fn speedup(&self, workers: usize) -> f64 {
        self.makespan_ns(1) as f64 / self.makespan_ns(workers).max(1) as f64
    }

    /// Modeled time workers spend blocked on the serialized source lock
    /// at `workers` workers, summed over every build phase and the
    /// probe phase. Zero at one worker by construction (the sole worker
    /// never races itself for the lock); growth with the worker count
    /// measures how source-bound the pipeline is.
    pub fn modeled_src_wait_ns(&self, workers: usize) -> u64 {
        simulate(std::slice::from_ref(self), workers, 1).1
    }

    /// Makespan of the build phases alone (no prefix, no probe phase,
    /// no suffix).
    pub fn build_makespan_ns(&self, workers: usize) -> u64 {
        let builds_only = ScalingLedger {
            prefix_ns: 0,
            suffix_ns: 0,
            src_ns: Vec::new(),
            proc_ns: Vec::new(),
            sink_ns: Vec::new(),
            src_chunked: false,
            ..self.clone()
        };
        simulate(std::slice::from_ref(&builds_only), workers, 1).0
    }

    /// Modeled speedup of the blocking build phase alone — what the
    /// partitioned parallel build buys over the serial build.
    pub fn build_speedup(&self, workers: usize) -> f64 {
        self.build_makespan_ns(1) as f64 / self.build_makespan_ns(workers).max(1) as f64
    }

    /// The per-phase morsel sections in execution order: every build
    /// segment (source + worker sections, no sink) followed by the
    /// probe phase (source + worker + ordered-sink sections). Input to
    /// the unified scheduling model.
    fn phases(&self) -> Vec<SimPhase<'_>> {
        let mut phases: Vec<SimPhase<'_>> = self
            .build_segments()
            .into_iter()
            .enumerate()
            .map(|(i, seg)| SimPhase {
                src: &self.build_src_ns[seg.clone()],
                proc: &self.build_proc_ns[seg],
                sink: None,
                chunked: self.build_chunked.get(i).copied().unwrap_or(false),
            })
            .collect();
        phases.push(SimPhase {
            src: &self.src_ns,
            proc: &self.proc_ns,
            sink: Some(&self.sink_ns),
            chunked: self.src_chunked,
        });
        phases
    }
}

/// One phase of a traced query inside the scheduling model.
struct SimPhase<'a> {
    src: &'a [u64],
    proc: &'a [u64],
    /// Ordered-sink sections (probe phase only).
    sink: Option<&'a [u64]>,
    /// Heap-backed phases claim guided chunk runs ([`claim_size`]);
    /// shared-operator phases claim one morsel per lock hold — exactly
    /// what execution does.
    chunked: bool,
}

/// One claimed-but-unprocessed morsel sitting in a worker's local
/// queue, available to its owner (front pops) or to a stealing peer
/// (back pops, at the modeled locality penalty).
struct SimItem {
    query: usize,
    phase: usize,
    idx: usize,
    /// Earliest processing start: the end of the claim's source I/O.
    ready: u64,
}

/// One traced query's progress through its phases.
struct SimQuery<'a> {
    phases: Vec<SimPhase<'a>>,
    prefix_ns: u64,
    suffix_ns: u64,
    /// Current phase / next unclaimed morsel within it.
    phase: usize,
    next_src: usize,
    /// Morsels claimed into local queues but not yet processed — the
    /// phase cannot barrier past them.
    queued: usize,
    /// This phase's serialized source chain (one lock, one disk arm).
    src_free: u64,
    /// Ordered sink: per-morsel completion times buffer here and fold
    /// strictly in morsel order, exactly as the execution sink drains
    /// its seq-ordered reorder buffer.
    sink_done: Vec<Option<u64>>,
    sink_next: usize,
    sink_free: u64,
    /// Running completion max of the current phase (the barrier the
    /// next phase waits behind).
    phase_done: u64,
    /// Earliest time the current phase may start.
    avail: u64,
    admitted: bool,
    finished: Option<u64>,
}

impl SimQuery<'_> {
    fn admit(&mut self, at: u64) {
        self.admitted = true;
        // The serial prefix (source open) precedes the first claim.
        let start = at + self.prefix_ns;
        self.avail = start;
        self.src_free = start;
        self.sink_free = start;
        self.phase_done = start;
        self.enter_phase();
        self.advance();
    }

    /// Reset the per-phase sink reorder state for the current phase.
    fn enter_phase(&mut self) {
        let len = self.phases.get(self.phase).map_or(0, |p| p.src.len());
        self.sink_done = vec![None; len];
        self.sink_next = 0;
    }

    /// Record one processed morsel's completion; fold any
    /// now-unblocked ordered-sink sections (the sink consumes morsels
    /// strictly in seq order).
    fn complete(&mut self, idx: usize, done: u64) {
        self.phase_done = self.phase_done.max(done);
        let sink = self.phases[self.phase].sink;
        if let Some(sink) = sink {
            self.sink_done[idx] = Some(done);
            while let Some(d) = self.sink_done.get(self.sink_next).copied().flatten() {
                self.sink_free = self.sink_free.max(d) + sink[self.sink_next];
                self.sink_next += 1;
            }
        }
    }

    /// Cross drained phases (barriers) into the next phase; mark
    /// finished — serial suffix appended — when every phase is done.
    fn advance(&mut self) {
        while self.finished.is_none() {
            match self.phases.get(self.phase) {
                Some(p) if self.next_src < p.src.len() || self.queued > 0 => return,
                Some(_) => {
                    let end = self.phase_done.max(self.sink_free);
                    self.phase += 1;
                    self.next_src = 0;
                    self.avail = end;
                    self.src_free = end;
                    self.sink_free = end;
                    self.phase_done = end;
                    self.enter_phase();
                }
                None => self.finished = Some(self.phase_done.max(self.sink_free) + self.suffix_ns),
            }
        }
    }
}

/// The unified deterministic scheduling model behind every modeled
/// number this module exports: single-query makespans
/// ([`ScalingLedger::makespan_ns`]), build-only makespans, modeled
/// source-lock waits and the multi-query serving model all run this one
/// discrete simulation, so their relationships (single-query
/// equivalence, back-to-back chaining under an admission cap of one)
/// hold by construction.
///
/// The model mirrors the executor's scheduler dynamics exactly:
///
/// * Each query walks its phases behind barriers; within a phase the
///   source sections serialize in morsel order on the query's source
///   lock.
/// * A free worker first drains its **own local queue** (front pops,
///   no penalty), then **claims** a chunk from the query whose source
///   can start earliest — [`claim_size`]-guided runs for heap-backed
///   phases, single morsels for shared-operator phases — processing
///   the first morsel itself and queueing the rest locally, and only
///   then **steals** the back of the longest peer queue, paying the
///   [`STEAL_PENALTY_PERMILLE`] locality penalty on the stolen
///   morsel's worker section. One worker therefore never steals, which
///   keeps the one-worker makespan exactly equal to the serial total.
/// * Ordered-sink sections fold strictly in morsel order off a reorder
///   buffer; the serial suffix (an ordered scan's final sort) runs
///   after the last phase.
///
/// Returns `(makespan, total source-lock wait)`.
fn simulate(ledgers: &[ScalingLedger], workers: usize, max_queries: usize) -> (u64, u64) {
    let workers = workers.max(1);
    let max_queries = max_queries.max(1);
    let mut queries: Vec<SimQuery<'_>> = ledgers
        .iter()
        .map(|l| SimQuery {
            phases: l.phases(),
            prefix_ns: l.prefix_ns,
            suffix_ns: l.suffix_ns,
            phase: 0,
            next_src: 0,
            queued: 0,
            src_free: 0,
            sink_done: Vec::new(),
            sink_next: 0,
            sink_free: 0,
            phase_done: 0,
            avail: 0,
            admitted: false,
            finished: None,
        })
        .collect();
    let mut waiting: std::collections::VecDeque<usize> = (0..queries.len()).collect();
    let mut makespan = 0u64;
    let mut wait = 0u64;
    // Admit one query at `at`; if it finishes instantly (empty ledger),
    // its slot frees immediately — chain into the next waiting query.
    fn admit_chain(
        queries: &mut [SimQuery<'_>],
        waiting: &mut std::collections::VecDeque<usize>,
        mut at: u64,
        makespan: &mut u64,
    ) {
        while let Some(next) = waiting.pop_front() {
            queries[next].admit(at);
            match queries[next].finished {
                Some(end) => {
                    *makespan = (*makespan).max(end);
                    at = end;
                }
                None => break,
            }
        }
    }
    for _ in 0..max_queries.min(queries.len()) {
        admit_chain(&mut queries, &mut waiting, 0, &mut makespan);
    }
    let mut worker_free = vec![0u64; workers];
    let mut local: Vec<std::collections::VecDeque<SimItem>> =
        (0..workers).map(|_| std::collections::VecDeque::new()).collect();
    loop {
        // The earliest-free worker acts next (ties to the lowest
        // index).
        // invariant: `workers` is clamped to >= 1 above, so the range
        // is never empty.
        let w = (0..workers).min_by_key(|&i| worker_free[i]).expect("workers >= 1");
        // 1. Drain the local queue, exactly as `try_work` pops its own
        //    deque before touching the source.
        if let Some(item) = local[w].pop_front() {
            let proc = queries[item.query].phases[item.phase].proc[item.idx];
            let done = worker_free[w].max(item.ready) + proc;
            worker_free[w] = done;
            let q = &mut queries[item.query];
            q.queued -= 1;
            q.complete(item.idx, done);
            q.advance();
            if let Some(end) = q.finished {
                makespan = makespan.max(end);
                admit_chain(&mut queries, &mut waiting, end, &mut makespan);
            }
            continue;
        }
        // 2. Claim a chunk from the query whose source can start
        //    earliest (ties to the lowest query index).
        let claim = queries
            .iter()
            .enumerate()
            .filter(|(_, q)| q.admitted && q.finished.is_none())
            .filter(|(_, q)| q.phases.get(q.phase).is_some_and(|p| q.next_src < p.src.len()))
            .map(|(i, q)| (worker_free[w].max(q.avail).max(q.src_free), i))
            .min();
        if let Some((start, qi)) = claim {
            let (k, first, chunk_end, first_done, phase) = {
                let q = &queries[qi];
                let p = &q.phases[q.phase];
                let remaining = p.src.len() - q.next_src;
                let k = if p.chunked { claim_size(0, remaining, workers) } else { 1 };
                let k = k.min(remaining);
                let first = q.next_src;
                let chunk_end = start + p.src[first..first + k].iter().sum::<u64>();
                (k, first, chunk_end, chunk_end + p.proc[first], q.phase)
            };
            let q = &mut queries[qi];
            // Time this worker sat blocked on the source lock before
            // its claim could start.
            wait += q.src_free.saturating_sub(worker_free[w].max(q.avail));
            q.src_free = chunk_end;
            q.next_src = first + k;
            q.queued += k - 1;
            worker_free[w] = first_done;
            q.complete(first, first_done);
            for i in 1..k {
                local[w].push_back(SimItem { query: qi, phase, idx: first + i, ready: chunk_end });
            }
            q.advance();
            if let Some(end) = q.finished {
                makespan = makespan.max(end);
                admit_chain(&mut queries, &mut waiting, end, &mut makespan);
            }
            continue;
        }
        // 3. Steal the back of the longest peer queue (ties to the
        //    lowest worker index), paying the locality penalty.
        let stolen = (0..workers)
            .filter(|&v| v != w && !local[v].is_empty())
            .max_by_key(|&v| (local[v].len(), std::cmp::Reverse(v)))
            .and_then(|v| local[v].pop_back());
        if let Some(item) = stolen {
            let proc = queries[item.query].phases[item.phase].proc[item.idx];
            let proc = proc * (1000 + STEAL_PENALTY_PERMILLE) / 1000;
            let done = worker_free[w].max(item.ready) + proc;
            worker_free[w] = done;
            let q = &mut queries[item.query];
            q.queued -= 1;
            q.complete(item.idx, done);
            q.advance();
            if let Some(end) = q.finished {
                makespan = makespan.max(end);
                admit_chain(&mut queries, &mut waiting, end, &mut makespan);
            }
            continue;
        }
        // Nothing to pop, claim or steal anywhere: every admitted query
        // has drained (and eagerly advanced to finished).
        break;
    }
    (makespan, wait)
}

/// Deterministic makespan of several traced queries served concurrently
/// by one shared worker pool — the model behind the `serve`
/// experiment's cross-query scheduling gate. This is the same unified
/// simulation as [`ScalingLedger::makespan_ns`] (`simulate`), just
/// with several queries admitted: each keeps its own serialized source
/// chain, ordered sink, build barriers, chunked claims and stealable
/// local queues, while the worker pool is shared. At most `max_queries`
/// queries run at once; the rest wait FIFO and are admitted when a
/// running query completes. With one query (or `max_queries == 1`)
/// this reduces to chained single-query makespans by construction.
pub fn multi_query_makespan_ns(
    ledgers: &[ScalingLedger],
    workers: usize,
    max_queries: usize,
) -> u64 {
    simulate(ledgers, workers, max_queries).0
}

/// Project `schema` down to `cols`, in order.
fn project_schema_cols(schema: &Schema, cols: &[usize]) -> Result<Schema> {
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

/// The output schema of a stage chain at plan time: projections prune,
/// probes splice in the probed build's payload schema from `prior` —
/// the (output schema, join type) of every build the chain may
/// reference, in build order. A probe of a build that is not available
/// yet (nested probes may only reference *earlier* builds) is a plan
/// error.
pub(crate) fn staged_schema(
    mut schema: Schema,
    stages: &[StageSpec],
    prior: &[(Schema, JoinType)],
) -> Result<Schema> {
    for stage in stages {
        match stage {
            StageSpec::Filter(_) => {}
            StageSpec::Project(cols) => schema = project_schema_cols(&schema, cols)?,
            StageSpec::Probe(i) => {
                let (build_schema, ty) = prior.get(*i).ok_or_else(|| {
                    Error::plan(format!("probe stage references build {i} before it is built"))
                })?;
                schema = match ty {
                    JoinType::Inner => schema.join(build_schema),
                    JoinType::LeftSemi => schema,
                };
            }
        }
    }
    Ok(schema)
}

/// Resolve a stage-spec chain into runtime stages against the built
/// probe tables, tracking the running schema so each probe stage knows
/// its gathered output typing. Build-side chains pass the tables of
/// earlier builds; the main pipeline passes all of them. Returns the
/// stages plus the chain's output schema.
pub(crate) fn resolve_stages(
    specs: &[StageSpec],
    mut schema: Schema,
    tables: &[Arc<ProbeTable>],
) -> Result<(Vec<Stage>, Schema)> {
    let mut resolved = Vec::with_capacity(specs.len());
    for spec in specs {
        match spec {
            StageSpec::Filter(p) => resolved.push(Stage::Filter(p.clone())),
            StageSpec::Project(cols) => {
                schema = project_schema_cols(&schema, cols)?;
                resolved.push(Stage::Project(cols.clone()));
            }
            StageSpec::Probe(i) => {
                let table = tables.get(*i).ok_or_else(|| {
                    Error::plan(format!("probe stage references build {i} before it is built"))
                })?;
                schema = match table.ty {
                    JoinType::Inner => schema.join(table.table.schema()),
                    JoinType::LeftSemi => schema,
                };
                resolved.push(Stage::Probe(Arc::clone(table), schema.clone()));
            }
        }
    }
    Ok((resolved, schema))
}

/// A [`BuildSpec`] with its source pulled out so the open cascade in
/// [`prepare`] can open sources in `open_at`/`open_order` order, not
/// build order.
struct BuildMeta {
    stages: Vec<StageSpec>,
    right_col: usize,
    left_col: usize,
    ty: JoinType,
    partitions: usize,
    mem_bytes: usize,
    open_at: usize,
    open_order: usize,
}

/// Drain one build pipeline into its probe table on the calling thread,
/// charging the clock exactly like the serial [`crate::HashJoin`] build
/// (one hash op per build-input row, build-input I/O in serial morsel
/// order). The source core arrives pre-opened — [`prepare`]'s cascade
/// ordered the opens. Nested probe stages resolve against the tables
/// of *earlier* builds and settle their deferred grace passes when the
/// build input is exhausted, exactly where the serial probe exhaustion
/// would. Multi-worker builds run as a scheduler phase instead
/// ([`crate::schedule`]); the merged table is byte-identical either way.
fn run_build(
    meta: &BuildMeta,
    core: SourceCore,
    decoder_spec: Option<(Schema, Predicate)>,
    tables: &[Arc<ProbeTable>],
    storage: &Storage,
    ledger: Option<&mut ScalingLedger>,
) -> Result<ProbeTable> {
    let partitions = meta.partitions.max(1);
    let (stages, schema) = resolve_stages(&meta.stages, core.schema(), tables)?;
    if meta.right_col >= schema.len() {
        return Err(Error::plan(format!(
            "hash-join build key column {} out of range",
            meta.right_col
        )));
    }
    let mut table = build_inline(
        core,
        decoder_spec,
        &stages,
        &schema,
        meta.right_col,
        partitions,
        storage,
        ledger,
    )?;
    // The build's probe input is exhausted: settle deferred grace-join
    // passes on every table its stages probed ([`finish_probe`] is
    // idempotent, so the final blanket pass stays a no-op for these).
    for stage in &stages {
        if let Stage::Probe(t, _) = stage {
            t.table.finish_probe(storage)?;
        }
    }
    table.apply_budget(storage, meta.mem_bytes)?;
    Ok(ProbeTable { table, left_col: meta.left_col, ty: meta.ty })
}

/// Single-worker build: claim, fold, merge — optionally recording the
/// per-morsel build ledger sections.
#[allow(clippy::too_many_arguments)]
fn build_inline(
    mut core: SourceCore,
    decoder_spec: Option<(Schema, Predicate)>,
    stages: &[Stage],
    schema: &Schema,
    right_col: usize,
    partitions: usize,
    storage: &Storage,
    mut ledger: Option<&mut ScalingLedger>,
) -> Result<JoinBuildTable> {
    let clock = storage.clock();
    let cpu_hash = storage.cpu().hash_op_ns;
    let mut decoder = decoder_spec.map(|(s, p)| HeapDecoder::new(s, p));
    let mut partial = JoinBuildPartial::new(schema, right_col, partitions);
    let mut seq = 0u64;
    loop {
        let before = clock.snapshot();
        let Some(item) = core.pull(storage)? else { break };
        let after_src = clock.snapshot();
        let batch = process_item(item, &mut decoder, stages, storage)?;
        clock.charge_cpu(cpu_hash * batch.len() as u64);
        partial.fold(seq, batch)?;
        if let Some(l) = ledger.as_deref_mut() {
            let after_proc = clock.snapshot();
            l.build_src_ns.push(after_src.since(&before).total_ns());
            l.build_proc_ns.push(after_proc.since(&after_src).total_ns());
        }
        seq += 1;
    }
    core.close()?;
    Ok(partial.into_table(schema))
}

/// Everything a pipeline run needs after the open/build prefix.
struct Prepared {
    core: SourceCore,
    decoder_spec: Option<(Schema, Predicate)>,
    stages: Vec<Stage>,
    sink: SinkSpec,
    storage: Storage,
}

/// Open the probe source, replay the serial open cascade over the
/// build sources (`open_at`/`open_order` — tranche 0 before any build
/// drains, tranche `i + 1` right after build `i` completes), run the
/// builds inline in build order, and instantiate the runtime stages.
fn prepare(pipeline: ParallelPipeline, mut ledger: Option<&mut ScalingLedger>) -> Result<Prepared> {
    let ParallelPipeline { source, builds, stages, sink, storage, morsel_rows } = pipeline;
    let clock = storage.clock();
    let open_start = clock.snapshot();
    let schema = source.schema();
    let (core, decoder_spec) = open_source(source, morsel_rows)?;
    let (mut sources, metas): (Vec<Option<ParallelSource>>, Vec<BuildMeta>) = builds
        .into_iter()
        .map(|b| {
            let BuildSpec {
                source,
                stages,
                right_col,
                left_col,
                ty,
                partitions,
                mem_bytes,
                open_at,
                open_order,
            } = b;
            (
                Some(source),
                BuildMeta {
                    stages,
                    right_col,
                    left_col,
                    ty,
                    partitions,
                    mem_bytes,
                    open_at,
                    open_order,
                },
            )
        })
        .unzip();
    let mut order: Vec<usize> = (0..metas.len()).collect();
    order.sort_by_key(|&i| metas[i].open_order);
    let mut opened: Vec<Option<OpenedSource>> = (0..metas.len()).map(|_| None).collect();
    for &i in &order {
        if metas[i].open_at == 0 {
            if let Some(src) = sources[i].take() {
                opened[i] = Some(open_source(src, morsel_rows)?);
            }
        }
    }
    if let Some(l) = ledger.as_deref_mut() {
        l.prefix_ns = clock.snapshot().since(&open_start).total_ns();
        l.src_chunked = decoder_spec.is_some();
    }
    let mut tables: Vec<Arc<ProbeTable>> = Vec::with_capacity(metas.len());
    for (i, meta) in metas.iter().enumerate() {
        let (bcore, bdec) = opened[i].take().ok_or_else(|| {
            Error::plan(format!("build {i} source never opened (open_at {})", meta.open_at))
        })?;
        let chunked = bdec.is_some();
        let table = run_build(meta, bcore, bdec, &tables, &storage, ledger.as_deref_mut())?;
        tables.push(Arc::new(table));
        // Close this build's ledger segment: the next build (and the
        // probe phase) starts only after this one completed.
        if let Some(l) = ledger.as_deref_mut() {
            l.build_bounds.push(l.build_src_ns.len());
            l.build_chunked.push(chunked);
        }
        // Open the next tranche. Any clock charge these opens make
        // folds into the ledger prefix — build sources are scans whose
        // opens charge nothing, so the attribution stays exact in
        // practice.
        let before_opens = clock.snapshot();
        for &j in &order {
            if metas[j].open_at == i + 1 {
                if let Some(src) = sources[j].take() {
                    opened[j] = Some(open_source(src, morsel_rows)?);
                }
            }
        }
        if let Some(l) = ledger.as_deref_mut() {
            l.prefix_ns += clock.snapshot().since(&before_opens).total_ns();
        }
    }
    let (resolved, _) = resolve_stages(&stages, schema, &tables)?;
    Ok(Prepared { core, decoder_spec, stages: resolved, sink, storage })
}

/// Execute the pipeline on `workers` worker threads (1 runs inline on
/// the calling thread; more submit it as the sole query of an ephemeral
/// [`crate::Scheduler`]). Returns the result rows, byte-identical to
/// [`crate::collect_rows`] over the equivalent serial operator tree.
pub fn run_pipeline(pipeline: ParallelPipeline, workers: usize) -> Result<Vec<Row>> {
    if workers <= 1 {
        run_inline(pipeline, None)
    } else {
        let scheduler = crate::schedule::Scheduler::new(workers, 1);
        let handle = scheduler.submit(pipeline)?;
        Ok(handle.wait()?.into_rows())
    }
}

/// Single-worker execution that also records the per-morsel
/// [`ScalingLedger`] for the deterministic scaling model.
pub fn run_pipeline_traced(pipeline: ParallelPipeline) -> Result<(Vec<Row>, ScalingLedger)> {
    let mut ledger = ScalingLedger::default();
    let rows = run_inline(pipeline, Some(&mut ledger))?;
    Ok((rows, ledger))
}

fn run_inline(
    pipeline: ParallelPipeline,
    mut ledger: Option<&mut ScalingLedger>,
) -> Result<Vec<Row>> {
    let clock_storage = pipeline.storage.clone();
    let clock = clock_storage.clock();
    let Prepared { mut core, decoder_spec, stages, sink, storage } =
        prepare(pipeline, ledger.as_deref_mut())?;
    let mut decoder = decoder_spec.map(|(schema, pred)| HeapDecoder::new(schema, pred));
    let (mut agg, exact) = match &sink {
        SinkSpec::Collect | SinkSpec::Sort { .. } => (None, false),
        SinkSpec::Aggregate { group_cols, aggs, merge_exact } => {
            (Some(PartialAgg::new(group_cols, aggs)), *merge_exact)
        }
    };
    let mut rows = Vec::new();
    let mut seq = 0u64;
    loop {
        let before = clock.snapshot();
        let Some(item) = core.pull(&storage)? else { break };
        let after_src = clock.snapshot();
        let batch = process_item(item, &mut decoder, &stages, &storage)?;
        let after_proc = clock.snapshot();
        match agg.as_mut() {
            Some(state) => state.update(&storage, seq, &batch)?,
            None => rows.extend(batch.into_rows()),
        }
        if let Some(l) = ledger.as_deref_mut() {
            let after_sink = clock.snapshot();
            let agg_ns = after_sink.since(&after_proc).total_ns();
            let proc_ns = after_proc.since(&after_src).total_ns();
            l.src_ns.push(after_src.since(&before).total_ns());
            // An exact-merge aggregate runs on the workers; an ordered
            // fold runs on the sink. Attribute its charge accordingly.
            if exact || agg.is_none() {
                l.proc_ns.push(proc_ns + agg_ns);
                l.sink_ns.push(0);
            } else {
                l.proc_ns.push(proc_ns);
                l.sink_ns.push(agg_ns);
            }
        }
        seq += 1;
    }
    if let Some(state) = agg {
        rows = state.finish();
    }
    // Probe input fully consumed: charge any deferred grace-join spill
    // passes, exactly where the serial probe exhaustion would.
    for stage in &stages {
        if let Stage::Probe(table, _) = stage {
            table.table.finish_probe(&storage)?;
        }
    }
    core.close()?;
    // The ordered-scan sink's final sort: the serial suffix after every
    // morsel drained (the serial `Sort` operator closes its child
    // before sorting too, so charges land in the identical order).
    if let SinkSpec::Sort { keys, mem_bytes } = &sink {
        let before = clock.snapshot();
        crate::sort::sort_rows_charged(&storage, &mut rows, keys, *mem_bytes)?;
        if let Some(l) = ledger {
            l.suffix_ns = clock.snapshot().since(&before).total_ns();
        }
    }
    Ok(rows)
}

// Compile-time Send audit: everything a worker thread touches.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ColumnBatch>();
    assert_send::<Stage>();
    assert_send::<Storage>();
    assert_send::<BoxedOperator>();
    assert_send::<JoinBuildPartial>();
    assert_send::<JoinBuildTable>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{collect_rows, ValuesOp};
    use crate::{Filter, FullTableScan, HashAggregate, HashJoin, Project};
    use smooth_storage::{CpuCosts, DeviceProfile, HeapLoader, StorageConfig};
    use smooth_types::{Column, DataType, DEFAULT_BATCH_SIZE};

    fn table(rows: i64) -> Arc<HeapFile> {
        let schema = Schema::new(vec![
            Column::new("c0", DataType::Int64),
            Column::new("c1", DataType::Int64),
            Column::new("pad", DataType::Text),
        ])
        .unwrap();
        let mut loader = HeapLoader::new_mem("t", schema);
        for i in 0..rows {
            let c1 = (i * 2654435761 % 1000 + 1000) % 1000;
            loader
                .push(&Row::new(vec![Value::Int(i), Value::Int(c1), Value::str("x".repeat(30))]))
                .unwrap();
        }
        Arc::new(loader.finish().unwrap())
    }

    fn storage() -> Storage {
        Storage::new(StorageConfig {
            device: DeviceProfile::custom("t", 1, 10),
            cpu: CpuCosts::default(),
            pool_pages: 64,
        })
    }

    fn values_build(
        schema: &Schema,
        rows: &[Row],
        right_col: usize,
        left_col: usize,
        ty: JoinType,
    ) -> BuildSpec {
        BuildSpec {
            source: ParallelSource::Shared {
                op: Box::new(ValuesOp::new(schema.clone(), rows.to_vec())),
            },
            stages: Vec::new(),
            right_col,
            left_col,
            ty,
            partitions: crate::BUILD_PARTITIONS,
            mem_bytes: crate::spill::mem_budget_bytes(),
            open_at: 0,
            open_order: 0,
        }
    }

    fn heap_pipeline(
        heap: &Arc<HeapFile>,
        s: &Storage,
        stages: Vec<StageSpec>,
    ) -> ParallelPipeline {
        ParallelPipeline {
            source: ParallelSource::Heap {
                heap: Arc::clone(heap),
                predicate: Predicate::True,
                readahead: crate::scan::FULL_SCAN_READAHEAD,
            },
            builds: Vec::new(),
            stages,
            sink: SinkSpec::Collect,
            storage: s.clone(),
            morsel_rows: DEFAULT_BATCH_SIZE,
        }
    }

    #[test]
    fn heap_source_matches_serial_scan_rows_and_clock() {
        let heap = table(3000);
        let pred = Predicate::int_half_open(1, 0, 300);
        let s_serial = storage();
        let mut op = Filter::new(
            Box::new(FullTableScan::new(Arc::clone(&heap), s_serial.clone(), Predicate::True)),
            pred.clone(),
        );
        let expected = collect_rows(&mut op).unwrap();
        for workers in [1usize, 2, 4, 8] {
            let s_par = storage();
            let pipeline = heap_pipeline(&heap, &s_par, vec![StageSpec::Filter(pred.clone())]);
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_eq!(got, expected, "rows diverge at {workers} workers");
            assert_eq!(
                s_par.clock().snapshot(),
                s_serial.clock().snapshot(),
                "clock totals diverge at {workers} workers"
            );
            assert_eq!(s_par.io_snapshot(), s_serial.io_snapshot());
        }
    }

    #[test]
    fn shared_source_matches_serial_stack() {
        let heap = table(2500);
        let pred = Predicate::int_half_open(1, 100, 700);
        let s_serial = storage();
        let mut op = Project::new(
            Box::new(Filter::new(
                Box::new(FullTableScan::new(Arc::clone(&heap), s_serial.clone(), Predicate::True)),
                pred.clone(),
            )),
            vec![1, 0],
        )
        .unwrap();
        let expected = collect_rows(&mut op).unwrap();
        for workers in [1usize, 3, 8] {
            let s_par = storage();
            let pipeline = ParallelPipeline {
                source: ParallelSource::Shared {
                    op: Box::new(FullTableScan::new(
                        Arc::clone(&heap),
                        s_par.clone(),
                        Predicate::True,
                    )),
                },
                builds: Vec::new(),
                stages: vec![StageSpec::Filter(pred.clone()), StageSpec::Project(vec![1, 0])],
                sink: SinkSpec::Collect,
                storage: s_par.clone(),
                morsel_rows: DEFAULT_BATCH_SIZE,
            };
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_eq!(got, expected, "rows diverge at {workers} workers");
            assert_eq!(s_par.clock().snapshot(), s_serial.clock().snapshot());
        }
    }

    #[test]
    fn probe_stage_matches_serial_hash_join() {
        let heap = table(1200);
        let right_rows: Vec<Row> =
            (0..500).map(|i| Row::new(vec![Value::Int((i * 7) % 1000), Value::Int(i)])).collect();
        let right_schema = Schema::new(vec![
            Column::new("rk", DataType::Int64),
            Column::new("rv", DataType::Int64),
        ])
        .unwrap();
        for ty in [JoinType::Inner, JoinType::LeftSemi] {
            let s_serial = storage();
            let mut hj = HashJoin::new(
                Box::new(FullTableScan::new(Arc::clone(&heap), s_serial.clone(), Predicate::True)),
                Box::new(ValuesOp::new(right_schema.clone(), right_rows.clone())),
                1,
                0,
                ty,
                s_serial.clone(),
            );
            let expected = collect_rows(&mut hj).unwrap();
            for workers in [1usize, 2, 4] {
                let s_par = storage();
                let mut pipeline = heap_pipeline(&heap, &s_par, vec![StageSpec::Probe(0)]);
                pipeline.builds.push(values_build(&right_schema, &right_rows, 0, 1, ty));
                let got = run_pipeline(pipeline, workers).unwrap();
                assert_eq!(got, expected, "{ty:?} rows diverge at {workers} workers");
                assert_eq!(s_par.clock().snapshot(), s_serial.clock().snapshot(), "{ty:?}");
            }
        }
    }

    #[test]
    fn parallel_build_over_heap_source_matches_serial_hash_join() {
        // The build side is itself a pipeline: heap source + filter
        // stage, drained by the partitioned parallel build.
        let probe = table(800);
        let build = table(1500);
        let pred = Predicate::int_half_open(1, 0, 400);
        let s_serial = storage();
        let mut hj = HashJoin::new(
            Box::new(FullTableScan::new(Arc::clone(&probe), s_serial.clone(), Predicate::True)),
            Box::new(FullTableScan::new(Arc::clone(&build), s_serial.clone(), pred.clone())),
            1,
            1,
            JoinType::Inner,
            s_serial.clone(),
        );
        let expected = collect_rows(&mut hj).unwrap();
        assert!(!expected.is_empty());
        for workers in [1usize, 2, 4, 8] {
            let s_par = storage();
            let mut pipeline = heap_pipeline(&probe, &s_par, vec![StageSpec::Probe(0)]);
            pipeline.builds.push(BuildSpec {
                source: ParallelSource::Heap {
                    heap: Arc::clone(&build),
                    predicate: pred.clone(),
                    readahead: crate::scan::FULL_SCAN_READAHEAD,
                },
                stages: Vec::new(),
                right_col: 1,
                left_col: 1,
                ty: JoinType::Inner,
                partitions: crate::BUILD_PARTITIONS,
                mem_bytes: crate::spill::mem_budget_bytes(),
                open_at: 0,
                open_order: 0,
            });
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_eq!(got, expected, "rows diverge at {workers} workers");
            assert_eq!(s_par.clock().snapshot(), s_serial.clock().snapshot());
            assert_eq!(s_par.io_snapshot(), s_serial.io_snapshot());
        }
    }

    #[test]
    fn exact_partial_aggregate_matches_serial() {
        let heap = table(2000);
        let group_cols = vec![1usize];
        let aggs = vec![AggFunc::CountStar, AggFunc::Sum(0), AggFunc::Min(0), AggFunc::Max(0)];
        let s_serial = storage();
        let mut agg = HashAggregate::new(
            Box::new(FullTableScan::new(Arc::clone(&heap), s_serial.clone(), Predicate::True)),
            group_cols.clone(),
            aggs.clone(),
            s_serial.clone(),
        )
        .unwrap();
        let expected = collect_rows(&mut agg).unwrap();
        for workers in [1usize, 2, 4, 8] {
            let s_par = storage();
            let mut pipeline = heap_pipeline(&heap, &s_par, Vec::new());
            pipeline.sink = SinkSpec::Aggregate {
                group_cols: group_cols.clone(),
                aggs: aggs.clone(),
                merge_exact: true,
            };
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_eq!(got, expected, "groups diverge at {workers} workers");
            assert_eq!(s_par.clock().snapshot(), s_serial.clock().snapshot());
        }
    }

    #[test]
    fn ordered_float_aggregate_matches_serial_fold() {
        // Float sums must fold in morsel order on the sink: assert the
        // parallel result is byte-identical to the serial driver.
        let schema = Schema::new(vec![
            Column::new("g", DataType::Int64),
            Column::new("v", DataType::Float64),
        ])
        .unwrap();
        let mut loader = HeapLoader::new_mem("f", schema.clone());
        for i in 0..1500i64 {
            let v = (i as f64) * 0.3 + 0.1234567 * ((i % 7) as f64);
            loader.push(&Row::new(vec![Value::Int(i % 13), Value::Float(v)])).unwrap();
        }
        let heap = Arc::new(loader.finish().unwrap());
        let group_cols = vec![0usize];
        let aggs = vec![AggFunc::Sum(1), AggFunc::Avg(1), AggFunc::CountStar];
        let s_serial = storage();
        let mut agg = HashAggregate::new(
            Box::new(FullTableScan::new(Arc::clone(&heap), s_serial.clone(), Predicate::True)),
            group_cols.clone(),
            aggs.clone(),
            s_serial.clone(),
        )
        .unwrap();
        let expected = collect_rows(&mut agg).unwrap();
        for workers in [1usize, 2, 4] {
            let s_par = storage();
            let mut pipeline = heap_pipeline(&heap, &s_par, Vec::new());
            pipeline.sink = SinkSpec::Aggregate {
                group_cols: group_cols.clone(),
                aggs: aggs.clone(),
                merge_exact: false,
            };
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_eq!(got, expected, "float fold diverges at {workers} workers");
            assert_eq!(s_par.clock().snapshot(), s_serial.clock().snapshot());
        }
    }

    #[test]
    fn errors_propagate_from_workers() {
        let heap = table(500);
        let s = storage();
        // Probing a column past the schema errors (the serial columnar
        // HashJoin reports the same).
        let pipeline = heap_pipeline(
            &heap,
            &s,
            vec![StageSpec::Filter(Predicate::StrEq { col: 1, value: "x".into() })],
        );
        assert!(run_pipeline(pipeline, 4).is_err());
    }

    #[test]
    fn build_side_errors_propagate() {
        let heap = table(400);
        let right_schema = Schema::new(vec![Column::new("rk", DataType::Int64)]).unwrap();
        for workers in [1usize, 4] {
            let s = storage();
            let mut pipeline = heap_pipeline(&heap, &s, vec![StageSpec::Probe(0)]);
            pipeline.builds.push(BuildSpec {
                source: ParallelSource::Shared {
                    op: Box::new(ValuesOp::new(
                        right_schema.clone(),
                        vec![Row::new(vec![Value::Int(1)])],
                    )),
                },
                stages: Vec::new(),
                right_col: 9, // out of range: must surface as a plan error
                left_col: 1,
                ty: JoinType::Inner,
                partitions: crate::BUILD_PARTITIONS,
                mem_bytes: crate::spill::mem_budget_bytes(),
                open_at: 0,
                open_order: 0,
            });
            assert!(run_pipeline(pipeline, workers).is_err(), "{workers} workers");
        }
    }

    #[test]
    fn ledger_model_is_consistent() {
        let heap = table(3000);
        let s = storage();
        let pipeline = heap_pipeline(&heap, &s, vec![StageSpec::Filter(Predicate::int_lt(1, 500))]);
        let (rows, ledger) = run_pipeline_traced(pipeline).unwrap();
        assert!(!rows.is_empty());
        assert!(!ledger.src_ns.is_empty());
        // One worker's makespan is exactly the serial total.
        assert_eq!(ledger.makespan_ns(1), ledger.total_ns());
        // More workers never slow the model down, and speedup is bounded
        // by the serialized source.
        let m2 = ledger.makespan_ns(2);
        let m4 = ledger.makespan_ns(4);
        assert!(m2 <= ledger.makespan_ns(1));
        assert!(m4 <= m2);
        let src_total: u64 = ledger.src_ns.iter().sum();
        assert!(m4 >= src_total, "source sections serialize");
        assert!(ledger.speedup(4) >= 1.0);
        // Modeled source-lock wait: zero at one worker (a lone worker
        // never races itself), monotone data: more workers can only add
        // contention on the serialized source.
        assert_eq!(ledger.modeled_src_wait_ns(1), 0);
        assert!(ledger.modeled_src_wait_ns(8) >= ledger.modeled_src_wait_ns(2));
    }

    #[test]
    fn multi_query_model_reduces_to_single_query_chains() {
        let heap = table(3000);
        let s = storage();
        let pipeline = heap_pipeline(&heap, &s, vec![StageSpec::Filter(Predicate::int_lt(1, 500))]);
        let (_, ledger) = run_pipeline_traced(pipeline).unwrap();
        for workers in [1usize, 2, 4] {
            // One query: the multi-query schedule IS the single-query one.
            assert_eq!(
                multi_query_makespan_ns(std::slice::from_ref(&ledger), workers, 4),
                ledger.makespan_ns(workers),
                "single-query equivalence at {workers} workers"
            );
            // Admission cap 1: queries chain back to back.
            assert_eq!(
                multi_query_makespan_ns(&[ledger.clone(), ledger.clone()], workers, 1),
                2 * ledger.makespan_ns(workers),
                "one-at-a-time chaining at {workers} workers"
            );
        }
        // Serving two copies concurrently on 4 workers beats (or ties)
        // running them one at a time — cross-query scheduling fills the
        // source-lock stalls with the other query's work.
        let solo_chain = 2 * ledger.makespan_ns(4);
        let served = multi_query_makespan_ns(&[ledger.clone(), ledger.clone()], 4, 2);
        assert!(served <= solo_chain, "served {served} > chained {solo_chain}");
        // And never beats the total-work lower bound on the serialized
        // per-query source chains.
        let src_total: u64 = ledger.src_ns.iter().sum();
        assert!(served >= src_total + ledger.prefix_ns);
    }

    #[test]
    fn traced_build_sections_feed_the_model() {
        let probe = table(1000);
        let build = table(2000);
        let s = storage();
        let mut pipeline = heap_pipeline(&probe, &s, vec![StageSpec::Probe(0)]);
        pipeline.builds.push(BuildSpec {
            source: ParallelSource::Heap {
                heap: Arc::clone(&build),
                predicate: Predicate::True,
                readahead: crate::scan::FULL_SCAN_READAHEAD,
            },
            stages: Vec::new(),
            right_col: 1,
            left_col: 1,
            ty: JoinType::Inner,
            partitions: crate::BUILD_PARTITIONS,
            mem_bytes: crate::spill::mem_budget_bytes(),
            open_at: 0,
            open_order: 0,
        });
        let (rows, ledger) = run_pipeline_traced(pipeline).unwrap();
        assert!(!rows.is_empty());
        assert!(!ledger.build_src_ns.is_empty(), "build morsels recorded");
        assert_eq!(ledger.build_src_ns.len(), ledger.build_proc_ns.len());
        assert_eq!(ledger.build_bounds, vec![ledger.build_src_ns.len()]);
        // The one-worker makespan still reproduces the serial total with
        // the build phase folded in.
        assert_eq!(ledger.makespan_ns(1), ledger.total_ns());
        assert!(ledger.build_speedup(1) == 1.0);
        assert!(ledger.build_speedup(4) >= 1.0);
        assert!(ledger.makespan_ns(4) <= ledger.makespan_ns(2));
    }

    #[test]
    fn multi_build_ledger_barriers_between_builds() {
        // Two chained probes: each build runs to completion before the
        // next starts, and the model must barrier the same way.
        let probe = table(800);
        let build_a = table(1200);
        let build_b = table(1200);
        let s = storage();
        let mut pipeline =
            heap_pipeline(&probe, &s, vec![StageSpec::Probe(0), StageSpec::Probe(1)]);
        for (bi, heap) in [&build_a, &build_b].into_iter().enumerate() {
            pipeline.builds.push(BuildSpec {
                source: ParallelSource::Heap {
                    heap: Arc::clone(heap),
                    predicate: Predicate::int_half_open(1, 0, 40),
                    readahead: crate::scan::FULL_SCAN_READAHEAD,
                },
                stages: Vec::new(),
                right_col: 1,
                left_col: 1,
                ty: JoinType::LeftSemi,
                partitions: crate::BUILD_PARTITIONS,
                mem_bytes: crate::spill::mem_budget_bytes(),
                // Left-deep serial cascade: build 1's source opens only
                // after build 0 drains.
                open_at: bi,
                open_order: bi,
            });
        }
        let (rows, ledger) = run_pipeline_traced(pipeline).unwrap();
        assert!(!rows.is_empty());
        assert_eq!(ledger.build_bounds.len(), 2, "one segment per build");
        assert_eq!(*ledger.build_bounds.last().unwrap(), ledger.build_src_ns.len());
        assert_eq!(ledger.makespan_ns(1), ledger.total_ns());
        // The barriered schedule can never beat the (incorrect)
        // barrier-free packing of both builds as one phase.
        let one_phase =
            ScalingLedger { build_bounds: vec![], ..ledger.clone() }.build_makespan_ns(4);
        assert!(ledger.build_makespan_ns(4) >= one_phase);
        // The parallel runs still match serial with chained builds.
        let serial_rows = rows.clone();
        for workers in [2usize, 4] {
            let s_par = storage();
            let mut pipeline =
                heap_pipeline(&probe, &s_par, vec![StageSpec::Probe(0), StageSpec::Probe(1)]);
            for (bi, heap) in [&build_a, &build_b].into_iter().enumerate() {
                pipeline.builds.push(BuildSpec {
                    source: ParallelSource::Heap {
                        heap: Arc::clone(heap),
                        predicate: Predicate::int_half_open(1, 0, 40),
                        readahead: crate::scan::FULL_SCAN_READAHEAD,
                    },
                    stages: Vec::new(),
                    right_col: 1,
                    left_col: 1,
                    ty: JoinType::LeftSemi,
                    partitions: crate::BUILD_PARTITIONS,
                    mem_bytes: crate::spill::mem_budget_bytes(),
                    // Left-deep serial cascade: build 1's source opens
                    // only after build 0 drains.
                    open_at: bi,
                    open_order: bi,
                });
            }
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_eq!(got, serial_rows, "chained builds diverge at {workers} workers");
        }
    }

    #[test]
    fn guided_claims_shrink_toward_single_morsels() {
        // Guided self-scheduling (no fixed override): claims start at
        // remaining/(2·workers), clamped to [1, 64], and a simulated
        // drain produces a non-increasing sequence ending in 1s.
        assert_eq!(claim_size(0, 1000, 4), 64, "upper clamp");
        assert_eq!(claim_size(0, 100, 4), 12);
        assert_eq!(claim_size(0, 7, 4), 1, "lower clamp at the tail");
        assert_eq!(claim_size(0, 0, 4), 1, "empty source still claims 1");
        let mut remaining = 500usize;
        let mut sizes = Vec::new();
        while remaining > 0 {
            let c = claim_size(0, remaining, 4).min(remaining);
            sizes.push(c);
            remaining -= c;
        }
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "claims grow: {sizes:?}");
        assert_eq!(*sizes.last().unwrap(), 1, "tail claims are single morsels");
        assert_eq!(sizes.iter().sum::<usize>(), 500);
    }

    #[test]
    fn fixed_override_applies_only_to_hinted_sources() {
        // SMOOTH_CLAIM_MORSELS (fixed > 0) wins over guidance for heap
        // sources (which hint their remaining runs)...
        assert_eq!(claim_size(8, 1000, 4), 8);
        assert_eq!(source_claim(8, Some(1000), 4), 8);
        assert_eq!(source_claim(0, Some(1000), 4), 64);
        // ...but a hint-less serial source (Smooth/Switch shared
        // operator) always claims exactly one morsel: queued chunks
        // behind a serial source can never fan out, so a fixed
        // override must not inflate its lock hold.
        assert_eq!(source_claim(0, None, 4), 1);
        assert_eq!(source_claim(64, None, 4), 1, "fixed override must not chunk serial sources");
        assert_eq!(source_claim(64, None, 1), 1);
    }

    #[test]
    fn shared_sources_hint_nothing_and_heap_sources_hint_runs() {
        let heap = table(200);
        let pages = heap.page_count() as usize;
        let readahead = 4u32;
        let (core, _) = open_source(
            ParallelSource::Heap { heap, predicate: Predicate::True, readahead },
            DEFAULT_BATCH_SIZE,
        )
        .unwrap();
        assert_eq!(core.remaining_hint(), Some(pages.div_ceil(readahead as usize)));
        let schema = Schema::new(vec![Column::new("x", DataType::Int64)]).unwrap();
        let op: BoxedOperator = Box::new(ValuesOp::new(schema, vec![Row::new(vec![0i64.into()])]));
        let (core, _) = open_source(ParallelSource::Shared { op }, DEFAULT_BATCH_SIZE).unwrap();
        assert_eq!(core.remaining_hint(), None, "shared operators cannot size lock holds");
    }
}

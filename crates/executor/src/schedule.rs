//! The engine-global multi-query morsel scheduler.
//!
//! Before the engine-global refactor the worker pool belonged to a
//! single pipeline run: threads were spawned per query and died with
//! it. Here the pool belongs to a persistent [`Scheduler`] — the
//! database engine's one worker pool — and *queries* come and go:
//! [`Scheduler::submit`] plans a [`ParallelPipeline`] into an
//! `ActiveQuery` (a self-contained phase state machine), admission
//! caps how many run at once (FIFO beyond `max_queries`), and every
//! worker pulls morsels from whichever admitted query has work,
//! round-robin offset by worker index so no query starves.
//!
//! **What is shared and what is per-query.** The storage engine
//! (buffer pool, disk-arm tracker, virtual clock) is engine-global:
//! concurrent queries contend for pool frames and perturb each other's
//! seq/random classification exactly as concurrent backends do on one
//! disk. Everything that determines *results* is per-query: the morsel
//! source and its lock, the sequence numbers, the build tables, the
//! sink/merge state. That split keeps the core invariant intact —
//! result rows are byte-identical to the serial driver regardless of
//! worker count, interleaving, or what else is running — while clock
//! and I/O counters stay byte-identical to serial only when the query
//! runs alone (concurrent queries genuinely share the arm and the
//! pool, so their accounting legitimately interleaves).
//!
//! **Per-query attribution** rides on the thread-local tap
//! ([`smooth_storage::tap_mark`]): all charged page traffic happens on
//! the claiming worker's thread inside the query's source lock, so
//! bracketing each unit of work with a mark/delta pair attributes
//! pages, requests, hits and tuple flow to exactly one query even
//! under full concurrency. Workers also measure the wall-clock time
//! they spend blocked acquiring each query's source lock
//! ([`ScanStatistics::lock_wait_ns`] — informational; the *modeled*
//! contention lives in [`crate::ScalingLedger`]).
//!
//! **Work-stealing morsel queues.** Each `ActiveQuery` owns one
//! pending-morsel deque per scheduler worker. A worker visiting a
//! query runs a three-rung ladder (`try_work`): pop the front of its
//! own deque; else take the source lock once and claim a *chunk* of up
//! to `k` morsels (`claim_size` in [`crate::parallel`] — fixed by
//! `SMOOTH_CLAIM_MORSELS`, or guided by the source's remaining-work
//! hint), charging their pull I/O in exact serial seq order under the
//! lock and queueing them locally; else steal the *back* of the
//! longest peer deque (ties to the lowest index — deterministic victim
//! selection). Queued morsels count in `inflight` from the moment they
//! are claimed, so a phase cannot finalize with queued work, and
//! failed/cancelled queries drain their queues (at claim) and discard
//! per item (at process). Execution charges nothing for a steal; the
//! scaling model prices steals with a locality penalty
//! ([`crate::parallel::STEAL_PENALTY_PERMILLE`]). See
//! `docs/scheduler_v2.md`.
//!
//! **The `ActiveQuery` phase state machine.** A query moves through
//! `Build(0) → … → Build(n-1) → Probe → finalized`, tracked by the
//! `SrcState` under the source lock (which phase the current decoder
//! feeds, the claim seq, and the end-of-source latch). Build sources
//! open in tranches ([`BuildSpec::open_at`] = how many builds must
//! complete first, [`BuildSpec::open_order`] = the serial driver's
//! open sequence): admission opens the probe source (serial open
//! order), parks it, and opens tranche 0; when the last in-flight
//! morsel of build `i` lands, the finalizing worker merges the
//! per-worker partial builds — the charge-free partition merge of
//! [`crate::JoinBuildTable`], accounting-identical to the serial
//! merge — finalizes any *nested* probe stages inside completed
//! builds (bushy trees: a hash join on the build side of a hash
//! join), resolves later builds' stages against the now-installed
//! tables, opens tranche `i + 1`, and installs the next phase's
//! source. After the last build the parked probe source is installed
//! and the probe phase begins. `ordered:` heap scans run as a normal
//! chunked probe phase over the partitioned heap source with a
//! charged stable sort at the sink ([`SinkSpec::Sort`]) — rows and
//! charges byte-identical to the serial Sort-over-scan plan.
//!
//! **Slot pools and the `(seq, idx)` MIN rule.** Worker-side partial
//! state (build partials, exact-merge aggregation partials) lives in
//! per-query *slot pools*: a worker pops a slot, folds its morsel,
//! and pushes the slot back — slots are not pinned to threads, so one
//! slot can fold seq 3 before seq 2. Worker-count invariance of the
//! merges (established by the single-query drivers) makes any
//! slot↔morsel assignment byte-identical; for grouped aggregates that
//! invariance rests on the `(seq, idx)` MIN ordering invariant: every
//! fold minimizes a group's first-seen position `(morsel seq, row
//! idx)` on *every* row, and the merge minimizes across partials, so
//! the recorded position equals the global first occurrence — hence a
//! deterministic group order — regardless of fold order, chunk size,
//! steals, or worker count.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use smooth_storage::{tap_mark, FileId, InjectedPanic, ScanStatistics, Storage};
use smooth_types::{ColumnBatch, Error, Result, Row, Schema};

use crate::expr::Predicate;
use crate::join::{JoinBuildPartial, JoinBuildTable, PartialPartition};
use crate::parallel::{
    open_source, process_item, resolve_stages, source_claim, staged_schema, BuildSpec, HeapDecoder,
    ParallelPipeline, ParallelSource, PartialAgg, ProbeTable, SinkSpec, SourceCore, SourceItem,
    Stage, StageSpec,
};
use crate::sort::SortKey;
use crate::{AggFunc, JoinType};

/// A completed query: its result plus the per-query scan statistics
/// accumulated from the worker-side tap deltas.
///
/// Collect sinks stay *columnar* — the ordered morsels land in
/// `batches` and no `Row` materializes inside the scheduler; aggregate
/// and sort sinks produce `rows` (their merge/sort suffix is row-wise
/// by construction). Exactly one of the two is non-empty. Call
/// [`QueryOutput::into_rows`] to materialize at the user-facing
/// boundary.
#[derive(Debug)]
pub struct QueryOutput {
    /// Columnar result batches (Collect sinks), in serial morsel order.
    pub batches: Vec<ColumnBatch>,
    /// Row results (aggregate / sort sinks), byte-identical to the
    /// serial driver's.
    pub rows: Vec<Row>,
    /// Per-query scan/flow counters (`rows_total` is stamped by the
    /// planner, which knows catalog cardinalities).
    pub stats: ScanStatistics,
}

impl QueryOutput {
    /// Total result rows without materializing anything.
    pub fn len(&self) -> usize {
        self.batches.iter().map(ColumnBatch::len).sum::<usize>() + self.rows.len()
    }

    /// `true` when the query produced no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize the result as rows — the row boundary for callers
    /// that want the classic `Vec<Row>`.
    pub fn into_rows(self) -> Vec<Row> {
        let mut rows: Vec<Row> =
            self.batches.into_iter().flat_map(ColumnBatch::into_rows).collect();
        let mut tail = self.rows;
        if rows.is_empty() {
            return tail;
        }
        rows.append(&mut tail);
        rows
    }
}

/// The submitting session's end of a query: blocks until the worker
/// pool finishes it, and can cancel it.
pub struct QueryHandle {
    rx: Receiver<Result<QueryOutput>>,
    query: Arc<ActiveQuery>,
    core: Arc<SchedCore>,
}

impl QueryHandle {
    /// Wait for the query to finish (or fail).
    pub fn wait(self) -> Result<QueryOutput> {
        self.rx.recv().map_err(|_| Error::exec("scheduler shut down before the query completed"))?
    }

    /// Cancel the query: it fails with [`Error::Cancelled`] at its
    /// next morsel boundary (running queries) or immediately (queries
    /// still waiting for admission), releasing everything it holds
    /// through the same cleanup path as any other failure. Cancelling
    /// a completed query is a no-op; [`QueryHandle::wait`] still
    /// returns whatever the query produced first.
    pub fn cancel(&self) {
        self.query.cancelled.store(true, Ordering::Release);
        let was_waiting = {
            let mut st = lock(&self.core.state);
            let before = st.waiting.len();
            st.waiting.retain(|w| !Arc::ptr_eq(w, &self.query));
            st.epoch += 1;
            before != st.waiting.len()
        };
        // Wake sleeping workers so an idle pool notices the flag.
        self.core.cv.notify_all();
        if was_waiting {
            self.query.record_err(0, Error::Cancelled);
            complete_err(&self.query, &self.core);
        }
    }
}

/// Which phase a query's source lock is currently feeding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PhaseKind {
    /// Draining build `i`'s input into the per-worker build partials.
    Build(usize),
    /// Draining the probe source through the probe stages.
    Probe,
}

/// The serialized heart of a query: its morsel source, pulled under
/// one lock in sequence order so all charged I/O happens in exactly
/// the serial order. One `SrcState` per *phase*; advancing a phase
/// installs a fresh one (seq restarts at 0, matching the serial
/// drivers' per-phase numbering).
struct SrcState {
    core: Option<SourceCore>,
    decoder_spec: Option<(Schema, Predicate)>,
    /// Idle decoder pool: claiming workers pop one (or build a fresh
    /// one from the spec) and return it after decoding.
    decoders: Vec<HeapDecoder>,
    seq: u64,
    done: bool,
    finalized: bool,
    kind: PhaseKind,
}

impl SrcState {
    fn new(
        core: SourceCore,
        decoder_spec: Option<(Schema, Predicate)>,
        kind: PhaseKind,
    ) -> SrcState {
        SrcState {
            core: Some(core),
            decoder_spec,
            decoders: Vec::new(),
            seq: 0,
            done: false,
            finalized: false,
            kind,
        }
    }

    fn empty() -> SrcState {
        SrcState {
            core: None,
            decoder_spec: None,
            decoders: Vec::new(),
            seq: 0,
            done: false,
            finalized: false,
            kind: PhaseKind::Probe,
        }
    }
}

/// One validated hash-join build phase.
struct BuildPhase {
    /// The unopened build source (taken when its open tranche runs).
    source: Mutex<Option<ParallelSource>>,
    /// Opened-but-not-yet-draining source: bushy trees open build
    /// sources in the serial cascade's open order, which can be
    /// several phases before the build itself drains.
    parked: Mutex<Option<ParkedSource>>,
    /// Raw build-side stage specs; resolved against the finished
    /// tables when this build's phase starts (nested probes reference
    /// earlier builds only — validated at plan time).
    spec_stages: Vec<StageSpec>,
    /// Resolved stages, installed by [`install_build_phase`].
    stages: Mutex<Option<Arc<Vec<Stage>>>>,
    schema: Schema,
    right_col: usize,
    left_col: usize,
    ty: JoinType,
    partitions: usize,
    /// Operator memory budget for the merged build table (0 =
    /// unlimited), enforced at [`advance_build`].
    mem_bytes: usize,
    /// How many builds must have completed before this source opens
    /// (0 = at admission) — see [`BuildSpec::open_at`].
    open_at: usize,
    /// Open position within the tranche — see [`BuildSpec::open_order`].
    open_order: usize,
}

/// A probe stage validated at plan time: probe references are checked
/// and output schemas precomputed, so resolution after the builds is
/// infallible.
enum PlannedStage {
    Filter(Predicate),
    Project(Vec<usize>),
    Probe(usize, Schema),
}

/// Terminal merge discipline.
enum SinkKind {
    Collect,
    Agg {
        group_cols: Vec<usize>,
        aggs: Vec<AggFunc>,
        exact: bool,
    },
    /// Ordered scan: rows buffer in morsel (= serial scan) order, then
    /// one charged sort pass at completion — the parallel plan's
    /// serial suffix, byte-identical to the serial `Sort` operator.
    Sort {
        keys: Vec<SortKey>,
        mem_bytes: usize,
    },
}

/// Order-preserving sink state: morsels buffer in a seq-keyed map and
/// fold in sequence order, exactly as the serial driver emits them.
/// Collect sinks fold into `batches` (columnar end to end); sort sinks
/// fold into `rows` (their suffix is a charged row sort).
struct SinkState {
    pending: BTreeMap<u64, ColumnBatch>,
    next: u64,
    batches: Vec<ColumnBatch>,
    rows: Vec<Row>,
    /// The in-order aggregation fold (non-exact merges only).
    ordered_agg: Option<PartialAgg>,
}

/// An opened source parked until its phase starts: the opened core
/// plus the scan-filter spec it re-assembles with when installed.
type ParkedSource = (SourceCore, Option<(Schema, Predicate)>);

/// One claimed-but-unprocessed morsel sitting in a worker's local
/// queue. Claiming charges the pull I/O in serial seq order under the
/// source lock; everything here is the charge-free remainder (decode
/// and stage CPU), so *any* worker — owner or thief — can process it
/// with byte-identical accounting.
struct Pending {
    kind: PhaseKind,
    seq: u64,
    item: SourceItem,
    /// Source file for the morsel-panic fault site.
    file: Option<FileId>,
}

/// One admitted query: a self-contained phase state machine the worker
/// pool drives. Everything result-bearing is per-query state here; the
/// only engine-global state a query touches is [`Storage`].
struct ActiveQuery {
    storage: Storage,
    morsel_rows: usize,
    builds: Vec<BuildPhase>,
    probe_specs: Vec<PlannedStage>,
    sink_kind: SinkKind,
    /// The probe source, opened at admission (serial open order) and
    /// parked until the builds finish.
    probe_source: Mutex<Option<ParallelSource>>,
    parked_probe: Mutex<Option<ParkedSource>>,
    /// Per-worker local morsel queues (work stealing): a claiming
    /// worker deposits its chunk here; dry workers steal from the
    /// longest peer queue. Queued morsels count in `inflight`, so a
    /// phase never finalizes with queued work.
    queues: Vec<Mutex<VecDeque<Pending>>>,
    /// Finished probe tables, one per build, in build order.
    tables: Mutex<Vec<Arc<ProbeTable>>>,
    /// Probe stages, resolved once the last build's table lands.
    probe_stages: Mutex<Option<Arc<Vec<Stage>>>>,
    src: Mutex<SrcState>,
    sink: Mutex<SinkState>,
    /// Slot pools for worker-side partial state (see module docs).
    agg_slots: Mutex<Vec<PartialAgg>>,
    build_slots: Mutex<Vec<JoinBuildPartial>>,
    /// Morsels claimed but not yet delivered in the current phase.
    inflight: AtomicUsize,
    failed: AtomicBool,
    /// Set by [`QueryHandle::cancel`]; noticed at morsel boundaries.
    cancelled: AtomicBool,
    /// Virtual-clock deadline in total-ns (0 = none), stamped at
    /// admission from the scheduler's query timeout.
    deadline_ns: AtomicU64,
    /// First error by morsel seq (the serial driver would have hit the
    /// lowest-seq failure first).
    err: Mutex<Option<(u64, Error)>>,
    stats: Mutex<ScanStatistics>,
    lock_wait_ns: AtomicU64,
    done_tx: Mutex<Option<Sender<Result<QueryOutput>>>>,
}

impl ActiveQuery {
    /// Validate and decompose a pipeline. All plan errors surface here,
    /// before the query is ever queued.
    fn plan(
        pipeline: ParallelPipeline,
        tx: Sender<Result<QueryOutput>>,
        workers: usize,
    ) -> Result<ActiveQuery> {
        let ParallelPipeline { source, builds, stages, sink, storage, morsel_rows } = pipeline;
        let mut schema = source.schema();
        let mut build_phases: Vec<BuildPhase> = Vec::with_capacity(builds.len());
        let mut prior: Vec<(Schema, JoinType)> = Vec::with_capacity(builds.len());
        for (i, build) in builds.into_iter().enumerate() {
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
            } = build;
            let build_schema = staged_schema(source.schema(), &stages, &prior)?;
            if right_col >= build_schema.len() {
                return Err(Error::plan(format!(
                    "hash-join build key column {right_col} out of range"
                )));
            }
            if open_at > i {
                return Err(Error::plan(format!(
                    "build {i} opens at tranche {open_at}, after its own phase starts"
                )));
            }
            prior.push((build_schema.clone(), ty));
            build_phases.push(BuildPhase {
                source: Mutex::new(Some(source)),
                parked: Mutex::new(None),
                spec_stages: stages,
                stages: Mutex::new(None),
                schema: build_schema,
                right_col,
                left_col,
                ty,
                partitions: partitions.max(1),
                mem_bytes,
                open_at,
                open_order,
            });
        }
        let mut probe_specs = Vec::with_capacity(stages.len());
        for spec in stages {
            match spec {
                StageSpec::Filter(p) => probe_specs.push(PlannedStage::Filter(p)),
                StageSpec::Project(cols) => {
                    schema = staged_schema(schema, &[StageSpec::Project(cols.clone())], &[])?;
                    probe_specs.push(PlannedStage::Project(cols));
                }
                StageSpec::Probe(i) => {
                    let phase = build_phases
                        .get(i)
                        .ok_or_else(|| Error::plan(format!("probe stage references build {i}")))?;
                    schema = match phase.ty {
                        JoinType::Inner => schema.join(&phase.schema),
                        JoinType::LeftSemi => schema,
                    };
                    probe_specs.push(PlannedStage::Probe(i, schema.clone()));
                }
            }
        }
        let (sink_kind, ordered_agg) = match sink {
            SinkSpec::Collect => (SinkKind::Collect, None),
            SinkSpec::Aggregate { group_cols, aggs, merge_exact } => {
                let ordered =
                    if merge_exact { None } else { Some(PartialAgg::new(&group_cols, &aggs)) };
                (SinkKind::Agg { group_cols, aggs, exact: merge_exact }, ordered)
            }
            SinkSpec::Sort { keys, mem_bytes } => (SinkKind::Sort { keys, mem_bytes }, None),
        };
        Ok(ActiveQuery {
            storage,
            morsel_rows,
            builds: build_phases,
            probe_specs,
            sink_kind,
            probe_source: Mutex::new(Some(source)),
            parked_probe: Mutex::new(None),
            queues: (0..workers.max(1)).map(|_| Mutex::new(VecDeque::new())).collect(),
            tables: Mutex::new(Vec::new()),
            probe_stages: Mutex::new(None),
            src: Mutex::new(SrcState::empty()),
            sink: Mutex::new(SinkState {
                pending: BTreeMap::new(),
                next: 0,
                batches: Vec::new(),
                rows: Vec::new(),
                ordered_agg,
            }),
            agg_slots: Mutex::new(Vec::new()),
            build_slots: Mutex::new(Vec::new()),
            inflight: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            deadline_ns: AtomicU64::new(0),
            err: Mutex::new(None),
            stats: Mutex::new(ScanStatistics::default()),
            lock_wait_ns: AtomicU64::new(0),
            done_tx: Mutex::new(Some(tx)),
        })
    }

    /// Open the query's sources for its first phase. Runs at admission,
    /// outside the scheduler state lock. The probe source opens first —
    /// the exact open order of the serial driver — then every tranche-0
    /// build source in `open_order`, so single-query accounting is
    /// byte-identical.
    fn admit(&self) -> Result<()> {
        let mark = tap_mark();
        let result = (|| {
            // invariant: `pump` admits each query exactly once, so the
            // probe source is still present here.
            let probe = lock(&self.probe_source).take().expect("a query admits once");
            let (probe_core, probe_decoder) = open_source(probe, self.morsel_rows)?;
            if self.builds.is_empty() {
                self.resolve_probe_stages();
                *lock(&self.src) = SrcState::new(probe_core, probe_decoder, PhaseKind::Probe);
                return Ok(());
            }
            *lock(&self.parked_probe) = Some((probe_core, probe_decoder));
            open_build_tranche(self, 0)?;
            let mut src = lock(&self.src);
            install_build_phase(self, 0, &mut src)
        })();
        lock(&self.stats).merge(&mark.delta());
        result
    }

    /// Swap probe references for the finished tables (infallible: the
    /// references and schemas were validated at plan time).
    fn resolve_probe_stages(&self) {
        let tables = lock(&self.tables);
        let resolved: Vec<Stage> = self
            .probe_specs
            .iter()
            .map(|spec| match spec {
                PlannedStage::Filter(p) => Stage::Filter(p.clone()),
                PlannedStage::Project(cols) => Stage::Project(cols.clone()),
                PlannedStage::Probe(i, schema) => {
                    Stage::Probe(Arc::clone(&tables[*i]), schema.clone())
                }
            })
            .collect();
        *lock(&self.probe_stages) = Some(Arc::new(resolved));
    }

    /// Process one claimed source item outside the source lock and
    /// deliver it to the phase's partial state.
    fn process(
        &self,
        kind: PhaseKind,
        seq: u64,
        item: SourceItem,
        decoder: &mut Option<HeapDecoder>,
    ) -> Result<()> {
        match kind {
            PhaseKind::Build(i) => {
                let phase = &self.builds[i];
                let stages = lock(&phase.stages)
                    .clone()
                    .ok_or_else(|| Error::exec("build morsel before stages resolved"))?;
                let batch = process_item(item, decoder, &stages, &self.storage)?;
                self.storage.clock().charge_cpu(self.storage.cpu().hash_op_ns * batch.len() as u64);
                let mut partial = lock(&self.build_slots).pop().unwrap_or_else(|| {
                    JoinBuildPartial::new(&phase.schema, phase.right_col, phase.partitions)
                });
                partial.fold(seq, batch)?;
                lock(&self.build_slots).push(partial);
                Ok(())
            }
            PhaseKind::Probe => {
                let stages = lock(&self.probe_stages)
                    .clone()
                    .ok_or_else(|| Error::exec("probe morsel before stages resolved"))?;
                let batch = process_item(item, decoder, &stages, &self.storage)?;
                if let SinkKind::Agg { group_cols, aggs, exact: true } = &self.sink_kind {
                    let mut slot = lock(&self.agg_slots)
                        .pop()
                        .unwrap_or_else(|| PartialAgg::new(group_cols, aggs));
                    slot.update(&self.storage, seq, &batch)?;
                    lock(&self.agg_slots).push(slot);
                    return Ok(());
                }
                let collect = matches!(self.sink_kind, SinkKind::Collect);
                let mut sink = lock(&self.sink);
                sink.pending.insert(seq, batch);
                let SinkState { pending, next, batches, rows, ordered_agg } = &mut *sink;
                while let Some(m) = pending.remove(next) {
                    match ordered_agg.as_mut() {
                        Some(agg) => agg.update(&self.storage, *next, &m)?,
                        None if collect => batches.push(m),
                        None => rows.extend(m.into_rows()),
                    }
                    *next += 1;
                }
                Ok(())
            }
        }
    }

    /// Record a failure, keeping the lowest-seq error (the one the
    /// serial driver would have surfaced).
    fn record_err(&self, seq: u64, e: Error) {
        self.failed.store(true, Ordering::Release);
        let mut slot = lock(&self.err);
        match slot.as_ref() {
            Some((s, _)) if *s <= seq => {}
            _ => *slot = Some((seq, e)),
        }
    }
}

/// Stable draw key for the morsel-panic fault site: phase-qualified
/// sequence number, identical for a given query no matter the worker
/// count or interleaving (seqs are claimed in serial source order).
fn morsel_panic_key(kind: PhaseKind, seq: u64) -> u64 {
    match kind {
        PhaseKind::Build(i) => (i as u64 + 1) << 48 | seq,
        PhaseKind::Probe => seq,
    }
}

/// Convert a caught panic payload to the query's typed error.
fn panic_error(payload: &(dyn std::any::Any + Send)) -> Error {
    if let Some(injected) = payload.downcast_ref::<InjectedPanic>() {
        Error::exec(format!("injected worker panic (morsel key {})", injected.key))
    } else if let Some(msg) = payload.downcast_ref::<&str>() {
        Error::exec(format!("worker panicked: {msg}"))
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        Error::exec(format!("worker panicked: {msg}"))
    } else {
        Error::exec("worker panicked")
    }
}

/// Poison-free std mutex lock: a worker that panics inside morsel
/// processing is caught by `try_work`'s `catch_unwind`, but a panic in
/// the narrow windows where scheduler locks are held must still not
/// wedge the pool — recovering the poisoned guard keeps every other
/// query running (the failing query's own error wins via `record_err`).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Scheduler-wide shared state.
struct SchedState {
    running: Vec<Arc<ActiveQuery>>,
    waiting: VecDeque<Arc<ActiveQuery>>,
    /// Queries mid-admission (counted against `max_queries` so a burst
    /// of submits cannot over-admit).
    admitting: usize,
    /// Bumped on every state change workers might sleep on.
    epoch: u64,
    shutdown: bool,
}

struct SchedCore {
    state: Mutex<SchedState>,
    cv: Condvar,
    max_queries: usize,
    /// Pool size; sizes per-query local queues and the guided claim.
    workers: usize,
    /// Per-query timeout in virtual-clock milliseconds (0 = none);
    /// `SMOOTH_QUERY_TIMEOUT_MS` seeds it, `set_timeout_ms` overrides.
    timeout_ms: AtomicU64,
    /// Morsels per source claim (0 = guided by remaining work);
    /// `SMOOTH_CLAIM_MORSELS` seeds it, `set_claim_morsels` overrides.
    claim_morsels: AtomicUsize,
}

/// Route injected-panic payloads around the default "thread panicked"
/// stderr noise: deliberate chaos is caught and converted to a typed
/// error by the worker, so only *real* panics should stay loud.
/// Installed once per process, delegating to the previous hook.
fn install_panic_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Per-query timeout used when none is set on a scheduler: the
/// `SMOOTH_QUERY_TIMEOUT_MS` environment variable in **virtual-clock**
/// milliseconds (read once per process and latched, like
/// `SMOOTH_WORKERS`), default 0 = no timeout.
pub fn default_query_timeout_ms() -> u64 {
    static MS: OnceLock<u64> = OnceLock::new();
    *MS.get_or_init(|| {
        std::env::var("SMOOTH_QUERY_TIMEOUT_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
    })
}

/// Morsels per source claim when none is set on a scheduler: the
/// `SMOOTH_CLAIM_MORSELS` environment variable (read once per process
/// and latched, like `SMOOTH_WORKERS`), default 0 = guided — each
/// claim takes `remaining / (2 · workers)` clamped to `[1, 64]`, so
/// chunks shrink toward 1 as the source drains (classic guided
/// self-scheduling; see `claim_size` in [`crate::parallel`]).
pub fn default_claim_morsels() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("SMOOTH_CLAIM_MORSELS").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
    })
}

/// The engine's persistent worker pool: serves every submitted query
/// until dropped. Dropping the scheduler drains queries already
/// admitted, then joins the workers; queries still waiting for
/// admission complete with an error on their handle.
pub struct Scheduler {
    core: Arc<SchedCore>,
    threads: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Spawn a pool of `workers` threads admitting at most
    /// `max_queries` concurrent queries (both clamped to at least 1).
    pub fn new(workers: usize, max_queries: usize) -> Scheduler {
        install_panic_hook();
        let core = Arc::new(SchedCore {
            state: Mutex::new(SchedState {
                running: Vec::new(),
                waiting: VecDeque::new(),
                admitting: 0,
                epoch: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            max_queries: max_queries.max(1),
            workers: workers.max(1),
            timeout_ms: AtomicU64::new(default_query_timeout_ms()),
            claim_morsels: AtomicUsize::new(default_claim_morsels()),
        });
        let threads = (0..workers.max(1))
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::spawn(move || worker_loop(&core, i))
            })
            .collect();
        Scheduler { core, threads }
    }

    /// Plan and enqueue a query. Plan errors return immediately;
    /// admission beyond `max_queries` queues FIFO.
    pub fn submit(&self, pipeline: ParallelPipeline) -> Result<QueryHandle> {
        let (tx, rx) = mpsc::channel();
        let query = Arc::new(ActiveQuery::plan(pipeline, tx, self.core.workers)?);
        {
            let mut st = lock(&self.core.state);
            if st.shutdown {
                return Err(Error::exec("scheduler is shut down"));
            }
            st.waiting.push_back(Arc::clone(&query));
        }
        pump(&self.core);
        Ok(QueryHandle { rx, query, core: Arc::clone(&self.core) })
    }

    /// The pool size.
    pub fn workers(&self) -> usize {
        self.threads.len()
    }

    /// The admission cap.
    pub fn max_queries(&self) -> usize {
        self.core.max_queries
    }

    /// Override the per-query timeout (virtual-clock milliseconds,
    /// 0 disables). Applies to queries admitted from now on.
    pub fn set_timeout_ms(&self, ms: u64) {
        self.core.timeout_ms.store(ms, Ordering::Relaxed);
    }

    /// The current per-query timeout in virtual-clock milliseconds.
    pub fn timeout_ms(&self) -> u64 {
        self.core.timeout_ms.load(Ordering::Relaxed)
    }

    /// Override the morsels-per-claim chunk size (0 = guided).
    /// Applies to claims made from now on, running queries included.
    pub fn set_claim_morsels(&self, n: usize) {
        self.core.claim_morsels.store(n, Ordering::Relaxed);
    }

    /// The current morsels-per-claim chunk size (0 = guided).
    pub fn claim_morsels(&self) -> usize {
        self.core.claim_morsels.load(Ordering::Relaxed)
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.core.state);
            st.shutdown = true;
            st.epoch += 1;
        }
        self.core.cv.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Admit waiting queries up to the cap. Source opening runs outside
/// the state lock (it performs I/O); `admitting` holds the slot.
fn pump(core: &SchedCore) {
    loop {
        let query = {
            let mut st = lock(&core.state);
            if st.shutdown || st.running.len() + st.admitting >= core.max_queries {
                return;
            }
            let Some(q) = st.waiting.pop_front() else { return };
            st.admitting += 1;
            q
        };
        // Stamp the virtual-clock deadline before opening sources so
        // admission I/O counts against the timeout too.
        let timeout_ms = core.timeout_ms.load(Ordering::Relaxed);
        if timeout_ms > 0 {
            let now = query.storage.clock().snapshot().total_ns();
            let deadline = now.saturating_add(timeout_ms.saturating_mul(1_000_000)).max(1);
            query.deadline_ns.store(deadline, Ordering::Relaxed);
        }
        let opened = if query.cancelled.load(Ordering::Acquire) {
            // Cancelled while queued (a racing `cancel` may have missed
            // it in `waiting`): fail it instead of admitting.
            Err(Error::Cancelled)
        } else {
            query.admit()
        };
        {
            let mut st = lock(&core.state);
            st.admitting -= 1;
            if let Ok(()) = opened {
                st.running.push(Arc::clone(&query));
                st.epoch += 1;
            }
        }
        core.cv.notify_all();
        if let Err(e) = opened {
            query.record_err(0, e);
            complete_err(&query, core);
        }
    }
}

fn worker_loop(core: &SchedCore, index: usize) {
    loop {
        let (queries, epoch) = {
            let st = lock(&core.state);
            if st.shutdown && st.running.is_empty() {
                return;
            }
            (st.running.clone(), st.epoch)
        };
        let mut worked = false;
        let n = queries.len();
        for i in 0..n {
            // Round-robin offset by worker index: workers spread over
            // queries instead of ganging up on the first one.
            if try_work(&queries[(index + i) % n], core, index) {
                worked = true;
            }
        }
        if !worked {
            let st = lock(&core.state);
            if st.shutdown && st.running.is_empty() {
                return;
            }
            if st.epoch == epoch {
                let _unused = core.cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        }
    }
}

/// Make one unit of progress on `q` as worker `widx`: pop the local
/// queue, else claim a chunk from the source, else steal from the
/// longest peer queue. Returns whether any progress was made.
fn try_work(q: &Arc<ActiveQuery>, core: &SchedCore, widx: usize) -> bool {
    let widx = widx % q.queues.len();
    // 1. Local queue first: the cheapest, locality-preserving path.
    let local = lock(&q.queues[widx]).pop_front();
    if let Some(p) = local {
        return process_pending(q, core, p);
    }
    // 2. Claim a chunk of morsels from the query's source.
    if claim_chunk(q, core, widx) {
        return true;
    }
    // 3. Dry: steal the coldest morsel from the busiest peer. The
    // execution charges nothing extra for a steal — the locality cost
    // exists only in the scaling model
    // ([`crate::parallel::STEAL_PENALTY_PERMILLE`]).
    match steal(q, widx) {
        Some(p) => process_pending(q, core, p),
        None => false,
    }
}

/// Claim up to [`claim_size`] morsels from `q`'s source under its
/// lock — so all charged pull I/O stays in exact serial seq order —
/// and deposit them in worker `widx`'s local queue. Returns whether
/// any progress was made.
fn claim_chunk(q: &Arc<ActiveQuery>, core: &SchedCore, widx: usize) -> bool {
    let wait_start = Instant::now();
    let mut src = lock(&q.src);
    q.lock_wait_ns.fetch_add(wait_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    if src.finalized || src.done || src.core.is_none() {
        return false;
    }
    // Morsel-boundary checks: cancellation and the virtual-clock
    // timeout both surface as `Error::Cancelled` and drain through the
    // same failure path as any other error.
    if !q.failed.load(Ordering::Acquire) {
        let deadline = q.deadline_ns.load(Ordering::Relaxed);
        if q.cancelled.load(Ordering::Acquire)
            || (deadline > 0 && q.storage.clock().snapshot().total_ns() >= deadline)
        {
            q.record_err(src.seq, Error::Cancelled);
        }
    }
    if q.failed.load(Ordering::Acquire) {
        src.done = true;
        drop(src);
        // Queued morsels of a failed query are dead work: discard them
        // so the phase can finalize without processing them.
        drain_queues(q, core);
        maybe_finalize(q, core);
        return true;
    }
    let mark = tap_mark();
    let fixed = core.claim_morsels.load(Ordering::Relaxed);
    // invariant: `src.core.is_none()` returned above, so the core is
    // still present (the source lock is held throughout the claim).
    let k = {
        let c = src.core.as_ref().expect("checked above");
        source_claim(fixed, c.remaining_hint(), core.workers)
    };
    let kind = src.kind;
    let mut claimed: Vec<Pending> = Vec::with_capacity(k);
    // Some(Ok) = source exhausted mid-chunk, Some(Err) = pull failed.
    let mut end: Option<Result<()>> = None;
    for _ in 0..k {
        // invariant: checked non-None above; the lock is held, so no
        // one else can take the core out from under the claim.
        match src.core.as_mut().expect("checked above").pull(&q.storage) {
            Ok(Some(item)) => {
                let file = src.core.as_ref().and_then(SourceCore::file_id);
                claimed.push(Pending { kind, seq: src.seq, item, file });
                src.seq += 1;
            }
            Ok(None) => {
                end = Some(Ok(()));
                break;
            }
            Err(e) => {
                end = Some(Err(e));
                break;
            }
        }
    }
    let err_seq = src.seq;
    if end.is_some() {
        src.done = true;
    }
    // Queued morsels pin the phase exactly like in-flight ones.
    q.inflight.fetch_add(claimed.len(), Ordering::AcqRel);
    drop(src);
    // The pull I/O is this claim's attribution; `morsels` counts at
    // processing time, once per item, wherever it runs.
    lock(&q.stats).merge(&mark.delta());
    if let Some(Err(e)) = end {
        q.record_err(err_seq, e);
    }
    let extras = claimed.len() > 1;
    if !claimed.is_empty() {
        lock(&q.queues[widx]).extend(claimed);
    }
    if extras {
        // Wake sleeping peers: the surplus is up for stealing.
        {
            let mut st = lock(&core.state);
            st.epoch += 1;
        }
        core.cv.notify_all();
    }
    // If the source just ran dry, the claimed items (queued on this
    // worker) keep `inflight` nonzero; the last one processed
    // finalizes. With nothing claimed this claim itself finalizes.
    maybe_finalize(q, core);
    true
}

/// Process one queued morsel (local or stolen) outside the source
/// lock, delivering it to the phase's partial state.
fn process_pending(q: &Arc<ActiveQuery>, core: &SchedCore, p: Pending) -> bool {
    // Morsel-boundary checks, same as at claim time: a queued morsel
    // of a cancelled, timed-out, or failed query is discarded — its
    // result could never be delivered anyway.
    if !q.failed.load(Ordering::Acquire) {
        let deadline = q.deadline_ns.load(Ordering::Relaxed);
        if q.cancelled.load(Ordering::Acquire)
            || (deadline > 0 && q.storage.clock().snapshot().total_ns() >= deadline)
        {
            q.record_err(p.seq, Error::Cancelled);
        }
    }
    if q.failed.load(Ordering::Acquire) {
        if q.inflight.fetch_sub(1, Ordering::AcqRel) == 1 {
            maybe_finalize(q, core);
        }
        return true;
    }
    let Pending { kind, seq, item, file } = p;
    let mark = tap_mark();
    // Decoder pool: pop one under a brief source relock (or build a
    // fresh one from the spec). `inflight > 0` pins the phase, so the
    // SrcState — and its decoder spec — is still the one this morsel
    // was claimed from, stolen morsels included.
    let mut decoder = {
        let mut src = lock(&q.src);
        src.decoders.pop().or_else(|| src.decoder_spec.clone().map(|(s, p)| HeapDecoder::new(s, p)))
    };
    // Panic containment: injected chaos panics (the morsel fault site)
    // and *any* real panic in morsel processing unwind to here and
    // become a typed per-query error — the worker thread, the pool,
    // and every other query survive.
    let result = match catch_unwind(AssertUnwindSafe(|| {
        if q.storage.morsel_panics(file, morsel_panic_key(kind, seq)) {
            std::panic::panic_any(InjectedPanic { key: morsel_panic_key(kind, seq) });
        }
        q.process(kind, seq, item, &mut decoder)
    })) {
        Ok(r) => r,
        Err(payload) => {
            // The decoder may have unwound mid-decode: drop it rather
            // than returning it to the pool.
            decoder = None;
            Err(panic_error(payload.as_ref()))
        }
    };
    if let Some(d) = decoder {
        lock(&q.src).decoders.push(d);
    }
    let mut delta = mark.delta();
    delta.morsels = 1;
    lock(&q.stats).merge(&delta);
    if let Err(e) = result {
        q.record_err(seq, e);
    }
    if q.inflight.fetch_sub(1, Ordering::AcqRel) == 1 {
        maybe_finalize(q, core);
    }
    true
}

/// Steal the *back* of the longest peer queue: the morsel farthest
/// from the owner's working set, so the owner keeps its hot front.
/// Ties break toward the lowest worker index. Best-effort — a peer may
/// drain its queue between the length probe and the pop.
fn steal(q: &Arc<ActiveQuery>, widx: usize) -> Option<Pending> {
    let victim = (0..q.queues.len())
        .filter(|&v| v != widx)
        .max_by_key(|&v| (lock(&q.queues[v]).len(), std::cmp::Reverse(v)))?;
    lock(&q.queues[victim]).pop_back()
}

/// Discard every queued morsel of a failed query, releasing their
/// `inflight` pins so the phase can finalize.
fn drain_queues(q: &Arc<ActiveQuery>, core: &SchedCore) {
    let mut drained = 0;
    for queue in &q.queues {
        drained += lock(queue).drain(..).count();
    }
    if drained > 0 && q.inflight.fetch_sub(drained, Ordering::AcqRel) == drained {
        maybe_finalize(q, core);
    }
}

/// If the current phase is fully drained (source exhausted, no morsel
/// in flight), close it out: merge build partials and open the next
/// phase, or complete the query. Runs under the source lock; the
/// `finalized` flag makes it idempotent.
fn maybe_finalize(q: &Arc<ActiveQuery>, core: &SchedCore) {
    let mut src = lock(&q.src);
    if src.finalized || !src.done || q.inflight.load(Ordering::Acquire) != 0 {
        return;
    }
    src.finalized = true;
    let end_seq = src.seq;
    if let Some(c) = src.core.take() {
        let mark = tap_mark();
        if let Err(e) = c.close() {
            q.record_err(end_seq, e);
        }
        lock(&q.stats).merge(&mark.delta());
    }
    let kind = src.kind;
    if q.failed.load(Ordering::Acquire) {
        drop(src);
        complete_err(q, core);
        return;
    }
    match kind {
        PhaseKind::Build(i) => {
            let advanced = advance_build(q, i, &mut src);
            drop(src);
            match advanced {
                Ok(()) => {
                    let mut st = lock(&core.state);
                    st.epoch += 1;
                    drop(st);
                    core.cv.notify_all();
                }
                Err(e) => {
                    q.record_err(end_seq, e);
                    complete_err(q, core);
                }
            }
        }
        PhaseKind::Probe => {
            drop(src);
            complete_ok(q, core);
        }
    }
}

/// Merge build `i`'s per-worker partials into its probe table and
/// install the next phase into `src`.
fn advance_build(q: &Arc<ActiveQuery>, i: usize, src: &mut SrcState) -> Result<()> {
    let phase = &q.builds[i];
    // Build input exhausted: settle deferred grace-join passes on the
    // tables this build's nested probes touched — exactly where the
    // serial cascade's probe exhaustion charges them, before the new
    // table's budget enforcement below. `finish_probe` is idempotent,
    // so `complete_ok`'s blanket pass over all tables stays safe.
    if let Some(stages) = lock(&phase.stages).clone() {
        for stage in stages.iter() {
            if let Stage::Probe(t, _) = stage {
                t.table.finish_probe(&q.storage)?;
            }
        }
    }
    let slots = std::mem::take(&mut *lock(&q.build_slots));
    let mut table = merge_partials(slots, &phase.schema, phase.right_col, phase.partitions);
    // The merged table is byte-identical to the serial build, so the
    // budget enforcement — and its charged spill I/O — is too. A
    // failed overflow-file write (injected spill fault) fails the
    // whole query here.
    table.apply_budget(&q.storage, phase.mem_bytes)?;
    lock(&q.tables).push(Arc::new(ProbeTable { table, left_col: phase.left_col, ty: phase.ty }));
    // Build `i` completed: open the sources of tranche `i + 1` in the
    // serial cascade's open order (bushy trees open build sources
    // before their own phase starts).
    let mark = tap_mark();
    let tranche = open_build_tranche(q, i + 1);
    lock(&q.stats).merge(&mark.delta());
    tranche?;
    if i + 1 < q.builds.len() {
        install_build_phase(q, i + 1, src)
    } else {
        q.resolve_probe_stages();
        // invariant: `admit` parks the probe source whenever builds
        // exist, and only the last build's finalizer reaches here.
        let (core, decoder) =
            lock(&q.parked_probe).take().expect("probe source parked at admission");
        *src = SrcState::new(core, decoder, PhaseKind::Probe);
        Ok(())
    }
}

/// Open every build source whose `open_at` tranche is `at`, in
/// `open_order` — the serial driver's exact open order — and park the
/// opened cores until their build phase starts. The caller brackets
/// this with a tap mark so the open I/O is attributed to the query.
fn open_build_tranche(q: &ActiveQuery, at: usize) -> Result<()> {
    let mut order: Vec<usize> = (0..q.builds.len()).collect();
    order.sort_by_key(|&j| q.builds[j].open_order);
    for j in order {
        if q.builds[j].open_at != at {
            continue;
        }
        let Some(source) = lock(&q.builds[j].source).take() else { continue };
        let opened = open_source(source, q.morsel_rows)?;
        *lock(&q.builds[j].parked) = Some(opened);
    }
    Ok(())
}

/// Start build `i`: resolve its stages against the finished tables
/// (nested probes reference earlier builds only) and install its
/// parked source as the query's active phase.
fn install_build_phase(q: &ActiveQuery, i: usize, src: &mut SrcState) -> Result<()> {
    let phase = &q.builds[i];
    let (core, decoder) = lock(&phase.parked).take().ok_or_else(|| {
        Error::plan(format!("build {i} source never opened (open_at {})", phase.open_at))
    })?;
    let tables = lock(&q.tables).clone();
    let (stages, _) = resolve_stages(&phase.spec_stages, core.schema(), &tables)?;
    *lock(&phase.stages) = Some(Arc::new(stages));
    *src = SrcState::new(core, decoder, PhaseKind::Build(i));
    Ok(())
}

/// Merge per-worker build partials into one probe table. One slot
/// converts directly (its match lists are already in global order);
/// several merge by global build position via the charge-free
/// [`JoinBuildTable::merge_partition`], so the result — and the clock —
/// are byte-identical to the single-worker build.
fn merge_partials(
    slots: Vec<JoinBuildPartial>,
    schema: &Schema,
    right_col: usize,
    partitions: usize,
) -> JoinBuildTable {
    if slots.len() <= 1 {
        return slots
            .into_iter()
            .next()
            .unwrap_or_else(|| JoinBuildPartial::new(schema, right_col, partitions))
            .into_table(schema);
    }
    let mut payloads = Vec::with_capacity(slots.len());
    let mut part_iters = Vec::with_capacity(slots.len());
    for slot in slots {
        let (payload, parts) = slot.into_parts();
        payloads.push(payload);
        part_iters.push(parts.into_iter());
    }
    let mut parts = Vec::with_capacity(partitions);
    for _ in 0..partitions {
        let worker_maps: Vec<PartialPartition> = part_iters
            .iter_mut()
            // invariant: `JoinBuildPartial::new` always allocates
            // exactly `partitions` partitions per slot.
            .map(|it| it.next().expect("every partial has `partitions` partitions"))
            .collect();
        parts.push(JoinBuildTable::merge_partition(worker_maps));
    }
    JoinBuildTable::from_merged(schema, right_col, payloads, parts)
}

/// Finish a successful query: fold the sink state into result rows and
/// hand them to the session.
fn complete_ok(q: &Arc<ActiveQuery>, core: &SchedCore) {
    // Probe input fully consumed: charge any deferred grace-join spill
    // passes (order-independent sums, so the charge is identical no
    // matter how workers interleaved the probe morsels). The spool is
    // a spill write, so it can fail the query this late.
    for t in lock(&q.tables).iter() {
        if let Err(e) = t.table.finish_probe(&q.storage) {
            q.record_err(u64::MAX, e);
        }
    }
    if q.failed.load(Ordering::Acquire) {
        complete_err(q, core);
        return;
    }
    let mut batches = Vec::new();
    let rows = match &q.sink_kind {
        SinkKind::Collect => {
            let mut sink = lock(&q.sink);
            debug_assert!(sink.pending.is_empty(), "ordered sink drained every seq");
            batches = std::mem::take(&mut sink.batches);
            Vec::new()
        }
        SinkKind::Agg { group_cols, aggs, exact: true } => {
            let slots = std::mem::take(&mut *lock(&q.agg_slots));
            let mut merged = PartialAgg::new(group_cols, aggs);
            for slot in slots {
                merged.merge(slot);
            }
            merged.finish()
        }
        SinkKind::Agg { .. } => {
            let mut sink = lock(&q.sink);
            debug_assert!(sink.pending.is_empty(), "ordered sink drained every seq");
            // invariant: `plan` installs the ordered agg for every
            // non-exact aggregate sink, and only `complete_ok` (run
            // once — it empties `done_tx`) takes it.
            sink.ordered_agg.take().expect("ordered agg installed at plan time").finish()
        }
        SinkKind::Sort { keys, mem_bytes } => {
            // The buffered rows are in morsel = serial scan order, so
            // this one stable sort pass produces — and charges —
            // exactly what the serial `Sort` operator does. It can
            // spill under a budget, so it can still fail the query.
            let mut rows = {
                let mut sink = lock(&q.sink);
                debug_assert!(sink.pending.is_empty(), "ordered sink drained every seq");
                std::mem::take(&mut sink.rows)
            };
            let mark = tap_mark();
            let sorted = crate::sort::sort_rows_charged(&q.storage, &mut rows, keys, *mem_bytes);
            lock(&q.stats).merge(&mark.delta());
            if let Err(e) = sorted {
                q.record_err(u64::MAX, e);
            }
            rows
        }
    };
    if q.failed.load(Ordering::Acquire) {
        complete_err(q, core);
        return;
    }
    let mut stats = *lock(&q.stats);
    stats.lock_wait_ns = stats.lock_wait_ns.saturating_add(q.lock_wait_ns.load(Ordering::Relaxed));
    finish(q, core, Ok(QueryOutput { batches, rows, stats }));
}

/// Finish a failed query with its first (lowest-seq) error, releasing
/// everything it still holds: worker-side partial slots, finished
/// build tables (dropping their overflow spill files), the sink
/// buffer, and any parked source — so a failed query leaves no build
/// memory, no spill files, and no open sources behind, no matter which
/// phase it died in.
fn complete_err(q: &Arc<ActiveQuery>, core: &SchedCore) {
    lock(&q.build_slots).clear();
    lock(&q.agg_slots).clear();
    *lock(&q.probe_stages) = None;
    lock(&q.tables).clear();
    {
        let mut sink = lock(&q.sink);
        sink.pending.clear();
        sink.batches.clear();
        sink.rows.clear();
        sink.ordered_agg = None;
    }
    if let Some((parked, _)) = lock(&q.parked_probe).take() {
        let _ = parked.close();
    }
    // Bushy trees park opened build sources ahead of their phase;
    // close any still waiting so a failed query leaves none open.
    for phase in &q.builds {
        *lock(&phase.stages) = None;
        if let Some((parked, _)) = lock(&phase.parked).take() {
            let _ = parked.close();
        }
    }
    let err = lock(&q.err)
        .take()
        .map(|(_, e)| e)
        .unwrap_or_else(|| Error::exec("query failed without a recorded error"));
    finish(q, core, Err(err));
}

fn finish(q: &Arc<ActiveQuery>, core: &SchedCore, result: Result<QueryOutput>) {
    if let Some(tx) = lock(&q.done_tx).take() {
        let _ = tx.send(result);
    }
    {
        let mut st = lock(&core.state);
        st.running.retain(|r| !Arc::ptr_eq(r, q));
        st.epoch += 1;
    }
    core.cv.notify_all();
    pump(core);
}

// Compile-time Send/Sync audit: queries are shared across the pool.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ActiveQuery>();
    assert_send_sync::<SchedCore>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::collect_rows;
    use crate::{FullTableScan, SinkSpec};
    use smooth_storage::{CpuCosts, DeviceProfile, HeapFile, HeapLoader, StorageConfig};
    use smooth_types::{Column, DataType, DataType::Int64, Value};

    fn table(rows: i64, name: &str) -> Arc<HeapFile> {
        let schema = Schema::new(vec![
            Column::new("c0", Int64),
            Column::new("c1", Int64),
            Column::new("pad", DataType::Text),
        ])
        .unwrap();
        let mut loader = HeapLoader::new_mem(name, schema);
        for i in 0..rows {
            let c1 = (i * 2654435761 % 1000 + 1000) % 1000;
            loader
                .push(&Row::new(vec![Value::Int(i), Value::Int(c1), Value::str("y".repeat(24))]))
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

    fn scan_pipeline(heap: &Arc<HeapFile>, s: &Storage, lo: i64, hi: i64) -> ParallelPipeline {
        // The predicate rides in the scan itself (the planner pushes it
        // there), so `rows_processed` reflects qualifying tuples.
        ParallelPipeline {
            source: ParallelSource::Heap {
                heap: Arc::clone(heap),
                predicate: Predicate::int_half_open(1, lo, hi),
                readahead: crate::scan::FULL_SCAN_READAHEAD,
            },
            builds: Vec::new(),
            stages: Vec::new(),
            sink: SinkSpec::Collect,
            storage: s.clone(),
            morsel_rows: smooth_types::DEFAULT_BATCH_SIZE,
        }
    }

    fn serial_rows(heap: &Arc<HeapFile>, lo: i64, hi: i64) -> Vec<Row> {
        let s = storage();
        let mut op = FullTableScan::new(Arc::clone(heap), s, Predicate::int_half_open(1, lo, hi));
        collect_rows(&mut op).unwrap()
    }

    #[test]
    fn concurrent_queries_on_one_scheduler_are_row_identical() {
        let heap = table(3000, "shared");
        let s = storage();
        let scheduler = Scheduler::new(4, 4);
        let ranges = [(0i64, 250i64), (250, 600), (600, 1000), (0, 1000)];
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(lo, hi)| scheduler.submit(scan_pipeline(&heap, &s, lo, hi)).unwrap())
            .collect();
        for (handle, &(lo, hi)) in handles.into_iter().zip(&ranges) {
            let out = handle.wait().unwrap();
            assert!(out.rows.is_empty(), "collect sink output stays columnar");
            assert!(out.stats.rows_scanned >= out.stats.rows_processed);
            assert_eq!(out.stats.rows_processed, out.len() as u64);
            assert!(out.stats.morsels > 0);
            assert_eq!(out.into_rows(), serial_rows(&heap, lo, hi), "range [{lo},{hi})");
        }
    }

    #[test]
    fn admission_caps_concurrency_and_queues_fifo() {
        // max_queries = 1: queries run strictly one at a time, yet all
        // queued submissions complete correctly.
        let heap = table(2000, "fifo");
        let s = storage();
        let scheduler = Scheduler::new(2, 1);
        let handles: Vec<_> = (0..5)
            .map(|i| {
                let hi = 100 * (i + 1) as i64;
                scheduler.submit(scan_pipeline(&heap, &s, 0, hi)).unwrap()
            })
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            let hi = 100 * (i + 1) as i64;
            assert_eq!(handle.wait().unwrap().into_rows(), serial_rows(&heap, 0, hi));
        }
    }

    #[test]
    fn per_query_stats_attribute_io_under_concurrency() {
        // Two concurrent full scans over *different* heaps on one
        // shared storage: each query's pages must equal its own heap's
        // page count (attribution never leaks across queries), and the
        // sum of per-query pages equals the engine-global counter.
        let a = table(2400, "heap_a");
        let b = table(1200, "heap_b");
        let s = storage();
        s.reset_metrics();
        let scheduler = Scheduler::new(4, 4);
        let ha = scheduler.submit(scan_pipeline(&a, &s, 0, 1000)).unwrap();
        let hb = scheduler.submit(scan_pipeline(&b, &s, 0, 1000)).unwrap();
        let oa = ha.wait().unwrap();
        let ob = hb.wait().unwrap();
        assert_eq!(oa.stats.pages_read, u64::from(a.page_count()));
        assert_eq!(ob.stats.pages_read, u64::from(b.page_count()));
        assert_eq!(oa.stats.rows_scanned, 2400);
        assert_eq!(ob.stats.rows_scanned, 1200);
        let engine = s.io_snapshot();
        assert_eq!(engine.pages_read, oa.stats.pages_read + ob.stats.pages_read);
        assert_eq!(engine.buffer_hits, oa.stats.buffer_hits + ob.stats.buffer_hits);
    }

    #[test]
    fn cancelled_query_fails_typed_and_scheduler_survives() {
        let heap = table(3000, "cancel_me");
        let s = storage();
        let scheduler = Scheduler::new(2, 4);
        let handle = scheduler.submit(scan_pipeline(&heap, &s, 0, 1000)).unwrap();
        handle.cancel();
        // Cancellation lands at a morsel boundary: the query must fail
        // with the typed variant (or, if it already finished the race,
        // return its complete result — never hang, never a partial).
        match handle.wait() {
            Err(Error::Cancelled) => {}
            Ok(out) => assert_eq!(out.into_rows(), serial_rows(&heap, 0, 1000)),
            Err(e) => panic!("unexpected error: {e}"),
        }
        // The pool is untouched: a fresh query still runs to completion.
        let out = scheduler.submit(scan_pipeline(&heap, &s, 0, 250)).unwrap().wait().unwrap();
        assert_eq!(out.into_rows(), serial_rows(&heap, 0, 250));
    }

    #[test]
    fn cancelling_a_waiting_query_dequeues_it() {
        // max_queries = 1: the second submission waits for admission;
        // cancelling it must complete it immediately with Cancelled
        // without disturbing the running query.
        let heap = table(2000, "waitq");
        let s = storage();
        let scheduler = Scheduler::new(2, 1);
        let running = scheduler.submit(scan_pipeline(&heap, &s, 0, 1000)).unwrap();
        let waiting = scheduler.submit(scan_pipeline(&heap, &s, 0, 500)).unwrap();
        waiting.cancel();
        assert!(matches!(waiting.wait(), Err(Error::Cancelled)));
        assert_eq!(running.wait().unwrap().into_rows(), serial_rows(&heap, 0, 1000));
    }

    #[test]
    fn virtual_clock_timeout_cancels_long_queries() {
        // The deadline is virtual: an HDD-modeled scan of a few dozen
        // pages charges millions of virtual nanoseconds, so a 1-virtual-
        // millisecond budget trips at an early morsel boundary.
        let heap = table(3000, "deadline");
        let s = Storage::default_hdd();
        let scheduler = Scheduler::new(2, 4);
        scheduler.set_timeout_ms(1);
        assert_eq!(scheduler.timeout_ms(), 1);
        let err = scheduler.submit(scan_pipeline(&heap, &s, 0, 1000)).unwrap().wait().unwrap_err();
        assert!(matches!(err, Error::Cancelled), "{err}");
        // Disabling the timeout restores normal completion.
        scheduler.set_timeout_ms(0);
        let out = scheduler.submit(scan_pipeline(&heap, &s, 0, 1000)).unwrap().wait().unwrap();
        assert_eq!(out.into_rows(), serial_rows(&heap, 0, 1000));
    }

    #[test]
    fn injected_panic_is_contained_and_other_sessions_survive() {
        use smooth_storage::FaultConfig;
        let poisoned_heap = table(2000, "poisoned");
        let clean_heap = table(2000, "clean");
        let sp = storage();
        sp.set_faults(Some(FaultConfig::new(11).panic(1.0)));
        let sc = storage();
        let scheduler = Scheduler::new(4, 4);
        // Interleave: the poisoned query panics at its first morsel
        // while the clean one runs on the same pool.
        let hp = scheduler.submit(scan_pipeline(&poisoned_heap, &sp, 0, 1000)).unwrap();
        let hc = scheduler.submit(scan_pipeline(&clean_heap, &sc, 0, 1000)).unwrap();
        let err = hp.wait().unwrap_err();
        assert!(matches!(&err, Error::Exec(msg) if msg.contains("injected worker panic")), "{err}");
        assert_eq!(hc.wait().unwrap().into_rows(), serial_rows(&clean_heap, 0, 1000));
        // Containment left the workers alive: a fresh query still runs.
        let out =
            scheduler.submit(scan_pipeline(&clean_heap, &sc, 0, 250)).unwrap().wait().unwrap();
        assert_eq!(out.into_rows(), serial_rows(&clean_heap, 0, 250));
    }

    #[test]
    fn transient_io_faults_retry_to_success_with_backoff_on_the_clock() {
        use smooth_storage::faults::BACKOFF_BASE_NS;
        use smooth_storage::FaultConfig;
        let heap = table(2000, "flaky");
        let s = storage();
        // Low-probability transient faults: every page read that draws
        // a fault retries (deterministically) and succeeds, so the
        // query completes with exactly the fault-free rows while the
        // clock absorbs the backoff.
        s.set_faults(Some(FaultConfig::new(5).io_err(0.2)));
        let clock0 = s.clock().snapshot();
        let scheduler = Scheduler::new(4, 4);
        let out = scheduler.submit(scan_pipeline(&heap, &s, 0, 1000)).unwrap().wait().unwrap();
        assert_eq!(out.into_rows(), serial_rows(&heap, 0, 1000));
        let spent = s.clock().snapshot().since(&clock0);
        // At p = 0.2 over dozens of page reads some fault draws are
        // certain; each charges at least one base backoff to I/O.
        assert!(spent.io_ns >= BACKOFF_BASE_NS, "no retry backoff observed");
    }

    #[test]
    fn permanent_faults_exhaust_retries_into_typed_error() {
        use smooth_storage::{faults::RETRY_LIMIT, FaultConfig};
        let heap = table(2000, "doomed");
        let s = storage();
        s.set_faults(Some(FaultConfig::new(9).io_err(1.0)));
        let scheduler = Scheduler::new(2, 4);
        let err = scheduler.submit(scan_pipeline(&heap, &s, 0, 1000)).unwrap().wait().unwrap_err();
        assert!(matches!(err, Error::Faulted { attempts } if attempts == RETRY_LIMIT), "{err}");
    }
}

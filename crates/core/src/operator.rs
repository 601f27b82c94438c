//! The Smooth Scan operator (Sections III–IV).
//!
//! Smooth Scan is driven by the B+-tree range cursor, exactly like an index
//! scan — but instead of fetching one tuple per probe it *morphs*:
//!
//! * **Mode 0** (only under the Optimizer/SLA triggers): behave as a
//!   traditional index scan, recording produced tuples in the Tuple-ID
//!   cache, until the trigger cardinality is exceeded.
//! * **Mode 1 — Entire Page Probe**: examine *all* records of each heap
//!   page fetched, trading CPU for I/O (never visit a page twice).
//! * **Mode 2(+) — Flattening Access**: fetch a growing region of adjacent
//!   pages per probe, replacing random with sequential I/O; the region
//!   size is owned by the [`MorphPolicy`].
//!
//! Already-visited pages are skipped via the Page-ID cache (the ✗ marks of
//! Fig. 3). With an interesting order to respect, qualifying tuples found
//! ahead of the cursor wait in the partitioned Result Cache; without one,
//! they are emitted the moment they are found (Section IV-B).

use std::ops::Bound;
use std::sync::Arc;

use smooth_executor::{Operator, Predicate, ScanFilter};
use smooth_index::{BTreeIndex, IndexCursor};
use smooth_storage::{HeapFile, PageView, Storage};
use smooth_types::{ColumnBatch, ColumnBuffer, PageId, Result, Row, Schema, Tid, Value};

use crate::cost_model::{CostModel, TableGeometry};
use crate::page_cache::PageIdCache;
use crate::policy::{MorphPolicy, PolicyKind};
use crate::result_cache::{ResultCache, ResultCacheStats};
use crate::trigger::Trigger;
use crate::tuple_cache::TupleIdCache;

/// Configuration of one Smooth Scan instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmoothScanConfig {
    /// Morphing policy (ignored before the trigger fires).
    pub policy: PolicyKind,
    /// Morphing trigger strategy.
    pub trigger: Trigger,
    /// Respect the index key order (engage the Result Cache).
    pub ordered: bool,
    /// Region-size cap in pages (2048 = 16 MB, the paper's optimum).
    pub max_region_pages: u32,
    /// Result-Cache key-range partitions (Section IV-A).
    pub result_cache_partitions: usize,
    /// Spill the Result Cache beyond this many resident tuples.
    pub result_cache_spill: Option<usize>,
}

impl Default for SmoothScanConfig {
    fn default() -> Self {
        SmoothScanConfig {
            policy: PolicyKind::Elastic,
            trigger: Trigger::Eager,
            ordered: false,
            max_region_pages: MorphPolicy::DEFAULT_MAX_REGION,
            result_cache_partitions: 16,
            result_cache_spill: None,
        }
    }
}

impl SmoothScanConfig {
    /// The paper's default: Eager + Elastic (Section VI).
    pub fn eager_elastic() -> Self {
        Self::default()
    }

    /// Cap morphing at Mode 1 (Fig. 6's "Entire Page Probe" ablation).
    pub fn mode1_only(mut self) -> Self {
        self.max_region_pages = 1;
        self
    }

    /// Builder: set the policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Builder: set the trigger.
    pub fn with_trigger(mut self, trigger: Trigger) -> Self {
        self.trigger = trigger;
        self
    }

    /// Builder: respect key order.
    pub fn with_order(mut self, ordered: bool) -> Self {
        self.ordered = ordered;
        self
    }
}

/// Counters exposed after execution (Figs. 6–9 are plotted from these).
#[derive(Debug, Clone, Copy, Default)]
pub struct SmoothScanMetrics {
    /// Rows returned to the parent operator.
    pub tuples_emitted: u64,
    /// Rows produced by the traditional phase (Mode 0).
    pub mode0_tuples: u64,
    /// Morphing regions processed.
    pub regions: u64,
    /// Pages processed in Mode 1 (single-page regions).
    pub mode1_pages: u64,
    /// Pages processed in Mode 2 (flattening regions).
    pub mode2_pages: u64,
    /// Pages fetched by morphing (`#P_seen`).
    pub pages_fetched: u64,
    /// Fetched pages holding at least one result (`#P_res`).
    pub pages_with_results: u64,
    /// Largest region used.
    pub max_region_pages: u32,
    /// Whether a non-Eager trigger fired.
    pub triggered: bool,
    /// Result-Cache counters (ordered mode only).
    pub cache: ResultCacheStats,
}

impl SmoothScanMetrics {
    /// Morphing accuracy (Fig. 9b): result pages over checked pages.
    pub fn morphing_accuracy(&self) -> Option<f64> {
        (self.pages_fetched > 0).then(|| self.pages_with_results as f64 / self.pages_fetched as f64)
    }

    /// Result-Cache hit rate (Fig. 9a): hits over tuple requests.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        (self.cache.requests > 0).then(|| self.cache.hits as f64 / self.cache.requests as f64)
    }
}

/// The morphing access path.
pub struct SmoothScan {
    heap: Arc<HeapFile>,
    index: Arc<BTreeIndex>,
    storage: Storage,
    key_col: usize,
    lo: Bound<i64>,
    hi: Bound<i64>,
    residual: Predicate,
    /// Compiled `key range AND residual` filter, probed on encoded tuples.
    filter: ScanFilter,
    config: SmoothScanConfig,
    model: CostModel,
    // run-time state
    cursor: Option<IndexCursor>,
    page_cache: PageIdCache,
    tuple_cache: Option<TupleIdCache>,
    result_cache: Option<ResultCache>,
    policy: MorphPolicy,
    traditional_until: Option<u64>,
    /// Pending output: a columnar FIFO both iterator protocols drain.
    /// Unordered morphing regions decode their qualifiers straight into
    /// it (no per-row materialization); Mode-0 tuples, Result-Cache hits
    /// and ordered driving tuples append row-wise.
    out: ColumnBuffer,
    metrics: SmoothScanMetrics,
}

impl SmoothScan {
    /// Build a Smooth Scan over `index` (on `key_col` of `heap`) for keys
    /// in `[lo, hi]`, with `residual` filtering the remaining columns.
    #[allow(clippy::too_many_arguments)] // mirrors the access-path ctor shape
    pub fn new(
        heap: Arc<HeapFile>,
        index: Arc<BTreeIndex>,
        storage: Storage,
        key_col: usize,
        lo: Bound<i64>,
        hi: Bound<i64>,
        residual: Predicate,
        config: SmoothScanConfig,
    ) -> Self {
        let full_pred =
            Predicate::and(vec![Predicate::IntRange { col: key_col, lo, hi }, residual.clone()]);
        let filter = ScanFilter::new(full_pred, heap.schema());
        let model = CostModel::new(
            TableGeometry::new(
                (heap.schema().estimated_tuple_width(16) as u64).max(1),
                heap.tuple_count(),
            ),
            storage.device(),
        );
        let pages = heap.page_count();
        let out = ColumnBuffer::for_schema(heap.schema());
        SmoothScan {
            heap,
            index,
            storage,
            key_col,
            lo,
            hi,
            residual,
            filter,
            config,
            model,
            cursor: None,
            page_cache: PageIdCache::new(pages),
            tuple_cache: None,
            result_cache: None,
            policy: MorphPolicy::new(config.policy, config.max_region_pages),
            traditional_until: None,
            out,
            metrics: SmoothScanMetrics::default(),
        }
    }

    /// Execution counters (valid during and after execution).
    pub fn metrics(&self) -> SmoothScanMetrics {
        let mut m = self.metrics;
        if let Some(rc) = &self.result_cache {
            m.cache = rc.stats();
        }
        m
    }

    /// The analytical model for this scan's table and device.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    fn key_of(&self, row: &Row) -> Result<i64> {
        match row.get(self.key_col) {
            Value::Int(k) => Ok(*k),
            other => Err(smooth_types::Error::exec(format!("non-integer index key {other}"))),
        }
    }

    /// Process all unvisited pages of the region `[start, start+len)`:
    /// mark them visited, collect qualifying tuples, update the policy.
    /// In ordered mode the driving tuple (if it qualifies) is returned and
    /// other finds go to the Result Cache; in unordered mode everything is
    /// queued in the columnar output buffer.
    ///
    /// Region processing is vectorized: the predicate is probed on the
    /// encoded tuples (only the key/residual columns are decoded for
    /// non-qualifiers) and the virtual clock is charged once per page
    /// rather than per tuple, with totals identical to the per-tuple
    /// accounting. In unordered mode the qualifiers additionally decode
    /// *straight into column vectors* — the whole morphing region becomes
    /// a columnar morsel without a single `Row` materializing. Ordered
    /// mode stays row-wise (the Result Cache stores rows keyed by
    /// `(key, tid)`), with identical clock totals either way.
    fn process_region(&mut self, driving: Tid, len: u32) -> Result<Option<Row>> {
        let end = (driving.page.0 + len).min(self.heap.page_count());
        let cpu = *self.storage.cpu();
        let mut driving_row = None;
        let mut pages_processed = 0u64;
        let mut pages_with_results = 0u64;
        let mut p = driving.page.0;
        while p < end {
            self.storage.clock().charge_cpu(cpu.bitmap_op_ns);
            if self.page_cache.contains(PageId(p)) {
                p += 1;
                continue;
            }
            let run = self.page_cache.unvisited_run(PageId(p), end - p);
            let pages = self.storage.read_heap_run(&self.heap, PageId(p), run)?;
            self.storage.charge_page_probes(run as u64);
            for (pid, buf) in &pages {
                self.page_cache.insert(*pid);
                let had_result;
                let view = PageView::new(buf)?;
                let mut bitmap_ops = 0u64;
                if self.config.ordered {
                    let mut inspected = 0u64;
                    let mut emitted = 0u64;
                    let mut any = false;
                    for slot in 0..view.slot_count() {
                        let tid = Tid { page: *pid, slot };
                        if let Some(tc) = &self.tuple_cache {
                            bitmap_ops += 1;
                            if tc.contains(tid) {
                                continue; // already produced by Mode 0
                            }
                        }
                        inspected += 1;
                        let bytes = view.get(slot)?;
                        let Some(row) = self.filter.filter_decode(self.heap.schema(), bytes)?
                        else {
                            continue;
                        };
                        any = true;
                        emitted += 1;
                        if tid == driving {
                            driving_row = Some(row);
                        } else {
                            let key = self.key_of(&row)?;
                            self.result_cache
                                .as_mut()
                                .expect("ordered mode has a result cache")
                                .insert(&self.storage, key, tid, row);
                        }
                    }
                    had_result = any;
                    self.storage.clock().charge_cpu(
                        cpu.bitmap_op_ns * bitmap_ops
                            + cpu.inspect_tuple_ns * inspected
                            + cpu.emit_tuple_ns * emitted,
                    );
                } else {
                    let mut tuples: Vec<&[u8]> = Vec::with_capacity(view.slot_count() as usize);
                    for slot in 0..view.slot_count() {
                        if let Some(tc) = &self.tuple_cache {
                            bitmap_ops += 1;
                            if tc.contains(Tid { page: *pid, slot }) {
                                continue; // already produced by Mode 0
                            }
                        }
                        tuples.push(view.get(slot)?);
                    }
                    let (inspected, emitted) = self.filter.fill_columns(
                        self.heap.schema(),
                        &tuples,
                        Some(buf),
                        self.out.fill(),
                    )?;
                    had_result = emitted > 0;
                    self.storage.clock().charge_cpu(
                        cpu.bitmap_op_ns * bitmap_ops
                            + cpu.inspect_tuple_ns * inspected
                            + cpu.emit_tuple_ns * emitted,
                    );
                }
                pages_processed += 1;
                if had_result {
                    pages_with_results += 1;
                }
            }
            p += run.max(1);
        }
        // Update policy + metrics with this region's outcome.
        if pages_processed > 0 {
            self.metrics.regions += 1;
            self.metrics.pages_fetched += pages_processed;
            self.metrics.pages_with_results += pages_with_results;
            self.metrics.max_region_pages = self.metrics.max_region_pages.max(len);
            if len <= 1 {
                self.metrics.mode1_pages += pages_processed;
            } else {
                self.metrics.mode2_pages += pages_processed;
            }
            self.policy.observe_region(pages_processed, pages_with_results);
        }
        Ok(driving_row)
    }

    /// Advance the driving cursor by one probe. Any rows this produces —
    /// a Mode-0 tuple, a Result-Cache hit, the ordered driving tuple, or a
    /// whole region's worth of unordered finds — append to the columnar
    /// output buffer in emission order. Returns `false` at cursor
    /// exhaustion.
    fn advance(&mut self) -> Result<bool> {
        let Some((key, tid)) = self.cursor.as_mut().expect("opened").next() else {
            return Ok(false);
        };
        if let Some(rc) = self.result_cache.as_mut() {
            // Record the cursor position; the eviction sweep runs once
            // per emitted batch (see `flush_cache_eviction`), not per key.
            rc.defer_advance(key);
        }
        // Mode 0: traditional index scan until the trigger fires.
        if let Some(limit) = self.traditional_until {
            if self.metrics.mode0_tuples >= limit {
                self.traditional_until = None;
                self.metrics.triggered = true;
            } else {
                if let Some(row) = self.mode0_step(tid)? {
                    self.out.fill().push_owned_row(row)?;
                }
                return Ok(true);
            }
        }
        // Smooth phase.
        if self.config.ordered {
            let cached = self
                .result_cache
                .as_mut()
                .expect("ordered mode has a result cache")
                .probe(&self.storage, key, tid);
            if let Some(row) = cached {
                self.out.fill().push_owned_row(row)?;
                return Ok(true);
            }
        }
        self.storage.clock().charge_cpu(self.storage.cpu().bitmap_op_ns);
        if self.page_cache.contains(tid.page) {
            // Page fully examined before: the tuple either did not
            // qualify or was already produced.
            return Ok(true);
        }
        let region = self.policy.region_pages();
        if let Some(row) = self.process_region(tid, region)? {
            self.out.fill().push_owned_row(row)?;
        }
        Ok(true)
    }

    /// Batch-boundary Result-Cache sweep: applied once per protocol call,
    /// so ordered-mode eviction bookkeeping amortizes over whole morsels.
    fn flush_cache_eviction(&mut self) {
        if let Some(rc) = self.result_cache.as_mut() {
            rc.flush_advance();
        }
    }

    /// One traditional (Mode 0) index-scan step for the driving TID.
    fn mode0_step(&mut self, tid: Tid) -> Result<Option<Row>> {
        let page = self.storage.read_heap_page(&self.heap, tid.page)?;
        let cpu = *self.storage.cpu();
        self.storage.clock().charge_cpu(cpu.inspect_tuple_ns);
        let row = self.heap.decode_slot(&page, tid.slot)?;
        if self.residual.eval(&row)? {
            self.tuple_cache.as_mut().expect("traditional phase has a tuple cache").insert(tid);
            self.metrics.mode0_tuples += 1;
            self.storage.clock().charge_cpu(cpu.emit_tuple_ns);
            Ok(Some(row))
        } else {
            Ok(None)
        }
    }
}

impl Operator for SmoothScan {
    fn schema(&self) -> &Schema {
        self.heap.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.cursor = Some(self.index.range(&self.storage, self.lo, self.hi));
        self.page_cache = PageIdCache::new(self.heap.page_count());
        self.out.reset();
        self.metrics = SmoothScanMetrics::default();
        self.traditional_until = self.config.trigger.trigger_cardinality(&self.model);
        self.tuple_cache = self.traditional_until.map(|_| {
            TupleIdCache::new(self.heap.page_count(), self.heap.max_slots_per_page() as u32)
        });
        self.policy = MorphPolicy::new(
            if self.traditional_until.is_some() {
                self.config.trigger.post_trigger_policy(self.config.policy)
            } else {
                self.config.policy
            },
            self.config.max_region_pages,
        );
        self.result_cache = self.config.ordered.then(|| {
            let cache = ResultCache::new(
                &self.index.root_separators(),
                self.config.result_cache_partitions,
                self.heap.schema().estimated_tuple_width(16),
            );
            match self.config.result_cache_spill {
                Some(limit) => cache.with_spill_threshold(limit),
                None => cache,
            }
        });
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>> {
        self.flush_cache_eviction();
        loop {
            if let Some(row) = self.out.pop_row() {
                self.metrics.tuples_emitted += 1;
                return Ok(Some(row));
            }
            if !self.advance()? {
                return Ok(None);
            }
        }
    }

    /// Columnar Smooth Scan: cursor probes run until a whole morsel is
    /// buffered, then it leaves in one call as a columnar morsel whose
    /// qualifiers never materialized as rows. Morphing decisions (trigger
    /// cardinality, region growth) still advance per probe — the batch
    /// boundary never coarsens the switch logic, it only amortizes
    /// emission — and per-page clock-charge totals are unchanged, so all
    /// mode-switch logic and region accounting survive byte-for-byte.
    fn next_columns(&mut self, max: usize) -> Result<Option<ColumnBatch>> {
        self.flush_cache_eviction();
        let max = max.max(1);
        while self.out.pending() < max {
            if !self.advance()? {
                break;
            }
        }
        let batch = self.out.pop_columns(max);
        if let Some(b) = &batch {
            self.metrics.tuples_emitted += b.len() as u64;
        }
        Ok(batch)
    }

    fn close(&mut self) -> Result<()> {
        if let Some(rc) = &self.result_cache {
            self.metrics.cache = rc.stats();
        }
        self.cursor = None;
        if let Some(rc) = self.result_cache.as_mut() {
            rc.clear();
        }
        self.out.reset();
        Ok(())
    }

    fn label(&self) -> String {
        format!(
            "SmoothScan({} via {}, {:?}, {:?}{})",
            self.heap.name(),
            self.index.name(),
            self.config.policy,
            self.config.trigger,
            if self.config.ordered { ", ordered" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_executor::collect_rows;
    use smooth_storage::{CpuCosts, DeviceProfile, HeapLoader, StorageConfig};
    use smooth_types::{Column, DataType, Schema};

    /// A micro-benchmark-shaped table: c0 = row number, c1 pseudo-random
    /// in [0, 1000), pad to make tuples non-trivial.
    fn table(rows: i64) -> (Arc<HeapFile>, Arc<BTreeIndex>) {
        let schema = Schema::new(vec![
            Column::new("c0", DataType::Int64),
            Column::new("c1", DataType::Int64),
            Column::new("pad", DataType::Text),
        ])
        .unwrap();
        let mut l = HeapLoader::new_mem("t", schema);
        for i in 0..rows {
            let c1 = (i.wrapping_mul(2654435761)) % 1000;
            let c1 = (c1 + 1000) % 1000;
            l.push(&Row::new(vec![Value::Int(i), Value::Int(c1), Value::str("x".repeat(40))]))
                .unwrap();
        }
        let heap = Arc::new(l.finish().unwrap());
        let index = Arc::new(BTreeIndex::build_from_heap("i_c1", &heap, 1).unwrap());
        (heap, index)
    }

    fn storage(pool: usize) -> Storage {
        Storage::new(StorageConfig {
            device: DeviceProfile::custom("t", 1, 10),
            cpu: CpuCosts::default(),
            pool_pages: pool,
        })
    }

    fn smooth(
        heap: &Arc<HeapFile>,
        index: &Arc<BTreeIndex>,
        s: &Storage,
        hi: i64,
        config: SmoothScanConfig,
    ) -> SmoothScan {
        SmoothScan::new(
            Arc::clone(heap),
            Arc::clone(index),
            s.clone(),
            1,
            Bound::Included(0),
            Bound::Excluded(hi),
            Predicate::True,
            config,
        )
    }

    fn oracle(heap: &Arc<HeapFile>, s: &Storage, hi: i64) -> Vec<Row> {
        let mut full = smooth_executor::FullTableScan::new(
            Arc::clone(heap),
            s.clone(),
            Predicate::int_half_open(1, 0, hi),
        );
        let mut rows = collect_rows(&mut full).unwrap();
        rows.sort_by_key(|r| (r.int(1).unwrap(), r.int(0).unwrap()));
        rows
    }

    fn sorted_by_key(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by_key(|r| (r.int(1).unwrap(), r.int(0).unwrap()));
        rows
    }

    #[test]
    fn unordered_smooth_scan_matches_oracle() {
        let (heap, index) = table(3000);
        let s = storage(64);
        let expected = oracle(&heap, &s, 300);
        for policy in [PolicyKind::Greedy, PolicyKind::SelectivityIncrease, PolicyKind::Elastic] {
            let mut ss =
                smooth(&heap, &index, &s, 300, SmoothScanConfig::default().with_policy(policy));
            let rows = sorted_by_key(collect_rows(&mut ss).unwrap());
            assert_eq!(rows, expected, "policy {policy:?}");
        }
    }

    #[test]
    fn ordered_smooth_scan_preserves_key_order_and_results() {
        let (heap, index) = table(3000);
        let s = storage(64);
        let expected = oracle(&heap, &s, 400);
        let mut ss = smooth(&heap, &index, &s, 400, SmoothScanConfig::default().with_order(true));
        let rows = collect_rows(&mut ss).unwrap();
        let keys: Vec<i64> = rows.iter().map(|r| r.int(1).unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "key order preserved");
        assert_eq!(sorted_by_key(rows), expected);
        let m = ss.metrics();
        assert!(m.cache.hits > 0, "result cache served tuples: {:?}", m.cache);
        assert!(m.cache.requests >= m.cache.hits);
    }

    #[test]
    fn no_duplicates_at_full_selectivity() {
        let (heap, index) = table(2000);
        let s = storage(64);
        let mut ss = smooth(&heap, &index, &s, 1000, SmoothScanConfig::default());
        let rows = collect_rows(&mut ss).unwrap();
        assert_eq!(rows.len(), 2000);
        let mut ids: Vec<i64> = rows.iter().map(|r| r.int(0).unwrap()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 2000, "every tuple exactly once");
    }

    #[test]
    fn never_fetches_more_pages_than_the_heap() {
        let (heap, index) = table(5000);
        let s = storage(32);
        let mut ss = smooth(&heap, &index, &s, 1000, SmoothScanConfig::default());
        collect_rows(&mut ss).unwrap();
        let m = ss.metrics();
        assert!(m.pages_fetched <= heap.page_count() as u64);
        assert_eq!(m.pages_fetched, heap.page_count() as u64, "100% sel reads all pages once");
    }

    #[test]
    fn residual_predicates_apply() {
        let (heap, index) = table(3000);
        let s = storage(64);
        let mut ss = SmoothScan::new(
            Arc::clone(&heap),
            Arc::clone(&index),
            s.clone(),
            1,
            Bound::Included(0),
            Bound::Excluded(500),
            Predicate::int_lt(0, 1000),
            SmoothScanConfig::default(),
        );
        let rows = collect_rows(&mut ss).unwrap();
        assert!(rows.iter().all(|r| r.int(0).unwrap() < 1000 && r.int(1).unwrap() < 500));
        let mut full = smooth_executor::FullTableScan::new(
            Arc::clone(&heap),
            s.clone(),
            Predicate::And(vec![Predicate::int_half_open(1, 0, 500), Predicate::int_lt(0, 1000)]),
        );
        assert_eq!(rows.len(), collect_rows(&mut full).unwrap().len());
    }

    #[test]
    fn optimizer_trigger_runs_mode0_then_morphs_without_duplicates() {
        let (heap, index) = table(3000);
        let s = storage(64);
        let expected = oracle(&heap, &s, 600);
        let cfg = SmoothScanConfig::default().with_trigger(Trigger::OptimizerDriven {
            estimated_cardinality: 100,
            policy: PolicyKind::SelectivityIncrease,
        });
        let mut ss = smooth(&heap, &index, &s, 600, cfg);
        let rows = collect_rows(&mut ss).unwrap();
        let m = ss.metrics();
        assert!(m.triggered);
        assert_eq!(m.mode0_tuples, 100);
        assert_eq!(sorted_by_key(rows), expected, "no duplicates, no losses");
    }

    #[test]
    fn optimizer_trigger_not_reached_stays_traditional() {
        let (heap, index) = table(3000);
        let s = storage(64);
        let cfg = SmoothScanConfig::default().with_trigger(Trigger::OptimizerDriven {
            estimated_cardinality: 1_000_000,
            policy: PolicyKind::Elastic,
        });
        let mut ss = smooth(&heap, &index, &s, 10, cfg);
        let rows = collect_rows(&mut ss).unwrap();
        let m = ss.metrics();
        assert!(!m.triggered);
        assert_eq!(m.pages_fetched, 0, "never morphed");
        assert_eq!(m.mode0_tuples as usize, rows.len());
    }

    #[test]
    fn sla_trigger_fires_from_cost_model() {
        let (heap, index) = table(5000);
        let s = storage(16);
        let model = CostModel::new(TableGeometry::new(64, 5000), DeviceProfile::custom("t", 1, 10));
        let bound = (2.0 * model.fs_cost_ns()) as u64;
        let mut ss = smooth(
            &heap,
            &index,
            &s,
            1000,
            SmoothScanConfig::default().with_trigger(Trigger::SlaDriven { bound_ns: bound }),
        );
        let rows = collect_rows(&mut ss).unwrap();
        assert_eq!(rows.len(), 5000);
        assert!(ss.metrics().triggered, "100% selectivity must exceed any SLA trigger point");
    }

    #[test]
    fn mode1_only_never_flattens() {
        let (heap, index) = table(3000);
        let s = storage(64);
        let mut ss = smooth(&heap, &index, &s, 1000, SmoothScanConfig::default().mode1_only());
        collect_rows(&mut ss).unwrap();
        let m = ss.metrics();
        assert_eq!(m.mode2_pages, 0);
        assert_eq!(m.max_region_pages, 1);
        assert_eq!(m.mode1_pages, heap.page_count() as u64);
    }

    #[test]
    fn greedy_converges_faster_than_elastic_on_uniform_low_selectivity() {
        let (heap, index) = table(6000);
        let s1 = storage(64);
        let mut greedy = smooth(
            &heap,
            &index,
            &s1,
            5,
            SmoothScanConfig::default().with_policy(PolicyKind::Greedy),
        );
        collect_rows(&mut greedy).unwrap();
        let greedy_pages = greedy.metrics().pages_fetched;
        let s2 = storage(64);
        let mut elastic = smooth(
            &heap,
            &index,
            &s2,
            5,
            SmoothScanConfig::default().with_policy(PolicyKind::Elastic),
        );
        collect_rows(&mut elastic).unwrap();
        let elastic_pages = elastic.metrics().pages_fetched;
        assert!(
            greedy_pages > elastic_pages,
            "greedy over-fetches at low selectivity: {greedy_pages} vs {elastic_pages}"
        );
    }

    #[test]
    fn smooth_scan_never_rereads_heap_pages() {
        let (heap, index) = table(4000);
        let s = storage(8); // tiny pool: rereads would hit the device
        let mut ss = smooth(&heap, &index, &s, 500, SmoothScanConfig::default());
        collect_rows(&mut ss).unwrap();
        // distinct heap pages fetched == pages read from the heap file
        // (index touches add some, but heap pages are never re-read).
        assert_eq!(s.distinct_pages_for(heap.file_id()), ss.metrics().pages_fetched);
    }

    #[test]
    fn empty_range_and_empty_table() {
        let (heap, index) = table(1000);
        let s = storage(64);
        let mut ss = smooth(&heap, &index, &s, 0, SmoothScanConfig::default());
        assert!(collect_rows(&mut ss).unwrap().is_empty());
        let empty_schema = Schema::new(vec![
            Column::new("c0", DataType::Int64),
            Column::new("c1", DataType::Int64),
        ])
        .unwrap();
        let empty = Arc::new(HeapLoader::new_mem("e", empty_schema).finish().unwrap());
        let eidx = Arc::new(BTreeIndex::build_from_heap("ei", &empty, 1).unwrap());
        let mut ss = SmoothScan::new(
            empty,
            eidx,
            s,
            1,
            Bound::Unbounded,
            Bound::Unbounded,
            Predicate::True,
            SmoothScanConfig::default(),
        );
        assert!(collect_rows(&mut ss).unwrap().is_empty());
    }

    #[test]
    fn ordered_mode_with_spilling_still_correct() {
        let (heap, index) = table(3000);
        let s = storage(64);
        let expected = oracle(&heap, &s, 800);
        let mut cfg = SmoothScanConfig::default().with_order(true);
        cfg.result_cache_spill = Some(50); // heavy pressure
        let mut ss = smooth(&heap, &index, &s, 800, cfg);
        let rows = collect_rows(&mut ss).unwrap();
        assert_eq!(sorted_by_key(rows.clone()), expected);
        let keys: Vec<i64> = rows.iter().map(|r| r.int(1).unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert!(ss.metrics().cache.spilled > 0, "{:?}", ss.metrics().cache);
    }

    #[test]
    fn ordered_spill_charges_identically_across_protocols() {
        // A latent divergence, fixed by sweeping eviction before the
        // spill decision (`ResultCache::maybe_spill`): with
        // `result_cache_spill` set, the columnar protocol defers the
        // eviction sweep to morsel boundaries, so `resident` could cross
        // the threshold mid-batch and charge spill I/O the row-at-a-time
        // protocol never pays. Rows *and* clock totals must now agree
        // across both drivers.
        let (heap, index) = table(3000);
        let mut cfg = SmoothScanConfig::default().with_order(true);
        cfg.result_cache_spill = Some(50); // heavy pressure
        let run =
            |driver: fn(&mut dyn smooth_executor::Operator) -> smooth_types::Result<Vec<Row>>| {
                let s = storage(64);
                let mut ss = smooth(&heap, &index, &s, 800, cfg);
                let rows = driver(&mut ss).unwrap();
                assert!(ss.metrics().cache.spilled > 0, "pressure must spill: {:?}", ss.metrics());
                (rows, s.clock().snapshot(), s.io_snapshot())
            };
        let (volcano_rows, volcano_clock, volcano_io) = run(smooth_executor::collect_rows_volcano);
        let (col_rows, col_clock, col_io) = run(collect_rows);
        assert_eq!(col_rows, volcano_rows, "columnar rows");
        assert_eq!(col_clock, volcano_clock, "columnar clock with spill enabled");
        assert_eq!(col_io, volcano_io);
    }

    #[test]
    fn metrics_accuracy_reaches_one_at_high_selectivity() {
        let (heap, index) = table(3000);
        let s = storage(64);
        let mut ss = smooth(&heap, &index, &s, 1000, SmoothScanConfig::default());
        collect_rows(&mut ss).unwrap();
        let acc = ss.metrics().morphing_accuracy().unwrap();
        assert!(acc > 0.99, "all pages contain results at 100% sel: {acc}");
    }
}

//! The three traditional access paths of Section II.
//!
//! * [`FullTableScan`] — reads every heap page in physical order with
//!   readahead; cost is independent of selectivity (Eq. 10).
//! * [`IndexScan`] — walks the B+-tree range cursor and fetches one heap
//!   page per qualifying TID; preserves key order but pays a random access
//!   (and possibly a repeated page visit) per tuple (Eq. 11).
//! * [`SortScan`] — PostgreSQL's Bitmap Heap Scan: drains the index range,
//!   sorts TIDs in page order, then fetches each qualifying page once in a
//!   nearly sequential pattern. Blocking, and the index's key order is
//!   destroyed (Section II "Sort Scan").

use std::collections::VecDeque;
use std::ops::Bound;
use std::sync::Arc;

use smooth_index::{BTreeIndex, IndexCursor};
use smooth_storage::{HeapFile, PageView, Storage};
use smooth_types::{ColumnBatch, PageId, Result, Row, Schema, Tid};

use crate::expr::{Predicate, ScanFilter};
use crate::operator::Operator;

/// Probe-and-fill one page's listed slots through `filter` straight into
/// the columnar buffer `out`, charging the virtual clock in one bulk
/// increment (identical totals to the per-tuple charges of the
/// row-at-a-time path: one inspect per slot probed, one emit per
/// qualifier).
pub(crate) fn fill_page_columns(
    storage: &Storage,
    filter: &mut ScanFilter,
    schema: &Schema,
    page: &smooth_storage::PageBuf,
    view: &PageView<'_>,
    slots: impl Iterator<Item = u16>,
    out: &mut ColumnBatch,
) -> Result<()> {
    let mut tuples: Vec<&[u8]> = Vec::with_capacity(slots.size_hint().0);
    for slot in slots {
        tuples.push(view.get(slot)?);
    }
    let (inspected, emitted) = filter.fill_columns(schema, &tuples, Some(page), out)?;
    let cpu = storage.cpu();
    storage.clock().charge_cpu(cpu.inspect_tuple_ns * inspected + cpu.emit_tuple_ns * emitted);
    Ok(())
}

/// Pages fetched per full-scan readahead request (256 KB, the order of
/// magnitude OS readahead gives PostgreSQL sequential scans).
pub const FULL_SCAN_READAHEAD: u32 = 32;

/// Maximum gap (in pages) bridged by the Sort Scan prefetcher: ascending
/// page requests closer than this are coalesced into one sequential run,
/// modeling the "nearly sequential pattern, easily detected by disk
/// prefetchers" of Section II.
pub const SORT_SCAN_PREFETCH_GAP: u32 = 16;

/// Sequential scan over the whole heap.
///
/// The scan is columnar-native: every refill probes one readahead run of
/// pages through the [`ScanFilter`] and decodes the qualifiers straight
/// into a [`smooth_types::ColumnBuffer`] (no per-row `Vec<Value>`), from which both
/// iterator protocols drain in one shared FIFO order.
pub struct FullTableScan {
    heap: Arc<HeapFile>,
    storage: Storage,
    filter: ScanFilter,
    readahead: u32,
    next_page: u32,
    out: smooth_types::ColumnBuffer,
}

impl FullTableScan {
    /// Scan `heap`, emitting rows matching `predicate`.
    pub fn new(heap: Arc<HeapFile>, storage: Storage, predicate: Predicate) -> Self {
        let filter = ScanFilter::new(predicate, heap.schema());
        let out = smooth_types::ColumnBuffer::for_schema(heap.schema());
        FullTableScan { heap, storage, filter, readahead: FULL_SCAN_READAHEAD, next_page: 0, out }
    }

    /// Override the readahead window (ablation benches).
    pub fn with_readahead(mut self, pages: u32) -> Self {
        self.readahead = pages.max(1);
        self
    }

    /// Refill the output buffer from the next readahead run(s). Returns
    /// `false` at heap exhaustion. CPU is charged per page in bulk, with
    /// totals identical to per-tuple accounting.
    fn refill(&mut self) -> Result<bool> {
        debug_assert!(self.out.is_drained());
        loop {
            let total = self.heap.page_count();
            if self.next_page >= total {
                return Ok(false);
            }
            let len = self.readahead.min(total - self.next_page);
            let pages = self.storage.read_heap_run(&self.heap, PageId(self.next_page), len)?;
            self.storage.charge_page_probes(len as u64);
            self.next_page += len;
            for (_, page) in &pages {
                let view = PageView::new(page)?;
                fill_page_columns(
                    &self.storage,
                    &mut self.filter,
                    self.heap.schema(),
                    page,
                    &view,
                    0..view.slot_count(),
                    self.out.fill(),
                )?;
            }
            if !self.out.is_drained() {
                return Ok(true);
            }
        }
    }
}

impl Operator for FullTableScan {
    fn schema(&self) -> &Schema {
        self.heap.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.next_page = 0;
        self.out.reset();
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(row) = self.out.pop_row() {
                return Ok(Some(row));
            }
            if !self.refill()? {
                return Ok(None);
            }
        }
    }

    /// Columnar scan: one readahead run per refill, qualifiers decoded
    /// directly into column vectors, morsels leave without row
    /// materialization.
    fn next_columns(&mut self, max: usize) -> Result<Option<ColumnBatch>> {
        let max = max.max(1);
        loop {
            if let Some(batch) = self.out.pop_columns(max) {
                return Ok(Some(batch));
            }
            if !self.refill()? {
                return Ok(None);
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.out.reset();
        Ok(())
    }

    fn label(&self) -> String {
        format!("FullTableScan({})", self.heap.name())
    }
}

/// Index scan: key-ordered, one heap fetch per qualifying entry.
pub struct IndexScan {
    heap: Arc<HeapFile>,
    index: Arc<BTreeIndex>,
    storage: Storage,
    lo: Bound<i64>,
    hi: Bound<i64>,
    filter: ScanFilter,
    cursor: Option<IndexCursor>,
}

impl IndexScan {
    /// Scan `index` over `[lo, hi]`; `residual` filters fetched rows
    /// (predicates on other columns).
    pub fn new(
        heap: Arc<HeapFile>,
        index: Arc<BTreeIndex>,
        storage: Storage,
        lo: Bound<i64>,
        hi: Bound<i64>,
        residual: Predicate,
    ) -> Self {
        let filter = ScanFilter::new(residual, heap.schema());
        IndexScan { heap, index, storage, lo, hi, filter, cursor: None }
    }
}

impl Operator for IndexScan {
    fn schema(&self) -> &Schema {
        self.heap.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.cursor = Some(self.index.range(&self.storage, self.lo, self.hi));
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>> {
        let cursor = self
            .cursor
            .as_mut()
            .ok_or_else(|| smooth_types::Error::exec("IndexScan::next before open"))?;
        while let Some((_, tid)) = cursor.next() {
            let page = self.storage.read_heap_page(&self.heap, tid.page)?;
            let cpu = self.storage.cpu();
            self.storage.clock().charge_cpu(cpu.inspect_tuple_ns);
            let row = self.heap.decode_slot(&page, tid.slot)?;
            if self.filter.predicate().eval(&row)? {
                self.storage.clock().charge_cpu(cpu.emit_tuple_ns);
                return Ok(Some(row));
            }
        }
        Ok(None)
    }

    /// Columnar index scan: one virtual call drives up to `max` cursor
    /// probes. The heap fetch per qualifying TID is unchanged (that random
    /// I/O *is* the index scan's cost profile); what batching removes is
    /// the per-tuple dispatch, and qualifiers decode straight into column
    /// vectors.
    fn next_columns(&mut self, max: usize) -> Result<Option<ColumnBatch>> {
        let Some(cursor) = self.cursor.as_mut() else {
            return Err(smooth_types::Error::exec("IndexScan::next_columns before open"));
        };
        let max = max.max(1);
        let mut out = ColumnBatch::for_schema(self.heap.schema());
        let cpu = *self.storage.cpu();
        while out.physical_rows() < max {
            let Some((_, tid)) = cursor.next() else { break };
            let page = self.storage.read_heap_page(&self.heap, tid.page)?;
            let view = PageView::new(&page)?;
            let bytes = view.get(tid.slot)?;
            let (_, emitted) =
                self.filter.fill_columns(self.heap.schema(), &[bytes], Some(&page), &mut out)?;
            self.storage.clock().charge_cpu(cpu.inspect_tuple_ns + cpu.emit_tuple_ns * emitted);
        }
        Ok((!out.is_empty()).then_some(out))
    }

    fn close(&mut self) -> Result<()> {
        self.cursor = None;
        Ok(())
    }

    fn label(&self) -> String {
        format!("IndexScan({} via {})", self.heap.name(), self.index.name())
    }
}

/// One coalesced fetch of the Sort Scan: a page run plus the qualifying
/// slots within it.
struct PrefetchRun {
    start: u32,
    len: u32,
    /// `(page, sorted slots)` pairs for pages in this run that hold results.
    page_slots: Vec<(u32, Vec<u16>)>,
}

/// Sort Scan (Bitmap Heap Scan): blocking TID sort, then page-ordered fetch.
///
/// Like [`FullTableScan`], the refill is columnar-native: only the
/// qualifying slots the bitmap named are probed (the `ScanFilter`
/// encoded-tuple pushdown, applied to the TID-ordered refill on both
/// protocols), and qualifiers decode straight into the shared
/// [`smooth_types::ColumnBuffer`].
pub struct SortScan {
    heap: Arc<HeapFile>,
    index: Arc<BTreeIndex>,
    storage: Storage,
    lo: Bound<i64>,
    hi: Bound<i64>,
    filter: ScanFilter,
    prefetch_gap: u32,
    runs: VecDeque<PrefetchRun>,
    out: smooth_types::ColumnBuffer,
}

impl SortScan {
    /// Build a Sort Scan over `[lo, hi]` of `index`.
    pub fn new(
        heap: Arc<HeapFile>,
        index: Arc<BTreeIndex>,
        storage: Storage,
        lo: Bound<i64>,
        hi: Bound<i64>,
        residual: Predicate,
    ) -> Self {
        let filter = ScanFilter::new(residual, heap.schema());
        let out = smooth_types::ColumnBuffer::for_schema(heap.schema());
        SortScan {
            heap,
            index,
            storage,
            lo,
            hi,
            filter,
            prefetch_gap: SORT_SCAN_PREFETCH_GAP,
            runs: VecDeque::new(),
            out,
        }
    }

    /// Override the prefetch gap (ablation benches).
    pub fn with_prefetch_gap(mut self, gap: u32) -> Self {
        self.prefetch_gap = gap;
        self
    }

    /// Refill from the next coalesced prefetch run(s). Returns `false`
    /// once all runs are consumed.
    fn refill(&mut self) -> Result<bool> {
        debug_assert!(self.out.is_drained());
        loop {
            let Some(run) = self.runs.pop_front() else { return Ok(false) };
            let pages = self.storage.read_heap_run(&self.heap, PageId(run.start), run.len)?;
            self.storage.charge_page_probes(run.len as u64);
            for (page_no, slots) in &run.page_slots {
                let idx = (page_no - run.start) as usize;
                let (_, page) = &pages[idx];
                let view = PageView::new(page)?;
                fill_page_columns(
                    &self.storage,
                    &mut self.filter,
                    self.heap.schema(),
                    page,
                    &view,
                    slots.iter().copied(),
                    self.out.fill(),
                )?;
            }
            if !self.out.is_drained() {
                return Ok(true);
            }
        }
    }
}

impl Operator for SortScan {
    fn schema(&self) -> &Schema {
        self.heap.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.runs.clear();
        self.out.reset();
        // Phase 1 (blocking): drain the index range.
        let mut tids: Vec<Tid> = self
            .index
            .range(&self.storage, self.lo, self.hi)
            .collect_all()
            .into_iter()
            .map(|(_, tid)| tid)
            .collect();
        // Phase 2: sort TIDs in physical (page-major) order.
        let n = tids.len() as u64;
        if n > 1 {
            self.storage.clock().charge_cpu(self.storage.cpu().sort_cmp_ns * n * n.ilog2() as u64);
        }
        tids.sort_unstable();
        // Phase 3: group by page, then coalesce ascending pages whose gaps
        // fit the prefetch window into single runs.
        let mut page_slots: Vec<(u32, Vec<u16>)> = Vec::new();
        for tid in tids {
            match page_slots.last_mut() {
                Some((p, slots)) if *p == tid.page.0 => slots.push(tid.slot),
                _ => page_slots.push((tid.page.0, vec![tid.slot])),
            }
        }
        let mut current: Option<PrefetchRun> = None;
        for (page, slots) in page_slots {
            match current.as_mut() {
                Some(run) if page - (run.start + run.len - 1) <= self.prefetch_gap => {
                    run.len = page - run.start + 1;
                    run.page_slots.push((page, slots));
                }
                _ => {
                    if let Some(done) = current.take() {
                        self.runs.push_back(done);
                    }
                    current =
                        Some(PrefetchRun { start: page, len: 1, page_slots: vec![(page, slots)] });
                }
            }
        }
        if let Some(done) = current.take() {
            self.runs.push_back(done);
        }
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(row) = self.out.pop_row() {
                return Ok(Some(row));
            }
            if !self.refill()? {
                return Ok(None);
            }
        }
    }

    /// Columnar Sort Scan: qualifiers of each prefetch run leave as
    /// column vectors without row materialization.
    fn next_columns(&mut self, max: usize) -> Result<Option<ColumnBatch>> {
        let max = max.max(1);
        loop {
            if let Some(batch) = self.out.pop_columns(max) {
                return Ok(Some(batch));
            }
            if !self.refill()? {
                return Ok(None);
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.runs.clear();
        self.out.reset();
        Ok(())
    }

    fn label(&self) -> String {
        format!("SortScan({} via {})", self.heap.name(), self.index.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_storage::{CpuCosts, DeviceProfile, HeapLoader, StorageConfig};
    use smooth_types::{Column, DataType, Schema, Value};

    /// 3000-row table; c0 = row number, c1 = pseudo-random in [0, 1000).
    fn table() -> (Arc<HeapFile>, Arc<BTreeIndex>) {
        let schema = Schema::new(vec![
            Column::new("c0", DataType::Int64),
            Column::new("c1", DataType::Int64),
            Column::new("pad", DataType::Text),
        ])
        .unwrap();
        let mut l = HeapLoader::new_mem("t", schema);
        for i in 0..3000i64 {
            let c1 = (i * 2654435761 % 1000 + 1000) % 1000;
            l.push(&Row::new(vec![Value::Int(i), Value::Int(c1), Value::str("x".repeat(40))]))
                .unwrap();
        }
        let heap = Arc::new(l.finish().unwrap());
        let index = Arc::new(BTreeIndex::build_from_heap("i_c1", &heap, 1).unwrap());
        (heap, index)
    }

    fn storage() -> Storage {
        Storage::new(StorageConfig {
            device: DeviceProfile::custom("t", 1, 10),
            cpu: CpuCosts::default(),
            pool_pages: 128,
        })
    }

    fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by_key(|r| r.int(0).unwrap());
        rows
    }

    #[test]
    fn all_three_paths_agree_on_results() {
        let (heap, index) = table();
        let s = storage();
        let pred = Predicate::int_half_open(1, 0, 120);
        let mut full = FullTableScan::new(Arc::clone(&heap), s.clone(), pred.clone());
        let expected = sorted(crate::operator::collect_rows(&mut full).unwrap());
        assert!(!expected.is_empty());

        let mut is = IndexScan::new(
            Arc::clone(&heap),
            Arc::clone(&index),
            s.clone(),
            Bound::Included(0),
            Bound::Excluded(120),
            Predicate::True,
        );
        assert_eq!(sorted(crate::operator::collect_rows(&mut is).unwrap()), expected);

        let mut ss = SortScan::new(
            Arc::clone(&heap),
            Arc::clone(&index),
            s.clone(),
            Bound::Included(0),
            Bound::Excluded(120),
            Predicate::True,
        );
        assert_eq!(sorted(crate::operator::collect_rows(&mut ss).unwrap()), expected);
    }

    #[test]
    fn index_scan_emits_in_key_order() {
        let (heap, index) = table();
        let s = storage();
        let mut is = IndexScan::new(
            heap,
            index,
            s,
            Bound::Included(100),
            Bound::Excluded(300),
            Predicate::True,
        );
        let rows = crate::operator::collect_rows(&mut is).unwrap();
        let keys: Vec<i64> = rows.iter().map(|r| r.int(1).unwrap()).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert!(keys.iter().all(|&k| (100..300).contains(&k)));
    }

    #[test]
    fn sort_scan_emits_in_page_order() {
        let (heap, index) = table();
        let s = storage();
        let mut ss = SortScan::new(
            heap,
            index,
            s,
            Bound::Included(0),
            Bound::Excluded(500),
            Predicate::True,
        );
        let rows = crate::operator::collect_rows(&mut ss).unwrap();
        // c0 is the load order == physical order.
        let c0: Vec<i64> = rows.iter().map(|r| r.int(0).unwrap()).collect();
        assert!(c0.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn full_scan_io_is_selectivity_independent() {
        let (heap, _) = table();
        let s = storage();
        let mut narrow = FullTableScan::new(Arc::clone(&heap), s.clone(), Predicate::int_eq(1, 3));
        crate::operator::collect_rows(&mut narrow).unwrap();
        let narrow_io = s.io_snapshot().pages_read;
        s.reset_metrics();
        s.flush_pool();
        let mut wide = FullTableScan::new(Arc::clone(&heap), s.clone(), Predicate::True);
        crate::operator::collect_rows(&mut wide).unwrap();
        let wide_io = s.io_snapshot().pages_read;
        assert_eq!(narrow_io, wide_io);
        assert_eq!(wide_io, heap.page_count() as u64);
    }

    #[test]
    fn full_scan_uses_few_requests() {
        let (heap, _) = table();
        let s = storage();
        let mut f = FullTableScan::new(Arc::clone(&heap), s.clone(), Predicate::True);
        crate::operator::collect_rows(&mut f).unwrap();
        let io = s.io_snapshot();
        let expected = (heap.page_count() as u64).div_ceil(FULL_SCAN_READAHEAD as u64);
        assert_eq!(io.io_requests, expected);
        assert!(io.seq_pages > io.rand_pages);
    }

    #[test]
    fn index_scan_costs_grow_with_selectivity_sort_scan_reads_pages_once() {
        let (heap, index) = table();
        // A pool far smaller than the heap, so the index scan's repeated
        // page visits actually hit the device (cold-cache regime).
        let s = Storage::new(StorageConfig {
            device: DeviceProfile::custom("t", 1, 10),
            cpu: CpuCosts::default(),
            pool_pages: 4,
        });
        // Index scan, 50% selectivity: many random accesses, repeats.
        let mut is = IndexScan::new(
            Arc::clone(&heap),
            Arc::clone(&index),
            s.clone(),
            Bound::Included(0),
            Bound::Excluded(500),
            Predicate::True,
        );
        crate::operator::collect_rows(&mut is).unwrap();
        let is_io = s.io_snapshot();
        s.reset_metrics();
        s.flush_pool();
        let mut ss = SortScan::new(
            Arc::clone(&heap),
            Arc::clone(&index),
            s.clone(),
            Bound::Included(0),
            Bound::Excluded(500),
            Predicate::True,
        );
        crate::operator::collect_rows(&mut ss).unwrap();
        let ss_io = s.io_snapshot();
        // Sort scan never rereads a heap page; index scan (tiny pool) does.
        assert!(is_io.pages_read > ss_io.distinct_pages);
        assert!(ss_io.io_requests < is_io.io_requests);
    }

    #[test]
    fn residual_predicates_filter_fetched_rows() {
        let (heap, index) = table();
        let s = storage();
        let residual = Predicate::int_lt(0, 1500); // on c0, not the index key
        let mut is =
            IndexScan::new(heap, index, s, Bound::Included(0), Bound::Excluded(1000), residual);
        let rows = crate::operator::collect_rows(&mut is).unwrap();
        assert_eq!(rows.len(), 1500);
        assert!(rows.iter().all(|r| r.int(0).unwrap() < 1500));
    }

    #[test]
    fn empty_range_yields_nothing() {
        let (heap, index) = table();
        let s = storage();
        for op in [
            &mut IndexScan::new(
                Arc::clone(&heap),
                Arc::clone(&index),
                s.clone(),
                Bound::Included(5000),
                Bound::Unbounded,
                Predicate::True,
            ) as &mut dyn Operator,
            &mut SortScan::new(
                heap,
                index,
                s.clone(),
                Bound::Included(5000),
                Bound::Unbounded,
                Predicate::True,
            ),
        ] {
            assert!(crate::operator::collect_rows(op).unwrap().is_empty());
        }
    }
}

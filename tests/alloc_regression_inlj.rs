//! Allocation-count regression guard for the index nested-loop join.
//!
//! The INLJ probes the inner table's B+-tree once per outer row and
//! fetches every matching inner tuple. On its columnar path, outer rows
//! stay in their column vectors and are gathered into the output batch,
//! the probe reuses one TID scratch vector, and each matching inner tuple
//! decodes once, straight into the output's right-hand columns, with text
//! as views pinning the heap page. No outer or inner row materializes as
//! a `Row` (a `Vec<Value>` plus a `String` per text field).
//!
//! A counting [`GlobalAlloc`] wrapper tallies heap allocations while
//! [`collect_batches`] drains an inner join in which every outer row
//! matches exactly one inner row of a text-heavy table. Doubling the
//! outer rows must add fewer than one allocation per 8 marginal outer
//! rows: output batches, pinned pages and vector growth are per-*batch*
//! and per-*page* costs. A `Row`, a TID `Vec` or a `String` per probe
//! fails loudly.
//!
//! This file holds exactly one `#[test]` so no concurrent test pollutes
//! the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use smooth_executor::{
    collect_batches, FullTableScan, IndexNestedLoopJoin, JoinType, Operator, Predicate,
};
use smooth_index::BTreeIndex;
use smooth_storage::{CpuCosts, DeviceProfile, HeapFile, HeapLoader, Storage, StorageConfig};
use smooth_types::{force_text_views, Column, DataType, Row, Schema, Value};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Inner rows: a unique integer key plus two text columns.
const INNER: i64 = 8000;

/// The inner table, indexed on its key `pk`.
fn inner_table() -> (Arc<HeapFile>, Arc<BTreeIndex>) {
    let schema = Schema::new(vec![
        Column::new("pk", DataType::Int64),
        Column::new("name", DataType::Text),
        Column::new("comment", DataType::Text),
    ])
    .unwrap();
    let mut loader = HeapLoader::new_mem("inner", schema);
    for i in 0..INNER {
        loader
            .push(&Row::new(vec![
                Value::Int(i),
                Value::str(format!("name-{i}")),
                Value::str("c".repeat(30)),
            ]))
            .unwrap();
    }
    let heap = Arc::new(loader.finish().unwrap());
    let index = Arc::new(BTreeIndex::build_from_heap("inner_pk", &heap, 0).unwrap());
    (heap, index)
}

/// `rows` outer rows, each naming one inner key (a scrambled walk over
/// the inner keys, so probes land on scattered pages).
fn outer_table(rows: i64) -> Arc<HeapFile> {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int64),
        Column::new("fk", DataType::Int64),
        Column::new("note", DataType::Text),
    ])
    .unwrap();
    let mut loader = HeapLoader::new_mem("outer", schema);
    for i in 0..rows {
        let fk = (i * 7919).rem_euclid(INNER);
        loader
            .push(&Row::new(vec![Value::Int(i), Value::Int(fk), Value::str("o".repeat(20))]))
            .unwrap();
    }
    Arc::new(loader.finish().unwrap())
}

fn storage() -> Storage {
    Storage::new(StorageConfig {
        device: DeviceProfile::custom("t", 1, 10),
        cpu: CpuCosts::default(),
        pool_pages: 4096,
    })
}

/// Allocations spent draining the join through the columnar driver, and
/// the row count it produced.
fn allocs_for_join(
    inner: &(Arc<HeapFile>, Arc<BTreeIndex>),
    outer: &Arc<HeapFile>,
) -> (u64, usize) {
    let s = storage();
    let scan = FullTableScan::new(Arc::clone(outer), s.clone(), Predicate::True);
    let mut op = IndexNestedLoopJoin::new(
        Box::new(scan),
        1,
        Arc::clone(&inner.0),
        Arc::clone(&inner.1),
        Predicate::True,
        JoinType::Inner,
        s,
    );
    assert_eq!(op.schema().len(), 6);
    let before = ALLOCS.load(Ordering::Relaxed);
    let batches = collect_batches(&mut op).unwrap();
    let after = ALLOCS.load(Ordering::Relaxed);
    let rows: usize = batches.iter().map(|b| b.len()).sum();
    drop(batches);
    (after - before, rows)
}

#[test]
fn inlj_allocations_stay_sublinear_in_outer_rows() {
    force_text_views(true);
    const N: i64 = 4000;
    let inner = inner_table();
    // Warm-up drains one-time lazy state (env latches, thread locals)
    // so it never lands in either measured window.
    allocs_for_join(&inner, &outer_table(64));

    let (small_allocs, small_rows) = allocs_for_join(&inner, &outer_table(N));
    let (large_allocs, large_rows) = allocs_for_join(&inner, &outer_table(2 * N));
    assert_eq!(small_rows, N as usize, "every outer row matches one inner row");
    assert_eq!(large_rows, 2 * N as usize);

    let marginal_rows = (large_rows - small_rows) as u64;
    let marginal_allocs = large_allocs.saturating_sub(small_allocs);
    assert!(
        marginal_allocs < marginal_rows / 8,
        "per-row allocation straggler: {marginal_allocs} extra allocations for \
         {marginal_rows} extra outer rows ({small_allocs} at N, {large_allocs} at 2N)"
    );
}

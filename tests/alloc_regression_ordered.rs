//! Allocation-count regression guard for ordered Smooth Scan.
//!
//! With an interesting order to respect, Smooth Scan parks every
//! qualifying tuple it finds ahead of the index cursor in the Result
//! Cache until the cursor reaches it. The cache holds those tuples as
//! encoded bytes in one append-only arena per key-range partition, and a
//! hit decodes them straight into the output batch, so no tuple ever
//! materializes as a `Row` (a `Vec<Value>` plus a `String` per text
//! field) on its way through the cache.
//!
//! A counting [`GlobalAlloc`] wrapper tallies heap allocations while
//! [`collect_batches`] drains an ordered scan at 100% selectivity, where
//! nearly every tuple passes through the cache. Doubling the row count
//! must add fewer than one allocation per 8 marginal rows: arena and
//! index growth is amortized, and batches and pages are per-*page* and
//! per-*batch* costs. A per-tuple `Row` on the insert or the hit path
//! costs two or more allocations per row and fails loudly.
//!
//! This file holds exactly one `#[test]` so no concurrent test pollutes
//! the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use smooth_core::{SmoothScan, SmoothScanConfig};
use smooth_executor::{collect_batches, Predicate};
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

/// A micro-benchmark-shaped table: `id` is the row number, `k` a
/// pseudo-random key in [0, 1000) (so key order scatters across pages),
/// `pad` a text payload. Indexed on `k`.
fn keyed_heap(rows: i64) -> (Arc<HeapFile>, Arc<BTreeIndex>) {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int64),
        Column::new("k", DataType::Int64),
        Column::new("pad", DataType::Text),
    ])
    .unwrap();
    let mut loader = HeapLoader::new_mem("t", schema);
    for i in 0..rows {
        let k = i.wrapping_mul(2_654_435_761).rem_euclid(1000);
        loader
            .push(&Row::new(vec![Value::Int(i), Value::Int(k), Value::str("x".repeat(40))]))
            .unwrap();
    }
    let heap = Arc::new(loader.finish().unwrap());
    let index = Arc::new(BTreeIndex::build_from_heap("i_k", &heap, 1).unwrap());
    (heap, index)
}

fn storage() -> Storage {
    Storage::new(StorageConfig {
        device: DeviceProfile::custom("t", 1, 10),
        cpu: CpuCosts::default(),
        pool_pages: 4096,
    })
}

/// Allocations spent draining an ordered Smooth Scan over every key of
/// `heap` through the columnar driver, the row count it produced, and
/// the Result-Cache hits that served them.
fn allocs_for_ordered_scan((heap, index): &(Arc<HeapFile>, Arc<BTreeIndex>)) -> (u64, usize, u64) {
    let mut op = SmoothScan::new(
        Arc::clone(heap),
        Arc::clone(index),
        storage(),
        1,
        Bound::Unbounded,
        Bound::Unbounded,
        Predicate::True,
        SmoothScanConfig::default().with_order(true),
    );
    let before = ALLOCS.load(Ordering::Relaxed);
    let batches = collect_batches(&mut op).unwrap();
    let after = ALLOCS.load(Ordering::Relaxed);
    let rows: usize = batches.iter().map(|b| b.len()).sum();
    drop(batches);
    (after - before, rows, op.metrics().cache.hits)
}

#[test]
fn ordered_smooth_scan_allocations_stay_sublinear_in_rows() {
    force_text_views(true);
    const N: i64 = 4000;
    // Warm-up drains one-time lazy state (env latches, thread locals)
    // so it never lands in either measured window.
    allocs_for_ordered_scan(&keyed_heap(64));

    let (small_allocs, small_rows, small_hits) = allocs_for_ordered_scan(&keyed_heap(N));
    let (large_allocs, large_rows, large_hits) = allocs_for_ordered_scan(&keyed_heap(2 * N));
    assert_eq!(small_rows, N as usize);
    assert_eq!(large_rows, 2 * N as usize);
    // Nearly every tuple is found ahead of the cursor and served from the
    // Result Cache, so the bound below measures the cache path.
    assert!(large_hits * 10 > large_rows as u64 * 9, "{large_hits} hits for {large_rows} rows");

    let marginal_rows = (large_rows - small_rows) as u64;
    let marginal_allocs = large_allocs.saturating_sub(small_allocs);
    assert!(
        marginal_allocs < marginal_rows / 8,
        "per-row allocation straggler: {marginal_allocs} extra allocations for \
         {marginal_rows} extra rows ({small_allocs} at N, {large_allocs} at 2N; \
         {small_hits}/{large_hits} cache hits)"
    );
}

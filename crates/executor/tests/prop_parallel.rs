//! Property tests for the morsel-driven parallel driver: for arbitrary
//! data, predicates, worker counts and morsel sizes, the parallel
//! pipeline must produce the **exact row sequence** of the
//! single-threaded columnar driver over the equivalent operator tree,
//! and charge the **exact same virtual CPU/IO clock totals** and I/O
//! counters. This extends PR 3's protocol-equivalence harness from
//! iterator protocols to the worker pool: parallelism, like batching,
//! must be an execution-strategy change only.

use std::sync::Arc;

use proptest::prelude::*;
use smooth_executor::operator::ValuesOp;
use smooth_executor::parallel::{
    run_pipeline, BuildSpec, ParallelPipeline, ParallelSource, SinkSpec, StageSpec,
};
use smooth_executor::scan::FULL_SCAN_READAHEAD;
use smooth_executor::{
    collect_rows, AggFunc, Filter, FullTableScan, HashAggregate, HashJoin, IndexScan, JoinType,
    Operator, Predicate, Project, SortScan,
};
use smooth_index::BTreeIndex;
use smooth_storage::{CpuCosts, DeviceProfile, HeapFile, Storage, StorageConfig};
use smooth_types::{Column, DataType, Row, Schema, Value, DEFAULT_BATCH_SIZE};

const WORKER_GRID: [usize; 4] = [1, 2, 4, 8];

fn build_table(keys: &[i64]) -> (Arc<HeapFile>, Arc<BTreeIndex>) {
    let schema = Schema::new(vec![
        Column::new("c0", DataType::Int64),
        Column::new("c1", DataType::Int64),
        Column::new("pad", DataType::Text),
    ])
    .unwrap();
    let mut l = smooth_storage::HeapLoader::new_mem("t", schema);
    for (i, &k) in keys.iter().enumerate() {
        l.push(&Row::new(vec![Value::Int(i as i64), Value::Int(k), Value::str("p".repeat(60))]))
            .unwrap();
    }
    let heap = Arc::new(l.finish().unwrap());
    let index = Arc::new(BTreeIndex::build_from_heap("i", &heap, 1).unwrap());
    (heap, index)
}

fn storage(pool: usize) -> Storage {
    Storage::new(StorageConfig {
        device: DeviceProfile::custom("t", 1, 10),
        cpu: CpuCosts::default(),
        pool_pages: pool,
    })
}

/// Drain a serial operator through the columnar protocol at a fixed
/// morsel size (so shared-source comparisons see identical pull
/// boundaries).
fn collect_serial(op: &mut dyn Operator, max: usize) -> Vec<Row> {
    op.open().unwrap();
    let mut rows = Vec::new();
    while let Some(batch) = op.next_columns(max).unwrap() {
        rows.extend(batch.into_rows());
    }
    op.close().unwrap();
    rows
}

/// Assert rows, clock totals and I/O counters all match between a
/// serial run and a parallel run.
fn assert_equal_runs(
    serial: (&[Row], &Storage),
    parallel: (&[Row], &Storage),
    context: &str,
) -> std::result::Result<(), TestCaseError> {
    prop_assert!(parallel.0 == serial.0, "row sequence diverges: {context}");
    prop_assert!(
        parallel.1.clock().snapshot() == serial.1.clock().snapshot(),
        "virtual clock totals diverge: {context}"
    );
    prop_assert!(
        parallel.1.io_snapshot() == serial.1.io_snapshot(),
        "I/O counters diverge: {context}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Partitioned heap source with filter + projection stages: parallel
    /// ≡ serial for every worker count and readahead partitioning.
    #[test]
    fn heap_pipeline_equals_serial(
        keys in proptest::collection::vec(0i64..300, 1..1200),
        lo in 0i64..300,
        width in 0i64..330,
        pool in 8usize..64,
        readahead in prop_oneof![Just(1u32), Just(3u32), Just(8u32), Just(FULL_SCAN_READAHEAD)],
    ) {
        let (heap, _) = build_table(&keys);
        let hi = lo + width;
        let pred = Predicate::int_half_open(1, lo, hi);
        let s_serial = storage(pool);
        let mut serial_op = Project::new(
            Box::new(Filter::new(
                Box::new(
                    FullTableScan::new(Arc::clone(&heap), s_serial.clone(), Predicate::True)
                        .with_readahead(readahead),
                ),
                pred.clone(),
            )),
            vec![1, 0],
        )
        .unwrap();
        let expected = collect_rows(&mut serial_op).unwrap();
        for workers in WORKER_GRID {
            let s_par = storage(pool);
            let pipeline = ParallelPipeline {
                source: ParallelSource::Heap {
                    heap: Arc::clone(&heap),
                    predicate: Predicate::True,
                    readahead,
                },
                builds: Vec::new(),
                stages: vec![StageSpec::Filter(pred.clone()), StageSpec::Project(vec![1, 0])],
                sink: SinkSpec::Collect,
                storage: s_par.clone(),
                morsel_rows: DEFAULT_BATCH_SIZE,
            };
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_equal_runs(
                (&expected, &s_serial),
                (&got, &s_par),
                &format!("heap pipeline, {workers} workers, readahead {readahead}"),
            )?;
        }
    }

    /// A predicate pushed *into* the partitioned scan (per-worker
    /// ScanFilter state) behaves exactly like the serial pushed-down scan.
    #[test]
    fn pushed_predicate_heap_scan_equals_serial(
        keys in proptest::collection::vec(0i64..200, 1..1000),
        hi in 0i64..220,
        residual_hi in 0i64..900,
    ) {
        let (heap, _) = build_table(&keys);
        let pred = Predicate::and(vec![
            Predicate::int_half_open(1, 0, hi),
            Predicate::int_lt(0, residual_hi),
        ]);
        let s_serial = storage(32);
        let mut serial_op =
            FullTableScan::new(Arc::clone(&heap), s_serial.clone(), pred.clone());
        let expected = collect_rows(&mut serial_op).unwrap();
        for workers in WORKER_GRID {
            let s_par = storage(32);
            let pipeline = ParallelPipeline {
                source: ParallelSource::Heap {
                    heap: Arc::clone(&heap),
                    predicate: pred.clone(),
                    readahead: FULL_SCAN_READAHEAD,
                },
                builds: Vec::new(),
                stages: Vec::new(),
                sink: SinkSpec::Collect,
                storage: s_par.clone(),
                morsel_rows: DEFAULT_BATCH_SIZE,
            };
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_equal_runs(
                (&expected, &s_serial),
                (&got, &s_par),
                &format!("pushed-predicate scan, {workers} workers"),
            )?;
        }
    }

    /// Index and sort scans as *shared* sources (the serial-section
    /// fallback) with a filter stage above, across morsel sizes.
    #[test]
    fn shared_scan_sources_equal_serial(
        keys in proptest::collection::vec(0i64..150, 1..700),
        lo in 0i64..150,
        width in 0i64..170,
        max in 1usize..90,
        use_sort_scan in any::<bool>(),
    ) {
        let (heap, index) = build_table(&keys);
        let hi = lo + width;
        let residual = Predicate::int_ge(0, 0);
        let mk_scan = |s: &Storage| -> Box<dyn Operator + Send> {
            if use_sort_scan {
                Box::new(SortScan::new(
                    Arc::clone(&heap),
                    Arc::clone(&index),
                    s.clone(),
                    std::ops::Bound::Included(lo),
                    std::ops::Bound::Excluded(hi),
                    Predicate::True,
                ))
            } else {
                Box::new(IndexScan::new(
                    Arc::clone(&heap),
                    Arc::clone(&index),
                    s.clone(),
                    std::ops::Bound::Included(lo),
                    std::ops::Bound::Excluded(hi),
                    Predicate::True,
                ))
            }
        };
        let s_serial = storage(16);
        let mut serial_op = Filter::new(mk_scan(&s_serial), residual.clone());
        let expected = collect_serial(&mut serial_op, max);
        for workers in WORKER_GRID {
            let s_par = storage(16);
            let pipeline = ParallelPipeline {
                source: ParallelSource::Shared { op: mk_scan(&s_par) },
                builds: Vec::new(),
                stages: vec![StageSpec::Filter(residual.clone())],
                sink: SinkSpec::Collect,
                storage: s_par.clone(),
                morsel_rows: max,
            };
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_equal_runs(
                (&expected, &s_serial),
                (&got, &s_par),
                &format!("shared scan (sort={use_sort_scan}), {workers} workers, max {max}"),
            )?;
        }
    }

    /// Hash-join probe stage (inner and semi) above the partitioned heap
    /// source ≡ the serial HashJoin over the same inputs.
    #[test]
    fn probe_pipeline_equals_serial_hash_join(
        keys in proptest::collection::vec(0i64..80, 1..600),
        right in proptest::collection::vec((0i64..80, -50i64..50), 0..120),
        semi in any::<bool>(),
    ) {
        let (heap, _) = build_table(&keys);
        let ty = if semi { JoinType::LeftSemi } else { JoinType::Inner };
        let right_schema = Schema::new(vec![
            Column::new("rk", DataType::Int64),
            Column::new("rv", DataType::Int64),
        ])
        .unwrap();
        let right_rows: Vec<Row> = right
            .iter()
            .map(|&(k, v)| Row::new(vec![Value::Int(k), Value::Int(v)]))
            .collect();
        let s_serial = storage(32);
        let mut serial_op = HashJoin::new(
            Box::new(FullTableScan::new(Arc::clone(&heap), s_serial.clone(), Predicate::True)),
            Box::new(ValuesOp::new(right_schema.clone(), right_rows.clone())),
            1,
            0,
            ty,
            s_serial.clone(),
        );
        let expected = collect_rows(&mut serial_op).unwrap();
        for workers in WORKER_GRID {
            let s_par = storage(32);
            let pipeline = ParallelPipeline {
                source: ParallelSource::Heap {
                    heap: Arc::clone(&heap),
                    predicate: Predicate::True,
                    readahead: FULL_SCAN_READAHEAD,
                },
                builds: vec![BuildSpec {
                    source: ParallelSource::Shared {
                        op: Box::new(ValuesOp::new(right_schema.clone(), right_rows.clone())),
                    },
                    stages: Vec::new(),
                    right_col: 0,
                    left_col: 1,
                    ty,
                    partitions: smooth_executor::BUILD_PARTITIONS,
                    mem_bytes: smooth_executor::mem_budget_bytes(),
                    open_at: 0,
                    open_order: 0,
                }],
                stages: vec![StageSpec::Probe(0)],
                sink: SinkSpec::Collect,
                storage: s_par.clone(),
                morsel_rows: DEFAULT_BATCH_SIZE,
            };
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_equal_runs(
                (&expected, &s_serial),
                (&got, &s_par),
                &format!("{ty:?} probe, {workers} workers"),
            )?;
        }
    }

    /// Partial aggregation with per-worker maps + first-seen merge ≡ the
    /// serial HashAggregate, including group emission order.
    #[test]
    fn partial_aggregate_equals_serial(
        keys in proptest::collection::vec(0i64..40, 1..800),
        scalar in any::<bool>(),
        filtered_hi in 0i64..45,
    ) {
        let (heap, _) = build_table(&keys);
        let group_cols: Vec<usize> = if scalar { vec![] } else { vec![1] };
        let aggs = vec![
            AggFunc::CountStar,
            AggFunc::Count(1),
            AggFunc::Sum(0),
            AggFunc::Avg(0),
            AggFunc::Min(0),
            AggFunc::Max(0),
            AggFunc::SumProduct(0, 1),
        ];
        let pred = Predicate::int_lt(1, filtered_hi);
        let s_serial = storage(32);
        let mut serial_op = HashAggregate::new(
            Box::new(Filter::new(
                Box::new(FullTableScan::new(Arc::clone(&heap), s_serial.clone(), Predicate::True)),
                pred.clone(),
            )),
            group_cols.clone(),
            aggs.clone(),
            s_serial.clone(),
        )
        .unwrap();
        let expected = collect_rows(&mut serial_op).unwrap();
        for workers in WORKER_GRID {
            let s_par = storage(32);
            let pipeline = ParallelPipeline {
                source: ParallelSource::Heap {
                    heap: Arc::clone(&heap),
                    predicate: Predicate::True,
                    readahead: FULL_SCAN_READAHEAD,
                },
                builds: Vec::new(),
                stages: vec![StageSpec::Filter(pred.clone())],
                sink: SinkSpec::Aggregate {
                    group_cols: group_cols.clone(),
                    aggs: aggs.clone(),
                    merge_exact: true,
                },
                storage: s_par.clone(),
                morsel_rows: DEFAULT_BATCH_SIZE,
            };
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_equal_runs(
                (&expected, &s_serial),
                (&got, &s_par),
                &format!("partial agg (scalar={scalar}), {workers} workers"),
            )?;
        }
    }
}

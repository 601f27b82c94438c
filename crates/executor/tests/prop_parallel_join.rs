//! Property tests for the parallel partitioned hash-join build: for
//! arbitrary data (null keys, duplicate keys, `Text` payloads), partition
//! counts, morsel sizes and worker counts, the pipeline with a
//! partitioned build must produce the **exact row sequence** of the
//! serial columnar [`HashJoin`] and charge the **exact same virtual
//! CPU/IO clock totals** and I/O counters. The build phase — per-worker
//! hash-partitioned partials merged by global build position — must be an
//! execution-strategy change only, like every other form of parallelism
//! in this repo.

use std::sync::Arc;

use proptest::prelude::*;
use smooth_executor::operator::ValuesOp;
use smooth_executor::parallel::{
    run_pipeline, BuildSpec, ParallelPipeline, ParallelSource, SinkSpec, StageSpec,
};
use smooth_executor::scan::FULL_SCAN_READAHEAD;
use smooth_executor::{
    collect_rows, FullTableScan, HashJoin, JoinType, Predicate, BUILD_PARTITIONS,
};
use smooth_storage::{CpuCosts, DeviceProfile, HeapFile, HeapLoader, Storage, StorageConfig};
use smooth_types::{Column, DataType, Row, Schema, Value, DEFAULT_BATCH_SIZE};

const WORKER_GRID: [usize; 4] = [1, 2, 4, 8];

fn probe_table(keys: &[i64]) -> Arc<HeapFile> {
    let schema = Schema::new(vec![
        Column::new("c0", DataType::Int64),
        Column::new("c1", DataType::Int64),
        Column::new("pad", DataType::Text),
    ])
    .unwrap();
    let mut l = HeapLoader::new_mem("probe", schema);
    for (i, &k) in keys.iter().enumerate() {
        l.push(&Row::new(vec![Value::Int(i as i64), Value::Int(k), Value::str("p".repeat(40))]))
            .unwrap();
    }
    Arc::new(l.finish().unwrap())
}

/// Build-side rows with optional NULL keys and a Text payload.
fn build_rows(keys: &[Option<i64>]) -> (Schema, Vec<Row>) {
    let schema = Schema::new(vec![
        Column::nullable("rk", DataType::Int64),
        Column::new("rv", DataType::Int64),
        Column::new("rtxt", DataType::Text),
    ])
    .unwrap();
    let rows = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let key = match k {
                Some(v) => Value::Int(*v),
                None => Value::Null,
            };
            Row::new(vec![key, Value::Int(i as i64), Value::str(format!("t{i}"))])
        })
        .collect();
    (schema, rows)
}

fn storage(pool: usize) -> Storage {
    Storage::new(StorageConfig {
        device: DeviceProfile::custom("t", 1, 10),
        cpu: CpuCosts::default(),
        pool_pages: pool,
    })
}

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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Shared-source build (a `ValuesOp` right side) across partition
    /// counts, morsel sizes and worker counts ≡ the serial HashJoin —
    /// including NULL build keys, duplicate keys and Text payloads.
    #[test]
    fn partitioned_build_equals_serial_build(
        probe_keys in proptest::collection::vec(0i64..60, 1..500),
        build_keys in proptest::collection::vec(
            prop_oneof![3 => (0i64..60).prop_map(Some), 1 => Just(None)],
            0..150,
        ),
        semi in any::<bool>(),
        partitions in prop_oneof![
            Just(1usize), Just(2usize), Just(7usize), Just(BUILD_PARTITIONS)
        ],
        morsel_rows in 1usize..120,
    ) {
        let heap = probe_table(&probe_keys);
        let ty = if semi { JoinType::LeftSemi } else { JoinType::Inner };
        let (right_schema, right_rows) = build_rows(&build_keys);
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
                    partitions,
                    mem_bytes: smooth_executor::mem_budget_bytes(),
                    open_at: 0,
                    open_order: 0,
                }],
                stages: vec![StageSpec::Probe(0)],
                sink: SinkSpec::Collect,
                storage: s_par.clone(),
                morsel_rows,
            };
            let got = run_pipeline(pipeline, workers).unwrap();
            assert_equal_runs(
                (&expected, &s_serial),
                (&got, &s_par),
                &format!(
                    "{ty:?}, {workers} workers, {partitions} partitions, morsel {morsel_rows}"
                ),
            )?;
        }
    }

    /// Heap-source build side (build input I/O serialized under the build
    /// lock, decode + filter + insert fanned out) ≡ the serial HashJoin
    /// over a pushed-down scan, across worker counts and partitions.
    #[test]
    fn heap_build_pipeline_equals_serial_build(
        probe_keys in proptest::collection::vec(0i64..80, 1..400),
        build_keys in proptest::collection::vec(0i64..80, 1..600),
        hi in 0i64..90,
        semi in any::<bool>(),
        partitions in prop_oneof![Just(1usize), Just(3usize), Just(BUILD_PARTITIONS)],
    ) {
        let probe = probe_table(&probe_keys);
        let build = probe_table(&build_keys);
        let ty = if semi { JoinType::LeftSemi } else { JoinType::Inner };
        let pred = Predicate::int_half_open(1, 0, hi);
        let s_serial = storage(32);
        let mut serial_op = HashJoin::new(
            Box::new(FullTableScan::new(Arc::clone(&probe), s_serial.clone(), Predicate::True)),
            Box::new(FullTableScan::new(Arc::clone(&build), s_serial.clone(), pred.clone())),
            1,
            1,
            ty,
            s_serial.clone(),
        );
        let expected = collect_rows(&mut serial_op).unwrap();
        for workers in WORKER_GRID {
            let s_par = storage(32);
            let pipeline = ParallelPipeline {
                source: ParallelSource::Heap {
                    heap: Arc::clone(&probe),
                    predicate: Predicate::True,
                    readahead: FULL_SCAN_READAHEAD,
                },
                builds: vec![BuildSpec {
                    source: ParallelSource::Heap {
                        heap: Arc::clone(&build),
                        predicate: pred.clone(),
                        readahead: FULL_SCAN_READAHEAD,
                    },
                    stages: Vec::new(),
                    right_col: 1,
                    left_col: 1,
                    ty,
                    partitions,
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
                &format!("{ty:?} heap build, {workers} workers, {partitions} partitions"),
            )?;
        }
    }

    /// A filter stage on the build side behaves exactly like the serial
    /// Filter operator feeding the serial build.
    #[test]
    fn staged_build_side_equals_serial_filter_stack(
        probe_keys in proptest::collection::vec(0i64..50, 1..300),
        build_keys in proptest::collection::vec(0i64..50, 1..400),
        residual_hi in 0i64..400,
    ) {
        let probe = probe_table(&probe_keys);
        let build = probe_table(&build_keys);
        let residual = Predicate::int_lt(0, residual_hi);
        let s_serial = storage(32);
        let mut serial_op = HashJoin::new(
            Box::new(FullTableScan::new(Arc::clone(&probe), s_serial.clone(), Predicate::True)),
            Box::new(smooth_executor::Filter::new(
                Box::new(FullTableScan::new(Arc::clone(&build), s_serial.clone(), Predicate::True)),
                residual.clone(),
            )),
            1,
            1,
            JoinType::Inner,
            s_serial.clone(),
        );
        let expected = collect_rows(&mut serial_op).unwrap();
        for workers in [1usize, 4] {
            let s_par = storage(32);
            let pipeline = ParallelPipeline {
                source: ParallelSource::Heap {
                    heap: Arc::clone(&probe),
                    predicate: Predicate::True,
                    readahead: FULL_SCAN_READAHEAD,
                },
                builds: vec![BuildSpec {
                    source: ParallelSource::Heap {
                        heap: Arc::clone(&build),
                        predicate: Predicate::True,
                        readahead: FULL_SCAN_READAHEAD,
                    },
                    stages: vec![StageSpec::Filter(residual.clone())],
                    right_col: 1,
                    left_col: 1,
                    ty: JoinType::Inner,
                    partitions: BUILD_PARTITIONS,
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
                &format!("staged build, {workers} workers"),
            )?;
        }
    }
}

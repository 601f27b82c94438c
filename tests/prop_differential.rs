//! Cross-driver differential property suite: proptest-generated random
//! plans — scan kind × predicates × join shapes × aggregates ×
//! Smooth/Switch policies — must produce the **exact row sequence**,
//! the **exact virtual CPU/IO clock totals** and the **exact I/O
//! counters** across the three pipeline drivers:
//!
//! * the Volcano row-at-a-time driver (the permanent semantics oracle),
//! * the single-threaded columnar driver (`Database::run` at 1 worker),
//! * the morsel-driven parallel driver at worker counts {1, 2, 4, 8}.
//!
//! Every execution strategy in this repo — columnar layout,
//! worker pools, the partitioned parallel hash-join build — is required
//! to be *accounting-invisible*: it may change who does the work, never
//! what work the engine is charged for. This suite pins that invariant
//! end to end through the planner, for plan shapes no single-crate suite
//! composes.

use proptest::prelude::*;
use smooth_executor::sort::SortKey;
use smooth_executor::{collect_rows_volcano, ParallelSource, SinkSpec};
use smooth_planner::{
    AccessPathChoice, Database, JoinStrategy, LogicalPlan, QueryResult, RunStats, ScanSpec,
};
use smooth_storage::{CpuCosts, DeviceProfile, IoStatsDelta, StorageConfig};
use smoothscan::prelude::{
    AggFunc, Column, DataType, JoinType, PolicyKind, Predicate, Row, Schema, SmoothScanConfig,
    Value,
};

const WORKER_GRID: [usize; 3] = [2, 4, 8];

/// Deterministic pseudo-random column: spreads keys over [0, domain).
fn scramble(i: i64, domain: i64) -> i64 {
    ((i.wrapping_mul(2654435761)) % domain + domain) % domain
}

fn database(rows: i64) -> Database {
    let mut db = Database::new(StorageConfig {
        device: DeviceProfile::custom("t", 1, 10),
        cpu: CpuCosts::default(),
        pool_pages: 48,
    });
    let schema = Schema::new(vec![
        Column::new("c0", DataType::Int64),
        Column::new("c1", DataType::Int64),
        Column::nullable("c2", DataType::Int64),
        Column::new("pad", DataType::Text),
    ])
    .unwrap();
    db.load_table(
        "t",
        schema.clone(),
        (0..rows).map(|i| {
            let c2 = if i % 11 == 0 { Value::Null } else { Value::Int(scramble(i * 7, 500)) };
            Row::new(vec![
                Value::Int(i),
                Value::Int(scramble(i, 300)),
                c2,
                Value::str("x".repeat(24)),
            ])
        }),
    )
    .unwrap();
    db.create_index("t", 1, "t_c1").unwrap();
    // A second, smaller table for build sides.
    db.load_table(
        "r",
        schema,
        (0..rows / 3).map(|i| {
            Row::new(vec![
                Value::Int(scramble(i, 300)),
                Value::Int(scramble(i + 13, 300)),
                Value::Int(i),
                Value::str(format!("r{i}")),
            ])
        }),
    )
    .unwrap();
    db.create_index("r", 1, "r_c1").unwrap();
    db
}

/// One scan-kind choice from the full repertoire.
fn access_strategy() -> impl Strategy<Value = AccessPathChoice> {
    prop_oneof![
        Just(AccessPathChoice::ForceFull),
        Just(AccessPathChoice::ForceIndex),
        Just(AccessPathChoice::ForceSort),
        (0usize..3, any::<bool>()).prop_map(|(p, ordered)| {
            let policy =
                [PolicyKind::Greedy, PolicyKind::SelectivityIncrease, PolicyKind::Elastic][p];
            AccessPathChoice::Smooth(
                SmoothScanConfig::default().with_policy(policy).with_order(ordered),
            )
        }),
        (1u64..400).prop_map(|estimate| AccessPathChoice::Switch { estimate }),
        Just(AccessPathChoice::Auto),
    ]
}

#[derive(Debug, Clone, Copy)]
enum JoinShape {
    None,
    HashInner,
    HashSemi,
    IndexNested,
}

fn join_strategy() -> impl Strategy<Value = JoinShape> {
    prop_oneof![
        2 => Just(JoinShape::None),
        2 => Just(JoinShape::HashInner),
        1 => Just(JoinShape::HashSemi),
        1 => Just(JoinShape::IndexNested),
    ]
}

#[derive(Debug, Clone, Copy)]
enum AggShape {
    None,
    ExactGrouped,
    FloatAvg,
    Scalar,
}

fn agg_strategy() -> impl Strategy<Value = AggShape> {
    prop_oneof![
        2 => Just(AggShape::None),
        1 => Just(AggShape::ExactGrouped),
        1 => Just(AggShape::FloatAvg),
        1 => Just(AggShape::Scalar),
    ]
}

/// Assemble the plan under test.
fn plan_for(
    access: &AccessPathChoice,
    lo: i64,
    width: i64,
    residual: Option<i64>,
    join: JoinShape,
    agg: AggShape,
) -> LogicalPlan {
    let mut pred = Predicate::int_half_open(1, lo, lo + width);
    if let Some(hi) = residual {
        pred = Predicate::and(vec![pred, Predicate::int_lt(0, hi)]);
    }
    let scan = LogicalPlan::scan(ScanSpec::new("t", pred).with_access(access.clone()));
    let joined = match join {
        JoinShape::None => scan,
        JoinShape::HashInner => scan.join(
            LogicalPlan::scan(ScanSpec::new("r", Predicate::True)),
            1,
            0,
            JoinType::Inner,
            JoinStrategy::Hash,
        ),
        JoinShape::HashSemi => scan.join(
            LogicalPlan::scan(ScanSpec::new("r", Predicate::int_lt(2, 200))),
            1,
            0,
            JoinType::LeftSemi,
            JoinStrategy::Hash,
        ),
        JoinShape::IndexNested => scan.join(
            LogicalPlan::scan(ScanSpec::new("r", Predicate::True)),
            1,
            1,
            JoinType::Inner,
            JoinStrategy::IndexNestedLoop,
        ),
    };
    match agg {
        AggShape::None => joined,
        AggShape::ExactGrouped => {
            joined.aggregate(vec![1], vec![AggFunc::CountStar, AggFunc::Min(0), AggFunc::Max(0)])
        }
        AggShape::FloatAvg => joined.aggregate(vec![1], vec![AggFunc::Avg(0), AggFunc::CountStar]),
        AggShape::Scalar => joined.aggregate(vec![], vec![AggFunc::CountStar, AggFunc::Sum(0)]),
    }
}

/// The per-run I/O counters that must match exactly between drivers
/// (`distinct_pages` is a monotone per-database set, so its *delta*
/// differs between a first and a repeated run of the same query).
fn io_key(io: &IoStatsDelta) -> (u64, u64, u64, u64, u64) {
    (io.io_requests, io.pages_read, io.seq_pages, io.rand_pages, io.buffer_hits)
}

/// Cold-run through the Volcano row-at-a-time oracle on a fresh database.
///
/// Every driver run in this suite gets its own (deterministically
/// identical) database: the disk model classifies a transfer as
/// sequential when it physically continues the previous one, so two runs
/// sharing one database are *not* independent — the second run's first
/// transfer may continue the first run's last page. Fresh databases make
/// each measurement exactly the cold run the serial driver would see.
fn run_volcano(plan: &LogicalPlan) -> QueryResult {
    run_volcano_budgeted(plan, 0)
}

/// [`run_volcano`] under an explicit per-operator memory budget in
/// bytes (0 = unlimited).
fn run_volcano_budgeted(plan: &LogicalPlan, budget: usize) -> QueryResult {
    let mut db = database(900);
    db.set_mem_bytes(budget);
    let mut op = db.build(plan).expect("plan builds");
    db.storage().flush_pool();
    let clock0 = db.storage().clock().snapshot();
    let io0 = db.storage().io_snapshot();
    let rows = collect_rows_volcano(op.as_mut()).expect("volcano run");
    let stats = RunStats {
        rows: rows.len() as u64,
        clock: db.storage().clock().snapshot().since(&clock0),
        io: db.storage().io_snapshot().since(&io0),
    };
    QueryResult { rows, stats, scan: Default::default() }
}

/// Cold-run through `Database::run` at a fixed worker count, again on a
/// fresh database.
fn run_with_workers(plan: &LogicalPlan, workers: usize) -> QueryResult {
    run_budgeted(plan, workers, 0)
}

/// [`run_with_workers`] under an explicit per-operator memory budget.
fn run_budgeted(plan: &LogicalPlan, workers: usize, budget: usize) -> QueryResult {
    let mut db = database(900);
    db.set_workers(workers);
    db.set_mem_bytes(budget);
    db.run(plan).expect("driver run")
}

/// [`run_budgeted`] with a forced per-claim chunk size
/// (`Database::set_claim_morsels`): small chunks at high worker counts
/// drain the source early and force the work-stealing path, large
/// chunks pile morsels onto few queues and force steals from the back.
/// The budget is explicit so the oracle it is compared against runs
/// under the same one whatever `SMOOTH_MEM_BYTES` says.
fn run_chunked(plan: &LogicalPlan, workers: usize, claim: usize, budget: usize) -> QueryResult {
    let mut db = database(900);
    db.set_workers(workers);
    db.set_claim_morsels(claim);
    db.set_mem_bytes(budget);
    db.run(plan).expect("driver run")
}

/// Per-operator memory budgets the fixed-plan differential tests sweep
/// in-process: unlimited, one that spills every build and sort, and the
/// spill-forcing budget of the CI leg.
const BUDGET_GRID: [usize; 3] = [0, 512, 16384];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Rows, virtual clock and I/O counters are identical across the
    /// Volcano, columnar and parallel drivers for random plans.
    #[test]
    fn drivers_agree_on_random_plans(
        access in access_strategy(),
        lo in 0i64..300,
        width in 0i64..330,
        residual in prop_oneof![2 => Just(None), 1 => (0i64..900).prop_map(Some)],
        join in join_strategy(),
        agg in agg_strategy(),
    ) {
        let plan = plan_for(&access, lo, width, residual, join, agg);
        let context = format!("{access:?} lo={lo} width={width} res={residual:?} {join:?} {agg:?}");

        // Oracle: the Volcano row-at-a-time driver.
        let volcano = run_volcano(&plan);

        // Single-threaded columnar driver.
        let columnar = run_with_workers(&plan, 1);
        prop_assert!(columnar.rows == volcano.rows, "columnar rows diverge: {context}");
        prop_assert!(
            (columnar.stats.clock.cpu_ns, columnar.stats.clock.io_ns)
                == (volcano.stats.clock.cpu_ns, volcano.stats.clock.io_ns),
            "columnar clock diverges: {context} ({:?} vs {:?})",
            columnar.stats.clock,
            volcano.stats.clock
        );
        prop_assert!(
            io_key(&columnar.stats.io) == io_key(&volcano.stats.io),
            "columnar I/O diverges: {context}"
        );

        // Parallel driver at every worker count.
        for workers in WORKER_GRID {
            let parallel = run_with_workers(&plan, workers);
            prop_assert!(
                parallel.rows == volcano.rows,
                "parallel rows diverge at {workers} workers: {context}"
            );
            prop_assert!(
                (parallel.stats.clock.cpu_ns, parallel.stats.clock.io_ns)
                    == (volcano.stats.clock.cpu_ns, volcano.stats.clock.io_ns),
                "parallel clock diverges at {workers} workers: {context} ({:?} vs {:?})",
                parallel.stats.clock,
                volcano.stats.clock
            );
            prop_assert!(
                io_key(&parallel.stats.io) == io_key(&volcano.stats.io),
                "parallel I/O diverges at {workers} workers: {context}"
            );
        }
    }

    /// Ordered Smooth Scan with Result-Cache spilling: the PR 3 latent
    /// divergence regime, pinned across drivers and spill thresholds.
    #[test]
    fn drivers_agree_on_ordered_smooth_scan_with_spill(
        lo in 0i64..200,
        width in 1i64..300,
        spill in 10usize..200,
        partitions in 2usize..24,
    ) {
        let mut cfg = SmoothScanConfig::default().with_order(true);
        cfg.result_cache_spill = Some(spill);
        cfg.result_cache_partitions = partitions;
        let plan = plan_for(&AccessPathChoice::Smooth(cfg), lo, width, None,
            JoinShape::None, AggShape::None);
        let volcano = run_volcano(&plan);
        let columnar = run_with_workers(&plan, 1);
        prop_assert!(columnar.rows == volcano.rows, "rows diverge (spill={spill})");
        prop_assert!(
            (columnar.stats.clock.cpu_ns, columnar.stats.clock.io_ns)
                == (volcano.stats.clock.cpu_ns, volcano.stats.clock.io_ns),
            "ordered+spill clock diverges (spill={spill}, partitions={partitions}): {:?} vs {:?}",
            columnar.stats.clock,
            volcano.stats.clock
        );
        for workers in [2usize, 8] {
            let parallel = run_with_workers(&plan, workers);
            prop_assert!(parallel.rows == volcano.rows);
            prop_assert!(
                (parallel.stats.clock.cpu_ns, parallel.stats.clock.io_ns)
                    == (volcano.stats.clock.cpu_ns, volcano.stats.clock.io_ns),
                "parallel ordered+spill clock diverges at {workers} workers"
            );
        }
    }

    /// Larger-than-memory legs: tiny per-operator budgets force grace
    /// hash-join spills (and, under the sort wrap, external-sort runs).
    /// Rows must stay byte-identical to the unbudgeted run, and every
    /// driver must charge identical clock and I/O under the *same*
    /// budget — spill accounting may not depend on who does the work.
    #[test]
    fn drivers_agree_under_spilling_budgets(
        budget in prop_oneof![Just(512usize), Just(4096usize), Just(1usize << 20)],
        lo in 0i64..300,
        width in 30i64..330,
        semi in any::<bool>(),
        sorted in any::<bool>(),
    ) {
        let join = if semi { JoinShape::HashSemi } else { JoinShape::HashInner };
        let mut plan =
            plan_for(&AccessPathChoice::ForceFull, lo, width, None, join, AggShape::None);
        if sorted {
            plan = plan.sort(vec![SortKey::asc(2), SortKey::asc(0)]);
        }
        let context = format!("budget={budget} lo={lo} width={width} {join:?} sorted={sorted}");

        let free = run_volcano(&plan);
        let volcano = run_volcano_budgeted(&plan, budget);
        prop_assert!(volcano.rows == free.rows, "budget changed the rows: {context}");
        prop_assert!(
            volcano.stats.clock.io_ns >= free.stats.clock.io_ns,
            "spill can only add I/O-lane time: {context}"
        );

        let columnar = run_budgeted(&plan, 1, budget);
        prop_assert!(columnar.rows == volcano.rows, "budgeted columnar rows diverge: {context}");
        prop_assert!(
            (columnar.stats.clock.cpu_ns, columnar.stats.clock.io_ns)
                == (volcano.stats.clock.cpu_ns, volcano.stats.clock.io_ns),
            "budgeted columnar clock diverges: {context} ({:?} vs {:?})",
            columnar.stats.clock,
            volcano.stats.clock
        );
        prop_assert!(
            io_key(&columnar.stats.io) == io_key(&volcano.stats.io),
            "budgeted columnar I/O diverges: {context}"
        );
        for workers in WORKER_GRID {
            let parallel = run_budgeted(&plan, workers, budget);
            prop_assert!(
                parallel.rows == volcano.rows,
                "budgeted parallel rows diverge at {workers} workers: {context}"
            );
            prop_assert!(
                (parallel.stats.clock.cpu_ns, parallel.stats.clock.io_ns)
                    == (volcano.stats.clock.cpu_ns, volcano.stats.clock.io_ns),
                "budgeted parallel clock diverges at {workers} workers: {context} ({:?} vs {:?})",
                parallel.stats.clock,
                volcano.stats.clock
            );
            prop_assert!(
                io_key(&parallel.stats.io) == io_key(&volcano.stats.io),
                "budgeted parallel I/O diverges at {workers} workers: {context}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Work-stealing legs: forced chunk sizes × worker counts. A fixed
    /// claim of 1 maximizes source-lock interleaving; larger claims
    /// queue runs of morsels on one worker's deque so dry peers must
    /// steal. Rows, clock and I/O must equal the Volcano oracle under
    /// every combination — stealing changes who holds a morsel, never
    /// what the engine is charged for.
    #[test]
    fn drivers_agree_under_forced_chunk_sizes(
        access in access_strategy(),
        lo in 0i64..300,
        width in 0i64..330,
        join in join_strategy(),
        agg in agg_strategy(),
        claim in prop_oneof![Just(1usize), Just(2usize), Just(7usize), Just(64usize)],
    ) {
        let plan = plan_for(&access, lo, width, None, join, agg);
        let context = format!("{access:?} lo={lo} width={width} {join:?} {agg:?} claim={claim}");
        let volcano = run_volcano(&plan);
        for workers in WORKER_GRID {
            let parallel = run_chunked(&plan, workers, claim, 0);
            prop_assert!(
                parallel.rows == volcano.rows,
                "chunked rows diverge at {workers} workers: {context}"
            );
            prop_assert!(
                (parallel.stats.clock.cpu_ns, parallel.stats.clock.io_ns)
                    == (volcano.stats.clock.cpu_ns, volcano.stats.clock.io_ns),
                "chunked clock diverges at {workers} workers: {context} ({:?} vs {:?})",
                parallel.stats.clock,
                volcano.stats.clock
            );
            prop_assert!(
                io_key(&parallel.stats.io) == io_key(&volcano.stats.io),
                "chunked I/O diverges at {workers} workers: {context}"
            );
        }
    }
}

/// `ordered:` heap-range scans no longer take the serial shared-source
/// fallback: the planner lowers them to the partitioned heap source
/// with a `Sort` sink, and rows/clock/IO equal the serial drivers at
/// every worker count, chunk size (guided and forced) and memory budget
/// (the sink's sort spills exactly like the serial `Sort`).
#[test]
fn ordered_scans_parallelize_with_sort_sink() {
    let plan = LogicalPlan::scan(
        ScanSpec::new("t", Predicate::int_half_open(1, 40, 40 + 220))
            .with_order()
            .with_access(AccessPathChoice::ForceFull),
    );
    let db = database(900);
    let pipeline = db
        .parallel_pipeline(&plan)
        .expect("plan builds")
        .expect("ordered heap scan must produce a parallel pipeline, not the serial fallback");
    assert!(
        matches!(pipeline.source, ParallelSource::Heap { .. }),
        "ordered scan must keep the partitioned heap source"
    );
    assert!(
        matches!(pipeline.sink, SinkSpec::Sort { .. }),
        "ordered scan must merge through the charged sort sink"
    );

    for budget in BUDGET_GRID {
        let volcano = run_volcano_budgeted(&plan, budget);
        for workers in WORKER_GRID {
            for claim in [0usize, 1, 3] {
                let at = format!("{workers}w claim={claim} budget={budget}");
                let got = run_chunked(&plan, workers, claim, budget);
                assert_eq!(got.rows, volcano.rows, "rows diverge at {at}");
                assert_eq!(
                    (got.stats.clock.cpu_ns, got.stats.clock.io_ns),
                    (volcano.stats.clock.cpu_ns, volcano.stats.clock.io_ns),
                    "clock diverges at {at}"
                );
                assert_eq!(
                    io_key(&got.stats.io),
                    io_key(&volcano.stats.io),
                    "I/O diverges at {at}"
                );
            }
        }
    }
}

/// Pad-heavy database: Text columns dominate every tuple (one fixed
/// 80-byte pad plus one variable-length tail), so these legs push the
/// zero-copy text-view path — page-backed decode, cross-operator
/// handoff, ordered sink merge — through every driver. Fresh per run,
/// for the same cold-run independence as [`database`].
fn text_database() -> Database {
    let mut db = Database::new(StorageConfig {
        device: DeviceProfile::custom("t", 1, 10),
        cpu: CpuCosts::default(),
        pool_pages: 48,
    });
    let schema = Schema::new(vec![
        Column::new("c0", DataType::Int64),
        Column::new("c1", DataType::Int64),
        Column::new("pad", DataType::Text),
        Column::new("tail", DataType::Text),
    ])
    .unwrap();
    db.load_table(
        "t",
        schema.clone(),
        (0..1000).map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Int(scramble(i, 1000)),
                Value::str("p".repeat(80)),
                Value::str(format!("tail-{i:04}-{}", "y".repeat((i % 17) as usize))),
            ])
        }),
    )
    .unwrap();
    db.load_table(
        "r",
        schema,
        (0..300).map(|i| {
            Row::new(vec![
                Value::Int(scramble(i, 1000)),
                Value::Int(i),
                Value::str("q".repeat(64)),
                Value::str(format!("r{i}")),
            ])
        }),
    )
    .unwrap();
    db
}

/// Volcano oracle over [`text_database`] under a memory budget
/// (0 = unlimited).
fn text_volcano(plan: &LogicalPlan, budget: usize) -> QueryResult {
    let mut db = text_database();
    db.set_mem_bytes(budget);
    let mut op = db.build(plan).expect("plan builds");
    db.storage().flush_pool();
    let clock0 = db.storage().clock().snapshot();
    let io0 = db.storage().io_snapshot();
    let rows = collect_rows_volcano(op.as_mut()).expect("volcano run");
    let stats = RunStats {
        rows: rows.len() as u64,
        clock: db.storage().clock().snapshot().since(&clock0),
        io: db.storage().io_snapshot().since(&io0),
    };
    QueryResult { rows, stats, scan: Default::default() }
}

/// `Database::run` over [`text_database`] at a worker count and budget.
fn text_run(plan: &LogicalPlan, workers: usize, budget: usize) -> QueryResult {
    let mut db = text_database();
    db.set_workers(workers);
    db.set_mem_bytes(budget);
    db.run(plan).expect("driver run")
}

/// Text-heavy scans at 1% / 10% / 100% selectivity: the zero-copy view
/// decode path must be accounting-invisible. Rows (with their text
/// payloads), virtual clock and I/O counters are identical across the
/// Volcano oracle, the columnar driver and the parallel driver at
/// every worker count — views change where string bytes live, never
/// what the query returns or is charged.
#[test]
fn text_heavy_scans_agree_across_drivers() {
    // c1 = scramble(i, 1000) over 1000 rows: width w selects ~w/1000.
    for width in [10i64, 100, 1000] {
        for access in [AccessPathChoice::ForceFull, AccessPathChoice::Auto] {
            let plan = LogicalPlan::scan(
                ScanSpec::new("t", Predicate::int_half_open(1, 0, width))
                    .with_access(access.clone()),
            );
            let context = format!("width={width} {access:?}");
            let volcano = text_volcano(&plan, 0);
            assert!(!volcano.rows.is_empty(), "{context} selects nothing");
            // The text payload really flows through the drivers.
            assert!(volcano.rows.iter().all(|r| r.str(2).unwrap().len() == 80), "{context}");
            for workers in [1usize, 2, 4, 8] {
                let got = text_run(&plan, workers, 0);
                assert_eq!(got.rows, volcano.rows, "text rows diverge at {workers}w: {context}");
                assert_eq!(
                    (got.stats.clock.cpu_ns, got.stats.clock.io_ns),
                    (volcano.stats.clock.cpu_ns, volcano.stats.clock.io_ns),
                    "text clock diverges at {workers}w: {context}"
                );
                assert_eq!(
                    io_key(&got.stats.io),
                    io_key(&volcano.stats.io),
                    "text I/O diverges at {workers}w: {context}"
                );
            }
        }
    }
}

/// Spill-under-views legs: a tiny per-operator budget forces the grace
/// hash join (and, sorted, the external sort) to run text through the
/// copy-on-spill codec — views may never leak a page pin into an
/// overflow file. Rows stay byte-identical to the unbudgeted run and
/// every driver charges the same clock and I/O under the same budget.
#[test]
fn text_heavy_spill_legs_agree_under_views() {
    for sorted in [false, true] {
        let mut plan = LogicalPlan::scan(
            ScanSpec::new("t", Predicate::int_half_open(1, 0, 400))
                .with_access(AccessPathChoice::ForceFull),
        )
        .join(
            LogicalPlan::scan(ScanSpec::new("r", Predicate::True)),
            1,
            0,
            JoinType::Inner,
            JoinStrategy::Hash,
        );
        if sorted {
            plan = plan.sort(vec![SortKey::asc(1), SortKey::asc(0)]);
        }
        let context = format!("sorted={sorted}");
        let free = text_volcano(&plan, 0);
        assert!(!free.rows.is_empty(), "{context} selects nothing");
        let budget = 4096;
        let volcano = text_volcano(&plan, budget);
        assert_eq!(volcano.rows, free.rows, "budget changed the rows: {context}");
        assert!(
            volcano.stats.clock.io_ns > free.stats.clock.io_ns,
            "text join under a 4 KiB budget must actually spill: {context}"
        );
        for workers in [1usize, 2, 4, 8] {
            let got = text_run(&plan, workers, budget);
            assert_eq!(got.rows, volcano.rows, "spill rows diverge at {workers}w: {context}");
            assert_eq!(
                (got.stats.clock.cpu_ns, got.stats.clock.io_ns),
                (volcano.stats.clock.cpu_ns, volcano.stats.clock.io_ns),
                "spill clock diverges at {workers}w: {context}"
            );
            assert_eq!(
                io_key(&got.stats.io),
                io_key(&volcano.stats.io),
                "spill I/O diverges at {workers}w: {context}"
            );
        }
    }
}

/// Bushy trees: a hash join whose build side is itself a hash join
/// resolves its nested probe stage inside the build pipeline and
/// parallelizes end to end, byte- and charge-identical to the serial
/// drivers at every memory budget (grace partitions spill alike).
#[test]
fn bushy_hash_joins_agree_across_drivers() {
    let inner = LogicalPlan::scan(ScanSpec::new("r", Predicate::int_lt(2, 250))).join(
        LogicalPlan::scan(ScanSpec::new("t", Predicate::int_half_open(1, 0, 150))),
        1,
        1,
        JoinType::Inner,
        JoinStrategy::Hash,
    );
    let plan = LogicalPlan::scan(ScanSpec::new("t", Predicate::int_half_open(1, 30, 30 + 200)))
        .join(inner, 1, 0, JoinType::Inner, JoinStrategy::Hash);

    for budget in BUDGET_GRID {
        let volcano = run_volcano_budgeted(&plan, budget);
        for workers in WORKER_GRID {
            for claim in [0usize, 1] {
                let at = format!("{workers}w claim={claim} budget={budget}");
                let got = run_chunked(&plan, workers, claim, budget);
                assert_eq!(got.rows, volcano.rows, "bushy rows diverge at {at}");
                assert_eq!(
                    (got.stats.clock.cpu_ns, got.stats.clock.io_ns),
                    (volcano.stats.clock.cpu_ns, volcano.stats.clock.io_ns),
                    "bushy clock diverges at {at}"
                );
                assert_eq!(
                    io_key(&got.stats.io),
                    io_key(&volcano.stats.io),
                    "bushy I/O diverges at {at}"
                );
            }
        }
    }
}

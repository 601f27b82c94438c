//! Columnar-native hash join with the parallel partitioned build.
//!
//! Not a paper figure: this experiment records what the join phase of
//! PR 5 buys — the build side of a hash join used to drain serially
//! before any worker started; now it is a parallel phase of its own
//! (per-worker hash-partitioned partials over a shared build source,
//! merged by global build position) and the probe gathers columnar
//! output without materializing a row. The shape is a self-join of the
//! micro table: probe = full scan, build = the 10%-selectivity filtered
//! scan (a partitioned heap source of its own), joined on `c2`, with a
//! scalar aggregate sink so the pipeline stays exact-merge.
//!
//! **Gates.** As everywhere in this repo, only machine-comparable
//! numbers gate (see `report.rs`): the deterministic modeled speedups
//! from the traced virtual-clock ledger ([`ScalingLedger`]) — the
//! whole-pipeline 4-worker speedup and, the headline of this
//! experiment, the modeled speedup of the **blocking build phase**
//! alone ([`ScalingLedger::build_speedup`]), which the serial build by
//! construction held at 1×. A hard equality assert (the
//! `join.virtual.sel10.clock_match` gate) pins rows, virtual CPU/IO
//! clock totals and I/O counters of every N-worker run to the serial
//! columnar driver — the partitioned build must be an
//! execution-strategy change only. Measured wall clock is reported
//! ungated.

use std::time::Instant;

use smooth_executor::{run_pipeline_traced, AggFunc, JoinType, ScalingLedger};
use smooth_planner::{AccessPathChoice, Database, JoinStrategy, LogicalPlan, ScanSpec};
use smooth_storage::DeviceProfile;
use smooth_workload::micro;

use crate::experiments::RUNS;
use crate::report::{json_metric, Metric, Report};
use crate::setup;

/// Modeled 4-worker speedup floor on the whole join pipeline.
pub const MODEL_SPEEDUP_FLOOR: f64 = 1.8;
/// Modeled 4-worker speedup floor on the build phase alone.
pub const BUILD_SPEEDUP_FLOOR: f64 = 1.5;

/// NVMe-like profile: the fast-device regime where the scan and build
/// become CPU-bound and the worker pool matters (same profile as the
/// `parallel` experiment).
fn nvme() -> DeviceProfile {
    DeviceProfile::custom("nvme", 3_000, 6_000)
}

/// Self-join of the micro table on `c2`: full-scan probe side, filtered
/// build side at 10% selectivity, scalar aggregate sink.
fn join_plan() -> LogicalPlan {
    let probe = micro::query(1.0, false, AccessPathChoice::ForceFull);
    let build = LogicalPlan::scan(
        ScanSpec::new(micro::TABLE, micro::predicate(0.1)).with_access(AccessPathChoice::ForceFull),
    );
    probe
        .join(build, micro::C2, micro::C2, JoinType::Inner, JoinStrategy::Hash)
        .aggregate(vec![], vec![AggFunc::CountStar, AggFunc::Sum(0)])
}

/// Cold-run the plan through the traced single-worker pipeline.
fn traced_run(db: &Database, plan: &LogicalPlan) -> (usize, u64, ScalingLedger) {
    let pipeline = db.parallel_pipeline(plan).expect("plan builds").expect("plan parallelizes");
    db.storage().flush_pool();
    let clock0 = db.storage().clock().snapshot();
    let (rows, ledger) = run_pipeline_traced(pipeline).expect("traced run");
    let delta = db.storage().clock().snapshot().since(&clock0);
    (rows.len(), delta.total_ns(), ledger)
}

/// Run the join-scaling experiment and the equality checks.
pub fn run() {
    let mut db = setup::micro_db(nvme());
    let plan = join_plan();
    let mut table = Report::new(
        "join",
        "columnar hash join with the parallel partitioned build at 10% build selectivity \
         (modeled speedups from the virtual-clock ledger; wall speedup is host-dependent \
         and ungated)",
        &["shape", "w2", "w4", "w8", "build_w4", "virtual_ms_1w"],
    );

    // Single-worker reference through the serial columnar driver.
    db.set_workers(1);
    let serial = db.run(&plan).expect("serial run");

    // Traced single-worker pipeline: identical rows and clock, plus the
    // per-morsel ledger (build sections included) the model consumes.
    let (n_traced, traced_ns, ledger) = traced_run(&db, &plan);
    assert_eq!(n_traced as u64, serial.stats.rows, "traced row count");
    assert_eq!(
        traced_ns,
        serial.stats.clock.total_ns(),
        "traced pipeline must charge exactly the serial driver's clock"
    );
    assert!(!ledger.build_src_ns.is_empty(), "build phase must be traced");

    // Hard equality: N-worker runs (partitioned build + parallel probe)
    // charge identical virtual CPU/IO totals and produce identical rows.
    for workers in [2usize, 4, 8] {
        db.set_workers(workers);
        let got = db.run(&plan).expect("parallel run");
        assert_eq!(got.rows, serial.rows, "rows diverge at {workers} workers");
        assert_eq!(
            (got.stats.clock.cpu_ns, got.stats.clock.io_ns),
            (serial.stats.clock.cpu_ns, serial.stats.clock.io_ns),
            "virtual clock totals must be identical at {workers} workers"
        );
        assert_eq!(
            (got.stats.io.io_requests, got.stats.io.pages_read, got.stats.io.buffer_hits),
            (serial.stats.io.io_requests, serial.stats.io.pages_read, serial.stats.io.buffer_hits),
            "I/O counters must be identical at {workers} workers"
        );
    }

    let speedups: Vec<f64> = [2, 4, 8].iter().map(|&w| ledger.speedup(w)).collect();
    let build_w4 = ledger.build_speedup(4);
    table.row(vec![
        "self-join".into(),
        Report::factor(speedups[0]),
        Report::factor(speedups[1]),
        Report::factor(speedups[2]),
        Report::factor(build_w4),
        format!("{:.2}", ledger.total_ns() as f64 / 1e6),
    ]);
    for (w, s) in [(2usize, speedups[0]), (4, speedups[1]), (8, speedups[2])] {
        let metric = if w == 4 {
            Metric::gated(format!("join.virtual.sel10.model_speedup.w{w}"), s, "x", true)
                .with_floor(MODEL_SPEEDUP_FLOOR)
        } else {
            Metric::gated(format!("join.virtual.sel10.model_speedup.w{w}"), s, "x", true)
        };
        json_metric(metric);
    }
    // The headline: the blocking build phase itself now scales (it was
    // pinned at 1× by the serial build).
    json_metric(
        Metric::gated("join.build.sel10.model_speedup.w4", build_w4, "x", true)
            .with_floor(BUILD_SPEEDUP_FLOOR),
    );

    // Measured wall clock, 1 worker vs 4 (host-dependent — never gated).
    let wall = |workers: usize, db: &mut Database| -> f64 {
        db.set_workers(workers);
        let mut best = f64::INFINITY;
        db.run(&plan).expect("warmup");
        for _ in 0..RUNS {
            let t = Instant::now();
            db.run(&plan).expect("timed run");
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };
    let serial_wall = wall(1, &mut db);
    let parallel_wall = wall(4, &mut db);
    json_metric(Metric::info(
        "join.wall_speedup.w4",
        serial_wall / parallel_wall.max(1e-12),
        "x",
        true,
    ));

    table.finish();

    // Survives to the report only after every equality assert held.
    json_metric(Metric::gated("join.virtual.sel10.clock_match", 1.0, "bool", true).with_floor(1.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke-scale gate invariants: the modeled build speedup clears
    /// the committed floor with margin, and the N-worker clock totals
    /// equal the serial driver's exactly.
    #[test]
    fn build_speedup_clears_floor_and_clocks_match() {
        let mut db = setup::micro_db(nvme());
        let plan = join_plan();
        db.set_workers(1);
        let serial = db.run(&plan).expect("serial");
        let (n, traced_ns, ledger) = traced_run(&db, &plan);
        assert_eq!(n as u64, serial.stats.rows);
        assert_eq!(traced_ns, serial.stats.clock.total_ns());
        assert!(
            ledger.build_speedup(4) >= BUILD_SPEEDUP_FLOOR,
            "modeled 4-worker build speedup {:.2} under the {BUILD_SPEEDUP_FLOOR} floor",
            ledger.build_speedup(4)
        );
        assert!(
            ledger.speedup(4) >= MODEL_SPEEDUP_FLOOR,
            "modeled 4-worker speedup {:.2} under the {MODEL_SPEEDUP_FLOOR} floor",
            ledger.speedup(4)
        );
        db.set_workers(4);
        let parallel = db.run(&plan).expect("parallel");
        assert_eq!(parallel.rows, serial.rows);
        assert_eq!(parallel.stats.clock, serial.stats.clock);
    }
}

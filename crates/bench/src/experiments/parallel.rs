//! Morsel-driven parallel execution on the micro-benchmark table.
//!
//! Not a paper figure: this experiment records what the parallel
//! pipeline driver (worker pool over columnar morsels, PR 4) buys over
//! the single-worker columnar driver, and proves the two
//! interchangeable. Two shapes at 10% selectivity, both decomposing to
//! the partitioned heap source (per-worker decode of readahead page
//! runs):
//!
//! * **agg** — scalar aggregation above the filtered scan: scan decode
//!   fans out across workers and folds into per-worker partial
//!   aggregates (integer-fed, so the merge is exact). The CI gate holds
//!   a ≥3.0× floor on the 4- and 8-worker *modeled* speedups here.
//! * **scan** — the filtered scan collected as rows (ordered sink
//!   merge), reported informationally.
//!
//! **Why the gated speedup is modeled, not wall-clock.** This repo gates
//! only machine-comparable numbers (see `report.rs`): virtual-clock
//! times and deterministic ratios, never raw wall clock — a wall-clock
//! parallel speedup would be a function of the CI runner's core count
//! (and is physically capped at 1× on a single-core host). The model is
//! the deterministic greedy schedule of the per-morsel virtual-clock
//! ledger the traced single-worker run records
//! ([`smooth_executor::ScalingLedger`]): source sections (page-run I/O)
//! serialize in morsel order — they share one lock and one disk arm —
//! while decode/filter/aggregate sections pack onto workers. It is
//! bit-stable across machines and reruns. Measured wall-clock speedup
//! is still reported, ungated, for the record.
//!
//! The experiment runs on a fast-device profile (NVMe-like, 2.7 GB/s
//! sequential) because that is the regime where parallelism pays: on
//! the paper's HDD the virtual time of a full scan is I/O-bound and the
//! serialized disk caps the speedup near 1 — reported here as the
//! `hdd` metric, a finding straight out of the paper's cost model.
//!
//! It also proves driver interchangeability the hard way: for worker
//! counts {2, 4, 8} the rows must be identical to the single-worker run
//! and the virtual CPU/IO clock totals and I/O counters **exactly
//! equal** — morsel-driven parallelism never changes what work the
//! engine is charged for, only who executes it.

use std::time::Instant;

use smooth_executor::{run_pipeline_traced, AggFunc, ScalingLedger};
use smooth_planner::{AccessPathChoice, Database, LogicalPlan};
use smooth_storage::DeviceProfile;
use smooth_workload::micro;

use crate::experiments::RUNS;
use crate::report::{json_metric, Metric, Report};
use crate::setup;

/// Modeled speedup floor the perf-smoke gate enforces for the
/// aggregate shape at 4 **and** 8 workers. Raised from 1.8 when the
/// per-page hash-lookup CPU moved from the locked source section to
/// the per-worker decode section (where it runs), lifting the modeled
/// source-bound ceiling past 3× at smoke scale.
pub const MODEL_SPEEDUP_FLOOR: f64 = 3.0;

/// NVMe-like profile: ~2.7 GB/s sequential, random 2× — the fast-device
/// regime where the scan becomes CPU-bound and the worker pool matters.
fn nvme() -> DeviceProfile {
    DeviceProfile::custom("nvme", 3_000, 6_000)
}

fn agg_plan() -> LogicalPlan {
    micro::query(0.1, false, AccessPathChoice::ForceFull).aggregate(
        vec![],
        vec![AggFunc::CountStar, AggFunc::Sum(2), AggFunc::Min(0), AggFunc::Max(0)],
    )
}

fn scan_plan() -> LogicalPlan {
    micro::query(0.1, false, AccessPathChoice::ForceFull)
}

/// Cold-run `plan` through the traced single-worker pipeline, returning
/// the rows-count, the clock delta and the scaling ledger.
fn traced_run(db: &Database, plan: &LogicalPlan) -> (usize, u64, ScalingLedger) {
    let pipeline = db.parallel_pipeline(plan).expect("plan builds").expect("plan parallelizes");
    db.storage().flush_pool();
    let clock0 = db.storage().clock().snapshot();
    let (rows, ledger) = run_pipeline_traced(pipeline).expect("traced run");
    let delta = db.storage().clock().snapshot().since(&clock0);
    (rows.len(), delta.total_ns(), ledger)
}

/// Run the parallel-scaling experiment and the equality checks.
pub fn run() {
    let mut db = setup::micro_db(nvme());
    let mut table = Report::new(
        "parallel",
        "morsel-driven parallel pipeline at 10% selectivity (modeled speedup from the \
         virtual-clock ledger; wall speedup is host-dependent and ungated)",
        &["shape", "device", "w2", "w4", "w8", "virtual_ms_1w"],
    );

    for (shape, plan) in [("agg", agg_plan()), ("scan", scan_plan())] {
        // Single-worker reference through the serial columnar driver.
        db.set_workers(1);
        let serial = db.run(&plan).expect("serial run");

        // Traced single-worker pipeline: identical rows and clock, plus
        // the per-morsel ledger the scaling model consumes.
        let (n_traced, traced_ns, ledger) = traced_run(&db, &plan);
        assert_eq!(n_traced as u64, serial.stats.rows, "{shape}: traced row count");
        assert_eq!(
            traced_ns,
            serial.stats.clock.total_ns(),
            "{shape}: traced pipeline must charge exactly the serial driver's clock"
        );

        // Hard equality: N-worker runs charge the identical virtual
        // CPU/IO totals and produce the identical rows.
        for workers in [2usize, 4, 8] {
            db.set_workers(workers);
            let got = db.run(&plan).expect("parallel run");
            assert_eq!(got.rows, serial.rows, "{shape}: rows diverge at {workers} workers");
            assert_eq!(
                (got.stats.clock.cpu_ns, got.stats.clock.io_ns),
                (serial.stats.clock.cpu_ns, serial.stats.clock.io_ns),
                "{shape}: virtual clock totals must be identical at {workers} workers"
            );
            assert_eq!(
                (got.stats.io.io_requests, got.stats.io.pages_read, got.stats.io.buffer_hits),
                (
                    serial.stats.io.io_requests,
                    serial.stats.io.pages_read,
                    serial.stats.io.buffer_hits
                ),
                "{shape}: I/O counters must be identical at {workers} workers"
            );
        }

        // How source-bound the shape is: the modeled time workers spend
        // blocked on the serialized source lock at 4 workers
        // (deterministic, from the ledger), next to the lock wait the
        // 4-worker run actually measured (wall time — host-dependent,
        // informational).
        db.set_workers(4);
        let measured = db.run(&plan).expect("measured run");
        json_metric(Metric::info(
            format!("parallel.{shape}.sel10.model_src_wait_ms.w4"),
            ledger.modeled_src_wait_ns(4) as f64 / 1e6,
            "virtual_ms",
            false,
        ));
        json_metric(Metric::info(
            format!("parallel.{shape}.sel10.measured_lock_wait_ms.w4"),
            measured.scan.lock_wait_ns as f64 / 1e6,
            "wall_ms",
            false,
        ));

        let speedups: Vec<f64> = [2, 4, 8].iter().map(|&w| ledger.speedup(w)).collect();
        table.row(vec![
            shape.into(),
            "nvme".into(),
            Report::factor(speedups[0]),
            Report::factor(speedups[1]),
            Report::factor(speedups[2]),
            format!("{:.2}", ledger.total_ns() as f64 / 1e6),
        ]);
        for (w, s) in [(2usize, speedups[0]), (4, speedups[1]), (8, speedups[2])] {
            let metric = if shape == "agg" && (w == 4 || w == 8) {
                // The headline gates: deterministic, machine-independent,
                // baseline-compared AND floored.
                Metric::gated(format!("parallel.{shape}.sel10.model_speedup.w{w}"), s, "x", true)
                    .with_floor(MODEL_SPEEDUP_FLOOR)
            } else {
                Metric::gated(format!("parallel.{shape}.sel10.model_speedup.w{w}"), s, "x", true)
            };
            json_metric(metric);
        }
    }

    // The paper's HDD: the virtual clock is I/O-bound, the serialized
    // disk arm caps the model — parallelism cannot buy back random I/O.
    let hdd_db = setup::micro_db(DeviceProfile::hdd()).with_workers(1);
    let (_, _, hdd_ledger) = traced_run(&hdd_db, &agg_plan());
    let hdd_speedup = hdd_ledger.speedup(4);
    table.row(vec![
        "agg".into(),
        "hdd".into(),
        Report::factor(hdd_ledger.speedup(2)),
        Report::factor(hdd_speedup),
        Report::factor(hdd_ledger.speedup(8)),
        format!("{:.2}", hdd_ledger.total_ns() as f64 / 1e6),
    ]);
    json_metric(Metric::info("parallel.agg.sel10.model_speedup_hdd.w4", hdd_speedup, "x", true));

    // Measured wall clock, 1 worker vs 4 (host-dependent: tracks the
    // model on multi-core hosts, ~1 on a single core — never gated).
    let wall = |workers: usize, db: &mut Database, plan: &LogicalPlan| -> f64 {
        db.set_workers(workers);
        let mut best = f64::INFINITY;
        db.run(plan).expect("warmup");
        for _ in 0..RUNS {
            let t = Instant::now();
            db.run(plan).expect("timed run");
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };
    let plan = agg_plan();
    let serial_wall = wall(1, &mut db, &plan);
    let parallel_wall = wall(4, &mut db, &plan);
    json_metric(Metric::info(
        "parallel.agg.sel10.wall_speedup.w4",
        serial_wall / parallel_wall.max(1e-12),
        "x",
        true,
    ));

    table.finish();

    // Survives to the report only after every equality assert held.
    json_metric(
        Metric::gated("parallel.virtual.sel10.clock_match", 1.0, "bool", true).with_floor(1.0),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_executor::run_pipeline;

    /// The smoke-scale gate invariants: the modeled 4-worker speedup on
    /// the NVMe profile clears the committed floor with margin, and the
    /// N-worker clock totals equal the serial driver's exactly.
    #[test]
    fn model_speedup_clears_floor_and_clocks_match() {
        let mut db = setup::micro_db(nvme());
        let plan = agg_plan();
        db.set_workers(1);
        let serial = db.run(&plan).expect("serial");
        let (n, traced_ns, ledger) = traced_run(&db, &plan);
        assert_eq!(n as u64, serial.stats.rows);
        assert_eq!(traced_ns, serial.stats.clock.total_ns());
        assert!(
            ledger.speedup(4) >= MODEL_SPEEDUP_FLOOR,
            "modeled 4-worker speedup {:.2} under the {MODEL_SPEEDUP_FLOOR} floor",
            ledger.speedup(4)
        );
        db.set_workers(4);
        let parallel = db.run(&plan).expect("parallel");
        assert_eq!(parallel.rows, serial.rows);
        assert_eq!(parallel.stats.clock, serial.stats.clock);
        // And the pipeline entry point agrees with the Database wiring.
        let pipeline = db.parallel_pipeline(&plan).unwrap().unwrap();
        db.storage().flush_pool();
        let rows = run_pipeline(pipeline, 4).unwrap();
        assert_eq!(rows, serial.rows);
    }
}

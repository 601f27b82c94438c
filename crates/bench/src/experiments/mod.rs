//! One module per paper artifact. See DESIGN.md §3 for the experiment
//! index mapping each module to its figure/table, workload and parameters.

mod batch;
pub mod columnar;
pub mod costmodel;
pub mod cr;
pub mod faults;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod join;
pub mod parallel;
pub mod serve;
pub mod spill;
pub mod textscan;

use std::time::Instant;

/// Timed runs per wall-clock measurement; the best (minimum) is reported
/// to shave scheduler noise on shared CI runners. Smoke-scale scans take
/// only a few milliseconds each, so the minimum over several runs (plus
/// one untimed warmup) is what keeps the gated speedup ratios stable.
pub(crate) const RUNS: usize = 5;

/// Best wall time of [`RUNS`] timed calls of `run` after one untimed
/// warmup, with the row count the last call returned.
pub(crate) fn best_wall_secs(mut run: impl FnMut() -> usize) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut rows = run(); // warmup: pool and allocator in steady state
    for _ in 0..RUNS {
        let t = Instant::now();
        rows = run();
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, rows)
}

/// Known experiment ids, in paper order.
pub const ALL: &[&str] = &[
    "fig1",
    "fig4",
    "fig5a",
    "fig5b",
    "fig6",
    "fig7a",
    "fig7b",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "table1",
    "costmodel",
    "cr",
    "columnar",
    "textscan",
    "parallel",
    "join",
    "serve",
    "spill",
    "faults",
];

/// Dispatch one experiment by id. Returns false for unknown ids.
pub fn run(id: &str) -> bool {
    match id {
        "fig1" => fig1::run(),
        "fig4" | "table2" => fig4::run(),
        "fig5a" => fig5::run(true),
        "fig5b" => fig5::run(false),
        "fig6" => fig6::run(),
        "fig7a" => fig7::run_policies(),
        "fig7b" => fig7::run_triggers(),
        "fig8" => fig8::run(),
        "fig9" => fig9::run(),
        "fig10" => fig10::run(),
        "fig11" => fig11::run(),
        "table1" | "costmodel" => costmodel::run(),
        "cr" => cr::run(),
        "columnar" => columnar::run(),
        "textscan" => textscan::run(),
        "parallel" => parallel::run(),
        "join" => join::run(),
        "serve" => serve::run(),
        "spill" => spill::run(),
        "faults" => faults::run(),
        _ => return false,
    }
    true
}

//! The four workloads: their data, set-up, queries and reference plans.

use std::time::Instant;

use smooth_core::SmoothScanConfig;
use smooth_executor::sort::SortKey;
use smooth_executor::{AggFunc, JoinType};
use smooth_planner::{AccessPathChoice, Database, JoinStrategy, LogicalPlan};
use smooth_storage::{CpuCosts, DeviceProfile, StorageConfig};
use smooth_types::{Result, Row};
use smooth_workload::micro;
use smooth_workload::tpch::queries::Fig4Query;
use smooth_workload::tpch::{self, Scale};

/// Rows of the micro table (≈5.3k heap pages of 8 KiB).
pub const MICRO_ROWS: u64 = micro::DEFAULT_ROWS;
/// TPC-H scale factor of `tpch_fig4`.
pub const TPCH_SF: f64 = 0.05;
/// Per-operator memory budget of `spill_join_sort`.
pub const SPILL_BUDGET: usize = 256 << 10;
/// Pool for `tpch_fig4`: larger than every heap and index page of SF 0.05,
/// so a query re-reads pages from the pool once it has faulted them in.
pub const TPCH_POOL_PAGES: usize = 1 << 15;

pub const NAMES: [&str; 4] = ["scan_sweep", "ordered_sweep", "tpch_fig4", "spill_join_sort"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanSweep,
    OrderedSweep,
    TpchFig4,
    SpillJoinSort,
}

/// One benchmark query and its reference.
pub struct Query {
    pub name: String,
    pub plan: LogicalPlan,
    /// The same query through a different access path.
    pub reference: LogicalPlan,
    /// Column the result must be sorted on.
    pub order_col: Option<usize>,
    /// Selectivity on the micro grid (sweeps only).
    pub selectivity: Option<f64>,
}

/// Set-up times of one install, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub gen_s: f64,
    pub load_s: f64,
    pub index_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.gen_s + self.load_s + self.index_s
    }
}

fn smooth() -> AccessPathChoice {
    AccessPathChoice::Smooth(SmoothScanConfig::eager_elastic())
}

/// The paper's pool for the micro table: 1/16 of its heap pages.
fn micro_config() -> StorageConfig {
    let pages = MICRO_ROWS / 90; // ≈ 90 tuples per page
    StorageConfig {
        device: DeviceProfile::hdd(),
        cpu: CpuCosts::default(),
        pool_pages: (pages / 16) as usize,
    }
}

fn micro_scan(selectivity: f64, access: AccessPathChoice) -> LogicalPlan {
    micro::query(selectivity, false, access)
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        let w = match name {
            "scan_sweep" => Workload::ScanSweep,
            "ordered_sweep" => Workload::OrderedSweep,
            "tpch_fig4" => Workload::TpchFig4,
            "spill_join_sort" => Workload::SpillJoinSort,
            _ => return None,
        };
        Some(w)
    }

    pub fn name(&self) -> &'static str {
        match self {
            Workload::ScanSweep => NAMES[0],
            Workload::OrderedSweep => NAMES[1],
            Workload::TpchFig4 => NAMES[2],
            Workload::SpillJoinSort => NAMES[3],
        }
    }

    pub fn is_sweep(&self) -> bool {
        matches!(self, Workload::ScanSweep | Workload::OrderedSweep)
    }

    /// Per-operator memory budget (0 = unlimited).
    pub fn mem_bytes(&self) -> usize {
        match self {
            Workload::SpillJoinSort => SPILL_BUDGET,
            _ => 0,
        }
    }

    pub fn storage_config(&self) -> StorageConfig {
        match self {
            Workload::TpchFig4 => StorageConfig {
                device: DeviceProfile::hdd(),
                cpu: CpuCosts::default(),
                pool_pages: TPCH_POOL_PAGES,
            },
            _ => micro_config(),
        }
    }

    /// Generate, load and index the workload's data from `seed`.
    pub fn setup(&self, seed: u64, workers: usize) -> Result<(Database, SetupTimes)> {
        let mut db = Database::new(self.storage_config())
            .with_workers(workers)
            .with_mem_bytes(self.mem_bytes());
        let mut t = SetupTimes::default();
        match self {
            Workload::TpchFig4 => {
                // `tpch::install` generates and loads table by table and
                // builds the primary-key indexes; the split between
                // generation and loading is measured in the traced run.
                let start = Instant::now();
                tpch::install(&mut db, Scale { sf: TPCH_SF, seed })?;
                t.gen_s = start.elapsed().as_secs_f64();
                let start = Instant::now();
                tpch::gen::create_tuning_indexes(&mut db)?;
                t.index_s = start.elapsed().as_secs_f64();
            }
            _ => {
                let start = Instant::now();
                let rows: Vec<Row> = micro::rows(MICRO_ROWS, seed).collect();
                t.gen_s = start.elapsed().as_secs_f64();
                let start = Instant::now();
                db.load_table(micro::TABLE, micro::schema(), rows)?;
                t.load_s = start.elapsed().as_secs_f64();
                let start = Instant::now();
                db.create_index(micro::TABLE, micro::C2, "micro_c2")?;
                t.index_s = start.elapsed().as_secs_f64();
            }
        }
        Ok((db, t))
    }

    pub fn queries(&self) -> Vec<Query> {
        match self {
            Workload::ScanSweep | Workload::OrderedSweep => {
                let ordered = *self == Workload::OrderedSweep;
                micro::selectivity_grid()
                    .into_iter()
                    .map(|sel| Query {
                        name: format!("sel{}", sel * 100.0),
                        plan: micro::query(sel, ordered, smooth()),
                        reference: micro_scan(sel, AccessPathChoice::ForceFull),
                        order_col: ordered.then_some(micro::C2),
                        selectivity: Some(sel),
                    })
                    .collect()
            }
            Workload::TpchFig4 => Fig4Query::all()
                .into_iter()
                .map(|q| Query {
                    name: format!("{q:?}"),
                    plan: q.plan(smooth()),
                    reference: q.plan(q.psql_access()),
                    order_col: None,
                    selectivity: None,
                })
                .collect(),
            Workload::SpillJoinSort => vec![
                spill_query("join", join_plan),
                spill_query("bushy_join", bushy_plan),
                Query {
                    order_col: Some(C4),
                    ..spill_query("sort_c4", |a| micro_scan(0.2, a).sort(vec![SortKey::asc(C4)]))
                },
            ],
        }
    }
}

/// Ordinals of micro columns used by the spill queries.
const C1: usize = 0;
const C3: usize = 2;
const C4: usize = 3;

fn spill_query(name: &str, plan: impl Fn(AccessPathChoice) -> LogicalPlan) -> Query {
    Query {
        name: name.to_string(),
        plan: plan(smooth()),
        reference: plan(AccessPathChoice::ForceFull),
        order_col: None,
        selectivity: None,
    }
}

/// micro ⋈ micro(10%) on `c2`, counted and summed.
fn join_plan(access: AccessPathChoice) -> LogicalPlan {
    micro_scan(1.0, access.clone())
        .join(micro_scan(0.1, access), micro::C2, micro::C2, JoinType::Inner, JoinStrategy::Hash)
        .aggregate(vec![], vec![AggFunc::CountStar, AggFunc::Sum(C1)])
}

/// A hash join whose build side is itself a hash join:
/// micro(20%) ⋈_{c4 = a.c1} (micro(10%) a ⋈_{a.c3 = b.c2} micro(10%) b).
fn bushy_plan(access: AccessPathChoice) -> LogicalPlan {
    let inner = micro_scan(0.1, access.clone()).join(
        micro_scan(0.1, access.clone()),
        C3,
        micro::C2,
        JoinType::Inner,
        JoinStrategy::Hash,
    );
    micro_scan(0.2, access)
        .join(inner, C4, C1, JoinType::Inner, JoinStrategy::Hash)
        .aggregate(vec![], vec![AggFunc::CountStar, AggFunc::Sum(C1)])
}

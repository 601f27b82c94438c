//! The smoothscan benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <scan_sweep|ordered_sweep|tpch_fig4|spill_join_sort> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client runs the workload's queries one at a time in a closed loop
//! (each a cold run through `Database::run_batches`) for `--seconds`,
//! checks every result against a reference computed once through another
//! access path, and prints a report line followed by one JSON result line.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` splits the
//! time between untraced passes and a traced run, and reports the
//! per-layer metrics. See `perfbench/README.md` for every name.

mod check;
mod env;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::time::{Duration, Instant};

use smooth_planner::{BatchResult, Database};

use check::Expected;
use stats::Summary;
use workloads::{Query, SetupTimes, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value:?}; one of {:?}", workloads::NAMES)
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn num(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not finite");
    format!("{x}")
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON array of strings.
fn json_strs<'a>(items: impl IntoIterator<Item = &'a str>) -> String {
    let items: Vec<String> = items.into_iter().map(json_str).collect();
    format!("[{}]", items.join(", "))
}

/// A JSON object from `(key, raw JSON value)` pairs.
fn obj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{{}}}", body.join(", "))
}

fn summary_json(s: &Summary) -> String {
    obj(&[("median", num(s.median)), ("q1", num(s.q1)), ("q3", num(s.q3)), ("n", s.n.to_string())])
}

/// Runs queries and checks each result, counting attempts and failures.
struct Runner {
    db: Database,
    queries: Vec<Query>,
    expected: Vec<Expected>,
    attempted: u64,
    failed: u64,
}

/// One pass over every query: wall seconds per query (`None` when the
/// query failed) and virtual seconds per query (0 when it failed).
struct Pass {
    walls: Vec<Option<f64>>,
    virtuals: Vec<f64>,
}

impl Pass {
    fn virtual_s(&self) -> f64 {
        self.virtuals.iter().sum()
    }
}

impl Runner {
    fn new(db: Database, queries: Vec<Query>) -> Result<Self, String> {
        let mut expected = Vec::with_capacity(queries.len());
        for q in &queries {
            let result = db
                .run_batches(&q.reference)
                .map_err(|e| format!("reference for {} failed: {e}", q.name))?;
            expected.push(Expected::of(&result));
        }
        Ok(Runner { db, queries, expected, attempted: 0, failed: 0 })
    }

    /// Run query `i` and check it. Returns when the run started, its
    /// wall time (of `run_batches` only, not the check) and the result.
    fn run(&mut self, i: usize) -> Option<(Instant, Duration, BatchResult)> {
        let q = &self.queries[i];
        self.attempted += 1;
        let start = Instant::now();
        let result = self.db.run_batches(&q.plan);
        let wall = start.elapsed();
        let verdict = result
            .map_err(|e| e.to_string())
            .and_then(|r| check::verify(&self.expected[i], &r, q.order_col).map(|()| r));
        match verdict {
            Ok(r) => Some((start, wall, r)),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: query {} failed: {e}", q.name);
                None
            }
        }
    }

    fn pass(&mut self) -> Pass {
        let mut walls = Vec::with_capacity(self.queries.len());
        let mut virtuals = Vec::with_capacity(self.queries.len());
        for i in 0..self.queries.len() {
            let outcome = self.run(i);
            virtuals.push(outcome.as_ref().map_or(0.0, |(_, _, r)| r.stats.secs()));
            walls.push(outcome.map(|(_, w, _)| w.as_secs_f64()));
        }
        Pass { walls, virtuals }
    }

    /// Closed-loop passes until `budget` has elapsed (at least one).
    fn timed(&mut self, budget: Duration) -> Vec<Pass> {
        let start = Instant::now();
        let mut passes = Vec::new();
        while passes.is_empty() || start.elapsed() < budget {
            passes.push(self.pass());
        }
        passes
    }
}

/// Wall samples per query, in seconds, over `passes`.
fn samples(passes: &[Pass], queries: usize) -> Vec<Vec<f64>> {
    (0..queries).map(|i| passes.iter().filter_map(|p| p.walls[i]).collect()).collect()
}

/// End-to-end metrics of the timed passes.
struct EndToEnd {
    queries_per_s: f64,
    per_query_ms: Vec<Summary>,
    query_p50_ms: f64,
    query_max_ms: f64,
    virtual_s: f64,
    virtual_repeats: bool,
}

fn end_to_end(passes: &[Pass], queries: usize) -> EndToEnd {
    let samples = samples(passes, queries);
    let done: usize = samples.iter().map(Vec::len).sum();
    let wall: f64 = samples.iter().flatten().sum();
    let samples_ms: Vec<Vec<f64>> =
        samples.iter().map(|s| s.iter().map(|w| w * 1e3).collect()).collect();
    let per_query_ms: Vec<Summary> = samples_ms.iter().map(|s| Summary::of(s)).collect();
    let medians = stats::per_query_medians(&samples_ms);
    let first = passes[0].virtual_s();
    EndToEnd {
        queries_per_s: if wall > 0.0 { done as f64 / wall } else { 0.0 },
        query_p50_ms: stats::median(&medians),
        query_max_ms: medians.iter().copied().fold(0.0, f64::max),
        per_query_ms,
        virtual_s: first,
        virtual_repeats: passes.iter().all(|p| p.virtuals == passes[0].virtuals),
    }
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    let w = args.workload;
    let workers = env::nproc().min(2);

    // Set-up, several times; the last database serves the queries.
    let mut setups: Vec<SetupTimes> = Vec::with_capacity(SETUPS);
    let mut db = None;
    for _ in 0..SETUPS {
        drop(db.take());
        let (fresh, t) = w.setup(args.seed, workers).map_err(|e| format!("set-up failed: {e}"))?;
        setups.push(t);
        db = Some(fresh);
    }
    let db = db.expect("at least one set-up");
    let setup_s = Summary::of(&setups.iter().map(SetupTimes::total).collect::<Vec<_>>());

    let mut runner = Runner::new(db, w.queries())?;
    runner.pass(); // warm-up: lazy set-up (the worker pool) and caches
    let budget =
        Duration::from_secs_f64(if args.trace { args.seconds / 2.0 } else { args.seconds });
    let passes = runner.timed(budget);

    let e2e = end_to_end(&passes, runner.queries.len());

    let mut metrics: Vec<(String, &str, f64)> = Vec::new();
    let mut extra: Vec<(&str, String)> = Vec::new();
    if args.trace {
        let traced = layers::traced_run(
            &mut runner,
            w,
            workers,
            &setups,
            args.seed,
            &e2e.per_query_ms,
            budget,
        )
        .map_err(|e| format!("traced run failed: {e}"))?;
        metrics = traced.metrics;
        extra.push(("traced", traced.report));
    } else {
        let attempted = runner.attempted.max(1) as f64;
        metrics.extend([
            ("queries_per_s".to_string(), "1/s", e2e.queries_per_s),
            ("query_p50_ms".to_string(), "ms", e2e.query_p50_ms),
            ("query_max_ms".to_string(), "ms", e2e.query_max_ms),
            ("virtual_s".to_string(), "s", e2e.virtual_s),
            ("correct_frac".to_string(), "frac", (attempted - runner.failed as f64) / attempted),
            ("setup_s".to_string(), "s", setup_s.median),
            ("peak_rss_mb".to_string(), "MiB", env::peak_rss_mb()),
        ]);
    }

    let qps: Vec<f64> = passes
        .iter()
        .map(|p| {
            let walls: Vec<f64> = p.walls.iter().flatten().copied().collect();
            walls.len() as f64 / walls.iter().sum::<f64>().max(f64::MIN_POSITIVE)
        })
        .collect();
    let per_query: Vec<String> = (0..runner.queries.len())
        .map(|i| {
            obj(&[
                ("name", json_str(&runner.queries[i].name)),
                ("wall_ms", summary_json(&e2e.per_query_ms[i])),
                ("virtual_s", num(passes[0].virtuals[i])),
                ("rows", runner.expected[i].rows().to_string()),
            ])
        })
        .collect();
    let environment = obj(&[
        ("nproc", env::nproc().to_string()),
        ("cpu_model", json_str(&env::cpu_model())),
        ("workers", workers.to_string()),
        ("micro_rows", workloads::MICRO_ROWS.to_string()),
        ("tpch_sf", num(workloads::TPCH_SF)),
        ("pool_pages", w.storage_config().pool_pages.to_string()),
        ("mem_bytes", w.mem_bytes().to_string()),
        ("rustc", json_str(env::rustc_version())),
        ("git_commit", json_str(&env::git_commit())),
    ]);
    let mut report = vec![
        ("workload", json_str(w.name())),
        ("seed", args.seed.to_string()),
        ("seconds", num(args.seconds)),
        ("trace", args.trace.to_string()),
        ("environment", environment),
        ("passes", passes.len().to_string()),
        ("queries_per_s_per_pass", summary_json(&Summary::of(&qps))),
        ("setup_s", summary_json(&setup_s)),
        ("queries", format!("[{}]", per_query.join(", "))),
        ("virtual_s", num(e2e.virtual_s)),
        ("virtual_repeats", e2e.virtual_repeats.to_string()),
        ("failed_frac", num(runner.failed as f64 / runner.attempted.max(1) as f64)),
    ];
    report.extend(extra);
    println!("{}", obj(&[("perfbench", obj(&report))]));

    let metric_json: Vec<(&str, String)> = metrics
        .iter()
        .map(|(name, unit, v)| {
            (name.as_str(), obj(&[("value", num(*v)), ("unit", json_str(unit))]))
        })
        .collect();
    println!(
        "{}",
        obj(&[
            ("correct", (runner.failed == 0).to_string()),
            ("attempted", runner.attempted.to_string()),
            ("failed", runner.failed.to_string()),
            ("metrics", obj(&metric_json)),
        ])
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload tpch_fig4 --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::TpchFig4, 7, 10.0, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload scan_sweep --seconds 1").is_err());
        assert!(args("--workload scan_sweep --seed 1 --seconds 0 --trace 0").is_err());
    }

    #[test]
    fn end_to_end_takes_medians_per_query_then_across_queries() {
        let pass = |a: f64, b: f64, c: Option<f64>| Pass {
            walls: vec![Some(a), Some(b), c],
            virtuals: vec![1.0, 1.5, 0.0],
        };
        let passes = vec![
            pass(0.010, 0.100, Some(0.020)),
            pass(0.030, 0.300, None),
            pass(0.020, 0.200, Some(0.040)),
        ];
        let e = end_to_end(&passes, 3);
        // Per-query medians: 20 ms, 200 ms, 30 ms.
        assert!((e.query_p50_ms - 30.0).abs() < 1e-9);
        assert!((e.query_max_ms - 200.0).abs() < 1e-9);
        assert_eq!(e.per_query_ms[2].n, 2);
        // 8 completed queries over 0.72 s of query wall.
        assert!((e.queries_per_s - 8.0 / 0.72).abs() < 1e-9);
        assert!(e.virtual_repeats);
        assert_eq!(e.virtual_s, 2.5);
    }

    #[test]
    fn json_helpers_keep_every_digit() {
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(obj(&[("a", num(1.5)), ("b", "true".into())]), "{\"a\": 1.5, \"b\": true}");
        assert_eq!(json_str("a\"b\\c\u{1}é"), "\"a\\\"b\\\\c\\u0001é\"");
        assert_eq!(json_strs(["x", "y"]), "[\"x\", \"y\"]");
    }
}

//! The benchmark's arithmetic: medians, quartiles and the robustness
//! ratio. Kept free of engine types so it can be unit-tested alone.

/// Median of `values` (mean of the two middle values for an even
/// count); `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method). A single value is its own quartiles; empty input gives 0.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => return (0.0, 0.0),
        1 => return (v[0], v[0]),
        _ => {}
    }
    // Python's arithmetic, signed: `delta` goes negative when the
    // clamp lifts `j` above `i * m / n` (two or three samples).
    let (n, m, ld) = (4i64, ld as i64 + 1, ld as i64);
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        (lo * (n as f64 - delta) + hi * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// A timing's report: median, quartiles and sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Summary { median: median(values), q1, q3, n: values.len() }
    }
}

/// Per-query medians: one median per query over that query's samples.
pub fn per_query_medians(samples: &[Vec<f64>]) -> Vec<f64> {
    samples.iter().map(|s| median(s)).collect()
}

/// One grid point of the robustness claim: Smooth Scan's virtual time
/// and the static access paths' virtual times at the same selectivity.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPoint {
    pub selectivity: f64,
    pub smooth_s: f64,
    /// Virtual seconds of Full, Index and Sort Scan.
    pub static_s: [f64; 3],
}

/// The worst grid point: `(ratio, base_s, selectivity)` where `ratio`
/// is `smooth_s / base_s` and `base_s` the fastest static path's
/// virtual time there. Points whose base is 0 (nothing to do) are
/// skipped; `None` when no point has a positive base.
pub fn worst_ratio(points: &[GridPoint]) -> Option<(f64, f64, f64)> {
    points
        .iter()
        .filter_map(|p| {
            let base = p.static_s.iter().copied().fold(f64::INFINITY, f64::min);
            (base > 0.0 && base.is_finite()).then(|| (p.smooth_s / base, base, p.selectivity))
        })
        .max_by(|a, b| a.0.total_cmp(&b.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        assert_eq!(quartiles(&[40.0, 10.0, 30.0, 20.0]), (12.5, 37.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn summary_counts_samples() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s, Summary { median: 3.0, q1: 1.5, q3: 4.5, n: 5 });
    }

    #[test]
    fn per_query_medians_take_each_query_alone() {
        let samples = vec![vec![5.0, 1.0, 3.0], vec![10.0, 30.0], vec![]];
        assert_eq!(per_query_medians(&samples), vec![3.0, 20.0, 0.0]);
    }

    #[test]
    fn worst_ratio_divides_by_the_fastest_static_path() {
        let points = vec![
            GridPoint { selectivity: 0.0, smooth_s: 0.1, static_s: [0.0, 0.0, 0.0] },
            GridPoint { selectivity: 0.01, smooth_s: 0.765, static_s: [0.9, 0.333, 0.5] },
            GridPoint { selectivity: 1.0, smooth_s: 1.2, static_s: [1.0, 9.0, 1.1] },
        ];
        let (ratio, base, sel) = worst_ratio(&points).unwrap();
        assert!((ratio - 0.765 / 0.333).abs() < 1e-12);
        assert_eq!(base, 0.333);
        assert_eq!(sel, 0.01);
        assert_eq!(worst_ratio(&points[..1]), None);
    }
}

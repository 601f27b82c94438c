//! Output check: every query's result against a reference computed once
//! per run through a different access path.
//!
//! Results compare as multisets, because grouped aggregates and
//! unordered scans come back in path-dependent order. Results without
//! floats compare by an order-independent 128-bit fingerprint, so a
//! 480k-row scan is checked without sorting it; results with floats
//! (aggregates, a handful of rows) are sorted and compared value by
//! value with floats equal within 1e-9 relative. An ordered query also
//! requires its sort column to be non-decreasing, which together with
//! the multiset match fixes the exact sequence of that column.

use smooth_planner::BatchResult;
use smooth_types::{ColumnValues, ColumnVector, Row, Value};

const REL_TOL: f64 = 1e-9;

/// What a query must return.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// Integer/text rows: count plus two independent sums of row hashes.
    Fingerprint { rows: u64, h: [u64; 2] },
    /// Rows with floats, sorted.
    Rows(Vec<Row>),
}

impl Expected {
    pub fn of(result: &BatchResult) -> Expected {
        if has_floats(result) {
            let mut rows = materialize(result);
            rows.sort_by(cmp_rows);
            Expected::Rows(rows)
        } else {
            let (rows, h) = fingerprint(result);
            Expected::Fingerprint { rows, h }
        }
    }

    pub fn rows(&self) -> u64 {
        match self {
            Expected::Fingerprint { rows, .. } => *rows,
            Expected::Rows(r) => r.len() as u64,
        }
    }
}

/// Check `result` against `expected`; `order_col` names a column the
/// result must be sorted on (ascending).
pub fn verify(
    expected: &Expected,
    result: &BatchResult,
    order_col: Option<usize>,
) -> Result<(), String> {
    if let Some(col) = order_col {
        check_order(result, col)?;
    }
    let got = Expected::of(result);
    match (expected, &got) {
        (Expected::Fingerprint { .. }, Expected::Fingerprint { .. }) if expected == &got => Ok(()),
        (Expected::Rows(want), Expected::Rows(have)) => compare_rows(want, have),
        _ => Err(format!(
            "result differs from the reference ({} rows expected, {} returned)",
            expected.rows(),
            got.rows()
        )),
    }
}

fn has_floats(result: &BatchResult) -> bool {
    result
        .batches
        .iter()
        .any(|b| b.columns().iter().any(|c| matches!(c.values(), ColumnValues::Float(_))))
        || result.rows.iter().any(|r| r.values().iter().any(|v| matches!(v, Value::Float(_))))
}

fn materialize(result: &BatchResult) -> Vec<Row> {
    let mut rows: Vec<Row> =
        result.batches.iter().flat_map(|b| (0..b.len()).map(|i| b.row(i))).collect();
    rows.extend(result.rows.iter().cloned());
    rows
}

fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    // FNV-1a, then mixed.
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix(h ^ bytes.len() as u64)
}

/// Hash of one field: `tag` tells NULL, integer and text apart.
fn field_hash(tag: u64, payload: u64) -> u64 {
    mix(payload ^ tag.rotate_left(56))
}

fn value_hash(v: &Value) -> u64 {
    match v {
        Value::Null => field_hash(0, 0),
        Value::Int(x) => field_hash(1, *x as u64),
        Value::Str(s) => field_hash(2, hash_bytes(s.as_bytes())),
        Value::Float(f) => field_hash(3, f.to_bits()),
    }
}

/// [`value_hash`] of row `phys` of a column, without building a `Value`.
fn column_hash(col: &ColumnVector, phys: usize) -> u64 {
    if col.is_null(phys) {
        return field_hash(0, 0);
    }
    match col.values() {
        ColumnValues::Int(v) => field_hash(1, v[phys] as u64),
        ColumnValues::Str(t) => field_hash(2, hash_bytes(t.get(phys).as_bytes())),
        ColumnValues::Float(v) => field_hash(3, v[phys].to_bits()),
    }
}

/// Two independent hashes of a row from its field hashes, in column order.
fn row_hash(fields: impl Iterator<Item = u64>) -> [u64; 2] {
    let mut a = [0x1234_5678u64, 0x9ABC_DEF0u64];
    for (c, f) in fields.enumerate() {
        a[0] = mix(a[0] ^ f ^ c as u64);
        a[1] = mix(a[1].rotate_left(17) ^ f.wrapping_mul(0x9E37_79B9) ^ (c as u64) << 40);
    }
    a
}

/// Order-independent multiset fingerprint: row count and the wrapping
/// sums of two independent row hashes.
fn fingerprint(result: &BatchResult) -> (u64, [u64; 2]) {
    let batch_rows = result.batches.iter().flat_map(|b| {
        b.live_rows().map(move |phys| row_hash(b.columns().iter().map(|c| column_hash(c, phys))))
    });
    let folded_rows = result.rows.iter().map(|r| row_hash(r.values().iter().map(value_hash)));
    batch_rows
        .chain(folded_rows)
        .fold((0, [0, 0]), |(n, s), h| (n + 1, [s[0].wrapping_add(h[0]), s[1].wrapping_add(h[1])]))
}

fn check_order(result: &BatchResult, col: usize) -> Result<(), String> {
    let mut prev = i64::MIN;
    let mut check = |k: i64| {
        if k < prev {
            return Err(format!("column {col} out of order: {k} after {prev}"));
        }
        prev = k;
        Ok(())
    };
    for b in &result.batches {
        let column = b.column_checked(col).map_err(|e| e.to_string())?;
        for phys in b.live_rows() {
            check(column.int(phys).map_err(|e| e.to_string())?)?;
        }
    }
    for r in &result.rows {
        match r.get(col) {
            Value::Int(k) => check(*k)?,
            other => return Err(format!("sort column {col} holds {other:?}")),
        }
    }
    Ok(())
}

fn cmp_values(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Float(x), Value::Float(y)) => x.total_cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Null, Value::Null) => Ordering::Equal,
        _ => rank(a).cmp(&rank(b)),
    }
}

fn rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Int(_) => 1,
        Value::Float(_) => 2,
        Value::Str(_) => 3,
    }
}

fn cmp_rows(a: &Row, b: &Row) -> std::cmp::Ordering {
    a.values()
        .iter()
        .zip(b.values())
        .map(|(x, y)| cmp_values(x, y))
        .find(|o| o.is_ne())
        .unwrap_or_else(|| a.len().cmp(&b.len()))
}

fn values_match(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            x == y || (x - y).abs() <= REL_TOL * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

fn compare_rows(want: &[Row], have: &[Row]) -> Result<(), String> {
    if want.len() != have.len() {
        return Err(format!("{} rows expected, {} returned", want.len(), have.len()));
    }
    for (i, (w, h)) in want.iter().zip(have).enumerate() {
        let same = w.len() == h.len()
            && w.values().iter().zip(h.values()).all(|(a, b)| values_match(a, b));
        if !same {
            return Err(format!(
                "row {i} differs: expected {:?}, got {:?}",
                w.values(),
                h.values()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use smooth_planner::RunStats;
    use smooth_storage::ScanStatistics;
    use smooth_types::{Column, ColumnBatch, DataType, Schema};

    fn schema() -> Schema {
        Schema::new(vec![Column::new("k", DataType::Int64), Column::new("s", DataType::Text)])
            .unwrap()
    }

    fn row(k: i64, s: &str) -> Row {
        Row::new(vec![Value::Int(k), Value::str(s)])
    }

    fn batches(rows: &[Row]) -> BatchResult {
        let batch = ColumnBatch::from_rows(&schema(), rows).unwrap();
        BatchResult {
            batches: vec![batch],
            rows: Vec::new(),
            stats: RunStats::default(),
            scan: ScanStatistics::default(),
        }
    }

    fn folded(rows: Vec<Row>) -> BatchResult {
        BatchResult {
            batches: Vec::new(),
            rows,
            stats: RunStats::default(),
            scan: ScanStatistics::default(),
        }
    }

    #[test]
    fn multiset_match_ignores_order_and_representation() {
        let a = vec![row(1, "x"), row(2, "y"), row(2, "y")];
        let b = vec![row(2, "y"), row(1, "x"), row(2, "y")];
        let expected = Expected::of(&batches(&a));
        assert_eq!(verify(&expected, &batches(&b), None), Ok(()));
        assert_eq!(verify(&expected, &folded(b), None), Ok(()));
    }

    #[test]
    fn multiset_mismatch_is_caught() {
        let expected = Expected::of(&batches(&[row(1, "x"), row(2, "y"), row(2, "y")]));
        for bad in [
            vec![row(1, "x"), row(2, "y")],
            vec![row(1, "x"), row(1, "x"), row(2, "y")],
            vec![row(1, "x"), row(2, "y"), row(2, "z")],
        ] {
            assert!(verify(&expected, &batches(&bad), None).is_err());
        }
    }

    #[test]
    fn ordered_check_requires_non_decreasing_key() {
        let sorted = vec![row(1, "x"), row(2, "y"), row(2, "z")];
        let expected = Expected::of(&batches(&sorted));
        assert_eq!(verify(&expected, &batches(&sorted), Some(0)), Ok(()));
        let shuffled = vec![row(2, "y"), row(1, "x"), row(2, "z")];
        assert!(verify(&expected, &batches(&shuffled), Some(0)).is_err());
    }

    #[test]
    fn floats_match_within_relative_tolerance() {
        let f = |k: i64, x: f64| Row::new(vec![Value::Int(k), Value::Float(x)]);
        let expected = Expected::of(&folded(vec![f(1, 1e6), f(2, 3.5)]));
        let close = folded(vec![f(2, 3.5), f(1, 1e6 * (1.0 + 1e-12))]);
        assert_eq!(verify(&expected, &close, None), Ok(()));
        let far = folded(vec![f(2, 3.5), f(1, 1e6 * (1.0 + 1e-6))]);
        assert!(verify(&expected, &far, None).is_err());
    }
}

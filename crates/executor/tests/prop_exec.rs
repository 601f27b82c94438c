//! Property tests for the executor: join operators must agree with a
//! nested-loop oracle for arbitrary inputs, every access path must
//! return the same multiset as a filtered full scan, and the columnar
//! iterator protocol must produce the exact row sequence of the
//! row-at-a-time protocol for every operator — including with selection
//! vectors active and with both protocols interleaved on one stream.

use std::sync::Arc;

use proptest::prelude::*;
use smooth_executor::sort::SortKey;
use smooth_executor::{
    collect_rows, collect_rows_volcano, operator::ValuesOp, AggFunc, Filter, FullTableScan,
    HashAggregate, HashJoin, IndexScan, JoinType, MergeJoin, NestedLoopJoin, Operator, Predicate,
    Project, Sort, SortScan,
};
use smooth_index::BTreeIndex;
use smooth_storage::{CpuCosts, DeviceProfile, HeapFile, HeapLoader, Storage, StorageConfig};
use smooth_types::{Column, DataType, Row, Schema, Value};

/// Drain an operator through `next_columns(max)` only, checking the
/// columnar batch contract.
fn collect_columnar(op: &mut dyn Operator, max: usize) -> Vec<Row> {
    op.open().unwrap();
    let mut rows = Vec::new();
    while let Some(batch) = op.next_columns(max).unwrap() {
        assert!(!batch.is_empty(), "empty columnar batch violates the protocol");
        assert!(batch.len() <= max, "columnar batch exceeds max");
        rows.extend(batch.into_rows());
    }
    assert!(op.next_columns(max).unwrap().is_none(), "None must be sticky");
    op.close().unwrap();
    rows
}

/// Drain an operator alternating `next()` and `next_columns(max)`
/// calls — both protocols share one stream and must compose.
fn collect_interleaved(op: &mut dyn Operator, max: usize) -> Vec<Row> {
    op.open().unwrap();
    let mut rows = Vec::new();
    'outer: while let Some(row) = op.next().unwrap() {
        rows.push(row);
        match op.next_columns(max).unwrap() {
            Some(batch) => rows.extend(batch.into_rows()),
            None => break 'outer,
        }
    }
    op.close().unwrap();
    rows
}

/// The protocol-equivalence obligation: row-at-a-time, columnar and
/// interleaved drains of (reopenable) `op` yield the identical sequence.
fn assert_protocols_equivalent(op: &mut dyn Operator, max: usize) {
    let volcano = collect_rows_volcano(op).unwrap();
    assert_eq!(collect_columnar(op, max), volcano, "columnar ≠ row-at-a-time (max={max})");
    assert_eq!(collect_interleaved(op, max), volcano, "interleaved ≠ row-at-a-time (max={max})");
}

fn storage() -> Storage {
    Storage::new(StorageConfig {
        device: DeviceProfile::custom("t", 1, 10),
        cpu: CpuCosts::default(),
        pool_pages: 16,
    })
}

fn two_col_schema(a: &str, b: &str) -> Schema {
    Schema::new(vec![Column::new(a, DataType::Int64), Column::new(b, DataType::Int64)]).unwrap()
}

fn values_op(a: &str, b: &str, rows: &[(i64, i64)]) -> Box<ValuesOp> {
    Box::new(ValuesOp::new(
        two_col_schema(a, b),
        rows.iter().map(|&(x, y)| Row::new(vec![Value::Int(x), Value::Int(y)])).collect(),
    ))
}

/// Nested-loop equi-join oracle over pairs.
fn join_oracle(left: &[(i64, i64)], right: &[(i64, i64)]) -> Vec<Vec<i64>> {
    let mut out = Vec::new();
    for &(lk, lv) in left {
        for &(rk, rv) in right {
            if lk == rk {
                out.push(vec![lk, lv, rk, rv]);
            }
        }
    }
    out.sort();
    out
}

fn canonical(rows: Vec<Row>) -> Vec<Vec<i64>> {
    let mut v: Vec<Vec<i64>> =
        rows.iter().map(|r| r.values().iter().map(|x| x.as_int().unwrap()).collect()).collect();
    v.sort();
    v
}

proptest! {
    #[test]
    fn hash_and_merge_joins_match_oracle(
        left in proptest::collection::vec((0i64..20, any::<i64>()), 0..60),
        right in proptest::collection::vec((0i64..20, any::<i64>()), 0..60),
    ) {
        let expected = join_oracle(&left, &right);
        let mut hj = HashJoin::new(
            values_op("lk", "lv", &left),
            values_op("rk", "rv", &right),
            0,
            0,
            JoinType::Inner,
            storage(),
        );
        prop_assert_eq!(canonical(collect_rows(&mut hj).unwrap()), expected.clone());
        let mut ls = left.clone();
        ls.sort();
        let mut rs = right.clone();
        rs.sort();
        let mut mj = MergeJoin::new(
            values_op("lk", "lv", &ls),
            values_op("rk", "rv", &rs),
            0,
            0,
            storage(),
        );
        prop_assert_eq!(canonical(collect_rows(&mut mj).unwrap()), expected);
    }

    #[test]
    fn semi_join_is_distinct_left_matches(
        left in proptest::collection::vec((0i64..15, 0i64..5), 0..40),
        right in proptest::collection::vec((0i64..15, 0i64..5), 0..40),
    ) {
        let mut hj = HashJoin::new(
            values_op("lk", "lv", &left),
            values_op("rk", "rv", &right),
            0,
            0,
            JoinType::LeftSemi,
            storage(),
        );
        let got = canonical(collect_rows(&mut hj).unwrap());
        let mut expected: Vec<Vec<i64>> = left
            .iter()
            .filter(|(lk, _)| right.iter().any(|(rk, _)| rk == lk))
            .map(|&(k, v)| vec![k, v])
            .collect();
        expected.sort();
        prop_assert_eq!(got, expected);
    }

    /// All three scan paths return the same multiset as the predicate
    /// applied row-by-row, for arbitrary data and ranges.
    #[test]
    fn scan_paths_agree_with_row_filter(
        keys in proptest::collection::vec(0i64..100, 1..600),
        lo in 0i64..100,
        width in 0i64..110,
    ) {
        let schema = two_col_schema("c0", "c1");
        let mut loader = HeapLoader::new_mem("t", schema);
        for (i, &k) in keys.iter().enumerate() {
            loader.push(&Row::new(vec![Value::Int(i as i64), Value::Int(k)])).unwrap();
        }
        let heap: Arc<HeapFile> = Arc::new(loader.finish().unwrap());
        let index = Arc::new(BTreeIndex::build_from_heap("i", &heap, 1).unwrap());
        let s = storage();
        let hi = lo + width;
        let expected: Vec<Vec<i64>> = {
            let mut v: Vec<Vec<i64>> = keys
                .iter()
                .enumerate()
                .filter(|(_, &k)| k >= lo && k < hi)
                .map(|(i, &k)| vec![i as i64, k])
                .collect();
            v.sort();
            v
        };
        let mut full = FullTableScan::new(
            Arc::clone(&heap),
            s.clone(),
            Predicate::int_half_open(1, lo, hi),
        );
        prop_assert_eq!(canonical(collect_rows(&mut full).unwrap()), expected.clone());
        let mut is = IndexScan::new(
            Arc::clone(&heap),
            Arc::clone(&index),
            s.clone(),
            std::ops::Bound::Included(lo),
            std::ops::Bound::Excluded(hi),
            Predicate::True,
        );
        prop_assert_eq!(canonical(collect_rows(&mut is).unwrap()), expected.clone());
        let mut ss = SortScan::new(
            heap,
            index,
            s,
            std::ops::Bound::Included(lo),
            std::ops::Bound::Excluded(hi),
            Predicate::True,
        );
        prop_assert_eq!(canonical(collect_rows(&mut ss).unwrap()), expected);
    }

    /// `next_columns` ≡ `next` for every access path, for arbitrary data,
    /// ranges, residuals and batch sizes.
    #[test]
    fn scan_batch_protocol_equals_row_protocol(
        keys in proptest::collection::vec(0i64..100, 1..500),
        lo in 0i64..100,
        width in 0i64..110,
        residual_hi in 0i64..600,
        max in 1usize..80,
    ) {
        let schema = two_col_schema("c0", "c1");
        let mut loader = HeapLoader::new_mem("t", schema);
        for (i, &k) in keys.iter().enumerate() {
            loader.push(&Row::new(vec![Value::Int(i as i64), Value::Int(k)])).unwrap();
        }
        let heap: Arc<HeapFile> = Arc::new(loader.finish().unwrap());
        let index = Arc::new(BTreeIndex::build_from_heap("i", &heap, 1).unwrap());
        let s = storage();
        let hi = lo + width;
        let residual = Predicate::int_lt(0, residual_hi);
        let mut full = FullTableScan::new(
            Arc::clone(&heap),
            s.clone(),
            Predicate::and(vec![Predicate::int_half_open(1, lo, hi), residual.clone()]),
        );
        assert_protocols_equivalent(&mut full, max);
        let mut is = IndexScan::new(
            Arc::clone(&heap),
            Arc::clone(&index),
            s.clone(),
            std::ops::Bound::Included(lo),
            std::ops::Bound::Excluded(hi),
            residual.clone(),
        );
        assert_protocols_equivalent(&mut is, max);
        let mut ss = SortScan::new(
            Arc::clone(&heap),
            Arc::clone(&index),
            s.clone(),
            std::ops::Bound::Included(lo),
            std::ops::Bound::Excluded(hi),
            residual.clone(),
        );
        assert_protocols_equivalent(&mut ss, max);
        for ty in [JoinType::Inner, JoinType::LeftSemi] {
            let outer_rows: Vec<(i64, i64)> =
                (0..40).map(|i| (i, (i * 13) % 120)).collect();
            let mut inlj = smooth_executor::IndexNestedLoopJoin::new(
                values_op("a", "fk", &outer_rows),
                1,
                Arc::clone(&heap),
                Arc::clone(&index),
                residual.clone(),
                ty,
                s.clone(),
            );
            assert_protocols_equivalent(&mut inlj, max);
        }
    }

    /// `next_columns` ≡ `next` for the relational operators (filter,
    /// projection, sort, aggregation, all joins) over arbitrary inputs.
    #[test]
    fn relational_batch_protocol_equals_row_protocol(
        left in proptest::collection::vec((0i64..25, -50i64..50), 0..80),
        right in proptest::collection::vec((0i64..25, -50i64..50), 0..80),
        max in 1usize..40,
    ) {
        let mk_left = || values_op("lk", "lv", &left);
        let mk_right = || values_op("rk", "rv", &right);
        let mut filter = Filter::new(mk_left(), Predicate::int_ge(1, 0));
        assert_protocols_equivalent(&mut filter, max);
        let mut project = Project::new(mk_left(), vec![1, 0]).unwrap();
        assert_protocols_equivalent(&mut project, max);
        // Project above Filter: the columnar path carries an *active*
        // selection vector through the column pruning.
        let mut stacked = Project::new(
            Box::new(Filter::new(mk_left(), Predicate::int_ge(1, 0))),
            vec![1, 0],
        )
        .unwrap();
        assert_protocols_equivalent(&mut stacked, max);
        // Filter above Filter: selection vectors refine, never rebuild.
        let mut refined = Filter::new(
            Box::new(Filter::new(mk_left(), Predicate::int_ge(1, -25))),
            Predicate::int_lt(1, 25),
        );
        assert_protocols_equivalent(&mut refined, max);
        let mut sort = Sort::new(mk_left(), storage(), vec![SortKey::asc(0), SortKey::desc(1)]);
        assert_protocols_equivalent(&mut sort, max);
        let mut agg = HashAggregate::new(
            mk_left(),
            vec![0],
            vec![AggFunc::CountStar, AggFunc::Sum(1), AggFunc::Min(1)],
            storage(),
        )
        .unwrap();
        assert_protocols_equivalent(&mut agg, max);
        for ty in [JoinType::Inner, JoinType::LeftSemi] {
            let mut hj = HashJoin::new(mk_left(), mk_right(), 0, 0, ty, storage());
            assert_protocols_equivalent(&mut hj, max);
            let mut nlj =
                NestedLoopJoin::new(mk_left(), mk_right(), Predicate::int_ge(1, 0), ty, storage());
            assert_protocols_equivalent(&mut nlj, max);
        }
        let mut ls = left.clone();
        ls.sort();
        let mut rs = right.clone();
        rs.sort();
        let mut mj =
            MergeJoin::new(values_op("lk", "lv", &ls), values_op("rk", "rv", &rs), 0, 0, storage());
        assert_protocols_equivalent(&mut mj, max);
    }
}

/// The inner table of the INLJ oracle test: `(key, v, text)` rows in
/// insertion (= TID) order, with text long enough that a key's duplicates
/// spread across several heap pages.
fn inlj_inner_row(i: usize, (k, v): (i64, i64)) -> Row {
    Row::new(vec![
        Value::Int(k),
        Value::Int(v),
        Value::str(format!("{i:04}-{}", "t".repeat(i % 90))),
    ])
}

/// Naive nested-loop INLJ oracle: outer order, then inner insertion
/// (TID) order. NULL outer keys match nothing; a semi join emits an outer
/// row once, on its first residual-qualifying match.
fn inlj_oracle(
    outer: &[(i64, Option<i64>)],
    inner: &[Row],
    residual: &Predicate,
    ty: JoinType,
) -> Vec<Row> {
    let mut out = Vec::new();
    for &(id, fk) in outer {
        let Some(fk) = fk else { continue };
        let outer_row = Row::new(vec![Value::Int(id), Value::Int(fk)]);
        let mut matches =
            inner.iter().filter(|r| r.int(0).unwrap() == fk && residual.eval(r).unwrap());
        match ty {
            JoinType::Inner => out.extend(matches.map(|r| outer_row.concat(r))),
            JoinType::LeftSemi => out.extend(matches.next().map(|_| outer_row.clone())),
        }
    }
    out
}

proptest! {
    /// The index nested-loop join's drains — columnar, and interleaved
    /// with the row protocol — match a naive `Vec` nested-loop oracle
    /// row for row, in sequence. Its row protocol drains the same
    /// columnar loop, so this oracle is the independent check.
    #[test]
    fn inlj_drains_match_nested_loop_oracle_in_sequence(
        inner in proptest::collection::vec((0i64..12, -20i64..20), 0..300),
        outer in proptest::collection::vec(-3i64..15, 0..80),
        residual_at in -25i64..25,
        filtered in any::<bool>(),
        max in 1usize..40,
    ) {
        let inner_rows: Vec<Row> =
            inner.iter().enumerate().map(|(i, &kv)| inlj_inner_row(i, kv)).collect();
        let inner_schema = Schema::new(vec![
            Column::new("k", DataType::Int64),
            Column::new("v", DataType::Int64),
            Column::new("t", DataType::Text),
        ])
        .unwrap();
        let mut loader = HeapLoader::new_mem("inner", inner_schema);
        for r in &inner_rows {
            loader.push(r).unwrap();
        }
        let heap: Arc<HeapFile> = Arc::new(loader.finish().unwrap());
        let index = Arc::new(BTreeIndex::build_from_heap("inner_k", &heap, 0).unwrap());
        // Negative draws stand for NULL outer keys; keys 12..15 miss.
        let outer: Vec<(i64, Option<i64>)> =
            outer.into_iter().enumerate().map(|(i, fk)| (i as i64, (fk >= 0).then_some(fk))).collect();
        let outer_schema = Schema::new(vec![
            Column::new("id", DataType::Int64),
            Column::nullable("fk", DataType::Int64),
        ])
        .unwrap();
        let outer_rows: Vec<Row> = outer
            .iter()
            .map(|&(id, fk)| Row::new(vec![Value::Int(id), fk.map_or(Value::Null, Value::Int)]))
            .collect();
        // The residual reads `v`, never the join key.
        let residual =
            if filtered { Predicate::int_lt(1, residual_at) } else { Predicate::True };
        for ty in [JoinType::Inner, JoinType::LeftSemi] {
            let expected = inlj_oracle(&outer, &inner_rows, &residual, ty);
            let mut inlj = smooth_executor::IndexNestedLoopJoin::new(
                Box::new(ValuesOp::new(outer_schema.clone(), outer_rows.clone())),
                1,
                Arc::clone(&heap),
                Arc::clone(&index),
                residual.clone(),
                ty,
                storage(),
            );
            let columnar = collect_columnar(&mut inlj, max);
            assert_eq!(columnar, expected, "{ty:?} columnar, max={max}");
            let interleaved = collect_interleaved(&mut inlj, max);
            assert_eq!(interleaved, expected, "{ty:?} interleaved, max={max}");
        }
    }
}

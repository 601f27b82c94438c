//! Aggregation: hash-grouped and scalar.
//!
//! Covers the aggregate shapes of the TPC-H-style workload (Q1's grouped
//! sums/averages, Q6's scalar revenue sum, Q4's grouped counts).

use std::collections::HashMap;

use smooth_types::{Column, ColumnBatch, DataType, Result, Row, Schema, Value, DEFAULT_BATCH_SIZE};

use crate::operator::{BoxedOperator, Operator};

/// Supported aggregate functions over one child column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)`.
    CountStar,
    /// `COUNT(col)` — non-null values.
    Count(usize),
    /// `SUM(col)` as a float.
    Sum(usize),
    /// `SUM(a * b)` as a float (TPC-H revenue expressions like
    /// `l_extendedprice * l_discount`).
    SumProduct(usize, usize),
    /// `AVG(col)`.
    Avg(usize),
    /// `MIN(col)`.
    Min(usize),
    /// `MAX(col)`.
    Max(usize),
}

impl AggFunc {
    /// Whether per-worker partial accumulation followed by a merge is
    /// *exactly* equal to a single sequential fold over the input.
    ///
    /// Counts and MIN/MAX are order-independent. Sums (and averages)
    /// accumulate in `f64`, where addition only reorders exactly when
    /// every addend is integer-valued — so sums over integer-typed
    /// columns merge exactly (up to 2^53, far past the workloads here)
    /// while sums over `Float64` columns must instead fold in input
    /// order to stay byte-identical to the single-threaded driver.
    pub fn merge_exact(&self, child: &Schema) -> bool {
        let int_typed = |c: usize| {
            matches!(child.column(c).ty, DataType::Int32 | DataType::Int64 | DataType::Date)
        };
        match self {
            AggFunc::CountStar | AggFunc::Count(_) | AggFunc::Min(_) | AggFunc::Max(_) => true,
            AggFunc::Sum(c) | AggFunc::Avg(c) => int_typed(*c),
            AggFunc::SumProduct(a, b) => int_typed(*a) && int_typed(*b),
        }
    }

    fn output_column(&self, child: &Schema, ordinal: usize) -> Column {
        let name = |f: &str, c: usize| format!("{f}_{}", child.column(c).name);
        match self {
            AggFunc::CountStar => Column::new(format!("count_{ordinal}"), DataType::Int64),
            AggFunc::Count(c) => Column::new(name("count", *c), DataType::Int64),
            AggFunc::Sum(c) => Column::new(name("sum", *c), DataType::Float64),
            AggFunc::SumProduct(a, b) => Column::new(
                format!("sum_{}_x_{}", child.column(*a).name, child.column(*b).name),
                DataType::Float64,
            ),
            AggFunc::Avg(c) => Column::new(name("avg", *c), DataType::Float64),
            AggFunc::Min(c) => Column::nullable(name("min", *c), child.column(*c).ty),
            AggFunc::Max(c) => Column::nullable(name("max", *c), child.column(*c).ty),
        }
    }
}

/// Accumulator state per aggregate per group. `pub(crate)` so the
/// parallel driver's partial aggregates reuse the exact accumulator
/// semantics of the serial operator.
#[derive(Debug, Clone)]
pub(crate) enum Acc {
    Count(u64),
    Sum(f64),
    Avg { sum: f64, n: u64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Acc {
    pub(crate) fn new(f: &AggFunc) -> Acc {
        match f {
            AggFunc::CountStar | AggFunc::Count(_) => Acc::Count(0),
            AggFunc::Sum(_) | AggFunc::SumProduct(..) => Acc::Sum(0.0),
            AggFunc::Avg(_) => Acc::Avg { sum: 0.0, n: 0 },
            AggFunc::Min(_) => Acc::Min(None),
            AggFunc::Max(_) => Acc::Max(None),
        }
    }

    /// Read the physical row `phys` straight off the typed column
    /// vectors — no `Row` and no `Value` materialize unless a MIN/MAX
    /// extremum actually improves.
    pub(crate) fn update_columns(
        &mut self,
        f: &AggFunc,
        batch: &ColumnBatch,
        phys: usize,
    ) -> Result<()> {
        match (self, f) {
            (Acc::Count(n), AggFunc::CountStar) => *n += 1,
            (Acc::Count(n), AggFunc::Count(c)) => {
                if !batch.column(*c).is_null(phys) {
                    *n += 1;
                }
            }
            (Acc::Sum(s), AggFunc::Sum(c)) => {
                if !batch.column(*c).is_null(phys) {
                    *s += batch.column(*c).float(phys)?;
                }
            }
            (Acc::Sum(s), AggFunc::SumProduct(a, b)) => {
                if !batch.column(*a).is_null(phys) && !batch.column(*b).is_null(phys) {
                    *s += batch.column(*a).float(phys)? * batch.column(*b).float(phys)?;
                }
            }
            (Acc::Avg { sum, n }, AggFunc::Avg(c)) => {
                if !batch.column(*c).is_null(phys) {
                    *sum += batch.column(*c).float(phys)?;
                    *n += 1;
                }
            }
            (Acc::Min(m), AggFunc::Min(c)) => {
                let col = batch.column(*c);
                if !col.is_null(phys)
                    && m.as_ref().is_none_or(|cur| col.cmp_value(phys, cur).is_lt())
                {
                    *m = Some(col.value(phys));
                }
            }
            (Acc::Max(m), AggFunc::Max(c)) => {
                let col = batch.column(*c);
                if !col.is_null(phys)
                    && m.as_ref().is_none_or(|cur| col.cmp_value(phys, cur).is_gt())
                {
                    *m = Some(col.value(phys));
                }
            }
            _ => unreachable!("accumulator/function mismatch"),
        }
        Ok(())
    }

    /// Combine a partial accumulator in. Exact for counts and MIN/MAX;
    /// for sums it is exact precisely when [`AggFunc::merge_exact`]
    /// holds, which is the precondition for the parallel driver using
    /// per-worker partials at all.
    pub(crate) fn merge(&mut self, other: Acc) {
        match (self, other) {
            (Acc::Count(n), Acc::Count(m)) => *n += m,
            (Acc::Sum(s), Acc::Sum(t)) => *s += t,
            (Acc::Avg { sum, n }, Acc::Avg { sum: s2, n: n2 }) => {
                *sum += s2;
                *n += n2;
            }
            (Acc::Min(m), Acc::Min(o)) => {
                if let Some(v) = o {
                    if m.as_ref().is_none_or(|cur| v.total_cmp(cur).is_lt()) {
                        *m = Some(v);
                    }
                }
            }
            (Acc::Max(m), Acc::Max(o)) => {
                if let Some(v) = o {
                    if m.as_ref().is_none_or(|cur| v.total_cmp(cur).is_gt()) {
                        *m = Some(v);
                    }
                }
            }
            _ => unreachable!("merging mismatched accumulators"),
        }
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(n as i64),
            Acc::Sum(s) => Value::Float(s),
            Acc::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

/// The output schema of an aggregation over `child`: the group columns
/// followed by one column per aggregate. Shared by [`HashAggregate::new`]
/// and the planner's parallel-pipeline decomposition so both validate
/// (and fail) identically.
pub fn output_schema(child: &Schema, group_cols: &[usize], aggs: &[AggFunc]) -> Result<Schema> {
    let mut cols = Vec::with_capacity(group_cols.len() + aggs.len());
    for &g in group_cols {
        if g >= child.len() {
            return Err(smooth_types::Error::schema(format!("group column {g} out of range")));
        }
        cols.push(child.column(g).clone());
    }
    for (i, a) in aggs.iter().enumerate() {
        cols.push(a.output_column(child, i));
    }
    Schema::new(cols)
}

/// Hash aggregation over optional group-by columns. With no group columns
/// it degenerates to a scalar aggregate producing exactly one row.
pub struct HashAggregate {
    child: BoxedOperator,
    group_cols: Vec<usize>,
    aggs: Vec<AggFunc>,
    storage: smooth_storage::Storage,
    schema: Schema,
    output: Option<std::vec::IntoIter<Row>>,
}

impl HashAggregate {
    /// Group child rows by `group_cols` and compute `aggs` per group.
    pub fn new(
        child: BoxedOperator,
        group_cols: Vec<usize>,
        aggs: Vec<AggFunc>,
        storage: smooth_storage::Storage,
    ) -> Result<Self> {
        let schema = output_schema(child.schema(), &group_cols, &aggs)?;
        Ok(HashAggregate { child, group_cols, aggs, storage, schema, output: None })
    }
}

impl Operator for HashAggregate {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.child.open()?;
        let mut groups: HashMap<Vec<Value>, Vec<Acc>> = HashMap::new();
        // Stable output: remember first-seen order of groups.
        let mut order: Vec<Vec<Value>> = Vec::new();
        let cpu = *self.storage.cpu();
        // Drain the input through the columnar protocol: one virtual call
        // and one clock charge per batch rather than per tuple, group keys
        // and aggregate inputs read vector-at-a-time off the typed column
        // vectors (no row ever materializes on the way in).
        while let Some(batch) = self.child.next_columns(DEFAULT_BATCH_SIZE)? {
            self.storage.clock().charge_cpu(
                (cpu.hash_op_ns + cpu.agg_update_ns * self.aggs.len() as u64) * batch.len() as u64,
            );
            for phys in batch.live_rows() {
                let key: Vec<Value> =
                    self.group_cols.iter().map(|&c| batch.column(c).value(phys)).collect();
                let accs = groups.entry(key.clone()).or_insert_with(|| {
                    order.push(key);
                    self.aggs.iter().map(Acc::new).collect()
                });
                for (acc, f) in accs.iter_mut().zip(&self.aggs) {
                    acc.update_columns(f, &batch, phys)?;
                }
            }
        }
        self.child.close()?;
        if self.group_cols.is_empty() && groups.is_empty() {
            // Scalar aggregate over the empty input still yields one row.
            groups.insert(Vec::new(), self.aggs.iter().map(Acc::new).collect());
            order.push(Vec::new());
        }
        let mut rows = Vec::with_capacity(order.len());
        for key in order {
            let accs = groups.remove(&key).expect("group recorded");
            let mut values = key;
            values.extend(accs.into_iter().map(Acc::finish));
            rows.push(Row::new(values));
        }
        self.output = Some(rows.into_iter());
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>> {
        Ok(self.output.as_mut().and_then(|it| it.next()))
    }

    fn close(&mut self) -> Result<()> {
        self.output = None;
        Ok(())
    }

    fn label(&self) -> String {
        format!("HashAggregate(groups={:?}) → {}", self.group_cols, self.child.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{collect_rows, ValuesOp};

    fn input(rows: Vec<(i64, i64)>) -> BoxedOperator {
        let schema =
            Schema::new(vec![Column::new("g", DataType::Int64), Column::new("v", DataType::Int64)])
                .unwrap();
        Box::new(ValuesOp::new(
            schema,
            rows.into_iter().map(|(g, v)| Row::new(vec![Value::Int(g), Value::Int(v)])).collect(),
        ))
    }

    fn storage() -> smooth_storage::Storage {
        smooth_storage::Storage::default_hdd()
    }

    #[test]
    fn grouped_aggregates() {
        let mut agg = HashAggregate::new(
            input(vec![(1, 10), (2, 5), (1, 20), (2, 7), (1, 30)]),
            vec![0],
            vec![
                AggFunc::CountStar,
                AggFunc::Sum(1),
                AggFunc::Avg(1),
                AggFunc::Min(1),
                AggFunc::Max(1),
            ],
            storage(),
        )
        .unwrap();
        let rows = collect_rows(&mut agg).unwrap();
        assert_eq!(rows.len(), 2);
        let g1 = rows.iter().find(|r| r.int(0).unwrap() == 1).unwrap();
        assert_eq!(g1.int(1).unwrap(), 3);
        assert_eq!(g1.float(2).unwrap(), 60.0);
        assert_eq!(g1.float(3).unwrap(), 20.0);
        assert_eq!(g1.int(4).unwrap(), 10);
        assert_eq!(g1.int(5).unwrap(), 30);
        // first-seen group order is preserved
        assert_eq!(rows[0].int(0).unwrap(), 1);
        assert_eq!(rows[1].int(0).unwrap(), 2);
    }

    #[test]
    fn scalar_aggregate_on_empty_input_yields_one_row() {
        let mut agg = HashAggregate::new(
            input(vec![]),
            vec![],
            vec![AggFunc::CountStar, AggFunc::Sum(1), AggFunc::Avg(1), AggFunc::Min(1)],
            storage(),
        )
        .unwrap();
        let rows = collect_rows(&mut agg).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].int(0).unwrap(), 0);
        assert_eq!(rows[0].float(1).unwrap(), 0.0);
        assert!(rows[0].get(2).is_null());
        assert!(rows[0].get(3).is_null());
    }

    #[test]
    fn grouped_aggregate_on_empty_input_yields_no_rows() {
        let mut agg =
            HashAggregate::new(input(vec![]), vec![0], vec![AggFunc::CountStar], storage())
                .unwrap();
        assert!(collect_rows(&mut agg).unwrap().is_empty());
    }

    #[test]
    fn count_skips_nulls() {
        let schema = Schema::new(vec![Column::nullable("v", DataType::Int64)]).unwrap();
        let rows = vec![
            Row::new(vec![Value::Int(1)]),
            Row::new(vec![Value::Null]),
            Row::new(vec![Value::Int(3)]),
        ];
        let child = Box::new(ValuesOp::new(schema, rows));
        let mut agg = HashAggregate::new(
            child,
            vec![],
            vec![AggFunc::CountStar, AggFunc::Count(0), AggFunc::Sum(0)],
            storage(),
        )
        .unwrap();
        let out = collect_rows(&mut agg).unwrap();
        assert_eq!(out[0].int(0).unwrap(), 3);
        assert_eq!(out[0].int(1).unwrap(), 2);
        assert_eq!(out[0].float(2).unwrap(), 4.0);
    }

    #[test]
    fn rejects_out_of_range_group_column() {
        assert!(HashAggregate::new(input(vec![]), vec![9], vec![], storage()).is_err());
    }

    #[test]
    fn output_schema_names_and_types() {
        let agg = HashAggregate::new(
            input(vec![]),
            vec![0],
            vec![AggFunc::Sum(1), AggFunc::CountStar],
            storage(),
        )
        .unwrap();
        let s = agg.schema();
        assert_eq!(s.column(0).name, "g");
        assert_eq!(s.column(1).name, "sum_v");
        assert_eq!(s.column(1).ty, DataType::Float64);
        assert_eq!(s.column(2).ty, DataType::Int64);
    }
}

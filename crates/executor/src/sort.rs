//! Blocking sort: in-memory under the operator budget, external beyond.
//!
//! Restores "interesting orders" (Section II): plans that need key order on
//! top of Full Scan or Sort Scan place this operator above the access path
//! — the posterior-sorting overhead that Smooth Scan avoids in Fig. 5a.
//!
//! With a memory budget set ([`Sort::with_mem_budget`] /
//! `SMOOTH_MEM_BYTES`), the sort runs through the external merge sort in
//! [`crate::extsort`]: sorted runs cut at the budget boundary spill to
//! charged overflow files and k-way-merge back, emitting exactly the
//! rows — in exactly the order — the unbudgeted in-memory sort emits.

use std::cmp::Ordering;

use smooth_types::{Result, Row, Schema, DEFAULT_BATCH_SIZE};

use crate::extsort::ExternalSorter;
use crate::operator::{BoxedOperator, Operator};

/// One sort key: column ordinal and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    /// Column ordinal in the child schema.
    pub column: usize,
    /// Ascending when true.
    pub ascending: bool,
}

impl SortKey {
    /// Ascending key on `column`.
    pub fn asc(column: usize) -> Self {
        SortKey { column, ascending: true }
    }

    /// Descending key on `column`.
    pub fn desc(column: usize) -> Self {
        SortKey { column, ascending: false }
    }
}

/// Lexicographic row comparison under `keys` ([`Value::total_cmp`] per
/// column, descending keys reversed) — the one ordering the in-memory
/// sort, the external runs and the k-way merge all share.
pub(crate) fn compare_rows(a: &Row, b: &Row, keys: &[SortKey]) -> Ordering {
    for k in keys {
        let ord = a.get(k.column).total_cmp(b.get(k.column));
        let ord = if k.ascending { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Sort `rows` by `keys` with the operator's exact clock charges: under
/// a memory budget the rows stream through the external merge sort
/// (spilled runs charge overflow I/O); otherwise the in-memory path
/// charges the closed-form `sort_cmp_ns · n · log2(n)` comparison cost
/// and sorts stably. This is the one sort-with-accounting routine —
/// [`Sort::open`] and the parallel ordered-scan sink
/// ([`crate::SinkSpec::Sort`]) both call it, so their charges are
/// byte-identical by construction.
pub(crate) fn sort_rows_charged(
    storage: &smooth_storage::Storage,
    rows: &mut Vec<Row>,
    keys: &[SortKey],
    mem_bytes: usize,
) -> Result<()> {
    if mem_bytes > 0 {
        let mut sorter = ExternalSorter::new(storage.clone(), keys.to_vec(), mem_bytes);
        for row in rows.drain(..) {
            sorter.push(row)?;
        }
        *rows = sorter.finish()?;
    } else {
        let n = rows.len() as u64;
        if n > 1 {
            storage.clock().charge_cpu(storage.cpu().sort_cmp_ns * n * n.ilog2() as u64);
        }
        rows.sort_by(|a, b| compare_rows(a, b, keys));
    }
    Ok(())
}

/// Blocking sort operator.
pub struct Sort {
    child: BoxedOperator,
    keys: Vec<SortKey>,
    storage: smooth_storage::Storage,
    /// Operator memory budget in bytes (0 = unlimited): beyond it the
    /// sort goes external ([`crate::extsort`]).
    mem_bytes: usize,
    sorted: Option<std::vec::IntoIter<Row>>,
}

impl Sort {
    /// Sort child output by `keys` (lexicographic). The memory budget
    /// defaults to the process-wide [`crate::spill::mem_budget_bytes`]
    /// knob.
    pub fn new(child: BoxedOperator, storage: smooth_storage::Storage, keys: Vec<SortKey>) -> Self {
        let mem_bytes = crate::spill::mem_budget_bytes();
        Sort { child, keys, storage, mem_bytes, sorted: None }
    }

    /// Builder: override the operator memory budget (0 = unlimited).
    pub fn with_mem_budget(mut self, bytes: usize) -> Self {
        self.mem_bytes = bytes;
        self
    }
}

impl Operator for Sort {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.child.open()?;
        let rows = if self.mem_bytes > 0 {
            // Budgeted: stream through the external sorter, which cuts
            // (and charges) a spilled run whenever the working set
            // crosses the budget — batches never all materialize at
            // once. When nothing ever spills its charges are exactly
            // the in-memory path's.
            let mut sorter =
                ExternalSorter::new(self.storage.clone(), self.keys.clone(), self.mem_bytes);
            while let Some(batch) = self.child.next_columns(DEFAULT_BATCH_SIZE)? {
                for row in batch.into_rows() {
                    sorter.push(row)?;
                }
            }
            self.child.close()?;
            sorter.finish()?
        } else {
            let mut rows = Vec::new();
            while let Some(batch) = self.child.next_columns(DEFAULT_BATCH_SIZE)? {
                rows.extend(batch.into_rows());
            }
            self.child.close()?;
            sort_rows_charged(&self.storage, &mut rows, &self.keys, 0)?;
            rows
        };
        self.sorted = Some(rows.into_iter());
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Row>> {
        Ok(self.sorted.as_mut().and_then(|it| it.next()))
    }

    fn close(&mut self) -> Result<()> {
        self.sorted = None;
        Ok(())
    }

    fn label(&self) -> String {
        format!("Sort → {}", self.child.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{collect_rows, ValuesOp};
    use smooth_types::{Column, DataType, Value};

    fn storage() -> smooth_storage::Storage {
        smooth_storage::Storage::default_hdd()
    }

    fn input(rows: Vec<(i64, i64)>) -> BoxedOperator {
        let schema =
            Schema::new(vec![Column::new("a", DataType::Int64), Column::new("b", DataType::Int64)])
                .unwrap();
        Box::new(ValuesOp::new(
            schema,
            rows.into_iter().map(|(a, b)| Row::new(vec![Value::Int(a), Value::Int(b)])).collect(),
        ))
    }

    #[test]
    fn sorts_ascending_and_descending() {
        let mut s =
            Sort::new(input(vec![(3, 0), (1, 1), (2, 2)]), storage(), vec![SortKey::asc(0)]);
        let rows = collect_rows(&mut s).unwrap();
        assert_eq!(rows.iter().map(|r| r.int(0).unwrap()).collect::<Vec<_>>(), vec![1, 2, 3]);
        let mut s =
            Sort::new(input(vec![(3, 0), (1, 1), (2, 2)]), storage(), vec![SortKey::desc(0)]);
        let rows = collect_rows(&mut s).unwrap();
        assert_eq!(rows.iter().map(|r| r.int(0).unwrap()).collect::<Vec<_>>(), vec![3, 2, 1]);
    }

    #[test]
    fn multi_key_lexicographic() {
        let mut s = Sort::new(
            input(vec![(1, 9), (0, 5), (1, 2), (0, 7)]),
            storage(),
            vec![SortKey::asc(0), SortKey::desc(1)],
        );
        let rows = collect_rows(&mut s).unwrap();
        let pairs: Vec<(i64, i64)> =
            rows.iter().map(|r| (r.int(0).unwrap(), r.int(1).unwrap())).collect();
        assert_eq!(pairs, vec![(0, 7), (0, 5), (1, 9), (1, 2)]);
    }

    #[test]
    fn charges_nlogn_cpu() {
        let st = storage();
        let before = st.clock().snapshot().cpu_ns;
        let mut s = Sort::new(
            input((0..1024).map(|i| (1023 - i, i)).collect()),
            st.clone(),
            vec![SortKey::asc(0)],
        );
        collect_rows(&mut s).unwrap();
        let delta = st.clock().snapshot().cpu_ns - before;
        assert_eq!(delta, st.cpu().sort_cmp_ns * 1024 * 10);
    }

    #[test]
    fn empty_input() {
        let mut s = Sort::new(input(vec![]), storage(), vec![SortKey::asc(0)]);
        assert!(collect_rows(&mut s).unwrap().is_empty());
    }
}

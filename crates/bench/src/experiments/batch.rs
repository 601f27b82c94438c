//! Protocol-agreement check for the vectorized batch protocol on the
//! micro-benchmark table shape.
//!
//! Test-only: the wall-clock comparison of the vectorized path against
//! the Volcano driver is measured by the `columnar` experiment. This
//! module pins the batch-native sink (`collect_batches`, the driver
//! `Database::run_batches` builds on) against the row-at-a-time Volcano
//! reference on a pushed-predicate `FullTableScan`.

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use smooth_executor::{collect_batches, collect_rows_volcano, FullTableScan, Predicate};
    use smooth_storage::{HeapLoader, Storage};
    use smooth_types::{Column, ColumnBatch, DataType, Row, Schema, Value, DEFAULT_BATCH_SIZE};

    #[test]
    fn protocols_agree_on_micro_shaped_data() {
        let schema = Schema::new(vec![
            Column::new("c1", DataType::Int64),
            Column::new("c2", DataType::Int64),
        ])
        .unwrap();
        let mut l = HeapLoader::new_mem("t", schema);
        for i in 0..5000i64 {
            l.push(&Row::new(vec![Value::Int(i), Value::Int(i % 100)])).unwrap();
        }
        let heap = Arc::new(l.finish().unwrap());
        let pred = Predicate::int_half_open(1, 0, 10);
        let s1 = Storage::default_hdd();
        let mut a = FullTableScan::new(Arc::clone(&heap), s1.clone(), pred.clone());
        let s2 = Storage::default_hdd();
        let mut b = FullTableScan::new(heap, s2.clone(), pred);
        let volcano = collect_rows_volcano(&mut a).unwrap();
        let batches = collect_batches(&mut b).unwrap();
        assert!(batches.iter().all(|batch| batch.len() <= DEFAULT_BATCH_SIZE));
        let rows: Vec<Row> = batches.into_iter().flat_map(ColumnBatch::into_rows).collect();
        assert_eq!(volcano, rows);
        assert_eq!(rows.len(), 500);
        assert_eq!(s1.clock().snapshot(), s2.clock().snapshot());
    }
}

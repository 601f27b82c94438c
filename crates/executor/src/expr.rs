//! Predicates evaluated over rows.
//!
//! A small, concrete predicate language — range and equality tests
//! composable with AND/OR/NOT — rather than a general expression tree:
//! every query in the paper (micro-benchmark Q1, the skew query, and the
//! TPC-H-style workload) is a conjunction of column ranges and string
//! equalities. NULL comparisons evaluate to false, the practical
//! two-valued simplification of SQL's three-valued logic for filters.

use std::ops::Bound;

use smooth_types::columns::decode_columns_append;
use smooth_types::{ColumnBatch, ColumnValues, ColumnVector, Result, Row, Schema, Value};

/// The rows a vectorized kernel evaluates: every physical row of the
/// batch (dense, no index indirection — the auto-vectorizable shape) or
/// an explicit list of physical indices (a selection vector).
#[derive(Clone, Copy)]
enum RowSet<'a> {
    /// Rows `0..n`.
    Dense(usize),
    /// The listed physical rows, in order.
    Sparse(&'a [u32]),
}

impl RowSet<'_> {
    fn len(&self) -> usize {
        match self {
            RowSet::Dense(n) => *n,
            RowSet::Sparse(idx) => idx.len(),
        }
    }
}

/// A boolean predicate over one row.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (scan without filter).
    True,
    /// `lo <= col <= hi` with configurable open/closed ends, on an
    /// integer-like column.
    IntRange {
        /// Column ordinal.
        col: usize,
        /// Lower bound.
        lo: Bound<i64>,
        /// Upper bound.
        hi: Bound<i64>,
    },
    /// `col = value` on a text column.
    StrEq {
        /// Column ordinal.
        col: usize,
        /// Comparand.
        value: String,
    },
    /// `col IN (values)` on a text column.
    StrIn {
        /// Column ordinal.
        col: usize,
        /// Accepted values.
        values: Vec<String>,
    },
    /// `left < right` across two integer columns of the same row
    /// (TPC-H Q4/Q12: `l_commitdate < l_receiptdate`).
    IntColLt {
        /// Left column ordinal.
        left: usize,
        /// Right column ordinal.
        right: usize,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `col = key` on an integer column.
    pub fn int_eq(col: usize, key: i64) -> Self {
        Predicate::IntRange { col, lo: Bound::Included(key), hi: Bound::Included(key) }
    }

    /// `lo <= col < hi` — the micro-benchmark's shape.
    pub fn int_half_open(col: usize, lo: i64, hi: i64) -> Self {
        Predicate::IntRange { col, lo: Bound::Included(lo), hi: Bound::Excluded(hi) }
    }

    /// `col >= lo`.
    pub fn int_ge(col: usize, lo: i64) -> Self {
        Predicate::IntRange { col, lo: Bound::Included(lo), hi: Bound::Unbounded }
    }

    /// `col < hi`.
    pub fn int_lt(col: usize, hi: i64) -> Self {
        Predicate::IntRange { col, lo: Bound::Unbounded, hi: Bound::Excluded(hi) }
    }

    /// `col <= hi`.
    pub fn int_le(col: usize, hi: i64) -> Self {
        Predicate::IntRange { col, lo: Bound::Unbounded, hi: Bound::Included(hi) }
    }

    /// Conjunction that collapses trivial cases.
    pub fn and(preds: Vec<Predicate>) -> Self {
        let mut flat: Vec<Predicate> =
            preds.into_iter().filter(|p| !matches!(p, Predicate::True)).collect();
        match flat.len() {
            0 => Predicate::True,
            1 => flat.pop().unwrap(),
            _ => Predicate::And(flat),
        }
    }

    /// Evaluate against a row. Comparisons against NULL are false.
    #[inline]
    pub fn eval(&self, row: &Row) -> Result<bool> {
        self.eval_values(row.values())
    }

    /// Evaluate against a value slice indexed by column ordinal. Only the
    /// ordinals the predicate references are read, so a scan may pass a
    /// scratch slice where unreferenced slots hold stale placeholders
    /// (see [`Row::decode_columns_into`]).
    pub fn eval_values(&self, values: &[Value]) -> Result<bool> {
        Ok(match self {
            Predicate::True => true,
            Predicate::IntRange { col, lo, hi } => match &values[*col] {
                Value::Int(v) => {
                    (match lo {
                        Bound::Unbounded => true,
                        Bound::Included(l) => *v >= *l,
                        Bound::Excluded(l) => *v > *l,
                    }) && (match hi {
                        Bound::Unbounded => true,
                        Bound::Included(h) => *v <= *h,
                        Bound::Excluded(h) => *v < *h,
                    })
                }
                Value::Null => false,
                other => {
                    return Err(smooth_types::Error::exec(format!(
                        "int predicate on non-int value {other}"
                    )))
                }
            },
            Predicate::StrEq { col, value } => match &values[*col] {
                Value::Str(s) => s == value,
                Value::Null => false,
                other => {
                    return Err(smooth_types::Error::exec(format!(
                        "string predicate on non-string value {other}"
                    )))
                }
            },
            Predicate::StrIn { col, values: accepted } => match &values[*col] {
                Value::Str(s) => accepted.iter().any(|v| v == s),
                Value::Null => false,
                other => {
                    return Err(smooth_types::Error::exec(format!(
                        "string predicate on non-string value {other}"
                    )))
                }
            },
            Predicate::IntColLt { left, right } => match (&values[*left], &values[*right]) {
                (Value::Int(a), Value::Int(b)) => a < b,
                (Value::Null, _) | (_, Value::Null) => false,
                (a, b) => {
                    return Err(smooth_types::Error::exec(format!(
                        "column comparison on non-ints: {a} vs {b}"
                    )))
                }
            },
            Predicate::And(ps) => {
                for p in ps {
                    if !p.eval_values(values)? {
                        return Ok(false);
                    }
                }
                true
            }
            Predicate::Or(ps) => {
                for p in ps {
                    if p.eval_values(values)? {
                        return Ok(true);
                    }
                }
                false
            }
            Predicate::Not(p) => !p.eval_values(values)?,
        })
    }

    /// Vectorized evaluation: compute the boolean outcome for each row of
    /// `rows` into `out` (`out[k]` answers the `k`-th listed row), reading
    /// column vectors through `col`. Kernels are tight, branch-light loops
    /// over a single typed vector; the dense case iterates the vectors
    /// directly (no index indirection), the auto-vectorizable shape the
    /// columnar layout exists for. NULL comparisons are false, as in the
    /// row path.
    ///
    /// Type errors surface per *column* here (a vector is uniformly
    /// typed), where the row path surfaces them per value; on well-typed
    /// plans the two agree exactly.
    fn eval_mask<'a, F>(&self, col: &F, rows: RowSet<'_>, out: &mut Vec<bool>) -> Result<()>
    where
        F: Fn(usize) -> Result<&'a ColumnVector>,
    {
        out.clear();
        /// Expand one kernel body for both row-set shapes.
        macro_rules! fill {
            (|$i:ident| $body:expr) => {
                match rows {
                    RowSet::Dense(n) => out.extend((0..n).map(|$i| $body)),
                    RowSet::Sparse(idx) => out.extend(idx.iter().map(|&x| {
                        let $i = x as usize;
                        $body
                    })),
                }
            };
        }
        match self {
            Predicate::True => out.resize(rows.len(), true),
            Predicate::IntRange { col: c, lo, hi } => {
                let v = col(*c)?;
                let ColumnValues::Int(ints) = v.values() else {
                    return Err(smooth_types::Error::exec("int predicate on non-int column"));
                };
                let nulls = v.nulls();
                // Normalize the bounds once; an overflowing exclusive
                // bound can match nothing.
                let lo_v = match lo {
                    Bound::Unbounded => Some(i64::MIN),
                    Bound::Included(l) => Some(*l),
                    Bound::Excluded(l) => l.checked_add(1),
                };
                let hi_v = match hi {
                    Bound::Unbounded => Some(i64::MAX),
                    Bound::Included(h) => Some(*h),
                    Bound::Excluded(h) => h.checked_sub(1),
                };
                let (Some(lo_v), Some(hi_v)) = (lo_v, hi_v) else {
                    out.resize(rows.len(), false);
                    return Ok(());
                };
                fill!(|i| !nulls[i] && ints[i] >= lo_v && ints[i] <= hi_v);
            }
            Predicate::StrEq { col: c, value } => {
                let v = col(*c)?;
                let ColumnValues::Str(strs) = v.values() else {
                    return Err(smooth_types::Error::exec("string predicate on non-text column"));
                };
                let nulls = v.nulls();
                fill!(|i| !nulls[i] && strs.get(i) == value.as_str());
            }
            Predicate::StrIn { col: c, values } => {
                let v = col(*c)?;
                let ColumnValues::Str(strs) = v.values() else {
                    return Err(smooth_types::Error::exec("string predicate on non-text column"));
                };
                let nulls = v.nulls();
                fill!(|i| !nulls[i] && values.iter().any(|a| a == strs.get(i)));
            }
            Predicate::IntColLt { left, right } => {
                let (l, r) = (col(*left)?, col(*right)?);
                let (ColumnValues::Int(lv), ColumnValues::Int(rv)) = (l.values(), r.values())
                else {
                    return Err(smooth_types::Error::exec("column comparison on non-ints"));
                };
                let (ln, rn) = (l.nulls(), r.nulls());
                fill!(|i| !ln[i] && !rn[i] && lv[i] < rv[i]);
            }
            Predicate::And(ps) => {
                out.resize(rows.len(), true);
                let mut tmp = Vec::with_capacity(rows.len());
                for p in ps {
                    p.eval_mask(col, rows, &mut tmp)?;
                    for (o, t) in out.iter_mut().zip(&tmp) {
                        *o &= *t;
                    }
                }
            }
            Predicate::Or(ps) => {
                out.resize(rows.len(), false);
                let mut tmp = Vec::with_capacity(rows.len());
                for p in ps {
                    p.eval_mask(col, rows, &mut tmp)?;
                    for (o, t) in out.iter_mut().zip(&tmp) {
                        *o |= *t;
                    }
                }
            }
            Predicate::Not(p) => {
                p.eval_mask(col, rows, out)?;
                for o in out.iter_mut() {
                    *o = !*o;
                }
            }
        }
        Ok(())
    }

    /// Row-wise evaluation against column vectors: the single-tuple twin
    /// of [`Predicate::eval_mask`], short-circuiting like
    /// [`Predicate::eval_values`] and allocating nothing. Used by the
    /// high-match-rate scan path, which decides tuple by tuple.
    fn eval_columns_at<'a, F>(&self, col: &F, i: usize) -> Result<bool>
    where
        F: Fn(usize) -> Result<&'a ColumnVector>,
    {
        Ok(match self {
            Predicate::True => true,
            Predicate::IntRange { col: c, lo, hi } => {
                let v = col(*c)?;
                let ColumnValues::Int(ints) = v.values() else {
                    return Err(smooth_types::Error::exec("int predicate on non-int column"));
                };
                if v.is_null(i) {
                    return Ok(false);
                }
                let x = ints[i];
                (match lo {
                    Bound::Unbounded => true,
                    Bound::Included(l) => x >= *l,
                    Bound::Excluded(l) => x > *l,
                }) && (match hi {
                    Bound::Unbounded => true,
                    Bound::Included(h) => x <= *h,
                    Bound::Excluded(h) => x < *h,
                })
            }
            Predicate::StrEq { col: c, value } => {
                let v = col(*c)?;
                let ColumnValues::Str(strs) = v.values() else {
                    return Err(smooth_types::Error::exec("string predicate on non-text column"));
                };
                !v.is_null(i) && strs.get(i) == value.as_str()
            }
            Predicate::StrIn { col: c, values } => {
                let v = col(*c)?;
                let ColumnValues::Str(strs) = v.values() else {
                    return Err(smooth_types::Error::exec("string predicate on non-text column"));
                };
                !v.is_null(i) && values.iter().any(|a| a == strs.get(i))
            }
            Predicate::IntColLt { left, right } => {
                let (l, r) = (col(*left)?, col(*right)?);
                let (ColumnValues::Int(lv), ColumnValues::Int(rv)) = (l.values(), r.values())
                else {
                    return Err(smooth_types::Error::exec("column comparison on non-ints"));
                };
                !l.is_null(i) && !r.is_null(i) && lv[i] < rv[i]
            }
            Predicate::And(ps) => {
                for p in ps {
                    if !p.eval_columns_at(col, i)? {
                        return Ok(false);
                    }
                }
                true
            }
            Predicate::Or(ps) => {
                for p in ps {
                    if p.eval_columns_at(col, i)? {
                        return Ok(true);
                    }
                }
                false
            }
            Predicate::Not(p) => !p.eval_columns_at(col, i)?,
        })
    }

    /// Refine a batch's selection: evaluate the predicate over the live
    /// rows and return the surviving physical indices, in order. No row is
    /// materialized or moved — non-qualifiers simply drop out of the
    /// selection vector.
    pub fn filter_batch(&self, batch: &ColumnBatch) -> Result<Vec<u32>> {
        let col = |c: usize| batch.column_checked(c);
        match batch.selection() {
            Some(sel) => {
                let mut mask = Vec::with_capacity(sel.len());
                self.eval_mask(&col, RowSet::Sparse(sel), &mut mask)?;
                Ok(sel.iter().zip(&mask).filter(|(_, &m)| m).map(|(&i, _)| i).collect())
            }
            None => {
                let n = batch.physical_rows();
                let mut mask = Vec::with_capacity(n);
                self.eval_mask(&col, RowSet::Dense(n), &mut mask)?;
                Ok((0u32..).zip(&mask).filter(|(_, &m)| m).map(|(i, _)| i).collect())
            }
        }
    }

    /// Collect the column ordinals this predicate reads, ascending and
    /// deduplicated.
    pub fn referenced_columns(&self) -> Vec<usize> {
        fn walk(p: &Predicate, out: &mut Vec<usize>) {
            match p {
                Predicate::True => {}
                Predicate::IntRange { col, .. }
                | Predicate::StrEq { col, .. }
                | Predicate::StrIn { col, .. } => out.push(*col),
                Predicate::IntColLt { left, right } => {
                    out.push(*left);
                    out.push(*right);
                }
                Predicate::And(ps) | Predicate::Or(ps) => ps.iter().for_each(|p| walk(p, out)),
                Predicate::Not(p) => walk(p, out),
            }
        }
        let mut cols = Vec::new();
        walk(self, &mut cols);
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// If this predicate constrains exactly one integer column with a range
    /// usable to drive an index (possibly with residual work left over),
    /// return `(col, lo, hi, residual)`. Conjunctions pick the first
    /// matching conjunct; everything else becomes residual.
    pub fn split_index_range(&self) -> Option<(usize, Bound<i64>, Bound<i64>, Predicate)> {
        match self {
            Predicate::IntRange { col, lo, hi } => Some((*col, *lo, *hi, Predicate::True)),
            Predicate::And(ps) => {
                let idx = ps.iter().position(|p| matches!(p, Predicate::IntRange { .. }))?;
                if let Predicate::IntRange { col, lo, hi } = &ps[idx] {
                    let rest: Vec<Predicate> = ps
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != idx)
                        .map(|(_, p)| p.clone())
                        .collect();
                    Some((*col, *lo, *hi, Predicate::and(rest)))
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

/// A predicate compiled against one scan schema, able to filter *encoded*
/// tuples by decoding only the columns the predicate reads.
///
/// This is the vectorized scan's selection pushdown: for non-qualifying
/// tuples the full [`Row::decode`] (one `Vec<Value>` plus a string
/// allocation per text field) is skipped — the probe walks the tuple
/// without materializing anything, so corrupt tuples still error exactly
/// as under a full decode. Because a qualifying tuple is parsed twice
/// under probing (probe, then decode), the filter is *adaptive*: it
/// tracks the observed match rate, statistics-oblivious style, and
/// switches to single-pass full decode once most tuples qualify. Probing
/// is also skipped when the predicate reads every column.
pub struct ScanFilter {
    predicate: Predicate,
    /// Referenced ordinals (ascending); probing is possible when this is
    /// a strict subset of the schema.
    cols: Vec<usize>,
    probe_possible: bool,
    scratch: Vec<Value>,
    /// Columnar probe scratch: one typed vector per referenced ordinal
    /// (reused across pages — no steady-state allocation).
    col_scratch: Vec<ColumnVector>,
    /// Schema ordinal → index into `cols`/`col_scratch`.
    col_map: Vec<Option<usize>>,
    /// Mask scratch for the columnar kernels.
    mask: Vec<bool>,
    probed: u64,
    matched: u64,
}

/// Tuples examined before the match-rate heuristic may disable probing.
const PROBE_WARMUP: u64 = 256;

impl ScanFilter {
    /// Compile `predicate` for tuples of `schema`.
    pub fn new(predicate: Predicate, schema: &Schema) -> Self {
        let cols = predicate.referenced_columns();
        let probe_possible = cols.len() < schema.len();
        let scratch = vec![Value::Null; schema.len()];
        let col_scratch =
            cols.iter().map(|&c| ColumnVector::for_type(schema.column(c).ty)).collect();
        let mut col_map = vec![None; schema.len()];
        for (k, &c) in cols.iter().enumerate() {
            col_map[c] = Some(k);
        }
        ScanFilter {
            predicate,
            cols,
            probe_possible,
            scratch,
            col_scratch,
            col_map,
            mask: Vec::new(),
            probed: 0,
            matched: 0,
        }
    }

    /// The compiled predicate.
    pub fn predicate(&self) -> &Predicate {
        &self.predicate
    }

    /// Probe-first pays off while fewer than half the tuples qualify;
    /// past that, double-parsing qualifiers costs more than it saves.
    fn probe_pays(&self) -> bool {
        self.probe_possible && (self.probed < PROBE_WARMUP || self.matched * 2 < self.probed)
    }

    /// Decode the encoded tuple `bytes` if it qualifies; `None` otherwise.
    pub fn filter_decode(&mut self, schema: &Schema, bytes: &[u8]) -> Result<Option<Row>> {
        if matches!(self.predicate, Predicate::True) {
            smooth_storage::tap_rows(1, 1);
            return Ok(Some(Row::decode(schema, bytes)?));
        }
        let matched = if self.probe_pays() {
            Row::decode_columns_into(schema, bytes, &self.cols, &mut self.scratch)?;
            let matched = self.predicate.eval_values(&self.scratch)?;
            self.probed += 1;
            self.matched += u64::from(matched);
            matched.then(|| Row::decode(schema, bytes)).transpose()?
        } else {
            let row = Row::decode(schema, bytes)?;
            let matched = self.predicate.eval(&row)?;
            self.probed += 1;
            self.matched += u64::from(matched);
            matched.then_some(row)
        };
        smooth_storage::tap_rows(1, u64::from(matched.is_some()));
        Ok(matched)
    }

    /// Columnar fill: append the qualifying tuples among `tuples` to
    /// `out`, densely, in input order. Returns `(inspected, emitted)` for
    /// the caller's clock accounting — `inspected` is always
    /// `tuples.len()`, so bulk per-page charges stay byte-for-byte
    /// identical to the per-tuple row path.
    ///
    /// Strategy mirrors [`ScanFilter::filter_decode`]'s adaptivity: while
    /// probing pays, predicate columns are decoded into reused typed
    /// vectors, the kernel produces a match mask, and only qualifiers are
    /// fully decoded (no `Row`, no `Vec<Value>` — straight into `out`'s
    /// column vectors). Once most tuples match, tuples are decoded in a
    /// single pass and the rare non-qualifier is truncated back off.
    ///
    /// When `backing` names the shared buffer the `tuples` slices live in
    /// (the pinned page), qualifying text fields decode as zero-copy
    /// views pinning that buffer (see [`smooth_types::TextColumn`]) —
    /// allocation behavior only; emitted rows, charges and I/O are
    /// byte-identical with or without it.
    pub fn fill_columns(
        &mut self,
        schema: &Schema,
        tuples: &[&[u8]],
        backing: Option<&smooth_types::SharedBytes>,
        out: &mut ColumnBatch,
    ) -> Result<(u64, u64)> {
        let inspected = tuples.len() as u64;
        if matches!(self.predicate, Predicate::True) {
            for t in tuples {
                out.push_tuple_backed(schema, t, backing)?;
            }
            smooth_storage::tap_rows(inspected, inspected);
            return Ok((inspected, inspected));
        }
        let mut emitted = 0u64;
        if self.probe_pays() {
            self.probe_mask(schema, tuples)?;
            for (t, &m) in tuples.iter().zip(&self.mask) {
                if m {
                    out.push_tuple_backed(schema, t, backing)?;
                    emitted += 1;
                }
            }
        } else {
            for t in tuples {
                out.push_tuple_backed(schema, t, backing)?;
                let last = out.physical_rows() - 1;
                if self.predicate.eval_columns_at(&|c| out.column_checked(c), last)? {
                    emitted += 1;
                } else {
                    out.truncate_rows(last);
                }
            }
        }
        self.probed += inspected;
        self.matched += emitted;
        smooth_storage::tap_rows(inspected, emitted);
        Ok((inspected, emitted))
    }

    /// Qualification without materialization: replace `out` with
    /// `(i, key)` for every qualifying `tuples[i]`, in input order, where
    /// `key` is the tuple's integer value in column `key_col`. The
    /// predicate must read `key_col` (an index-range conjunct does).
    /// Returns `(inspected, emitted)` like [`ScanFilter::fill_columns`],
    /// with the same match-rate and tap accounting as one
    /// [`ScanFilter::filter_decode`] call per tuple.
    ///
    /// Only the predicate's columns are decoded, page-at-a-time into the
    /// probe scratch; the caller decides what becomes of the encoded
    /// qualifiers (ordered Smooth Scan parks them in its Result Cache
    /// as bytes). Since no qualifier is fully decoded here, this always
    /// probes: the single-pass fallback of `fill_columns` would save
    /// nothing.
    pub fn qualify_keys(
        &mut self,
        schema: &Schema,
        tuples: &[&[u8]],
        key_col: usize,
        out: &mut Vec<(usize, i64)>,
    ) -> Result<(u64, u64)> {
        out.clear();
        let k = self.col_map.get(key_col).copied().flatten().ok_or_else(|| {
            smooth_types::Error::exec(format!("key column {key_col} is not read by the filter"))
        })?;
        self.probe_mask(schema, tuples)?;
        let keys = &self.col_scratch[k];
        let ColumnValues::Int(values) = keys.values() else {
            return Err(smooth_types::Error::exec("non-integer index key"));
        };
        for (i, _) in self.mask.iter().enumerate().filter(|(_, &m)| m) {
            if keys.is_null(i) {
                return Err(smooth_types::Error::exec("non-integer index key NULL"));
            }
            out.push((i, values[i]));
        }
        let (inspected, emitted) = (tuples.len() as u64, out.len() as u64);
        self.probed += inspected;
        self.matched += emitted;
        smooth_storage::tap_rows(inspected, emitted);
        Ok((inspected, emitted))
    }

    /// Whether the one encoded tuple `bytes` qualifies, decoding only the
    /// predicate's columns into the probe scratch — nothing materializes.
    /// Unlike the scan-side methods this touches neither the match-rate
    /// heuristic nor the [`smooth_storage::tap_rows`] flow counters: the
    /// index nested-loop join qualifies its inner residual here, and the
    /// tuples it fetches by TID are join work, not scan flow. The tuple is
    /// structurally validated as by a full decode, except under
    /// `Predicate::True`, which reads no column.
    pub fn qualifies(&mut self, schema: &Schema, bytes: &[u8]) -> Result<bool> {
        if matches!(self.predicate, Predicate::True) {
            return Ok(true);
        }
        self.decode_probe_columns(schema, &[bytes])?;
        let (scratch, col_map) = (&self.col_scratch, &self.col_map);
        self.predicate.eval_columns_at(&|c| scratch_column(scratch, col_map, c), 0)
    }

    /// Decode the predicate's columns of `tuples` into the probe scratch
    /// and evaluate the predicate over them into `self.mask`.
    fn probe_mask(&mut self, schema: &Schema, tuples: &[&[u8]]) -> Result<()> {
        self.decode_probe_columns(schema, tuples)?;
        let (scratch, col_map) = (&self.col_scratch, &self.col_map);
        let lookup = |c: usize| scratch_column(scratch, col_map, c);
        self.predicate.eval_mask(&lookup, RowSet::Dense(tuples.len()), &mut self.mask)
    }

    /// Replace the probe scratch with the predicate's columns of `tuples`.
    fn decode_probe_columns(&mut self, schema: &Schema, tuples: &[&[u8]]) -> Result<()> {
        for v in &mut self.col_scratch {
            v.clear();
        }
        // Probe vectors are predicate scratch, never emitted — decode
        // them owned so they don't pin pages past the probe.
        for t in tuples {
            decode_columns_append(schema, t, &self.cols, &mut self.col_scratch, None)?;
        }
        Ok(())
    }
}

/// The probe-scratch vector holding schema column `c`.
fn scratch_column<'a>(
    scratch: &'a [ColumnVector],
    col_map: &[Option<usize>],
    c: usize,
) -> Result<&'a ColumnVector> {
    col_map
        .get(c)
        .copied()
        .flatten()
        .map(|k| &scratch[k])
        .ok_or_else(|| smooth_types::Error::exec(format!("column {c} out of range")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: i64, s: &str) -> Row {
        Row::new(vec![Value::Int(v), Value::str(s)])
    }

    #[test]
    fn ranges() {
        let p = Predicate::int_half_open(0, 10, 20);
        assert!(p.eval(&row(10, "")).unwrap());
        assert!(p.eval(&row(19, "")).unwrap());
        assert!(!p.eval(&row(20, "")).unwrap());
        assert!(!p.eval(&row(9, "")).unwrap());
        assert!(Predicate::int_eq(0, 5).eval(&row(5, "")).unwrap());
        assert!(Predicate::int_ge(0, 5).eval(&row(5, "")).unwrap());
        assert!(Predicate::int_lt(0, 5).eval(&row(4, "")).unwrap());
        assert!(Predicate::int_le(0, 5).eval(&row(5, "")).unwrap());
    }

    #[test]
    fn strings_and_composites() {
        let p = Predicate::And(vec![
            Predicate::int_ge(0, 0),
            Predicate::StrEq { col: 1, value: "ok".into() },
        ]);
        assert!(p.eval(&row(1, "ok")).unwrap());
        assert!(!p.eval(&row(1, "no")).unwrap());
        assert!(!p.eval(&row(-1, "ok")).unwrap());
        let q = Predicate::Or(vec![
            Predicate::StrIn { col: 1, values: vec!["a".into(), "b".into()] },
            Predicate::int_eq(0, 7),
        ]);
        assert!(q.eval(&row(0, "b")).unwrap());
        assert!(q.eval(&row(7, "z")).unwrap());
        assert!(!q.eval(&row(0, "z")).unwrap());
        let n = Predicate::Not(Box::new(Predicate::True));
        assert!(!n.eval(&row(0, "")).unwrap());
    }

    #[test]
    fn nulls_never_match() {
        let r = Row::new(vec![Value::Null, Value::Null]);
        assert!(!Predicate::int_eq(0, 0).eval(&r).unwrap());
        assert!(!Predicate::StrEq { col: 1, value: String::new() }.eval(&r).unwrap());
        // but NOT(null-compare) is true under two-valued semantics
        assert!(Predicate::Not(Box::new(Predicate::int_eq(0, 0))).eval(&r).unwrap());
    }

    #[test]
    fn type_mismatch_is_an_error() {
        assert!(Predicate::int_eq(1, 0).eval(&row(0, "x")).is_err());
        assert!(Predicate::StrEq { col: 0, value: "x".into() }.eval(&row(0, "x")).is_err());
    }

    #[test]
    fn column_comparison() {
        let p = Predicate::IntColLt { left: 0, right: 1 };
        let two_ints = Row::new(vec![Value::Int(3), Value::Int(5)]);
        assert!(p.eval(&two_ints).unwrap());
        let eq = Row::new(vec![Value::Int(5), Value::Int(5)]);
        assert!(!p.eval(&eq).unwrap());
        let with_null = Row::new(vec![Value::Null, Value::Int(5)]);
        assert!(!p.eval(&with_null).unwrap());
        assert!(p.eval(&row(0, "x")).is_err());
    }

    #[test]
    fn and_collapses() {
        assert_eq!(Predicate::and(vec![]), Predicate::True);
        assert_eq!(Predicate::and(vec![Predicate::True]), Predicate::True);
        let p = Predicate::int_eq(0, 1);
        assert_eq!(Predicate::and(vec![Predicate::True, p.clone()]), p);
    }

    #[test]
    fn referenced_columns_are_sorted_and_deduped() {
        let p = Predicate::And(vec![
            Predicate::StrEq { col: 3, value: "x".into() },
            Predicate::Or(vec![Predicate::int_eq(1, 5), Predicate::IntColLt { left: 3, right: 0 }]),
        ]);
        assert_eq!(p.referenced_columns(), vec![0, 1, 3]);
        assert!(Predicate::True.referenced_columns().is_empty());
        assert_eq!(Predicate::Not(Box::new(Predicate::int_eq(2, 0))).referenced_columns(), vec![2]);
    }

    #[test]
    fn scan_filter_agrees_with_row_eval() {
        use smooth_types::{Column, DataType};
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int64),
            Column::nullable("b", DataType::Int64),
            Column::new("s", DataType::Text),
        ])
        .unwrap();
        let rows = [
            Row::new(vec![Value::Int(1), Value::Int(10), Value::str("x")]),
            Row::new(vec![Value::Int(2), Value::Null, Value::str("y")]),
            Row::new(vec![Value::Int(3), Value::Int(-4), Value::str("x")]),
        ];
        let preds = [
            Predicate::True,
            Predicate::int_ge(1, 0),
            Predicate::And(vec![
                Predicate::int_lt(0, 3),
                Predicate::StrEq { col: 2, value: "x".into() },
            ]),
            // references every column → full-decode fallback
            Predicate::And(vec![
                Predicate::int_ge(0, 0),
                Predicate::int_ge(1, -100),
                Predicate::StrIn { col: 2, values: vec!["x".into(), "y".into()] },
            ]),
        ];
        for pred in preds {
            let mut filter = ScanFilter::new(pred.clone(), &schema);
            for r in &rows {
                let bytes = r.encode(&schema).unwrap();
                let got = filter.filter_decode(&schema, &bytes).unwrap();
                assert_eq!(got.is_some(), pred.eval(r).unwrap(), "{pred:?} on {r:?}");
                if let Some(decoded) = got {
                    assert_eq!(&decoded, r);
                }
            }
        }
    }

    #[test]
    fn columnar_kernels_agree_with_row_eval() {
        use smooth_types::{Column, DataType};
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int64),
            Column::nullable("b", DataType::Int64),
            Column::nullable("s", DataType::Text),
        ])
        .unwrap();
        let rows = [
            Row::new(vec![Value::Int(1), Value::Int(10), Value::str("x")]),
            Row::new(vec![Value::Int(2), Value::Null, Value::str("y")]),
            Row::new(vec![Value::Int(3), Value::Int(-4), Value::Null]),
            Row::new(vec![Value::Int(4), Value::Int(2), Value::str("x")]),
        ];
        let preds = [
            Predicate::True,
            Predicate::int_half_open(0, 2, 4),
            Predicate::int_ge(1, 0),
            Predicate::IntRange { col: 0, lo: Bound::Excluded(i64::MAX), hi: Bound::Unbounded },
            Predicate::StrEq { col: 2, value: "x".into() },
            Predicate::StrIn { col: 2, values: vec!["y".into(), "z".into()] },
            Predicate::IntColLt { left: 0, right: 1 },
            Predicate::And(vec![
                Predicate::int_ge(0, 2),
                Predicate::Or(vec![
                    Predicate::StrEq { col: 2, value: "x".into() },
                    Predicate::int_lt(1, 0),
                ]),
            ]),
            Predicate::Not(Box::new(Predicate::int_eq(0, 2))),
        ];
        let batch = ColumnBatch::from_rows(&schema, &rows).unwrap();
        for pred in &preds {
            let sel = pred.filter_batch(&batch).unwrap();
            let expected: Vec<u32> = rows
                .iter()
                .enumerate()
                .filter(|(_, r)| pred.eval(r).unwrap())
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(sel, expected, "{pred:?}");
        }
        // refinement composes with an existing selection vector
        let mut narrowed = batch.clone();
        narrowed.set_selection(vec![3, 1, 0]);
        let sel = Predicate::int_ge(0, 2).filter_batch(&narrowed).unwrap();
        assert_eq!(sel, vec![3, 1], "selection order survives refinement");
    }

    #[test]
    fn fill_columns_matches_filter_decode() {
        use smooth_types::{Column, DataType};
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int64),
            Column::nullable("b", DataType::Int64),
            Column::new("s", DataType::Text),
        ])
        .unwrap();
        let rows: Vec<Row> = (0..600)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    if i % 7 == 0 { Value::Null } else { Value::Int(i % 50) },
                    Value::str(if i % 3 == 0 { "x" } else { "y" }),
                ])
            })
            .collect();
        let encoded: Vec<Vec<u8>> = rows.iter().map(|r| r.encode(&schema).unwrap()).collect();
        let tuples: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        let preds = [
            Predicate::True,
            Predicate::int_lt(1, 5), // low match rate → probe path
            Predicate::int_ge(1, 0), // high match rate → single-pass path after warmup
            Predicate::And(vec![
                Predicate::int_ge(0, 100),
                Predicate::StrEq { col: 2, value: "x".into() },
            ]),
        ];
        for pred in preds {
            let mut row_filter = ScanFilter::new(pred.clone(), &schema);
            let mut col_filter = ScanFilter::new(pred.clone(), &schema);
            let mut expected = Vec::new();
            for t in &tuples {
                if let Some(r) = row_filter.filter_decode(&schema, t).unwrap() {
                    expected.push(r);
                }
            }
            let mut out = ColumnBatch::for_schema(&schema);
            let mut emitted_total = 0;
            // feed in page-sized chunks so the adaptive heuristic flips
            for chunk in tuples.chunks(90) {
                let (inspected, emitted) =
                    col_filter.fill_columns(&schema, chunk, None, &mut out).unwrap();
                assert_eq!(inspected as usize, chunk.len());
                emitted_total += emitted as usize;
            }
            assert_eq!(emitted_total, expected.len(), "{pred:?}");
            assert_eq!(out.into_rows(), expected, "{pred:?}");
        }
    }

    #[test]
    fn qualify_keys_matches_filter_decode() {
        use smooth_types::{Column, DataType};
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int64),
            Column::nullable("b", DataType::Int64),
            Column::new("s", DataType::Text),
        ])
        .unwrap();
        let rows: Vec<Row> = (0..600)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    if i % 7 == 0 { Value::Null } else { Value::Int(i % 50) },
                    Value::str(if i % 3 == 0 { "x" } else { "y" }),
                ])
            })
            .collect();
        let encoded: Vec<Vec<u8>> = rows.iter().map(|r| r.encode(&schema).unwrap()).collect();
        let tuples: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        let preds = [
            Predicate::int_lt(1, 5),
            Predicate::int_ge(1, 0),
            Predicate::And(vec![
                Predicate::int_ge(1, 10),
                Predicate::StrEq { col: 2, value: "x".into() },
            ]),
        ];
        for pred in preds {
            let mut row_filter = ScanFilter::new(pred.clone(), &schema);
            let mut key_filter = ScanFilter::new(pred.clone(), &schema);
            let mut expected = Vec::new();
            for (i, t) in tuples.iter().enumerate() {
                if let Some(r) = row_filter.filter_decode(&schema, t).unwrap() {
                    expected.push((i, r.int(1).unwrap()));
                }
            }
            let mut got = Vec::new();
            let mut quals = Vec::new();
            for (c, chunk) in tuples.chunks(90).enumerate() {
                let (inspected, emitted) =
                    key_filter.qualify_keys(&schema, chunk, 1, &mut quals).unwrap();
                assert_eq!((inspected as usize, emitted as usize), (chunk.len(), quals.len()));
                got.extend(quals.iter().map(|&(i, k)| (c * 90 + i, k)));
            }
            assert_eq!(got, expected, "{pred:?}");
            assert_eq!(
                (key_filter.probed, key_filter.matched),
                (row_filter.probed, row_filter.matched),
                "{pred:?}"
            );
        }
        // The key must be one of the predicate's columns.
        let mut filter = ScanFilter::new(Predicate::int_lt(1, 5), &schema);
        assert!(filter.qualify_keys(&schema, &tuples, 0, &mut Vec::new()).is_err());
    }

    #[test]
    fn qualifies_matches_row_eval_without_tapping() {
        use smooth_types::{Column, DataType};
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int64),
            Column::nullable("b", DataType::Int64),
            Column::new("s", DataType::Text),
        ])
        .unwrap();
        let rows: Vec<Row> = (0..200)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    if i % 7 == 0 { Value::Null } else { Value::Int(i % 50) },
                    Value::str(if i % 3 == 0 { "x" } else { "y" }),
                ])
            })
            .collect();
        let preds = [
            Predicate::True,
            Predicate::int_lt(1, 5),
            Predicate::Or(vec![
                Predicate::int_ge(1, 40),
                Predicate::StrEq { col: 2, value: "x".into() },
            ]),
            Predicate::IntColLt { left: 1, right: 0 },
        ];
        for pred in preds {
            let mut filter = ScanFilter::new(pred.clone(), &schema);
            let mark = smooth_storage::tap_mark();
            for r in &rows {
                let bytes = r.encode(&schema).unwrap();
                assert_eq!(filter.qualifies(&schema, &bytes).unwrap(), pred.eval(r).unwrap());
            }
            assert_eq!(mark.delta(), smooth_storage::ScanStatistics::default(), "{pred:?}");
            assert_eq!((filter.probed, filter.matched), (0, 0), "{pred:?}");
        }
        // A truncated tuple errors as it would under a full decode.
        let bytes = rows[1].encode(&schema).unwrap();
        let mut filter = ScanFilter::new(Predicate::int_lt(0, 5), &schema);
        assert!(filter.qualifies(&schema, &bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn split_extracts_index_range() {
        let p = Predicate::And(vec![
            Predicate::StrEq { col: 1, value: "x".into() },
            Predicate::int_half_open(0, 3, 9),
        ]);
        let (col, lo, hi, residual) = p.split_index_range().unwrap();
        assert_eq!(col, 0);
        assert_eq!(lo, Bound::Included(3));
        assert_eq!(hi, Bound::Excluded(9));
        assert_eq!(residual, Predicate::StrEq { col: 1, value: "x".into() });
        assert!(Predicate::True.split_index_range().is_none());
        let lone = Predicate::int_eq(2, 5);
        let (col, _, _, residual) = lone.split_index_range().unwrap();
        assert_eq!(col, 2);
        assert_eq!(residual, Predicate::True);
    }
}

//! Physical query execution.
//!
//! The plan algebra mirrors the operators appearing in the paper's Oracle
//! execution plan (Figure 10): `COLLECTION ITERATOR` over a transient
//! session-state table, `INDEX RANGE SCAN` with bind variables from the
//! outer row, `NESTED LOOPS`, and `UNION-ALL`; plus `FILTER` and
//! `PROJECTION`, which the competitor methods need.
//!
//! # Execution is push-based, a batch at a time
//!
//! [`Database::execute_with`] first *prepares* the plan — every
//! `(table, index)` name is resolved to its opened B-link tree once, every
//! operator's row width is computed, and scan bounds, bind variables and
//! `FILTER` / `PROJECT` columns are checked against those widths, so a plan
//! naming a column that is not there is [`Error::InvalidArgument`] before
//! anything runs — and then *pushes* rows through the operators into the
//! caller's sink, not one at a time but as [`Rows`] batches.
//!
//! A **batch** is a borrowed, non-empty run of fixed-width rows in the
//! B-link leaf's own encoding: `width` little-endian `i64`s per row, back
//! to back, read with `from_le_bytes` (so no alignment is assumed).  A leaf
//! entry is its key columns followed by its payload — the column the key
//! leaves out — exactly an `INDEX RANGE SCAN` output row — so the scan's unit of work, one leaf's
//! in-range entries ([`ri_btree::RangeScan::for_each_run`]), *is* a batch:
//! the bytes the sink sees are the bytes on the page.  A batch lives for
//! one sink call; a consumer takes what it wants out of it
//! ([`Rows::column`] gathers one column at a stride) and returns.
//!
//! What each operator does with a batch:
//!
//! * `INDEX RANGE SCAN` forwards each leaf run untouched — one sink call
//!   per leaf, nothing decoded, nothing copied.
//! * `FILTER` forwards the maximal sub-runs of matching rows, as slices of
//!   the batch it was given.
//! * `NESTED LOOPS` runs its inner plan once per row of each outer batch,
//!   from inside the outer's sink, that row bound in place as the bind
//!   variables.
//! * `UNION-ALL` runs its inputs one after the other into the same sink.
//! * `PROJECT` re-encodes each batch into one scratch buffer it reuses
//!   from batch to batch; `COLLECTION ITERATOR` is encoded once when the
//!   plan is prepared and pushed as a single batch.
//!
//! No operator materializes its input and nothing is allocated or decoded
//! per row, so a query costs what the paper's Section 4.4 charges — the
//! index page accesses — plus a few nanoseconds per row.  That holds for
//! the RI-tree's id plans too: `RiTree::execute_id_plan` gathers the id
//! column out of each batch and returns the ids in plan order, with no
//! sort after the last batch (Figure 9's `UNION ALL` has no `ORDER BY`).
//! [`Database::execute`] is the same call with a sink that collects owned
//! [`Row`]s.
//!
//! What this rests on still holds.  A scan looks at each leaf through the
//! pool's **shared snapshot** — the frame's immutable `Arc<[u8]>`, cloned
//! under the shard lock and read with the lock released — so the sink, and
//! any scan nested in it, runs with no lock or latch held.  The B-link **move-right rule** and
//! the cursor's **exactly-once, in-order** guarantee
//! (`ri_btree::RangeScan`) are untouched.  One thing is observable: a
//! `NESTED LOOPS` whose outer is itself a scan interleaves its inner
//! scans with the outer's leaf walk instead of running them after it.  The
//! RI-tree drives its joins from transient collections, so its page-access
//! sequence is exactly what it was (`tests/read_path_trace.rs` pins it).

use crate::catalog::Database;
use ri_btree::{BTree, MAX_ARITY};
use ri_pagestore::codec::get_i64;
use ri_pagestore::{Error, Result};
use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;

/// A materialized row of `i64` values.
pub type Row = Vec<i64>;

/// A batch: a borrowed, non-empty run of rows of one width, each column a
/// little-endian `i64`, rows back to back — the unit every operator and
/// the sink of [`Database::execute_with`] receive (see the module docs).
/// Valid for the duration of the sink call it is passed to.
#[derive(Clone, Copy, Debug)]
pub struct Rows<'a> {
    bytes: &'a [u8],
    /// Bytes per row: 8 × the row width, which is never 0.
    stride: usize,
}

impl<'a> Rows<'a> {
    fn new(bytes: &'a [u8], width: usize) -> Rows<'a> {
        debug_assert!(width > 0 && bytes.len() % (width * 8) == 0, "whole rows");
        Rows { bytes, stride: width * 8 }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len() / self.stride
    }

    /// `false` for every batch an operator pushes; here for completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Columns per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.stride / 8
    }

    /// Row `row`.  Panics when `row >= len()`.
    #[inline]
    pub fn row(&self, row: usize) -> RowRef<'a> {
        RowRef(&self.bytes[row * self.stride..(row + 1) * self.stride])
    }

    /// Column `col` of row `row`.  Panics when either is out of range.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> i64 {
        self.row(row).get(col)
    }

    /// Column `col` of every row, in order: one load per row at a fixed
    /// stride, nothing else of the row touched.  Panics when
    /// `col >= width()`.
    #[inline]
    pub fn column(&self, col: usize) -> impl Iterator<Item = i64> + 'a {
        assert!(col < self.width(), "column {col} of a {}-column batch", self.width());
        self.bytes.chunks_exact(self.stride).map(move |row| get_i64(row, col * 8))
    }

    /// The rows, in order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = RowRef<'a>> + 'a {
        self.bytes.chunks_exact(self.stride).map(RowRef)
    }

    /// The sub-run of rows `rows`.
    fn slice(&self, rows: Range<usize>) -> Rows<'a> {
        Rows { bytes: &self.bytes[rows.start * self.stride..rows.end * self.stride], ..*self }
    }
}

/// One row of a [`Rows`] batch.
#[derive(Clone, Copy, Debug)]
pub struct RowRef<'a>(&'a [u8]);

impl<'a> RowRef<'a> {
    /// Column `col`.  Panics when the row has no such column.
    #[inline]
    pub fn get(&self, col: usize) -> i64 {
        get_i64(self.0, col * 8)
    }

    /// The columns, in order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = i64> + 'a {
        self.0.chunks_exact(8).map(|word| get_i64(word, 0))
    }
}

/// Appends `row` to `bytes` in the batch encoding.
fn encode_row(bytes: &mut Vec<u8>, row: &[i64]) {
    row.iter().for_each(|v| bytes.extend_from_slice(&v.to_le_bytes()));
}

/// A bound value for one key column of an index range scan.
///
/// `Outer(i)` is a *bind variable* referencing column `i` of the current
/// outer row of the enclosing nested-loops join — exactly how the paper's
/// SQL query (Figure 9) correlates `leftNodes`/`rightNodes` with the index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundExpr {
    /// A literal value.
    Const(i64),
    /// Column `i` of the current outer row.
    Outer(usize),
    /// Negative infinity (`i64::MIN`).
    NegInf,
    /// Positive infinity (`i64::MAX`).
    PosInf,
}

impl BoundExpr {
    /// `outer` is the enclosing join's current outer row;
    /// [`ExecCtx::prepare`] has checked that an `Outer(i)` has one, with a
    /// column `i`.
    fn eval(&self, outer: Option<RowRef<'_>>) -> i64 {
        match *self {
            BoundExpr::Const(v) => v,
            BoundExpr::NegInf => i64::MIN,
            BoundExpr::PosInf => i64::MAX,
            BoundExpr::Outer(i) => outer.expect("prepare binds every Outer").get(i),
        }
    }
}

/// Comparison operators for [`Predicate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `<=`
    Le,
    /// `>=`
    Ge,
}

/// Row predicates for the `FILTER` operator.
#[derive(Clone, Debug)]
pub enum Predicate {
    /// `row[col] op value`.
    CmpConst {
        /// Column position in the input row.
        col: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand literal.
        value: i64,
    },
    /// `row[a] + row[b] op value` — needed for derived-attribute predicates
    /// such as the IST H-ordering's `lower + length >= :lower`.
    CmpSum {
        /// First summand column.
        a: usize,
        /// Second summand column.
        b: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand literal.
        value: i64,
    },
    /// Conjunction; the empty one is always true.
    And(Vec<Predicate>),
}

impl Predicate {
    /// Evaluates the predicate against a row.  Panics when it names a
    /// column the row does not have (a `FILTER` is checked against its
    /// input's width before it runs).
    pub fn matches(&self, row: &[i64]) -> bool {
        self.test(&|col| row[col])
    }

    /// Evaluates the predicate against the row whose columns `col` reads.
    fn test(&self, col: &impl Fn(usize) -> i64) -> bool {
        match self {
            Predicate::CmpConst { col: c, op, value } => cmp(col(*c), *op, *value),
            Predicate::CmpSum { a, b, op, value } => cmp(col(*a) + col(*b), *op, *value),
            Predicate::And(ps) => ps.iter().all(|p| p.test(col)),
        }
    }

    /// The largest column position the predicate reads, if it reads any.
    fn max_col(&self) -> Option<usize> {
        match self {
            Predicate::CmpConst { col, .. } => Some(*col),
            Predicate::CmpSum { a, b, .. } => Some(*a.max(b)),
            Predicate::And(ps) => ps.iter().filter_map(Predicate::max_col).max(),
        }
    }
}

#[inline]
fn cmp(v: i64, op: CmpOp, value: i64) -> bool {
    match op {
        CmpOp::Le => v <= value,
        CmpOp::Ge => v >= value,
    }
}

/// A physical query plan.
#[derive(Clone, Debug)]
pub enum Plan {
    /// Iterates a transient in-memory collection (the paper's session-state
    /// tables `leftNodes` / `rightNodes`); costs no I/O.
    CollectionIterator {
        /// Display name for EXPLAIN output.
        name: String,
        /// The collection rows.
        rows: Vec<Row>,
    },
    /// Inclusive composite-key range scan over one of a table's indexes.
    /// Output rows are the key columns followed by the entry's payload:
    /// the column the key leaves out, or 0 when the key holds every column
    /// ([`TableDef::indexes`](crate::TableDef::indexes)).
    IndexRangeScan {
        /// Table name.
        table: String,
        /// Index name.
        index: String,
        /// Lower bound, one expression per key column.
        lo: Vec<BoundExpr>,
        /// Upper bound, one expression per key column.
        hi: Vec<BoundExpr>,
    },
    /// For each outer row, evaluates the inner plan with the outer row's
    /// values available as bind variables; emits the inner rows.
    NestedLoops {
        /// Outer (driving) input.
        outer: Box<Plan>,
        /// Inner (parameterized) input.
        inner: Box<Plan>,
    },
    /// Concatenates the results of all inputs (no duplicate elimination —
    /// the paper's Section 4.2 argues the branches are disjoint).
    UnionAll(
        /// The input plans.
        Vec<Plan>,
    ),
    /// Keeps only rows matching the predicate.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Filter predicate.
        pred: Predicate,
    },
    /// Projects the given columns of each input row.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Column positions to keep, in output order.
        cols: Vec<usize>,
    },
}

/// Counters accumulated during one [`Database::execute`] call.
///
/// `rows_examined` feeds the response-time model: it counts every row
/// produced by a scan or collection operator, approximating per-row CPU
/// cost of the SQL engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows produced by scan/collection operators.
    pub rows_examined: u64,
    /// Rows in the final result.
    pub result_rows: u64,
    /// Number of index range scans started (search phases).
    pub index_searches: u64,
}

/// A [`Plan`] with every name resolved and every column reference checked
/// — what [`ExecCtx::prepare`] turns it into, once per execution, so that
/// evaluation looks nothing up and cannot index past a row.
/// `IndexScan::tree` indexes [`ExecCtx::trees`]; a collection is already
/// in the batch encoding.
enum Op<'p> {
    Collection { bytes: Vec<u8>, width: usize },
    IndexScan { tree: usize, lo: &'p [BoundExpr], hi: &'p [BoundExpr] },
    NestedLoops { outer: Box<Op<'p>>, inner: Box<Op<'p>> },
    UnionAll(Vec<Op<'p>>),
    Filter { input: Box<Op<'p>>, pred: &'p Predicate },
    Project { input: Box<Op<'p>>, cols: &'p [usize] },
}

/// Columns per row of an operator's output.  `None`: it can never produce
/// a row (an empty collection has no width), so every consumer fits it.
type Width = Option<usize>;

/// `what` may read column `col` of rows `width` wide.
fn check_col(what: &str, col: usize, width: Width) -> Result<()> {
    match width {
        Some(width) if col >= width => Err(Error::InvalidArgument(format!(
            "{what} names column {col} of a {width}-column row"
        ))),
        _ => Ok(()),
    }
}

struct ExecCtx<'p> {
    db: &'p Database,
    /// Each distinct `(table, index)` of the plan, opened once.
    trees: Vec<(&'p str, &'p str, BTree)>,
    // Cells: a nested-loops sink evaluates its inner plan while the
    // outer's evaluation is still on the stack.
    rows_examined: Cell<u64>,
    index_searches: Cell<u64>,
}

impl<'p> ExecCtx<'p> {
    /// Resolves and checks `plan`, returning it with its row width.
    /// `bind` is the row width of the enclosing join's outer input, `None`
    /// outside any join.
    fn prepare(&mut self, plan: &'p Plan, bind: Option<Width>) -> Result<(Op<'p>, Width)> {
        Ok(match plan {
            Plan::CollectionIterator { name, rows } => {
                let width = rows.first().map(Vec::len);
                if width == Some(0) || rows.iter().any(|row| Some(row.len()) != width) {
                    return Err(Error::InvalidArgument(format!(
                        "collection {name} needs rows of one width, at least one column"
                    )));
                }
                let mut bytes = Vec::with_capacity(rows.len() * width.unwrap_or(0) * 8);
                rows.iter().for_each(|row| encode_row(&mut bytes, row));
                // No rows, no bytes: then the width is never looked at.
                (Op::Collection { bytes, width: width.unwrap_or(1) }, width)
            }
            Plan::IndexRangeScan { table, index, lo, hi } => {
                let known = self.trees.iter().position(|(t, i, _)| t == table && i == index);
                let tree = match known {
                    Some(tree) => tree,
                    None => {
                        let meta = self.db.index_meta(table, index)?;
                        let tree = BTree::open(Arc::clone(self.db.pool()), meta.btree_meta)?;
                        self.trees.push((table, index, tree));
                        self.trees.len() - 1
                    }
                };
                let arity = self.trees[tree].2.arity();
                if lo.len() != arity || hi.len() != arity {
                    return Err(Error::InvalidArgument(format!(
                        "scan bounds have {}..{} columns, index {index} expects {arity}",
                        lo.len(),
                        hi.len()
                    )));
                }
                for bound in lo.iter().chain(hi) {
                    if let BoundExpr::Outer(i) = *bound {
                        let outer = bind.ok_or_else(|| {
                            Error::InvalidArgument(format!("unbound outer column {i}"))
                        })?;
                        check_col("a bind variable", i, outer)?;
                    }
                }
                // Output row: the key columns, then the payload.
                (Op::IndexScan { tree, lo, hi }, Some(arity + 1))
            }
            Plan::NestedLoops { outer, inner } => {
                let (outer, outer_width) = self.prepare(outer, bind)?;
                let (inner, width) = self.prepare(inner, Some(outer_width))?;
                (Op::NestedLoops { outer: Box::new(outer), inner: Box::new(inner) }, width)
            }
            Plan::UnionAll(inputs) => {
                let mut width = None;
                let mut ops = Vec::with_capacity(inputs.len());
                for input in inputs {
                    let (op, input_width) = self.prepare(input, bind)?;
                    match (width, input_width) {
                        (Some(a), Some(b)) if a != b => {
                            return Err(Error::InvalidArgument(format!(
                                "UNION-ALL of {a}-column and {b}-column rows"
                            )))
                        }
                        _ => width = width.or(input_width),
                    }
                    ops.push(op);
                }
                (Op::UnionAll(ops), width)
            }
            Plan::Filter { input, pred } => {
                let (input, width) = self.prepare(input, bind)?;
                if let Some(col) = pred.max_col() {
                    check_col("FILTER", col, width)?;
                }
                (Op::Filter { input: Box::new(input), pred }, width)
            }
            Plan::Project { input, cols } => {
                let (input, width) = self.prepare(input, bind)?;
                if cols.is_empty() {
                    return Err(Error::InvalidArgument("PROJECT keeps no column".to_string()));
                }
                cols.iter().try_for_each(|&col| check_col("PROJECT", col, width))?;
                (Op::Project { input: Box::new(input), cols }, Some(cols.len()))
            }
        })
    }

    fn examined(&self, rows: usize) {
        self.rows_examined.set(self.rows_examined.get() + rows as u64);
    }

    /// Pushes every row `op` produces into `sink`, in order, in non-empty
    /// batches.  `bind` is the current outer row of the enclosing
    /// nested-loops join.
    fn eval(
        &self,
        op: &Op<'_>,
        bind: Option<RowRef<'_>>,
        sink: &mut dyn FnMut(Rows<'_>),
    ) -> Result<()> {
        match op {
            Op::Collection { bytes, width } => {
                if !bytes.is_empty() {
                    let rows = Rows::new(bytes, *width);
                    self.examined(rows.len());
                    sink(rows);
                }
                Ok(())
            }
            Op::IndexScan { tree, lo, hi } => {
                let arity = lo.len();
                let (mut lo_vals, mut hi_vals) = ([0i64; MAX_ARITY], [0i64; MAX_ARITY]);
                for c in 0..arity {
                    lo_vals[c] = lo[c].eval(bind);
                    hi_vals[c] = hi[c].eval(bind);
                }
                self.index_searches.set(self.index_searches.get() + 1);
                // A leaf entry is an output row as it stands.
                let mut examined = 0;
                let scan = self.trees[*tree].2.scan_range(&lo_vals[..arity], &hi_vals[..arity]);
                let scanned = scan.for_each_run(|run| {
                    let rows = Rows::new(run, arity + 1);
                    examined += rows.len();
                    sink(rows);
                });
                self.examined(examined);
                scanned
            }
            Op::NestedLoops { outer, inner } => {
                // The sink cannot return an error: remember the first one
                // and let the remaining outer rows pass.
                let mut joined = Ok(());
                self.eval(outer, bind, &mut |outer_rows| {
                    for outer_row in outer_rows.iter() {
                        if joined.is_ok() {
                            joined = self.eval(inner, Some(outer_row), sink);
                        }
                    }
                })?;
                joined
            }
            Op::UnionAll(inputs) => inputs.iter().try_for_each(|op| self.eval(op, bind, sink)),
            Op::Filter { input, pred } => self.eval(input, bind, &mut |rows| {
                // `run`: where the run of matching rows being extended began.
                let mut run = None;
                for i in 0..rows.len() {
                    let row = rows.row(i);
                    match (pred.test(&|col| row.get(col)), run) {
                        (true, None) => run = Some(i),
                        (false, Some(from)) => {
                            sink(rows.slice(from..i));
                            run = None;
                        }
                        _ => {}
                    }
                }
                if let Some(from) = run {
                    sink(rows.slice(from..rows.len()));
                }
            }),
            Op::Project { input, cols } => {
                let mut projected = Vec::new();
                self.eval(input, bind, &mut |rows| {
                    projected.clear();
                    for row in rows.iter() {
                        for &col in *cols {
                            projected.extend_from_slice(&row.get(col).to_le_bytes());
                        }
                    }
                    sink(Rows::new(&projected, cols.len()));
                })
            }
        }
    }
}

impl Database {
    /// Executes a physical plan, pushing the result into `sink` a batch at
    /// a time — each a borrowed, non-empty [`Rows`] valid for the duration
    /// of that call, the batches in result order — and accumulating
    /// counters into `stats`.  Nothing is materialized and nothing
    /// allocated or decoded per row — see the module docs.  `sink` may read
    /// from this database; it runs with no lock or latch held.
    pub fn execute_with(
        &self,
        plan: &Plan,
        stats: &mut ExecStats,
        sink: &mut dyn FnMut(Rows<'_>),
    ) -> Result<()> {
        let mut ctx = ExecCtx {
            db: self,
            trees: Vec::new(),
            rows_examined: Cell::new(0),
            index_searches: Cell::new(0),
        };
        let (op, _) = ctx.prepare(plan, None)?;
        let mut result_rows = 0;
        let done = ctx.eval(&op, None, &mut |rows| {
            result_rows += rows.len() as u64;
            sink(rows);
        });
        stats.rows_examined += ctx.rows_examined.get();
        stats.index_searches += ctx.index_searches.get();
        done?;
        stats.result_rows += result_rows;
        Ok(())
    }

    /// [`Database::execute_with`] collecting the result into owned rows.
    pub fn execute(&self, plan: &Plan, stats: &mut ExecStats) -> Result<Vec<Row>> {
        let mut result = Vec::new();
        self.execute_with(plan, stats, &mut |rows| {
            result.extend(rows.iter().map(|row| row.iter().collect::<Row>()))
        })?;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{IndexDef, TableDef};
    use ri_pagestore::{BufferPool, BufferPoolConfig, MemDisk};

    fn setup() -> Database {
        let pool =
            Arc::new(BufferPool::new(MemDisk::new(2048), BufferPoolConfig::with_capacity(64)));
        let db = Database::create(pool).unwrap();
        db.create_table(TableDef {
            name: "T".into(),
            columns: vec!["k".into(), "v".into(), "id".into()],
            indexes: vec![IndexDef { name: "KV".into(), key_cols: vec![0, 1] }],
        })
        .unwrap();
        let t = db.table("T").unwrap();
        for i in 0..100i64 {
            t.insert(&[i % 10, i, 1000 + i]).unwrap();
        }
        db
    }

    #[test]
    fn index_scan_with_const_bounds() {
        let db = setup();
        let plan = Plan::IndexRangeScan {
            table: "T".into(),
            index: "KV".into(),
            lo: vec![BoundExpr::Const(4), BoundExpr::Const(50)],
            hi: vec![BoundExpr::Const(4), BoundExpr::PosInf],
        };
        let mut stats = ExecStats::default();
        let rows = db.execute(&plan, &mut stats).unwrap();
        // k = 4 and v >= 50: v in {54, 64, 74, 84, 94}.
        let vs: Vec<i64> = rows.iter().map(|r| r[1]).collect();
        assert_eq!(vs, vec![54, 64, 74, 84, 94]);
        assert_eq!(stats.index_searches, 1);
        assert_eq!(stats.result_rows, 5);
    }

    #[test]
    fn nested_loops_binds_outer_columns() {
        let db = setup();
        // Transient collection of (k_min, k_max) pairs, as in Figure 9.
        let plan = Plan::NestedLoops {
            outer: Box::new(Plan::CollectionIterator {
                name: "PROBES".into(),
                rows: vec![vec![2, 2], vec![7, 7]],
            }),
            inner: Box::new(Plan::IndexRangeScan {
                table: "T".into(),
                index: "KV".into(),
                lo: vec![BoundExpr::Outer(0), BoundExpr::NegInf],
                hi: vec![BoundExpr::Outer(1), BoundExpr::PosInf],
            }),
        };
        let mut stats = ExecStats::default();
        let rows = db.execute(&plan, &mut stats).unwrap();
        assert_eq!(rows.len(), 20);
        assert!(rows.iter().all(|r| r[0] == 2 || r[0] == 7));
        assert_eq!(stats.index_searches, 2, "one search per outer row");
    }

    #[test]
    fn union_all_concatenates_without_dedup() {
        let db = setup();
        let scan = Plan::IndexRangeScan {
            table: "T".into(),
            index: "KV".into(),
            lo: vec![BoundExpr::Const(1), BoundExpr::NegInf],
            hi: vec![BoundExpr::Const(1), BoundExpr::PosInf],
        };
        let plan = Plan::UnionAll(vec![scan.clone(), scan]);
        let mut stats = ExecStats::default();
        let rows = db.execute(&plan, &mut stats).unwrap();
        assert_eq!(rows.len(), 20, "UNION ALL must keep duplicates");
    }

    /// The rows `setup` inserts, as a transient collection.
    fn setup_rows() -> Plan {
        collection((0..100i64).map(|i| vec![i % 10, i, 1000 + i]).collect())
    }

    #[test]
    fn filter_and_project() {
        let db = setup();
        let plan = Plan::Project {
            input: Box::new(Plan::Filter {
                input: Box::new(setup_rows()),
                pred: Predicate::And(vec![
                    Predicate::CmpConst { col: 1, op: CmpOp::Ge, value: 95 },
                    Predicate::CmpConst { col: 1, op: CmpOp::Le, value: 97 },
                ]),
            }),
            cols: vec![2],
        };
        let mut stats = ExecStats::default();
        let rows = db.execute(&plan, &mut stats).unwrap();
        assert_eq!(rows, vec![vec![1095], vec![1096], vec![1097]]);
        assert_eq!(stats.rows_examined, 100, "the collection examines every row");
    }

    #[test]
    fn and_predicate() {
        let p = Predicate::And(vec![
            Predicate::CmpConst { col: 0, op: CmpOp::Ge, value: 1 },
            Predicate::CmpSum { a: 0, b: 1, op: CmpOp::Le, value: 5 },
        ]);
        assert!(p.matches(&[1, 4]));
        assert!(p.matches(&[5, 0]));
        assert!(!p.matches(&[0, 0]));
        assert!(!p.matches(&[3, 3]));
        assert!(Predicate::And(vec![]).matches(&[]));
    }

    #[test]
    fn scan_bound_arity_is_checked() {
        let db = setup();
        let plan = Plan::IndexRangeScan {
            table: "T".into(),
            index: "KV".into(),
            lo: vec![BoundExpr::Const(1)],
            hi: vec![BoundExpr::Const(1)],
        };
        assert!(db.execute(&plan, &mut ExecStats::default()).is_err());
    }

    /// `KV` entries with `lo <= k <= hi`: rows `(k, v, id)`.
    fn scan_kv(lo: BoundExpr, hi: BoundExpr) -> Plan {
        Plan::IndexRangeScan {
            table: "T".into(),
            index: "KV".into(),
            lo: vec![lo, BoundExpr::NegInf],
            hi: vec![hi, BoundExpr::PosInf],
        }
    }

    fn scan_all_kv() -> Plan {
        scan_kv(BoundExpr::NegInf, BoundExpr::PosInf)
    }

    fn collection(rows: Vec<Row>) -> Plan {
        Plan::CollectionIterator { name: "C".into(), rows }
    }

    /// `outer` driving a `KV` scan of `k = outer[col]`.
    fn join_on(outer: Plan, col: usize) -> Plan {
        let bound = BoundExpr::Outer(col);
        Plan::NestedLoops { outer: Box::new(outer), inner: Box::new(scan_kv(bound, bound)) }
    }

    fn filter(input: Plan, col: usize) -> Plan {
        let pred = Predicate::And(vec![
            Predicate::CmpConst { col: 0, op: CmpOp::Ge, value: 0 },
            Predicate::CmpSum { a: 0, b: col, op: CmpOp::Ge, value: 0 },
        ]);
        Plan::Filter { input: Box::new(input), pred }
    }

    fn project(input: Plan, cols: &[usize]) -> Plan {
        Plan::Project { input: Box::new(input), cols: cols.to_vec() }
    }

    /// A plan naming a column that no row of its input has is refused
    /// before anything runs; it used to index past the row from inside the
    /// sink, which runs inside a page snapshot.
    #[test]
    fn columns_are_checked_against_row_widths_before_anything_runs() {
        let db = setup();
        let refused = [
            Plan::Filter {
                input: Box::new(setup_rows()),
                pred: Predicate::CmpConst { col: 9, op: CmpOp::Ge, value: 0 },
            },
            filter(scan_all_kv(), 3),
            project(scan_all_kv(), &[0, 3]),
            project(scan_all_kv(), &[]),
            collection(vec![vec![1, 2], vec![3]]),
            collection(vec![vec![]]),
            Plan::UnionAll(vec![scan_all_kv(), collection(vec![]), collection(vec![vec![1, 2]])]),
            join_on(collection(vec![vec![1], vec![2]]), 1),
            // A scan binds to the join right around it, not to one further out.
            Plan::NestedLoops {
                outer: Box::new(scan_all_kv()),
                inner: Box::new(join_on(collection(vec![vec![1, 2]]), 2)),
            },
        ];
        for plan in &refused {
            let mut stats = ExecStats::default();
            let refusal = db.execute(plan, &mut stats);
            assert!(matches!(refusal, Err(Error::InvalidArgument(_))), "{plan:?}: {refusal:?}");
            assert_eq!(stats, ExecStats::default(), "refused before anything ran");
        }
        let accepted = [
            (filter(scan_all_kv(), 2), 100),
            (project(scan_all_kv(), &[2, 2, 0, 1]), 100),
            (
                Plan::UnionAll(vec![
                    collection(vec![]),
                    scan_all_kv(),
                    collection(vec![vec![1, 2, 3]]),
                ]),
                101,
            ),
            (join_on(collection(vec![vec![1], vec![2]]), 0), 20),
            // An empty collection never produces a row, so any width fits it.
            (join_on(collection(vec![]), 7), 0),
            (filter(collection(vec![]), 9), 0),
        ];
        for (plan, rows) in &accepted {
            let result = db.execute(plan, &mut ExecStats::default()).unwrap();
            assert_eq!(result.len(), *rows, "{plan:?}");
        }
    }

    #[test]
    fn a_scan_pushes_one_batch_per_leaf_and_filter_forwards_maximal_sub_runs() {
        let db = setup();
        let batches = |plan: &Plan| {
            let mut batches: Vec<Vec<Row>> = Vec::new();
            let mut stats = ExecStats::default();
            db.execute_with(plan, &mut stats, &mut |rows| {
                assert_eq!((rows.width(), rows.is_empty()), (3, false));
                batches.push(rows.iter().map(|row| row.iter().collect()).collect());
            })
            .unwrap();
            assert_eq!(stats.result_rows as usize, batches.concat().len());
            batches
        };
        // 100 entries of 24 bytes on 2 KB pages: a few leaves, a batch each.
        let leaves = batches(&scan_all_kv());
        assert_eq!(leaves.concat().len(), 100);
        assert!((2..=4).contains(&leaves.len()), "{} batches", leaves.len());
        // KV orders by (k, v) and v = k + 10·j: under `v <= 49` every k
        // keeps its first five rows and drops its last five, so the
        // matching rows lie in ten runs of five.  A leaf boundary may cut
        // a run in two; nothing else does.
        let low = Plan::Filter {
            input: Box::new(scan_all_kv()),
            pred: Predicate::CmpConst { col: 1, op: CmpOp::Le, value: 49 },
        };
        let runs = batches(&low);
        assert_eq!(runs.concat(), db.execute(&low, &mut ExecStats::default()).unwrap());
        assert_eq!(runs.concat().len(), 50);
        assert!((10..10 + leaves.len()).contains(&runs.len()), "{} batches", runs.len());
        assert!(runs.iter().all(|run| run.len() <= 5 && run.iter().all(|row| row[0] == run[0][0])));
    }

    #[test]
    fn unbound_outer_column_errors() {
        let db = setup();
        let plan = Plan::IndexRangeScan {
            table: "T".into(),
            index: "KV".into(),
            lo: vec![BoundExpr::Outer(0), BoundExpr::NegInf],
            hi: vec![BoundExpr::Outer(0), BoundExpr::PosInf],
        };
        assert!(db.execute(&plan, &mut ExecStats::default()).is_err());
    }
}

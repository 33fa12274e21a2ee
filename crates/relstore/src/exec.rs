//! Physical query execution.
//!
//! The plan algebra mirrors the operators appearing in the paper's Oracle
//! execution plan (Figure 10): `COLLECTION ITERATOR` over a transient
//! session-state table, `INDEX RANGE SCAN` with bind variables from the
//! outer row, `NESTED LOOPS`, and `UNION-ALL`; plus `FILTER` and
//! `TABLE ACCESS FULL` which the competitor methods need.
//!
//! # Execution is push-based
//!
//! [`Database::execute_with`] first *prepares* the plan — every table and
//! index name is resolved to its opened heap or B-link tree once, and scan
//! bounds are checked against the index arity — and then *pushes* rows
//! through the operators into the caller's sink: each operator hands every
//! row it produces, as a borrowed `&[i64]`, straight to its consumer.  An
//! index entry becomes a row in a buffer on the stack; `FILTER` forwards or
//! drops it; `NESTED LOOPS` runs its inner plan from inside the outer's
//! sink, the outer row as bind variables.  No operator materializes its
//! input and nothing is allocated per row, so a query costs what the
//! paper's Section 4.4 charges — the index page accesses — plus a few dozen
//! nanoseconds per row.  [`Database::execute`] is the same call with a
//! sink that collects owned [`Row`]s.
//!
//! What this rests on still holds.  A scan looks at each leaf in the
//! pool's **copy-atomic snapshot** — a private copy taken under the shard
//! lock, read with the lock released — so the sink, and any scan nested in
//! it, runs with no lock or latch held.  The B-link **move-right rule** and
//! the cursor's **exactly-once, in-order** guarantee
//! (`ri_btree::RangeScan`) are untouched.  One thing is observable: a
//! `NESTED LOOPS` whose outer is itself a scan now interleaves its inner
//! scans with the outer's leaf walk instead of running them after it.  The
//! RI-tree drives its joins from transient collections, so its page-access
//! sequence is exactly what it was (`tests/read_path_trace.rs` pins it).

use crate::catalog::Database;
use crate::heap::Heap;
use ri_btree::{BTree, MAX_ARITY};
use ri_pagestore::{Error, Result};
use std::cell::Cell;
use std::sync::Arc;

/// A materialized row of `i64` values.
pub type Row = Vec<i64>;

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
    fn eval(&self, outer: Option<&[i64]>) -> Result<i64> {
        match *self {
            BoundExpr::Const(v) => Ok(v),
            BoundExpr::NegInf => Ok(i64::MIN),
            BoundExpr::PosInf => Ok(i64::MAX),
            BoundExpr::Outer(i) => outer
                .and_then(|r| r.get(i).copied())
                .ok_or_else(|| Error::InvalidArgument(format!("unbound outer column {i}"))),
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
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `=`
    Eq,
}

/// Row predicates for the `FILTER` operator.
#[derive(Clone, Debug)]
pub enum Predicate {
    /// Always true.
    True,
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
    /// `row[a] - row[b] op value` (e.g. interval length on a bounds table).
    CmpDiff {
        /// Minuend column.
        a: usize,
        /// Subtrahend column.
        b: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand literal.
        value: i64,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
}

impl Predicate {
    /// Evaluates the predicate against a row.
    pub fn matches(&self, row: &[i64]) -> bool {
        match self {
            Predicate::True => true,
            Predicate::CmpConst { col, op, value } => cmp(row[*col], *op, *value),
            Predicate::CmpSum { a, b, op, value } => cmp(row[*a] + row[*b], *op, *value),
            Predicate::CmpDiff { a, b, op, value } => cmp(row[*a] - row[*b], *op, *value),
            Predicate::And(ps) => ps.iter().all(|p| p.matches(row)),
            Predicate::Or(ps) => ps.iter().any(|p| p.matches(row)),
        }
    }
}

#[inline]
fn cmp(v: i64, op: CmpOp, value: i64) -> bool {
    match op {
        CmpOp::Le => v <= value,
        CmpOp::Ge => v >= value,
        CmpOp::Lt => v < value,
        CmpOp::Gt => v > value,
        CmpOp::Eq => v == value,
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
    /// Inclusive composite-key range scan over a secondary index.
    /// Output rows are the key columns followed by the row id payload.
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
    /// Full table scan (`TABLE ACCESS FULL`); output rows are the table
    /// columns.
    TableScan {
        /// Table name.
        table: String,
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

/// A [`Plan`] with every name resolved — what [`ExecCtx::prepare`] turns
/// it into, once per execution, so that evaluation looks nothing up.
/// `IndexScan::tree` and `TableScan` index [`ExecCtx::trees`] and
/// [`ExecCtx::heaps`]; scan bounds are known to match the index arity.
enum Op<'p> {
    Collection(&'p [Row]),
    IndexScan { tree: usize, lo: &'p [BoundExpr], hi: &'p [BoundExpr] },
    NestedLoops { outer: Box<Op<'p>>, inner: Box<Op<'p>> },
    UnionAll(Vec<Op<'p>>),
    Filter { input: Box<Op<'p>>, pred: &'p Predicate },
    Project { input: Box<Op<'p>>, cols: &'p [usize] },
    TableScan(usize),
}

struct ExecCtx<'p> {
    db: &'p Database,
    /// Each distinct `(table, index)` of the plan, opened once.
    trees: Vec<(&'p str, &'p str, BTree)>,
    heaps: Vec<(&'p str, Heap)>,
    // Cells: a nested-loops sink evaluates its inner plan while the
    // outer's evaluation is still on the stack.
    rows_examined: Cell<u64>,
    index_searches: Cell<u64>,
}

impl<'p> ExecCtx<'p> {
    fn prepare(&mut self, plan: &'p Plan) -> Result<Op<'p>> {
        Ok(match plan {
            Plan::CollectionIterator { rows, .. } => Op::Collection(rows),
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
                Op::IndexScan { tree, lo, hi }
            }
            Plan::TableScan { table } => {
                let known = self.heaps.iter().position(|(t, _)| t == table);
                Op::TableScan(match known {
                    Some(heap) => heap,
                    None => {
                        let meta = self.db.table_meta(table)?;
                        let heap = Heap::open(Arc::clone(self.db.pool()), meta.heap_meta)?;
                        self.heaps.push((table, heap));
                        self.heaps.len() - 1
                    }
                })
            }
            Plan::NestedLoops { outer, inner } => Op::NestedLoops {
                outer: Box::new(self.prepare(outer)?),
                inner: Box::new(self.prepare(inner)?),
            },
            Plan::UnionAll(inputs) => {
                Op::UnionAll(inputs.iter().map(|p| self.prepare(p)).collect::<Result<_>>()?)
            }
            Plan::Filter { input, pred } => {
                Op::Filter { input: Box::new(self.prepare(input)?), pred }
            }
            Plan::Project { input, cols } => {
                Op::Project { input: Box::new(self.prepare(input)?), cols }
            }
        })
    }

    fn examined(&self, rows: u64) {
        self.rows_examined.set(self.rows_examined.get() + rows);
    }

    /// Pushes every row `op` produces into `sink`, in order.  `bind` is
    /// the current outer row of the enclosing nested-loops join.
    fn eval(&self, op: &Op<'_>, bind: Option<&[i64]>, sink: &mut dyn FnMut(&[i64])) -> Result<()> {
        match op {
            Op::Collection(rows) => {
                self.examined(rows.len() as u64);
                rows.iter().for_each(|row| sink(row));
                Ok(())
            }
            Op::IndexScan { tree, lo, hi } => {
                let arity = lo.len();
                let (mut lo_vals, mut hi_vals) = ([0i64; MAX_ARITY], [0i64; MAX_ARITY]);
                for c in 0..arity {
                    lo_vals[c] = lo[c].eval(bind)?;
                    hi_vals[c] = hi[c].eval(bind)?;
                }
                self.index_searches.set(self.index_searches.get() + 1);
                // Output row: the key columns, then the row id payload.
                let mut row = [0i64; MAX_ARITY + 1];
                let mut examined = 0;
                let scan = self.trees[*tree].2.scan_range(&lo_vals[..arity], &hi_vals[..arity]);
                let scanned = scan.visit(|entry| {
                    row[..arity].copy_from_slice(entry.key.as_slice());
                    row[arity] = entry.payload as i64;
                    examined += 1;
                    sink(&row[..=arity]);
                });
                self.examined(examined);
                scanned
            }
            Op::NestedLoops { outer, inner } => {
                // The sink cannot return an error: remember the first one
                // and let the remaining outer rows pass.
                let mut joined = Ok(());
                self.eval(outer, bind, &mut |outer_row| {
                    if joined.is_ok() {
                        joined = self.eval(inner, Some(outer_row), sink);
                    }
                })?;
                joined
            }
            Op::UnionAll(inputs) => inputs.iter().try_for_each(|op| self.eval(op, bind, sink)),
            Op::Filter { input, pred } => self.eval(input, bind, &mut |row| {
                if pred.matches(row) {
                    sink(row);
                }
            }),
            Op::Project { input, cols } => {
                let mut projected = Vec::with_capacity(cols.len());
                self.eval(input, bind, &mut |row| {
                    projected.clear();
                    projected.extend(cols.iter().map(|&c| row[c]));
                    sink(&projected);
                })
            }
            Op::TableScan(heap) => {
                let rows = self.heaps[*heap].1.scan()?;
                self.examined(rows.len() as u64);
                rows.iter().for_each(|(_, row)| sink(row));
                Ok(())
            }
        }
    }
}

impl Database {
    /// Executes a physical plan, pushing each result row into `sink` as a
    /// borrowed slice (valid for the duration of the call) and
    /// accumulating counters into `stats`.  Nothing is materialized and
    /// nothing allocated per row — see the module docs.  `sink` may read
    /// from this database; it runs with no lock or latch held.
    pub fn execute_with(
        &self,
        plan: &Plan,
        stats: &mut ExecStats,
        sink: &mut dyn FnMut(&[i64]),
    ) -> Result<()> {
        let mut ctx = ExecCtx {
            db: self,
            trees: Vec::new(),
            heaps: Vec::new(),
            rows_examined: Cell::new(0),
            index_searches: Cell::new(0),
        };
        let op = ctx.prepare(plan)?;
        let mut result_rows = 0;
        let done = ctx.eval(&op, None, &mut |row| {
            result_rows += 1;
            sink(row);
        });
        stats.rows_examined += ctx.rows_examined.get();
        stats.index_searches += ctx.index_searches.get();
        done?;
        stats.result_rows += result_rows;
        Ok(())
    }

    /// [`Database::execute_with`] collecting the result into owned rows.
    pub fn execute(&self, plan: &Plan, stats: &mut ExecStats) -> Result<Vec<Row>> {
        let mut rows = Vec::new();
        self.execute_with(plan, stats, &mut |row| rows.push(Row::from(row)))?;
        Ok(rows)
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
        })
        .unwrap();
        db.create_index("T", IndexDef { name: "KV".into(), key_cols: vec![0, 1] }).unwrap();
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

    #[test]
    fn filter_and_project() {
        let db = setup();
        let plan = Plan::Project {
            input: Box::new(Plan::Filter {
                input: Box::new(Plan::TableScan { table: "T".into() }),
                pred: Predicate::And(vec![
                    Predicate::CmpConst { col: 1, op: CmpOp::Ge, value: 95 },
                    Predicate::CmpConst { col: 1, op: CmpOp::Lt, value: 98 },
                ]),
            }),
            cols: vec![2],
        };
        let mut stats = ExecStats::default();
        let rows = db.execute(&plan, &mut stats).unwrap();
        assert_eq!(rows, vec![vec![1095], vec![1096], vec![1097]]);
        assert_eq!(stats.rows_examined, 100, "full scan examines every row");
    }

    #[test]
    fn or_predicate() {
        let p = Predicate::Or(vec![
            Predicate::CmpConst { col: 0, op: CmpOp::Eq, value: 1 },
            Predicate::CmpConst { col: 0, op: CmpOp::Eq, value: 2 },
        ]);
        assert!(p.matches(&[1]));
        assert!(p.matches(&[2]));
        assert!(!p.matches(&[3]));
        assert!(Predicate::True.matches(&[]));
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

//! Interval-Spatial Transformation (IST) of Goh et al. [GLOT 96].
//!
//! "Aside from quantization aspects, the D-ordering is equivalent to a
//! composite index on the interval bounds (upper, lower), and the
//! V-ordering corresponds to an index on (lower, upper)" (paper
//! Section 2.3); "the H-ordering simulates an index on
//! (upper − lower, lower), thus particularly supporting queries referring
//! to the interval length".  All three orderings are implemented; the
//! evaluation benchmarks the D-order variant and its Figure 11 query:
//!
//! ```sql
//! SELECT id FROM Intervals i
//! WHERE (i.upper >= :lower AND i.lower <= :upper);
//! ```
//!
//! On a `(upper, lower)` index this is one range scan over all entries with
//! `upper >= :lower`, filtering on `lower` — which is why the method
//! degenerates to O(n/b) when the query point is far from the upper end of
//! the data space (reproduced in Figure 17).  The H-ordering cannot narrow
//! intersection queries at all (full scan).

use ri_pagestore::Result;
use ri_relstore::exec::CmpOp;
use ri_relstore::{
    BoundExpr, Database, ExecStats, IndexDef, IntervalAccessMethod, Plan, Predicate, TableDef,
};
use std::sync::Arc;

/// Which space-filling ordering backs the index.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IstOrder {
    /// Composite index `(upper, lower)`: the paper's benchmarked variant.
    D,
    /// Composite index `(lower, upper)`.
    V,
    /// Composite index `(upper − lower, lower)`: length-first.
    H,
}

/// The IST access method: one composite index over the interval bounds.
pub struct Ist {
    db: Arc<Database>,
    order: IstOrder,
    table_name: String,
    index_name: String,
    table: ri_relstore::Table,
}

impl IstOrder {
    /// Table columns for this ordering (H carries a materialized length).
    fn columns(self) -> Vec<String> {
        let mut cols = vec!["lower".to_string(), "upper".to_string(), "id".to_string()];
        if self == IstOrder::H {
            cols.push("len".to_string());
        }
        cols
    }

    /// Index key columns over [`IstOrder::columns`]: each leaves out at
    /// most one column (H's `upper`), so the index is the table.
    fn key_cols(self) -> Vec<usize> {
        match self {
            IstOrder::D => vec![1, 0, 2], // (upper, lower, id)
            IstOrder::V => vec![0, 1, 2], // (lower, upper, id)
            IstOrder::H => vec![3, 0, 2], // (len, lower, id)
        }
    }

    fn row(self, lower: i64, upper: i64, id: i64) -> Vec<i64> {
        match self {
            IstOrder::H => vec![lower, upper, id, upper - lower],
            _ => vec![lower, upper, id],
        }
    }
}

impl Ist {
    /// Creates the table, which is its single composite index.
    pub fn create(db: Arc<Database>, name: &str, order: IstOrder) -> Result<Ist> {
        let table_name = format!("IST_{name}");
        let index_name = format!("IST_{name}_IDX");
        db.create_table(TableDef {
            name: table_name.clone(),
            columns: order.columns(),
            indexes: vec![IndexDef { name: index_name.clone(), key_cols: order.key_cols() }],
        })?;
        let table = db.table(&table_name)?;
        Ok(Ist { db, order, table_name, index_name, table })
    }

    /// Bulk path: builds the index bottom-up from all its rows, sorted —
    /// giving the "good clustering properties of the bulk loaded indexes"
    /// the paper grants the competitors (Section 6.3).
    pub fn build_bulk(
        db: Arc<Database>,
        name: &str,
        order: IstOrder,
        data: &[(i64, i64)],
    ) -> Result<Ist> {
        let ist = Ist::create(db, name, order)?;
        let rows: Vec<Vec<i64>> =
            data.iter().enumerate().map(|(id, &(l, u))| order.row(l, u, id as i64)).collect();
        ist.table.bulk_insert(&rows)?;
        Ok(ist)
    }

    /// The intersection query (Figure 11) as a physical plan.
    ///
    /// Index scan output rows are (first key col, second key col, id,
    /// payload: H's `upper`, else 0); the residual filter references them
    /// positionally.
    pub fn intersection_plan(&self, ql: i64, qu: i64) -> Plan {
        let full_scan_from = |lo0: BoundExpr| Plan::IndexRangeScan {
            table: self.table_name.clone(),
            index: self.index_name.clone(),
            lo: vec![lo0, BoundExpr::NegInf, BoundExpr::NegInf],
            hi: vec![BoundExpr::PosInf, BoundExpr::PosInf, BoundExpr::PosInf],
        };
        let (scan, filter) = match self.order {
            IstOrder::D => (
                // upper >= :lower — one contiguous range to the index end.
                full_scan_from(BoundExpr::Const(ql)),
                // ... AND lower <= :upper.
                Predicate::CmpConst { col: 1, op: CmpOp::Le, value: qu },
            ),
            IstOrder::V => (
                // lower <= :upper — range from the index start.
                Plan::IndexRangeScan {
                    table: self.table_name.clone(),
                    index: self.index_name.clone(),
                    lo: vec![BoundExpr::NegInf, BoundExpr::NegInf, BoundExpr::NegInf],
                    hi: vec![BoundExpr::Const(qu), BoundExpr::PosInf, BoundExpr::PosInf],
                },
                // ... AND upper >= :lower.
                Predicate::CmpConst { col: 1, op: CmpOp::Ge, value: ql },
            ),
            IstOrder::H => (
                // Length-first index: no bound helps an intersection query —
                // the whole index is scanned (the worst case of Section 2.3).
                full_scan_from(BoundExpr::NegInf),
                Predicate::And(vec![
                    // lower <= :upper
                    Predicate::CmpConst { col: 1, op: CmpOp::Le, value: qu },
                    // len + lower (= upper) >= :lower
                    Predicate::CmpSum { a: 0, b: 1, op: CmpOp::Ge, value: ql },
                ]),
            ),
        };
        Plan::Filter { input: Box::new(scan), pred: filter }
    }

    /// Intersection query returning executor statistics.
    pub fn intersection_with_stats(&self, ql: i64, qu: i64) -> Result<(Vec<i64>, ExecStats)> {
        let plan = self.intersection_plan(ql, qu);
        let mut stats = ExecStats::default();
        let rows = self.db.execute(&plan, &mut stats)?;
        let mut ids: Vec<i64> = rows.iter().map(|r| r[2]).collect();
        ids.sort_unstable();
        Ok((ids, stats))
    }
}

impl IntervalAccessMethod for Ist {
    fn method_name(&self) -> &'static str {
        match self.order {
            IstOrder::D => "IST(D)",
            IstOrder::V => "IST(V)",
            IstOrder::H => "IST(H)",
        }
    }

    fn am_insert(&self, lower: i64, upper: i64, id: i64) -> Result<()> {
        self.table.insert(&self.order.row(lower, upper, id))
    }

    fn am_delete(&self, lower: i64, upper: i64, id: i64) -> Result<bool> {
        self.table.delete_row(&self.order.row(lower, upper, id))
    }

    fn am_intersection_with_stats(&self, lower: i64, upper: i64) -> Result<(Vec<i64>, ExecStats)> {
        self.intersection_with_stats(lower, upper)
    }

    fn am_index_entries(&self) -> Result<u64> {
        self.table.index(&self.index_name)?.entry_count()
    }

    fn am_count(&self) -> Result<u64> {
        self.table.row_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_mem::NaiveIntervalSet;
    use ri_pagestore::{BufferPool, BufferPoolConfig, MemDisk, DEFAULT_PAGE_SIZE};

    fn fresh(order: IstOrder) -> Ist {
        let pool = Arc::new(BufferPool::new(
            MemDisk::new(DEFAULT_PAGE_SIZE),
            BufferPoolConfig::with_capacity(200),
        ));
        let db = Arc::new(Database::create(pool).unwrap());
        Ist::create(db, "t", order).unwrap()
    }

    fn check_against_naive(ist: &Ist) {
        let mut naive = NaiveIntervalSet::new();
        let mut x = 0x1234_5678u64;
        for id in 0..500i64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let l = (x % 8000) as i64;
            let len = ((x >> 35) % 400) as i64;
            ist.am_insert(l, l + len, id).unwrap();
            naive.insert(l, l + len, id);
        }
        for q in [(0, 9000), (100, 120), (4000, 4000), (7900, 8500)] {
            assert_eq!(ist.am_intersection(q.0, q.1).unwrap(), naive.intersection(q.0, q.1));
        }
    }

    #[test]
    fn d_order_matches_naive() {
        check_against_naive(&fresh(IstOrder::D));
    }

    #[test]
    fn v_order_matches_naive() {
        check_against_naive(&fresh(IstOrder::V));
    }

    #[test]
    fn h_order_matches_naive() {
        check_against_naive(&fresh(IstOrder::H));
    }

    #[test]
    fn no_redundancy_one_entry_per_interval() {
        let ist = fresh(IstOrder::D);
        for i in 0..100 {
            ist.am_insert(i, i + 50, i).unwrap();
        }
        assert_eq!(ist.am_index_entries().unwrap(), 100);
    }

    /// An `(interval, id)` the index holds is refused with nothing
    /// written; a delete removes it once, and finds nothing the second
    /// time.
    #[test]
    fn delete_exact_entry_every_order() {
        for order in [IstOrder::D, IstOrder::V, IstOrder::H] {
            let ist = fresh(order);
            ist.am_insert(1, 5, 10).unwrap();
            ist.am_insert(1, 5, 11).unwrap();
            let writes = ist.db.pool().stats().snapshot().logical_writes;
            let again = ist.am_insert(1, 5, 10);
            assert!(matches!(again, Err(ri_pagestore::Error::InvalidArgument(_))), "{again:?}");
            assert_eq!(ist.db.pool().stats().snapshot().logical_writes, writes, "{order:?}");
            assert_eq!(ist.am_count().unwrap(), 2, "{order:?}");
            assert!(ist.am_delete(1, 5, 10).unwrap(), "{order:?}");
            assert!(!ist.am_delete(1, 5, 10).unwrap(), "{order:?}");
            assert_eq!(ist.am_intersection(0, 10).unwrap(), vec![11], "{order:?}");
        }
    }

    #[test]
    fn bulk_build_equals_dynamic() {
        let data: Vec<(i64, i64)> = (0..300).map(|i| (i * 11 % 997, i * 11 % 997 + 30)).collect();
        for order in [IstOrder::D, IstOrder::V, IstOrder::H] {
            let pool = Arc::new(BufferPool::new(
                MemDisk::new(DEFAULT_PAGE_SIZE),
                BufferPoolConfig::with_capacity(200),
            ));
            let db = Arc::new(Database::create(pool).unwrap());
            let bulk = Ist::build_bulk(db, "b", order, &data).unwrap();
            crate::tests::assert_only_indexes(&bulk.db, &bulk.table_name, &[&bulk.index_name]);
            let dynamic = fresh(order);
            for (id, &(l, u)) in data.iter().enumerate() {
                dynamic.am_insert(l, u, id as i64).unwrap();
            }
            for q in [(0, 2000), (500, 510)] {
                assert_eq!(
                    bulk.am_intersection(q.0, q.1).unwrap(),
                    dynamic.am_intersection(q.0, q.1).unwrap(),
                    "{order:?}"
                );
            }
        }
    }

    #[test]
    fn wrong_bound_scan_cost_asymmetry() {
        // The Section 2.3 argument: a D-order index answers queries near
        // the top of the data space cheaply but scans almost everything for
        // queries near the bottom.
        let ist = fresh(IstOrder::D);
        for i in 0..2000i64 {
            ist.am_insert(i * 4, i * 4 + 10, i).unwrap();
        }
        let (_, near_top) = ist.intersection_with_stats(7990, 7995).unwrap();
        let (_, near_bottom) = ist.intersection_with_stats(5, 10).unwrap();
        assert!(
            near_bottom.rows_examined > 10 * near_top.rows_examined.max(1),
            "expected wrong-bound degeneration: top {} vs bottom {}",
            near_top.rows_examined,
            near_bottom.rows_examined
        );
    }
}

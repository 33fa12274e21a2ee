//! MAP21 of Nascimento & Dunham [ND 99].
//!
//! MAP21 maps an interval to the single value `lower · 10^z + upper` kept
//! in a plain B+-tree — equivalent to a composite `(lower, upper)` index,
//! as the paper notes ("behaves very similar to the IST while the composite
//! index (lower, upper) is implemented by a single-column index") — and
//! adds a **static partitioning by interval length**: each partition `j`
//! holds intervals with `length < 2^(j+1)`, so an intersection query only
//! scans `lower ∈ [ql − maxlen_j, qu]` per partition instead of the whole
//! prefix of the index.
//!
//! With many long intervals the widest partitions still degenerate towards
//! O(n/b), the weakness the RI-tree paper points out in Section 2.3.

use ri_pagestore::Result;
use ri_relstore::exec::CmpOp;
use ri_relstore::{
    BoundExpr, Database, ExecStats, IndexDef, IntervalAccessMethod, Plan, Predicate, TableDef,
};
use std::sync::Arc;

/// Number of length partitions (lengths up to 2^21 − 2 in the paper's
/// 2^20-wide domain).
const PARTITIONS: u32 = 22;

/// The MAP21 access method.
pub struct Map21 {
    db: Arc<Database>,
    name: String,
    table_name: String,
    index_name: String,
    table: ri_relstore::Table,
}

/// Length partition of an interval: `floor(log2(length + 1))`.
fn partition_of(lower: i64, upper: i64) -> i64 {
    let len = upper - lower;
    (63 - (len + 1).leading_zeros()) as i64
}

/// Largest length a partition can hold: `2^(j+1) − 2`.
fn max_len(partition: i64) -> i64 {
    (1i64 << (partition + 1)) - 2
}

impl Map21 {
    /// Creates the partitioned schema: one index keyed on every column,
    /// which is the table.
    pub fn create(db: Arc<Database>, name: &str) -> Result<Map21> {
        let table_name = format!("M21_{name}");
        let index_name = format!("M21_{name}_IDX");
        db.create_table(TableDef {
            name: table_name.clone(),
            columns: vec!["part".into(), "lower".into(), "upper".into(), "id".into()],
            indexes: vec![IndexDef { name: index_name.clone(), key_cols: vec![0, 1, 2, 3] }],
        })?;
        let table = db.table(&table_name)?;
        Ok(Map21 { db, name: name.to_string(), table_name, index_name, table })
    }

    fn parts_mask_key(&self) -> String {
        format!("M21_{}.parts", self.name)
    }

    /// Bitmask of non-empty partitions (kept in the data dictionary so
    /// queries skip empty partitions without probing them).
    fn parts_mask(&self) -> i64 {
        self.db.get_param(&self.parts_mask_key()).unwrap_or(0)
    }

    /// Per-partition query plans for an intersection query.
    fn intersection_plans(&self, ql: i64, qu: i64) -> Vec<Plan> {
        let mask = self.parts_mask();
        (0..PARTITIONS as i64)
            .filter(|j| mask & (1 << j) != 0)
            .map(|j| {
                // lower ∈ [ql − maxlen_j, qu] is a superset of the
                // intersecting intervals in partition j; filter on upper.
                Plan::Filter {
                    input: Box::new(Plan::IndexRangeScan {
                        table: self.table_name.clone(),
                        index: self.index_name.clone(),
                        lo: vec![
                            BoundExpr::Const(j),
                            BoundExpr::Const(ql.saturating_sub(max_len(j))),
                            BoundExpr::NegInf,
                            BoundExpr::NegInf,
                        ],
                        hi: vec![
                            BoundExpr::Const(j),
                            BoundExpr::Const(qu),
                            BoundExpr::PosInf,
                            BoundExpr::PosInf,
                        ],
                    }),
                    pred: Predicate::CmpConst { col: 2, op: CmpOp::Ge, value: ql },
                }
            })
            .collect()
    }

    /// Intersection with executor statistics.
    pub fn intersection_with_stats(&self, ql: i64, qu: i64) -> Result<(Vec<i64>, ExecStats)> {
        let plan = Plan::UnionAll(self.intersection_plans(ql, qu));
        let mut stats = ExecStats::default();
        let rows = self.db.execute(&plan, &mut stats)?;
        let mut ids: Vec<i64> = rows.iter().map(|r| r[3]).collect();
        ids.sort_unstable();
        Ok((ids, stats))
    }
}

impl IntervalAccessMethod for Map21 {
    fn method_name(&self) -> &'static str {
        "MAP21"
    }

    fn am_insert(&self, lower: i64, upper: i64, id: i64) -> Result<()> {
        let j = partition_of(lower, upper);
        self.table.insert(&[j, lower, upper, id])?;
        let mask = self.parts_mask();
        if mask & (1 << j) == 0 {
            self.db.set_param(&self.parts_mask_key(), mask | (1 << j))?;
        }
        Ok(())
    }

    fn am_delete(&self, lower: i64, upper: i64, id: i64) -> Result<bool> {
        self.table.delete_row(&[partition_of(lower, upper), lower, upper, id])
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

    fn fresh() -> Map21 {
        let pool = Arc::new(BufferPool::new(
            MemDisk::new(DEFAULT_PAGE_SIZE),
            BufferPoolConfig::with_capacity(200),
        ));
        let db = Arc::new(Database::create(pool).unwrap());
        Map21::create(db, "t").unwrap()
    }

    #[test]
    fn partition_math() {
        assert_eq!(partition_of(5, 5), 0); // length 0
        assert_eq!(partition_of(0, 1), 1); // length 1
        assert_eq!(partition_of(0, 2), 1); // length 2
        assert_eq!(partition_of(0, 6), 2); // length 6 < 2^3 - 1
        assert!(max_len(1) >= 2);
        for j in 0..20 {
            // Every length in partition j is <= max_len(j).
            assert!(max_len(j) >= (1 << j) - 1);
        }
    }

    #[test]
    fn matches_naive() {
        let m = fresh();
        let mut naive = NaiveIntervalSet::new();
        let mut x = 0xFEDCBAu64;
        for id in 0..500i64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let l = (x % 10_000) as i64;
            let len = ((x >> 32) % 1500) as i64;
            m.am_insert(l, l + len, id).unwrap();
            naive.insert(l, l + len, id);
        }
        for q in [(0, 12_000), (5000, 5100), (777, 777), (11_000, 20_000)] {
            assert_eq!(m.am_intersection(q.0, q.1).unwrap(), naive.intersection(q.0, q.1));
        }
    }

    #[test]
    fn only_nonempty_partitions_are_probed() {
        let m = fresh();
        for i in 0..50 {
            m.am_insert(i * 10, i * 10 + 5, i).unwrap(); // all partition 2
        }
        let plans = m.intersection_plans(0, 1000);
        assert_eq!(plans.len(), 1, "one non-empty partition expected");
    }

    #[test]
    fn long_intervals_widen_the_scan() {
        let m = fresh();
        // Long intervals: the partition's maxlen forces wide scans even for
        // point queries — the degeneration the paper describes.
        for i in 0..200i64 {
            m.am_insert(i * 100, i * 100 + 60_000, i).unwrap();
        }
        let (ids, stats) = m.intersection_with_stats(10_000, 10_000).unwrap();
        assert!(!ids.is_empty());
        assert!(
            stats.rows_examined as usize >= ids.len(),
            "wide partition scan examines extra rows"
        );
    }

    #[test]
    fn delete_exact() {
        let m = fresh();
        m.am_insert(10, 30, 1).unwrap();
        m.am_insert(10, 30, 2).unwrap();
        assert!(m.am_delete(10, 30, 1).unwrap());
        assert!(!m.am_delete(10, 30, 1).unwrap());
        assert_eq!(m.am_intersection(0, 100).unwrap(), vec![2]);
    }
}

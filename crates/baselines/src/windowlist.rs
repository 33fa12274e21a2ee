//! A static Window-List in the spirit of Ramaswamy [Ram 97].
//!
//! The paper compares against the Window-List as the only other *relational*
//! structure with optimal static bounds (O(n/b) space, O(log_b n + r/b)
//! stabbing queries) and reports a single observation: "queries on
//! Window-Lists produced twice as many I/O operations than on the dynamic
//! RI-tree" (Section 6.1), after which the static structure is dropped from
//! the evaluation.
//!
//! **Substitution note** (see DESIGN.md): Ramaswamy's original windowing
//! construction is not fully specified in the VLDB paper's citation; we
//! implement the classic checkpointed sweep realization with the same
//! asymptotics: the sorted start-point sequence is cut into *windows*, each
//! window stores (a) a snapshot of all intervals alive at its start and
//! (b) the intervals starting inside it.  With the window width chosen so
//! snapshots and starts balance, total space is ≈ 2n rows — which is
//! precisely why its queries cost about twice the I/O of the
//! redundancy-free RI-tree, reproducing the paper's remark.
//!
//! A stabbing query locates the window of the query point (in-memory
//! directory), scans entries with `lower <= q` in that window and filters
//! on `upper >= q`; an interval query adds a range scan of the start-point
//! index over `(ql, qu]`.  Updates are unsupported: the structure is
//! static, which is exactly the paper's complaint about it.

use ri_pagestore::{Error, Result};
use ri_relstore::exec::CmpOp;
use ri_relstore::{
    BoundExpr, Database, ExecStats, IndexDef, IntervalAccessMethod, Plan, Predicate, TableDef,
};
use std::sync::Arc;

/// The static Window-List access method.
pub struct WindowList {
    db: Arc<Database>,
    table_name: String,
    window_index: String,
    start_index: String,
    /// Window start positions, ascending (the in-memory directory).
    boundaries: Vec<i64>,
    /// Stored intervals (not rows; rows include snapshot copies).
    n: u64,
}

impl WindowList {
    /// Builds the static structure from `(lower, upper)` pairs; interval
    /// `i` receives id `i`.
    pub fn build(db: Arc<Database>, name: &str, data: &[(i64, i64)]) -> Result<WindowList> {
        let table_name = format!("WL_{name}");
        let window_index = format!("WL_{name}_WIN");
        let start_index = format!("WL_{name}_START");
        // Both indexes cover the table: `WIN` holds every column, `START`
        // every column but `wkey`, its payload.
        db.create_table(TableDef {
            name: table_name.clone(),
            columns: vec!["wkey".into(), "lower".into(), "upper".into(), "id".into()],
            indexes: vec![
                IndexDef { name: window_index.clone(), key_cols: vec![0, 1, 2, 3] },
                IndexDef { name: start_index.clone(), key_cols: vec![1, 2, 3] },
            ],
        })?;

        let mut sorted: Vec<(i64, i64, i64)> =
            data.iter().enumerate().map(|(id, &(l, u))| (l, u, id as i64)).collect();
        sorted.sort_unstable();

        // Window width: balance snapshot size against starts per window.
        // Mean concurrency (alive intervals) ≈ n · mean_len / span; using
        // that as the starts-per-window count K makes snapshots ≈ starts,
        // i.e. total space ≈ 2n.
        let mut boundaries = Vec::new();
        let mut rows: Vec<[i64; 4]> = Vec::new();
        if !sorted.is_empty() {
            let span = (sorted.last().unwrap().0 - sorted[0].0).max(1);
            let total_len: i64 = sorted.iter().map(|&(l, u, _)| u - l).sum();
            let concurrency = (total_len / span).max(1) as usize;
            let k = concurrency.clamp(16, 4096);
            // Primary copies + per-window snapshots.
            let mut active: Vec<(i64, i64, i64)> = Vec::new(); // (upper, lower, id)
            for (i, &(l, u, id)) in sorted.iter().enumerate() {
                if i % k == 0 {
                    // New window starting at this interval's lower bound.
                    boundaries.push(l);
                    active.retain(|&(au, _, _)| au >= l);
                    let w = boundaries.len() as i64 - 1;
                    // Snapshot copies.
                    rows.extend(active.iter().map(|&(au, al, aid)| [w, al, au, aid]));
                }
                let w = boundaries.len() as i64 - 1;
                rows.push([w, l, u, id]); // primary copy
                active.push((u, l, id));
            }
        }
        db.table(&table_name)?.bulk_insert(&rows)?;
        Ok(WindowList {
            db,
            table_name,
            window_index,
            start_index,
            boundaries,
            n: data.len() as u64,
        })
    }

    /// Window containing `q`: the last boundary `<= q`, if any.
    fn window_of(&self, q: i64) -> Option<i64> {
        match self.boundaries.partition_point(|&b| b <= q) {
            0 => None,
            i => Some(i as i64 - 1),
        }
    }

    /// Rows stored per interval (≈ 2 by construction).
    pub fn duplication_factor(&self) -> Result<f64> {
        let rows = self.db.table(&self.table_name)?.row_count()? as f64;
        Ok(if self.n == 0 { 1.0 } else { rows / self.n as f64 })
    }

    /// Intersection query with executor statistics; ids deduplicated.
    pub fn intersection_with_stats(&self, ql: i64, qu: i64) -> Result<(Vec<i64>, ExecStats)> {
        let mut branches = Vec::new();
        if let Some(w) = self.window_of(ql) {
            // Stab branch: intervals with lower <= ql alive at ql, found in
            // ql's window (snapshot + in-window starts).
            branches.push(Plan::Filter {
                input: Box::new(Plan::IndexRangeScan {
                    table: self.table_name.clone(),
                    index: self.window_index.clone(),
                    lo: vec![
                        BoundExpr::Const(w),
                        BoundExpr::NegInf,
                        BoundExpr::NegInf,
                        BoundExpr::NegInf,
                    ],
                    hi: vec![
                        BoundExpr::Const(w),
                        BoundExpr::Const(ql),
                        BoundExpr::PosInf,
                        BoundExpr::PosInf,
                    ],
                }),
                pred: Predicate::CmpConst { col: 2, op: CmpOp::Ge, value: ql },
            });
        }
        if qu > ql {
            // Range branch: intervals starting inside (ql, qu].  Output
            // columns (lower, upper, id, wkey): pad to the stab branch's
            // five, id at col 3.
            branches.push(Plan::Project {
                input: Box::new(Plan::IndexRangeScan {
                    table: self.table_name.clone(),
                    index: self.start_index.clone(),
                    lo: vec![BoundExpr::Const(ql + 1), BoundExpr::NegInf, BoundExpr::NegInf],
                    hi: vec![BoundExpr::Const(qu), BoundExpr::PosInf, BoundExpr::PosInf],
                }),
                cols: vec![0, 0, 1, 2, 3],
            });
        }
        let plan = Plan::UnionAll(branches);
        let mut stats = ExecStats::default();
        let rows = self.db.execute(&plan, &mut stats)?;
        let mut ids: Vec<i64> = rows.iter().map(|r| r[3]).collect();
        ids.sort_unstable();
        ids.dedup(); // snapshot copies duplicate ids across branches/windows
        Ok((ids, stats))
    }
}

impl IntervalAccessMethod for WindowList {
    fn method_name(&self) -> &'static str {
        "Window-List"
    }

    fn am_insert(&self, _lower: i64, _upper: i64, _id: i64) -> Result<()> {
        // "The Window-List technique is a static solution ... updates do
        // not seem to have non-trivial upper bounds" (Section 2.3).
        Err(Error::InvalidArgument("Window-List is static: rebuild to add intervals".into()))
    }

    fn am_delete(&self, _lower: i64, _upper: i64, _id: i64) -> Result<bool> {
        Err(Error::InvalidArgument("Window-List is static: rebuild to remove intervals".into()))
    }

    fn am_intersection_with_stats(&self, lower: i64, upper: i64) -> Result<(Vec<i64>, ExecStats)> {
        self.intersection_with_stats(lower, upper)
    }

    fn am_index_entries(&self) -> Result<u64> {
        self.db.table(&self.table_name)?.index(&self.window_index)?.entry_count()
    }

    fn am_count(&self) -> Result<u64> {
        Ok(self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_mem::NaiveIntervalSet;
    use ri_pagestore::{BufferPool, BufferPoolConfig, MemDisk, DEFAULT_PAGE_SIZE};

    fn build(data: &[(i64, i64)]) -> WindowList {
        let pool = Arc::new(BufferPool::new(
            MemDisk::new(DEFAULT_PAGE_SIZE),
            BufferPoolConfig::with_capacity(200),
        ));
        let db = Arc::new(Database::create(pool).unwrap());
        WindowList::build(db, "t", data).unwrap()
    }

    fn pseudo_data(n: usize, seed: u64, max_len: u64) -> Vec<(i64, i64)> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let l = (x % 50_000) as i64;
                let len = ((x >> 33) % max_len.max(1)) as i64;
                (l, l + len)
            })
            .collect()
    }

    #[test]
    fn empty_structure() {
        let wl = build(&[]);
        assert_eq!(wl.am_intersection(0, 100).unwrap(), Vec::<i64>::new());
    }

    #[test]
    fn matches_naive() {
        let data = pseudo_data(3000, 0x5151, 3000);
        let wl = build(&data);
        let naive = NaiveIntervalSet::from_triples(
            data.iter().enumerate().map(|(id, &(l, u))| (l, u, id as i64)),
        );
        for q in [(0i64, 60_000i64), (25_000, 25_000), (10_000, 11_000), (49_999, 80_000), (-10, 5)]
        {
            assert_eq!(
                wl.am_intersection(q.0, q.1).unwrap(),
                naive.intersection(q.0, q.1),
                "{q:?}"
            );
        }
    }

    #[test]
    fn duplication_factor_is_bounded() {
        let data = pseudo_data(5000, 0xBEEF, 4000);
        let wl = build(&data);
        let indexes = [wl.window_index.as_str(), wl.start_index.as_str()];
        crate::tests::assert_only_indexes(&wl.db, &wl.table_name, &indexes);
        let f = wl.duplication_factor().unwrap();
        assert!((1.0..4.0).contains(&f), "duplication factor {f} outside the ~2x design target");
    }

    #[test]
    fn static_structure_rejects_updates() {
        let wl = build(&[(0, 10)]);
        assert!(wl.am_insert(1, 2, 9).is_err());
        assert!(wl.am_delete(0, 10, 0).is_err());
    }

    #[test]
    fn query_before_first_window() {
        let wl = build(&[(100, 200), (150, 250)]);
        assert_eq!(wl.am_intersection(0, 50).unwrap(), Vec::<i64>::new());
        assert_eq!(wl.am_intersection(0, 120).unwrap(), vec![0]);
    }
}

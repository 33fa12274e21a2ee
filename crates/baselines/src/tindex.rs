//! The Tile Index (T-index) of Oracle8i Spatial [RS 99], re-implemented
//! for one-dimensional data spaces as the paper did for its evaluation:
//! "we have reimplemented the hybrid indexing package for one-dimensional
//! data spaces" (Section 6.1).
//!
//! An interval is decomposed into the **fixed-size tiles** of level `L`
//! (tile width `2^L`) that it overlaps; each tile yields one row carrying
//! the exact bounds (the 1D analogue of the variable-tile refinement).
//! Intersection queries scan the tile range covered by the query via an
//! equijoin-style index range scan, filter on the exact bounds, and
//! eliminate the duplicates caused by the decomposition.
//!
//! The redundancy factor — rows per interval, `1 + length/2^L` on average —
//! is the method's Achilles heel: Figure 12 (storage), Figure 16 (response
//! time vs. interval length) and the fixed-level tuning table all hinge on
//! it.  "Finding a good fixed level for the expected data distribution is
//! crucial"; [`TileIndex::tune_fixed_level`] reproduces the paper's
//! sample-based calibration.

use ri_pagestore::{Error, Result};
use ri_relstore::exec::CmpOp;
use ri_relstore::{
    BoundExpr, Database, ExecStats, IndexDef, IntervalAccessMethod, Plan, Predicate, TableDef,
};
use std::sync::Arc;

/// The T-index access method.
pub struct TileIndex {
    db: Arc<Database>,
    table_name: String,
    index_name: String,
    table: ri_relstore::Table,
    /// Tile width is `2^fixed_level`.
    fixed_level: u32,
}

impl TileIndex {
    /// Creates the schema with the given fixed level (tile width `2^L`).
    pub fn create(db: Arc<Database>, name: &str, fixed_level: u32) -> Result<TileIndex> {
        if fixed_level > 40 {
            return Err(Error::InvalidArgument(format!("fixed level {fixed_level} too large")));
        }
        let table_name = format!("TI_{name}");
        let index_name = format!("TI_{name}_IDX");
        // The covering index, which is the table: one entry per
        // (interval × tile).
        db.create_table(TableDef {
            name: table_name.clone(),
            columns: vec!["tile".into(), "lower".into(), "upper".into(), "id".into()],
            indexes: vec![IndexDef { name: index_name.clone(), key_cols: vec![0, 1, 2, 3] }],
        })?;
        db.set_param(&format!("TI_{name}.fixed_level"), fixed_level as i64)?;
        let table = db.table(&table_name)?;
        Ok(TileIndex { db, table_name, index_name, table, fixed_level })
    }

    /// Bulk path: the index is built bottom-up from all its rows, sorted
    /// (a clustered build).
    pub fn build_bulk(
        db: Arc<Database>,
        name: &str,
        fixed_level: u32,
        data: &[(i64, i64)],
    ) -> Result<TileIndex> {
        let ti = TileIndex::create(db, name, fixed_level)?;
        let rows: Vec<[i64; 4]> =
            data.iter().enumerate().flat_map(|(id, &(l, u))| ti.rows(l, u, id as i64)).collect();
        ti.table.bulk_insert(&rows)?;
        Ok(ti)
    }

    /// The rows of `[lower, upper]` under `id`: one per tile it overlaps.
    fn rows(&self, lower: i64, upper: i64, id: i64) -> impl Iterator<Item = [i64; 4]> {
        (self.tile_of(lower)..=self.tile_of(upper)).map(move |t| [t, lower, upper, id])
    }

    /// Redundancy factor: index entries per stored interval (Figure 12's
    /// headline number; 10.1 for D4(*, 2k) at the tuned level).
    pub fn redundancy(&self) -> Result<f64> {
        let entries = self.am_index_entries()? as f64;
        let n = self.am_count()? as f64;
        Ok(if n == 0.0 { 1.0 } else { entries / n })
    }

    fn tile_of(&self, x: i64) -> i64 {
        x.div_euclid(1i64 << self.fixed_level)
    }

    /// Query plan: one index range scan over the query's tile range plus
    /// the exact-bound filter (duplicates are eliminated by the caller).
    pub fn intersection_plan(&self, ql: i64, qu: i64) -> Plan {
        Plan::Filter {
            input: Box::new(Plan::IndexRangeScan {
                table: self.table_name.clone(),
                index: self.index_name.clone(),
                lo: vec![
                    BoundExpr::Const(self.tile_of(ql)),
                    BoundExpr::NegInf,
                    BoundExpr::NegInf,
                    BoundExpr::NegInf,
                ],
                hi: vec![
                    BoundExpr::Const(self.tile_of(qu)),
                    BoundExpr::PosInf,
                    BoundExpr::PosInf,
                    BoundExpr::PosInf,
                ],
            }),
            pred: Predicate::And(vec![
                Predicate::CmpConst { col: 1, op: CmpOp::Le, value: qu },
                Predicate::CmpConst { col: 2, op: CmpOp::Ge, value: ql },
            ]),
        }
    }

    /// Intersection with executor statistics; ids are deduplicated.
    pub fn intersection_with_stats(&self, ql: i64, qu: i64) -> Result<(Vec<i64>, ExecStats)> {
        let plan = self.intersection_plan(ql, qu);
        let mut stats = ExecStats::default();
        let rows = self.db.execute(&plan, &mut stats)?;
        let mut ids: Vec<i64> = rows.iter().map(|r| r[3]).collect();
        ids.sort_unstable();
        ids.dedup(); // decomposition redundancy
        Ok((ids, stats))
    }

    /// Sample-based tuning of the fixed level (Section 6.1): "we took a
    /// representative sample of 1,000 intervals from each individual data
    /// distribution and determined the optimal setting".
    ///
    /// The sample stands in for a database of `target_n` intervals.  For
    /// each candidate level the estimated per-query cost is
    ///
    /// ```text
    /// density · (mean query length + mean interval length + tile width)
    ///         · redundancy(level)
    /// ```
    ///
    /// i.e. the expected number of index entries one query's tile-range
    /// scan touches: redundancy is measured exactly by decomposing the
    /// sample, the remaining factors are moments of sample and queries.
    /// Returns the level minimizing the estimate.  (Our cost surface is
    /// flatter than Oracle's — we have no per-variable-tile overhead — so
    /// the optimum lands a few levels above the paper's 7–9; the figure
    /// harness pins level 8 to mirror the paper's tuned configuration.)
    pub fn tune_fixed_level(
        sample: &[(i64, i64)],
        queries: &[(i64, i64)],
        levels: std::ops::RangeInclusive<u32>,
        target_n: usize,
    ) -> Result<u32> {
        if sample.is_empty() {
            return Ok(*levels.start());
        }
        let span = (sample.iter().map(|&(_, u)| u).max().unwrap()
            - sample.iter().map(|&(l, _)| l).min().unwrap())
        .max(1) as f64;
        let density = target_n as f64 / span;
        let mean_ilen =
            sample.iter().map(|&(l, u)| (u - l) as f64).sum::<f64>() / sample.len() as f64;
        let mean_qlen = if queries.is_empty() {
            0.0
        } else {
            queries.iter().map(|&(l, u)| (u - l) as f64).sum::<f64>() / queries.len() as f64
        };
        let mut best = (*levels.start(), f64::INFINITY);
        for level in levels {
            let width = (1i64 << level) as f64;
            let redundancy = sample
                .iter()
                .map(|&(l, u)| (u.div_euclid(1 << level) - l.div_euclid(1 << level) + 1) as f64)
                .sum::<f64>()
                / sample.len() as f64;
            let cost = density * (mean_qlen + mean_ilen + width) * redundancy;
            if cost < best.1 {
                best = (level, cost);
            }
        }
        Ok(best.0)
    }
}

impl IntervalAccessMethod for TileIndex {
    fn method_name(&self) -> &'static str {
        "T-index"
    }

    fn am_insert(&self, lower: i64, upper: i64, id: i64) -> Result<()> {
        self.rows(lower, upper, id).try_for_each(|row| self.table.insert(&row))
    }

    fn am_delete(&self, lower: i64, upper: i64, id: i64) -> Result<bool> {
        let mut any = false;
        for row in self.rows(lower, upper, id) {
            any |= self.table.delete_row(&row)?;
        }
        Ok(any)
    }

    fn am_intersection_with_stats(&self, lower: i64, upper: i64) -> Result<(Vec<i64>, ExecStats)> {
        self.intersection_with_stats(lower, upper)
    }

    fn am_index_entries(&self) -> Result<u64> {
        self.table.index(&self.index_name)?.entry_count()
    }

    fn am_count(&self) -> Result<u64> {
        // Rows are per (interval × tile); count distinct intervals via the
        // per-interval first tile: an interval's first tile contains its
        // lower bound, so entries with tile == tile_of(lower) are unique.
        let mut n = 0;
        for e in self.table.index(&self.index_name)?.scan_all() {
            let e = e?;
            let key = e.key.as_slice();
            n += u64::from(key[0] == self.tile_of(key[1]));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_mem::NaiveIntervalSet;
    use ri_pagestore::{BufferPool, BufferPoolConfig, MemDisk, DEFAULT_PAGE_SIZE};

    fn fresh(level: u32) -> TileIndex {
        let pool = Arc::new(BufferPool::new(
            MemDisk::new(DEFAULT_PAGE_SIZE),
            BufferPoolConfig::with_capacity(200),
        ));
        let db = Arc::new(Database::create(pool).unwrap());
        TileIndex::create(db, "t", level).unwrap()
    }

    #[test]
    fn matches_naive_at_various_levels() {
        for level in [4, 8, 12] {
            let ti = fresh(level);
            let mut naive = NaiveIntervalSet::new();
            let mut x = 0x9999u64;
            for id in 0..400i64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let l = (x % 6000) as i64;
                let len = ((x >> 33) % 700) as i64;
                ti.am_insert(l, l + len, id).unwrap();
                naive.insert(l, l + len, id);
            }
            for q in [(0, 7000), (3000, 3010), (100, 100), (6500, 9000)] {
                assert_eq!(
                    ti.am_intersection(q.0, q.1).unwrap(),
                    naive.intersection(q.0, q.1),
                    "level {level}, query {q:?}"
                );
            }
        }
    }

    #[test]
    fn redundancy_grows_as_level_shrinks() {
        let data: Vec<(i64, i64)> = (0..200).map(|i| (i * 50, i * 50 + 2000)).collect();
        let mut last = 0.0f64;
        for level in [12, 10, 8, 6] {
            let ti = fresh(level);
            for (id, &(l, u)) in data.iter().enumerate() {
                ti.am_insert(l, u, id as i64).unwrap();
            }
            let r = ti.redundancy().unwrap();
            assert!(r > last, "redundancy must grow as tiles shrink: {r} after {last}");
            last = r;
        }
        // At level 8 (width 256), 2000-long intervals span ~9 tiles — the
        // magnitude of the paper's 10.1 factor for D4(*, 2k).
        let ti = fresh(8);
        for (id, &(l, u)) in data.iter().enumerate() {
            ti.am_insert(l, u, id as i64).unwrap();
        }
        let r = ti.redundancy().unwrap();
        assert!((7.0..12.0).contains(&r), "redundancy {r} out of expected band");
    }

    #[test]
    fn points_have_no_redundancy() {
        let ti = fresh(8);
        for i in 0..100 {
            ti.am_insert(i * 3, i * 3, i).unwrap();
        }
        assert_eq!(ti.redundancy().unwrap(), 1.0);
        assert_eq!(ti.am_count().unwrap(), 100);
    }

    /// An `(interval, id)` the index holds is refused with nothing
    /// written; a delete removes every tile of it, and finds nothing the
    /// second time.
    #[test]
    fn delete_removes_all_decompositions() {
        let ti = fresh(4); // width 16
        ti.am_insert(0, 100, 1).unwrap(); // spans 7 tiles
        ti.am_insert(50, 60, 2).unwrap();
        let writes = ti.db.pool().stats().snapshot().logical_writes;
        let again = ti.am_insert(0, 100, 1);
        assert!(matches!(again, Err(Error::InvalidArgument(_))), "{again:?}");
        assert_eq!(ti.db.pool().stats().snapshot().logical_writes, writes, "nothing written");
        assert_eq!(ti.am_index_entries().unwrap(), 8);
        assert!(ti.am_delete(0, 100, 1).unwrap());
        assert_eq!(ti.am_intersection(0, 100).unwrap(), vec![2]);
        assert_eq!(ti.am_count().unwrap(), 1);
        assert!(!ti.am_delete(0, 100, 1).unwrap());
    }

    #[test]
    fn tuning_picks_sane_level() {
        // 1000-interval sample with ~2000 mean length, as in the paper.
        let mut x = 0xABCDEFu64;
        let sample: Vec<(i64, i64)> = (0..1000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let l = (x % (1 << 20)) as i64;
                let len = ((x >> 30) % 4000) as i64;
                (l, (l + len).min((1 << 20) - 1))
            })
            .collect();
        let queries: Vec<(i64, i64)> = (0..20)
            .map(|i| {
                let q = i * 50_000;
                (q, q + 5000)
            })
            .collect();
        let best = TileIndex::tune_fixed_level(&sample, &queries, 6..=14, 100_000).unwrap();
        // The paper found 7..9 optimal for d = 2k distributions; our cost
        // surface is flatter (pure entry counts, no per-variable-tile
        // overhead), so accept a wider plausible band.
        assert!((6..=13).contains(&best), "tuned level {best} implausible");
    }

    #[test]
    fn bulk_build_matches_dynamic() {
        let data: Vec<(i64, i64)> = (0..150).map(|i| (i * 37, i * 37 + 500)).collect();
        let pool = Arc::new(BufferPool::new(
            MemDisk::new(DEFAULT_PAGE_SIZE),
            BufferPoolConfig::with_capacity(200),
        ));
        let db = Arc::new(Database::create(pool).unwrap());
        let bulk = TileIndex::build_bulk(db, "b", 8, &data).unwrap();
        crate::tests::assert_only_indexes(&bulk.db, &bulk.table_name, &[&bulk.index_name]);
        let dynamic = fresh(8);
        for (id, &(l, u)) in data.iter().enumerate() {
            dynamic.am_insert(l, u, id as i64).unwrap();
        }
        assert_eq!(
            bulk.am_intersection(0, 10_000).unwrap(),
            dynamic.am_intersection(0, 10_000).unwrap()
        );
        assert_eq!(bulk.am_index_entries().unwrap(), dynamic.am_index_entries().unwrap());
    }
}

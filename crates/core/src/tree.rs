//! The Relational Interval Tree over the relational engine.
//!
//! An [`RiTree`] is exactly the paper's recipe: one relational table
//! `(node, lower, upper, id)` with two composite indexes (Figure 2), the
//! O(1) backbone parameters in the database's data dictionary (Section 5),
//! fork-node maintenance on insert (Figures 5/6), and intersection queries
//! compiled to the two-fold `UNION ALL` plan of Figure 9 / Figure 10.
//!
//! The two indexes are the table.  Each entry carries the bound its key
//! leaves out — `lowerIndex (node, lower, id) → upper`, `upperIndex (node,
//! upper, id) → lower` — so each covers the row, as every table's indexes
//! must (`ri_relstore::TableDef::indexes`): every query, delete and count
//! reads the indexes alone, as Figure 10's plan does.
//!
//! # Latches vs page faults (audit)
//!
//! With the buffer pool's promoted miss path (device reads outside the
//! shard lock), the RI-tree level holds no latch across a fault on any
//! descent: query descents acquire no latches at all (the B-link trees'
//! read paths and scan cursors are fully latch-free — see
//! `ri_btree::tree`), and index writes go through the B-link trees'
//! prefetch-before-latch sections.  The one RI-tree-level latch
//! is the *parameter latch* ([`Database::param_guard`]): it spans
//! in-memory parameter reads plus at most one header-page persist, which
//! may fault.  It is deliberately *not* prefetched — whether the section
//! writes the header at all is decided inside it, and an unconditional
//! prefetch would change the physical access sequence the experiment
//! goldens pin.  Parameter RMWs happen only on data-space expansion
//! (O(log of the data-space growth) events per tree lifetime), so the
//! exposure is negligible and recorded here instead of engineered away.

use crate::interval::Interval;
use crate::vtree::BackboneParams;
use ri_pagestore::{Error, Result};
use ri_relstore::{BoundExpr, Database, ExecStats, IndexDef, Plan, Row, Table, TableDef};
use std::sync::Arc;

/// Artificial, exclusive `node` value for intervals ending at *infinity*
/// (Section 4.6: "our choice to set fork∞ = MAXINT avoids any modification
/// of the SQL statement").
pub const FORK_INF: i64 = i64::MAX;
/// Artificial, exclusive `node` value for *now*-relative intervals
/// (Section 4.6: fork_now = MAXINT − 1).
pub const FORK_NOW: i64 = i64::MAX - 1;
/// Stored `upper` sentinel for intervals ending at infinity.
pub const UPPER_INF: i64 = i64::MAX;
/// Stored `upper` sentinel for now-relative intervals; the effective upper
/// bound is the query-time `now`.
pub const UPPER_NOW: i64 = i64::MAX - 1;

/// How an open-ended (temporal) interval terminates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpenEnd {
    /// Valid forever (`upper = ∞`).
    Infinity,
    /// Valid until the current time (`upper = now`), moving as time does.
    Now,
}

/// Storage footprint of an RI-tree (drives the Figure 12 comparison).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RiStorage {
    /// Rows in the table: `lowerIndex`'s entries.
    pub rows: u64,
    /// Entries in `lowerIndex` + `upperIndex` (= 2 per interval).
    pub index_entries: u64,
    /// Pages used by the two indexes.
    pub index_pages: u64,
}

/// The Relational Interval Tree.
///
/// ```
/// use ritree_core::{Interval, RiTree};
/// use ri_relstore::Database;
/// use ri_pagestore::{BufferPool, MemDisk, DEFAULT_PAGE_SIZE};
/// use std::sync::Arc;
///
/// let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(DEFAULT_PAGE_SIZE)));
/// let db = Arc::new(Database::create(pool).unwrap());
/// let tree = RiTree::create(Arc::clone(&db), "bookings").unwrap();
/// tree.insert(Interval::new(10, 20).unwrap(), 1).unwrap();
/// tree.insert(Interval::new(15, 40).unwrap(), 2).unwrap();
/// tree.insert(Interval::new(50, 60).unwrap(), 3).unwrap();
/// // Ids come back in plan order; sort them for ascending ids.
/// let mut hits = tree.intersection(Interval::new(18, 52).unwrap()).unwrap();
/// ri_mem::sort::sort_ids(&mut hits);
/// assert_eq!(hits, vec![1, 2, 3]);
/// let hits = tree.intersection(Interval::new(41, 49).unwrap()).unwrap();
/// assert!(hits.is_empty());
/// ```
pub struct RiTree {
    db: Arc<Database>,
    name: String,
    table_name: String,
    lower_index: String,
    upper_index: String,
    keys: ParamKeys,
    table: Table,
    /// Optional Skeleton Index extension (paper Section 7): a materialized
    /// directory of non-empty backbone nodes used to prune query probes.
    skeleton: Option<crate::skeleton::SkeletonDirectory>,
}

/// The data-dictionary keys of one tree (`<name>.offset`, …), built once
/// per handle: every plan, insert and delete reads several of them.
struct ParamKeys {
    offset: String,
    left_root: String,
    right_root: String,
    minstep2: String,
    n_inf: String,
    n_now: String,
}

impl ParamKeys {
    fn new(name: &str) -> ParamKeys {
        let key = |k: &str| format!("{name}.{k}");
        ParamKeys {
            offset: key("offset"),
            left_root: key("left_root"),
            right_root: key("right_root"),
            minstep2: key("minstep2"),
            n_inf: key("n_inf"),
            n_now: key("n_now"),
        }
    }
}

/// Creation options for [`RiTree::create_with_options`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RiOptions {
    /// Enable the Skeleton Index extension (paper Section 7): maintain a
    /// directory of non-empty backbone nodes and use it to drop empty-node
    /// probes from query plans.  Costs one directory probe per insert.
    pub skeleton: bool,
}

/// Refuses an interval [`RiTree::insert`] cannot register: an upper bound
/// on a temporal sentinel, or bounds outside the backbone's span around its
/// offset ([`BackboneParams::admits`]), which a wrapped shift would file
/// under a node no query visits.
fn insertable(p: &BackboneParams, iv: Interval) -> Result<()> {
    if iv.upper >= UPPER_NOW {
        return Err(Error::InvalidArgument(format!(
            "upper bound {} collides with the temporal sentinels",
            iv.upper
        )));
    }
    if !p.admits(iv.lower, iv.upper) {
        return Err(Error::InvalidArgument(format!(
            "interval {iv} lies outside the backbone's span around offset {}",
            p.offset.unwrap_or(iv.lower)
        )));
    }
    Ok(())
}

impl RiTree {
    /// Creates the relational schema of Figure 2 (the table, which is its
    /// `lowerIndex` and `upperIndex`) and registers
    /// the backbone parameters in the data dictionary.
    pub fn create(db: Arc<Database>, name: &str) -> Result<RiTree> {
        Self::create_with_options(db, name, RiOptions::default())
    }

    /// [`RiTree::create`] with explicit [`RiOptions`].
    pub fn create_with_options(db: Arc<Database>, name: &str, opts: RiOptions) -> Result<RiTree> {
        let table_name = format!("RI_{name}");
        let lower_index = format!("RI_{name}_LOWER");
        let upper_index = format!("RI_{name}_UPPER");
        // The paper includes `id` in both indexes so intersection queries
        // are answered from the indexes alone (Figure 10: "the attribute id
        // was included in the indexes"); each entry also carries the bound
        // its key leaves out, so the indexes are the table.
        db.create_table(TableDef {
            name: table_name.clone(),
            columns: vec!["node".into(), "lower".into(), "upper".into(), "id".into()],
            indexes: vec![
                IndexDef { name: lower_index.clone(), key_cols: vec![0, 1, 3] },
                IndexDef { name: upper_index.clone(), key_cols: vec![0, 2, 3] },
            ],
        })?;
        let skeleton = if opts.skeleton {
            Some(crate::skeleton::SkeletonDirectory::create(Arc::clone(&db), name)?)
        } else {
            None
        };
        let table = db.table(&table_name)?;
        let tree = RiTree {
            db,
            name: name.to_string(),
            table_name,
            lower_index,
            upper_index,
            keys: ParamKeys::new(name),
            table,
            skeleton,
        };
        tree.db.set_param(&format!("{name}.skeleton"), opts.skeleton as i64)?;
        tree.save_params(&BackboneParams::new())?;
        Ok(tree)
    }

    /// Re-attaches to an RI-tree previously created under `name`,
    /// restoring its options from the data dictionary.
    pub fn open(db: Arc<Database>, name: &str) -> Result<RiTree> {
        let table_name = format!("RI_{name}");
        let lower_index = format!("RI_{name}_LOWER");
        let upper_index = format!("RI_{name}_UPPER");
        let table = db.table(&table_name)?; // errors if absent
        table.index(&lower_index)?;
        table.index(&upper_index)?;
        let has_skeleton = db.get_param(&format!("{name}.skeleton")) == Some(1);
        let skeleton = if has_skeleton {
            Some(crate::skeleton::SkeletonDirectory::open(Arc::clone(&db), name)?)
        } else {
            None
        };
        Ok(RiTree {
            db,
            name: name.to_string(),
            table_name,
            lower_index,
            upper_index,
            keys: ParamKeys::new(name),
            table,
            skeleton,
        })
    }

    /// The logical name this tree was created under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying database (for I/O statistics and checkpointing).
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// Base table name (`RI_<name>`).
    pub fn table_name(&self) -> &str {
        &self.table_name
    }

    // ------------------------------------------------------------------
    // Parameter dictionary (Section 5)
    // ------------------------------------------------------------------

    /// Loads the backbone parameters from the data dictionary.
    pub fn load_params(&self) -> Result<BackboneParams> {
        let keys = &self.keys;
        Ok(BackboneParams {
            offset: self.db.get_param(&keys.offset),
            left_root: self.db.get_param(&keys.left_root).unwrap_or(0),
            right_root: self.db.get_param(&keys.right_root).unwrap_or(0),
            minstep2: self.db.get_param(&keys.minstep2).unwrap_or(i64::MAX),
        })
    }

    fn save_params(&self, p: &BackboneParams) -> Result<()> {
        let keys = &self.keys;
        let mut entries = vec![
            (keys.left_root.as_str(), p.left_root),
            (keys.right_root.as_str(), p.right_root),
            (keys.minstep2.as_str(), p.minstep2),
        ];
        if let Some(off) = p.offset {
            entries.push((keys.offset.as_str(), off));
        }
        self.db.set_params(&entries)
    }

    fn bump_counter(&self, key: &str, delta: i64) -> Result<()> {
        let _guard = self.db.param_guard();
        let v = self.db.get_param(key).unwrap_or(0) + delta;
        self.db.set_param(key, v)
    }

    fn counter(&self, key: &str) -> i64 {
        self.db.get_param(key).unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Updates (Section 3.3 / 3.4)
    // ------------------------------------------------------------------

    /// Inserts an interval with an application-supplied `id`.
    ///
    /// This is Figure 6 followed by Figure 5: O(1) arithmetic to find the
    /// fork node and maintain the parameters, then a single relational
    /// insert costing O(log_b n) I/Os.
    ///
    /// An `(interval, id)` the tree holds is refused with
    /// `InvalidArgument`, and nothing is written: the tree is a set of
    /// pairs, as its indexes are sets of entries.
    ///
    /// Errors with `InvalidArgument` if the upper bound is a temporal
    /// sentinel ([`UPPER_NOW`] or above), or if a bound lies outside the
    /// backbone's span: shifted by the offset (fixed by the first insert),
    /// it must fit in an `i64`, and on one root's side stay strictly
    /// inside `±2^62` ([`BackboneParams::admits`]).
    pub fn insert(&self, iv: Interval, id: i64) -> Result<()> {
        let mut p = self.load_params()?;
        insertable(&p, iv)?;
        let before = p;
        let mut node = p.prepare_insert(iv.lower, iv.upper);
        if p != before {
            // The backbone must grow (or fix its offset): redo the
            // decision under the parameter latch, since a concurrent
            // writer may have expanded the space (or fixed the offset)
            // first.  Fork nodes are stable under data-space expansion,
            // so a node computed against the freshest parameters stays
            // correct even if the space grows again the moment the latch
            // drops.
            let _guard = self.db.param_guard();
            let mut p = self.load_params()?;
            insertable(&p, iv)?;
            let before = p;
            node = p.prepare_insert(iv.lower, iv.upper);
            if p != before {
                self.save_params(&p)?;
            }
        }
        self.table.insert(&[node, iv.lower, iv.upper, id])?;
        if let Some(dir) = &self.skeleton {
            // The directory's check-then-insert (and the symmetric
            // retire in `delete_exact`) must not interleave, or a query
            // could prune a node that just became non-empty.
            let _guard = self.db.param_guard();
            dir.add(node)?;
        }
        Ok(())
    }

    /// Inserts a batch of `(interval, id)` pairs, fanning the row and
    /// index work out over at most `threads` worker threads.
    ///
    /// Equivalent to calling [`RiTree::insert`] once per pair — queries
    /// return the same ids — except that the page layout of the two
    /// indexes follows the scheduler under concurrency.
    ///
    /// The backbone parameters are computed for the whole batch up front,
    /// in one pass under the parameter latch, and each row's fork node is
    /// then computed against the final parameters as the row is written:
    /// fork nodes are stable under data-space expansion, so that is the
    /// node incremental insertion would have produced.  An interval
    /// [`RiTree::insert`] would refuse for its bounds fails the whole batch
    /// with `InvalidArgument` before anything is written.  A pair the tree
    /// holds, or one given twice, is refused with `InvalidArgument` too:
    /// on the bulk path before any entry is written, on the per-row path
    /// for that row alone, after the batch's other rows are in.  The per-row
    /// inserts then scale through the B-link trees' per-node write
    /// latches; with `threads <= 1` the rows are inserted sequentially in
    /// input order.
    ///
    /// **Bulk path:** the first batch into an *empty* tree is a bulk
    /// load — no concurrent DML on that tree while it runs.  It skips
    /// the per-row index descents entirely and keeps no copy of the rows:
    /// each index is built bottom-up at full fill from one reused buffer
    /// of its entries, sorted as 16-byte packed keys wherever the batch's
    /// spans allow ([`Table::bulk_insert`], which computes the rows from
    /// `items` on each of its walks), in one sequential write pass (`O(pages)` writes
    /// instead of `O(n log n)` descent I/Os; `threads` is not consulted,
    /// the pass is sequential by design).  This holds for a first batch
    /// of any size, small ones included: measured from 1 to 4,096 rows
    /// the builder never loads slower than per-row descents (3–4× faster
    /// from 16 rows on) and later inserts cost the same.  Queries cannot
    /// tell the two paths apart.
    ///
    /// ```
    /// use ri_pagestore::{BufferPool, MemDisk, DEFAULT_PAGE_SIZE};
    /// use ri_relstore::Database;
    /// use ritree_core::{Interval, RiTree};
    /// use std::sync::Arc;
    ///
    /// let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(DEFAULT_PAGE_SIZE)));
    /// let db = Arc::new(Database::create(pool).unwrap());
    /// let tree = RiTree::create(db, "t").unwrap();
    ///
    /// // The first batch into an empty tree routes through the bottom-up
    /// // bulk builder.
    /// let items: Vec<(Interval, i64)> =
    ///     (0..2000).map(|i| (Interval::new(i, i + 50).unwrap(), i)).collect();
    /// tree.insert_batch(&items, 1).unwrap();
    ///
    /// assert_eq!(tree.count().unwrap(), 2000);
    /// assert!(tree.stab(25).unwrap().contains(&0));
    /// ```
    pub fn insert_batch(&self, items: &[(Interval, i64)], threads: usize) -> Result<()> {
        if items.is_empty() {
            return Ok(());
        }
        // Phase 1: backbone parameters, one O(1) fork step per item under
        // the parameter latch.  Every item is checked before anything is
        // written, and nothing is kept but the final parameters.
        let p = {
            let _guard = self.db.param_guard();
            let mut p = self.load_params()?;
            let before = p;
            for &(iv, _) in items {
                insertable(&p, iv)?;
                p.prepare_insert(iv.lower, iv.upper);
            }
            if p != before {
                self.save_params(&p)?;
            }
            p
        };
        // An item's row, its node computed against the final parameters:
        // fork nodes are stable under data-space expansion, so this is the
        // node phase 1 computed against the parameters the items before
        // it left (and the one a later delete computes).
        let row = |&(iv, id): &(Interval, i64)| {
            let node = p.fork_of(iv.lower, iv.upper).expect("phase 1 admitted every item");
            [node, iv.lower, iv.upper, id]
        };
        // Phase 2: index entries.  A batch into an empty table (asked of
        // `lowerIndex`, which stops at its first entry) takes the bulk
        // path — each index's entries sorted as 16-byte packed keys in one
        // reused buffer and built bottom-up in one sequential write pass
        // with no per-row descents, the rows computed from `items` on each
        // of the table's walks; everything else collects the rows and fans
        // the per-row inserts out over the worker threads.
        // A row refused there (a pair the tree holds) fails the batch after
        // the others are in and phase 3 has covered them.
        let written = if self.table.is_empty()? {
            self.table.bulk_insert(items.iter().map(row))?;
            Ok(())
        } else {
            let rows: Vec<[i64; 4]> = items.iter().map(row).collect();
            ri_relstore::fan_out(&rows, threads, |row| self.table.insert(row))
                .into_iter()
                .collect::<Result<()>>()
        };
        // Phase 3: the skeleton directory, once.
        if let Some(dir) = &self.skeleton {
            let _guard = self.db.param_guard();
            let mut nodes: Vec<i64> = items.iter().map(|item| row(item)[0]).collect();
            nodes.sort_unstable();
            nodes.dedup();
            for node in nodes {
                dir.add(node)?;
            }
        }
        written
    }

    /// Inserts an open-ended temporal interval `[lower, now]` or
    /// `[lower, ∞)` (Section 4.6).
    ///
    /// Open intervals are registered at the artificial fork nodes
    /// [`FORK_NOW`] / [`FORK_INF`], outside the virtual backbone; no
    /// backbone parameter changes.
    pub fn insert_open(&self, lower: i64, end: OpenEnd, id: i64) -> Result<()> {
        let (node, upper, counter) = match end {
            OpenEnd::Infinity => (FORK_INF, UPPER_INF, &self.keys.n_inf),
            OpenEnd::Now => (FORK_NOW, UPPER_NOW, &self.keys.n_now),
        };
        self.table.insert(&[node, lower, upper, id])?;
        self.bump_counter(counter, 1)
    }

    /// Deletes the interval `(iv, id)`; returns `false` if not present.
    ///
    /// The fork node is recomputed from the current parameters — fork nodes
    /// are stable under data-space expansion, so this finds the row
    /// regardless of how the tree grew since the insert.
    pub fn delete(&self, iv: Interval, id: i64) -> Result<bool> {
        let p = self.load_params()?;
        let Some(node) = p.fork_of(iv.lower, iv.upper) else {
            return Ok(false);
        };
        self.delete_exact(node, iv.lower, iv.upper, id)
    }

    /// Deletes an open-ended interval inserted with [`RiTree::insert_open`].
    pub fn delete_open(&self, lower: i64, end: OpenEnd, id: i64) -> Result<bool> {
        let (node, upper, counter) = match end {
            OpenEnd::Infinity => (FORK_INF, UPPER_INF, &self.keys.n_inf),
            OpenEnd::Now => (FORK_NOW, UPPER_NOW, &self.keys.n_now),
        };
        let deleted = self.delete_exact(node, lower, upper, id)?;
        if deleted {
            self.bump_counter(counter, -1)?;
        }
        Ok(deleted)
    }

    /// Deletes the row `(node, lower, upper, id)`: every caller knows the
    /// stored upper bound (the interval's, or its open end's sentinel), so
    /// both entries are named without a read.  The `lowerIndex` delete is
    /// the claim among racing deletes ([`Table::delete_row`]).
    fn delete_exact(&self, node: i64, lower: i64, upper: i64, id: i64) -> Result<bool> {
        let deleted = self.table.delete_row(&[node, lower, upper, id])?;
        if deleted {
            if let Some(dir) = &self.skeleton {
                // If the node just lost its last interval, retire it from
                // the directory (atomically against concurrent adds).
                let _guard = self.db.param_guard();
                let index = self.table.index(&self.lower_index)?;
                let still_used = index
                    .scan_range(&[node, i64::MIN, i64::MIN], &[node, i64::MAX, i64::MAX])
                    .next()
                    .is_some();
                if !still_used {
                    dir.remove(node)?;
                }
            }
        }
        Ok(deleted)
    }

    /// Number of stored intervals (including open-ended ones), counted by
    /// walking `lowerIndex`'s leaves: O(leaves), exact on a quiescent tree.
    pub fn count(&self) -> Result<u64> {
        self.table.row_count()
    }

    /// Backbone height per the Section 3.5 analysis.
    pub fn height(&self) -> Result<u32> {
        Ok(self.load_params()?.height())
    }

    /// Storage footprint (Figure 12's metric: number of index entries).
    /// Each index's leaves are walked once (`BTree::entry_count`), so this
    /// costs O(leaves); a row is one `lowerIndex` entry.
    pub fn storage(&self) -> Result<RiStorage> {
        let (lower, upper) =
            (self.table.index(&self.lower_index)?, self.table.index(&self.upper_index)?);
        let rows = lower.entry_count()?;
        Ok(RiStorage {
            rows,
            index_entries: rows + upper.entry_count()?,
            index_pages: lower.stats()?.pages + upper.stats()?.pages,
        })
    }

    // ------------------------------------------------------------------
    // Queries (Section 4)
    // ------------------------------------------------------------------

    /// Compiles the intersection query `q` into the two-fold plan of
    /// Figure 9: `leftNodes ⋈ upperIndex UNION ALL rightNodes ⋈ lowerIndex`.
    ///
    /// `now` resolves now-relative intervals (Section 4.6); pass anything
    /// when the tree holds none.
    pub fn intersection_plan(&self, q: Interval, now: i64) -> Result<Plan> {
        Ok(Plan::UnionAll(self.intersection_branches(q, now)?.into()))
    }

    /// The two branches of [`RiTree::intersection_plan`]'s `UNION ALL`:
    /// `leftNodes ⋈ upperIndex`, whose rows are `(node, upper, id,
    /// lower)`, and `rightNodes ⋈ lowerIndex`, whose rows are `(node,
    /// lower, id, upper)`.
    fn intersection_branches(&self, q: Interval, now: i64) -> Result<[Plan; 2]> {
        let p = self.load_params()?;
        let mut nodes = p.query_nodes(q.lower, q.upper);
        if let Some(dir) = &self.skeleton {
            // Skeleton Index extension: drop transient entries whose node
            // holds no intervals (the final `left` element is the BETWEEN
            // range pair and always stays — it is one scan regardless).
            let pair = nodes.left.pop();
            let singles: Vec<i64> = nodes.left.iter().map(|&(w, _)| w).collect();
            let (left, right) = Self::skeleton_filter(dir, singles, nodes.right)?;
            nodes.left = left.into_iter().map(|w| (w, w)).collect();
            nodes.left.extend(pair);
            nodes.right = right;
        }
        let left_rows = nodes.left.iter().map(|&(a, b)| vec![a, b]).collect();
        Ok(self.node_branches(q, now, left_rows, 1, &nodes.right))
    }

    /// `NESTED LOOPS` of a transient node collection driving an index
    /// range scan — the one operator shape every RI-tree query is made of.
    fn node_join(
        &self,
        name: &str,
        rows: Vec<Row>,
        index: &str,
        lo: Vec<BoundExpr>,
        hi: Vec<BoundExpr>,
    ) -> Plan {
        Plan::NestedLoops {
            outer: Box::new(Plan::CollectionIterator { name: name.into(), rows }),
            inner: Box::new(Plan::IndexRangeScan {
                table: self.table_name.clone(),
                index: index.into(),
                lo,
                hi,
            }),
        }
    }

    /// The `leftNodes ⋈ upperIndex` and `rightNodes ⋈ lowerIndex` branches
    /// every intersection plan shares.  `left_max` is the `LEFT_NODES`
    /// column bounding `i.node` from above: 1 for `(min, max)` range
    /// pairs, 0 for exact nodes.
    fn node_branches(
        &self,
        q: Interval,
        now: i64,
        left_rows: Vec<Row>,
        left_max: usize,
        right: &[i64],
    ) -> [Plan; 2] {
        let mut right_rows: Vec<Row> = right.iter().map(|&w| vec![w]).collect();
        // Temporal sentinels: fork∞ always participates; fork_now exactly
        // if the query begins in the past (Section 4.6).  To keep the I/O
        // counts of the non-temporal experiments exact, the sentinels are
        // only added when open intervals actually exist.
        if self.counter(&self.keys.n_inf) > 0 {
            right_rows.push(vec![FORK_INF]);
        }
        if self.counter(&self.keys.n_now) > 0 && q.lower <= now {
            right_rows.push(vec![FORK_NOW]);
        }
        [
            // i.node BETWEEN left.min AND left.max AND i.upper >= :lower
            self.node_join(
                "LEFT_NODES",
                left_rows,
                &self.upper_index,
                vec![BoundExpr::Outer(0), BoundExpr::Const(q.lower), BoundExpr::NegInf],
                vec![BoundExpr::Outer(left_max), BoundExpr::PosInf, BoundExpr::PosInf],
            ),
            // i.node = right.node AND i.lower <= :upper
            self.node_join(
                "RIGHT_NODES",
                right_rows,
                &self.lower_index,
                vec![BoundExpr::Outer(0), BoundExpr::NegInf, BoundExpr::NegInf],
                vec![BoundExpr::Outer(0), BoundExpr::Const(q.upper), BoundExpr::PosInf],
            ),
        ]
    }

    /// The *preliminary* three-fold plan of Figure 8, before the
    /// Section 4.3 transformation: exact-node branches for `leftNodes` and
    /// `rightNodes` plus a separate BETWEEN branch on the covered node
    /// range.  Produces the same (duplicate-free) result as
    /// [`RiTree::intersection_plan`]; kept as an ablation target for the
    /// two-fold optimization.
    pub fn intersection_plan_fig8(&self, q: Interval, now: i64) -> Result<Plan> {
        let p = self.load_params()?;
        let nodes = p.query_nodes(q.lower, q.upper);
        // Strip the Section 4.3 range pair back off: left side becomes the
        // exact node list again, the BETWEEN condition becomes its own
        // branch.
        let left_rows = nodes.left.iter().filter(|(a, b)| a == b).map(|&(w, _)| vec![w]).collect();
        let mut branches = Vec::from(self.node_branches(q, now, left_rows, 0, &nodes.right));
        if let (Some(l), Some(u)) = (p.shift(q.lower), p.shift(q.upper)) {
            // i.node BETWEEN :lower − offset AND :upper − offset.
            branches.push(Plan::IndexRangeScan {
                table: self.table_name.clone(),
                index: self.lower_index.clone(),
                lo: vec![BoundExpr::Const(l), BoundExpr::NegInf, BoundExpr::NegInf],
                hi: vec![BoundExpr::Const(u), BoundExpr::PosInf, BoundExpr::PosInf],
            });
        }
        Ok(Plan::UnionAll(branches))
    }

    /// Intersection plan with the Section 3.4 granularity pruning
    /// disabled (`minstep` treated as 1): descents always reach the leaf
    /// level.  Ablation target for the `minstep` optimization.
    pub fn intersection_plan_unpruned(&self, q: Interval, now: i64) -> Result<Plan> {
        let mut p = self.load_params()?;
        if p.offset.is_some() {
            p.minstep2 = 1;
        }
        let nodes = p.query_nodes(q.lower, q.upper);
        let left_rows = nodes.left.iter().map(|&(a, b)| vec![a, b]).collect();
        Ok(Plan::UnionAll(self.node_branches(q, now, left_rows, 1, &nodes.right).into()))
    }

    /// Executes an arbitrary plan built by one of the plan constructors and
    /// extracts its result ids in plan order (used by the ablation
    /// benchmarks).
    ///
    /// The `id` column (position 2 in every id-plan's output rows: `node,
    /// lower-or-upper, id, upper-or-lower`) is gathered out of each leaf run the
    /// executor pushes, straight into the id vector — the one place that
    /// knows the result-row layout.  Like Figure 9's query, which has no
    /// `ORDER BY`, the ids come back as the plan produces them:
    ///
    /// * each intersecting stored row's id appears exactly once (Section
    ///   4.2) — for a plan of [`RiTree::intersection_plan`] or its
    ///   ablations;
    /// * the order depends only on the tree's parameters, its entries and
    ///   the plan — the `UNION ALL` branches in order, each branch's outer
    ///   rows in order, each index's leaf runs in key order — not on page
    ///   layout;
    /// * the same plan on the same tree returns the identical vector.
    ///
    /// A caller that wants ascending ids sorts them with
    /// [`ri_mem::sort::sort_ids`].
    pub fn execute_id_plan(&self, plan: &Plan) -> Result<(Vec<i64>, ExecStats)> {
        let mut stats = ExecStats::default();
        let mut ids = Vec::new();
        self.db.execute_with(plan, &mut stats, &mut |rows| ids.extend(rows.column(2)))?;
        Ok((ids, stats))
    }

    /// Reports the ids of all stored intervals intersecting `q`, treating
    /// now-relative intervals as ending at `now`.
    ///
    /// The answer is Figure 9's `UNION ALL`, returned in plan order:
    ///
    /// * each stored `(interval, id)` row that intersects `q` contributes
    ///   its id exactly once (Section 4.2: the conditions address disjoint
    ///   rows) — so an id the tree holds under several intersecting
    ///   intervals appears once per such interval;
    /// * the order depends only on the tree's parameters, its entries and
    ///   the query, not on page layout;
    /// * [`RiTree::intersection_batch`] and [`RiTree::stab`] return the
    ///   identical vector for the same query.
    ///
    /// Sort with [`ri_mem::sort::sort_ids`] for ascending ids.
    pub fn intersection_at(&self, q: Interval, now: i64) -> Result<Vec<i64>> {
        Ok(self.intersection_with_stats(q, now)?.0)
    }

    /// Like [`RiTree::intersection_at`] with `now = UPPER_NOW − 1`, i.e.
    /// now-relative intervals are always considered current.
    ///
    /// Same contract: each intersecting stored row's id exactly once, so
    /// an id stored under several intersecting intervals once per
    /// interval; an order that depends only on the tree's parameters, its
    /// entries and `q`; and [`RiTree::intersection_batch`] and
    /// [`RiTree::stab`] return the identical vector.
    pub fn intersection(&self, q: Interval) -> Result<Vec<i64>> {
        self.intersection_at(q, UPPER_NOW - 1)
    }

    /// Intersection query returning executor statistics alongside the ids,
    /// which follow [`RiTree::intersection_at`]'s contract: each
    /// intersecting stored row's id exactly once, in an order that depends
    /// only on the tree's parameters, its entries and `q`, identical to
    /// what [`RiTree::intersection_batch`] and [`RiTree::stab`] return.
    ///
    /// Debug builds check Section 4.2 on every answer: no stored row comes
    /// out of two branches.
    pub fn intersection_with_stats(&self, q: Interval, now: i64) -> Result<(Vec<i64>, ExecStats)> {
        let plan = self.intersection_plan(q, now)?;
        if !cfg!(debug_assertions) {
            return self.execute_id_plan(&plan);
        }
        // A branch's rows are `(node, bound, id, other bound)`: a stored
        // row is its node, its id and its two bounds in order.
        let (mut stats, mut ids, mut rows) = (ExecStats::default(), Vec::new(), Vec::new());
        self.db.execute_with(&plan, &mut stats, &mut |batch| {
            ids.extend(batch.column(2));
            rows.extend(batch.iter().map(|row| {
                let (a, b) = (row.get(1), row.get(3));
                (row.get(0), a.min(b), a.max(b), row.get(2))
            }));
        })?;
        rows.sort_unstable();
        debug_assert!(
            rows.windows(2).all(|w| w[0] != w[1]),
            "intersection branches must address disjoint rows (Section 4.2)"
        );
        Ok((ids, stats))
    }

    /// Stabbing (point) query: all intervals containing `p` — "supporting
    /// point queries as efficient as interval queries" (Section 4.1).
    ///
    /// Each stored row whose interval contains `p` contributes its id
    /// exactly once, so an id stored under several such intervals appears
    /// once per interval; the order depends only on the tree's
    /// parameters, its entries and `p`; the vector is identical to
    /// `intersection(Interval::point(p))`'s.
    pub fn stab(&self, p: i64) -> Result<Vec<i64>> {
        self.intersection(Interval::point(p))
    }

    /// Answers a batch of intersection queries concurrently, fanning the
    /// batch over at most `threads` worker threads
    /// ([`ri_relstore::fan_out`]).
    ///
    /// Results are returned in query order.  Each holds every intersecting
    /// id exactly once, in an order that depends only on the tree's
    /// parameters, its entries and the query, and on a quiescent tree it
    /// is element for element the vector [`RiTree::intersection`] returns:
    /// plan compilation is deterministic and the buffer pool's lock
    /// striping makes concurrent descents safe.  Concurrent writers are
    /// *safe* (the B+-trees latch internally) but make results
    /// schedule-dependent, as with any query racing DML.
    pub fn intersection_batch(
        &self,
        queries: &[Interval],
        threads: usize,
    ) -> Result<Vec<Vec<i64>>> {
        let plans = queries
            .iter()
            .map(|&q| self.intersection_plan(q, UPPER_NOW - 1))
            .collect::<Result<Vec<Plan>>>()?;
        ri_relstore::fan_out(&plans, threads, |plan| Ok(self.execute_id_plan(plan)?.0))
            .into_iter()
            .collect()
    }

    /// Renders the Figure 10 execution plan for `q`.
    pub fn explain(&self, q: Interval) -> Result<String> {
        Ok(ri_relstore::explain::explain(&self.intersection_plan(q, UPPER_NOW - 1)?))
    }

    /// Every stored interval intersecting `q`, with its bounds, read off
    /// the entries the two branch scans of [`RiTree::intersection_plan`]
    /// return — no probe outside the two indexes.  Now-relative intervals
    /// end at `now`, and one that starts after `now` is not yet valid.
    /// The Allen relations' candidates (Section 4.5).
    pub(crate) fn intersection_bounds(
        &self,
        q: Interval,
        now: i64,
    ) -> Result<Vec<(Interval, i64)>> {
        let [left, right] = self.intersection_branches(q, now)?;
        let mut stats = ExecStats::default();
        let mut out = Vec::new();
        // Column of the lower and of the upper bound in each branch's rows.
        for (plan, lower, upper) in [(left, 3, 1), (right, 1, 3)] {
            self.db.execute_with(&plan, &mut stats, &mut |rows| {
                for r in rows.iter() {
                    let iv = Interval {
                        lower: r.get(lower),
                        upper: match r.get(upper) {
                            UPPER_INF => i64::MAX,
                            UPPER_NOW => now,
                            u => u,
                        },
                    };
                    if iv.lower <= iv.upper {
                        out.push((iv, r.get(2)));
                    }
                }
            })?;
        }
        Ok(out)
    }

    /// Index-only bulk fetch of every *closed* stored interval
    /// intersecting `q`, **with bounds**: one pass over the full node
    /// partitions along the query paths in `lowerIndex`, whose entries
    /// `(node, lower, id) → upper` hold whole rows.  This is the hot
    /// tier's block-admission path, where the fetch spans whole cache
    /// blocks.
    ///
    /// The scan drops the plan's bound filters (whole partitions are
    /// read, and the rows that start after `q` or end before it are
    /// dropped as they stream by), which is correct because the
    /// left-path, covered and right-path node sets are disjoint — the
    /// same Section 4.2 argument that makes the id plan duplicate-free.
    /// Open-ended intervals are skipped (callers bypass the tier while
    /// any are stored).
    pub(crate) fn span_snapshot(&self, q: Interval) -> Result<Vec<(Interval, i64)>> {
        let p = self.load_params()?;
        let nodes = p.query_nodes(q.lower, q.upper);
        let mut ranges: Vec<Row> = nodes.left.iter().map(|&(a, b)| vec![a, b]).collect();
        ranges.extend(nodes.right.iter().map(|&w| vec![w, w]));
        let plan = self.node_join(
            "SPAN_NODES",
            ranges,
            &self.lower_index,
            vec![BoundExpr::Outer(0), BoundExpr::NegInf, BoundExpr::NegInf],
            vec![BoundExpr::Outer(1), BoundExpr::PosInf, BoundExpr::PosInf],
        );
        let mut out = Vec::new();
        // Rows `(node, lower, id, upper)`.
        self.db.execute_with(&plan, &mut ExecStats::default(), &mut |rows| {
            let meets = |r: &ri_relstore::RowRef<'_>| {
                r.get(1) <= q.upper && q.lower <= r.get(3) && r.get(3) < UPPER_NOW
            };
            out.extend(
                rows.iter()
                    .filter(meets)
                    .map(|r| (Interval { lower: r.get(1), upper: r.get(3) }, r.get(2))),
            );
        })?;
        Ok(out)
    }

    /// Whether any open-ended (`now`/∞) intervals are currently stored.
    pub fn has_open_intervals(&self) -> bool {
        self.counter(&self.keys.n_inf) > 0 || self.counter(&self.keys.n_now) > 0
    }
}

impl ri_relstore::IntervalAccessMethod for RiTree {
    fn method_name(&self) -> &'static str {
        "RI-tree"
    }

    fn am_insert(&self, lower: i64, upper: i64, id: i64) -> Result<()> {
        self.insert(Interval::new(lower, upper)?, id)
    }

    fn am_delete(&self, lower: i64, upper: i64, id: i64) -> Result<bool> {
        self.delete(Interval::new(lower, upper)?, id)
    }

    fn am_intersection_with_stats(
        &self,
        lower: i64,
        upper: i64,
    ) -> Result<(Vec<i64>, ri_relstore::ExecStats)> {
        self.intersection_with_stats(Interval::new(lower, upper)?, UPPER_NOW - 1)
    }

    fn am_index_entries(&self) -> Result<u64> {
        Ok(self.storage()?.index_entries)
    }

    fn am_count(&self) -> Result<u64> {
        self.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_pagestore::{BufferPool, BufferPoolConfig, MemDisk, DEFAULT_PAGE_SIZE};

    fn fresh() -> (Arc<Database>, RiTree) {
        let pool = Arc::new(BufferPool::new(
            MemDisk::new(DEFAULT_PAGE_SIZE),
            BufferPoolConfig::with_capacity(200),
        ));
        let db = Arc::new(Database::create(pool).unwrap());
        let tree = RiTree::create(Arc::clone(&db), "t").unwrap();
        (db, tree)
    }

    /// An answer in ascending id order, to compare with an ordered
    /// expectation: queries return plan order.
    fn sorted(mut ids: Vec<i64>) -> Vec<i64> {
        ri_mem::sort::sort_ids(&mut ids);
        ids
    }

    #[test]
    fn quickstart_roundtrip() {
        let (_db, tree) = fresh();
        tree.insert(Interval::new(10, 20).unwrap(), 1).unwrap();
        tree.insert(Interval::new(15, 40).unwrap(), 2).unwrap();
        tree.insert(Interval::new(50, 60).unwrap(), 3).unwrap();
        assert_eq!(tree.count().unwrap(), 3);
        assert_eq!(
            sorted(tree.intersection(Interval::new(18, 52).unwrap()).unwrap()),
            vec![1, 2, 3]
        );
        assert_eq!(
            sorted(tree.intersection(Interval::new(41, 49).unwrap()).unwrap()),
            Vec::<i64>::new()
        );
        assert_eq!(sorted(tree.stab(12).unwrap()), vec![1]);
        assert_eq!(sorted(tree.stab(20).unwrap()), vec![1, 2], "closed bounds intersect");
    }

    /// One id stored under two intersecting intervals is two rows, and an
    /// answer holds each row's id once: twice here, and every branch of
    /// the plan addresses distinct rows.  A debug build used to assert
    /// that the ids were distinct and panicked.
    #[test]
    fn an_id_under_two_intersecting_intervals_is_answered_once_per_interval() {
        let (_db, tree) = fresh();
        tree.insert(Interval::new(10, 20).unwrap(), 1).unwrap();
        tree.insert(Interval::new(10, 21).unwrap(), 1).unwrap();
        tree.insert(Interval::new(30, 40).unwrap(), 1).unwrap();
        assert_eq!(tree.stab(15).unwrap(), [1, 1]);
        assert_eq!(tree.stab(21).unwrap(), [1]);
        assert_eq!(tree.intersection(Interval::new(0, 100).unwrap()).unwrap(), [1, 1, 1]);
        let (ids, _) = tree.intersection_with_stats(Interval::new(20, 30).unwrap(), 0).unwrap();
        assert_eq!(ids, [1, 1, 1]);
    }

    #[test]
    fn batch_intersection_matches_single_queries() {
        let pool = Arc::new(BufferPool::new(
            MemDisk::new(DEFAULT_PAGE_SIZE),
            BufferPoolConfig::sharded(200, 4),
        ));
        let db = Arc::new(Database::create(pool).unwrap());
        let tree = RiTree::create(Arc::clone(&db), "t").unwrap();
        for id in 0..1500i64 {
            let l = (id * 37) % 40_000;
            tree.insert(Interval::new(l, l + 600).unwrap(), id).unwrap();
        }
        let queries: Vec<Interval> =
            (0..16).map(|i| Interval::new(i * 2500, i * 2500 + 900).unwrap()).collect();
        let singles: Vec<Vec<i64>> =
            queries.iter().map(|&q| tree.intersection(q).unwrap()).collect();
        for threads in [1, 2, 4, 8] {
            assert_eq!(
                tree.intersection_batch(&queries, threads).unwrap(),
                singles,
                "batch at {threads} threads diverged from single queries"
            );
        }
    }

    #[test]
    fn insert_batch_matches_sequential_inserts() {
        let mk = |shards| {
            let pool = Arc::new(BufferPool::new(
                MemDisk::new(DEFAULT_PAGE_SIZE),
                BufferPoolConfig::sharded(256, shards),
            ));
            let db = Arc::new(Database::create(pool).unwrap());
            RiTree::create(db, "t").unwrap()
        };
        let data: Vec<(Interval, i64)> = (0..2000i64)
            .map(|id| {
                let l = (id * 131) % 50_000 - 10_000;
                (Interval::new(l, l + 400 + (id % 37) * 11).unwrap(), id)
            })
            .collect();
        let sequential = mk(1);
        for &(iv, id) in &data {
            sequential.insert(iv, id).unwrap();
        }
        // A batch into an *empty* tree is a sequential bulk load, so each
        // tree is seeded with the first interval: the rest then takes the
        // per-row fan-out route this test is about.  The proof is the
        // page count — per-row descents split at half fill and cannot
        // reach the builder's fill-1.0 packing.
        let (&(seed_iv, seed_id), rest) = data.split_first().unwrap();
        let packed = ri_btree::predicted_pages(
            data.len() as u64,
            ri_btree::layout::leaf_capacity(DEFAULT_PAGE_SIZE, 3),
            ri_btree::layout::internal_capacity(DEFAULT_PAGE_SIZE, 3),
        );
        for threads in [1, 4] {
            let batched = mk(4);
            batched.insert(seed_iv, seed_id).unwrap();
            batched.insert_batch(rest, threads).unwrap();
            assert!(
                batched.storage().unwrap().index_pages > 2 * packed,
                "the batch must have taken the per-row route at {threads} threads"
            );
            assert_eq!(batched.count().unwrap(), sequential.count().unwrap());
            assert_eq!(batched.load_params().unwrap(), sequential.load_params().unwrap());
            for q in [(-12_000i64, 60_000i64), (0, 500), (25_000, 25_100), (49_999, 49_999)] {
                let q = Interval::new(q.0, q.1).unwrap();
                assert_eq!(
                    batched.intersection(q).unwrap(),
                    sequential.intersection(q).unwrap(),
                    "{q} at {threads} threads"
                );
            }
            // Batched trees support deletes like any other.
            let (iv, id) = data[777];
            assert!(batched.delete(iv, id).unwrap());
            assert!(!batched.delete(iv, id).unwrap());
        }
    }

    #[test]
    fn large_batches_into_an_empty_tree_route_through_the_bulk_builder() {
        use ri_btree::layout::{internal_capacity, leaf_capacity};
        use ri_btree::predicted_pages;
        let data: Vec<(Interval, i64)> = (0..1500i64)
            .map(|id| {
                let l = (id * 97) % 60_000;
                (Interval::new(l, l + 300 + (id % 23) * 7).unwrap(), id)
            })
            .collect();
        let queries = [(0i64, 500i64), (15_000, 15_900), (30_000, 61_000), (59_999, 59_999)];

        // Empty tree: the bulk route.  Both indexes are arity 3
        // ((node, lower, id) / (node, upper, id)), so the proof that no
        // per-key descents built them is page-count exactness —
        // a descent-built tree splits at half fill and cannot reach the
        // builder's fill-1.0 page count.
        let (_db, bulk) = fresh();
        bulk.insert_batch(&data, 1).unwrap();
        let lc = leaf_capacity(DEFAULT_PAGE_SIZE, 3);
        let ic = internal_capacity(DEFAULT_PAGE_SIZE, 3);
        let per_index = predicted_pages(data.len() as u64, lc, ic);
        assert_eq!(
            bulk.storage().unwrap().index_pages,
            2 * per_index,
            "bulk-routed batch must build both indexes at exactly the predicted page count"
        );
        // The rule has no size clause: a small first batch is bulk-built too.
        let (_db0, small) = fresh();
        small.insert_batch(&data[..500], 1).unwrap();
        assert_eq!(small.storage().unwrap().index_pages, 2 * predicted_pages(500, lc, ic));

        // A non-empty table refuses the bulk route and falls back to
        // per-row descents: same answers, looser packing.
        let (_db2, seeded) = fresh();
        seeded.insert(Interval::new(5, 10).unwrap(), 9_999).unwrap();
        seeded.insert_batch(&data, 1).unwrap();
        assert!(
            seeded.storage().unwrap().index_pages > 2 * per_index,
            "descent fallback splits at half fill, so it must use more pages"
        );

        let (_db3, sequential) = fresh();
        sequential.insert(Interval::new(5, 10).unwrap(), 9_999).unwrap();
        for &(iv, id) in &data {
            sequential.insert(iv, id).unwrap();
        }
        for (l, u) in queries {
            let q = Interval::new(l, u).unwrap();
            let expected = sequential.intersection(q).unwrap();
            assert_eq!(seeded.intersection(q).unwrap(), expected, "fallback {q}");
            // Without the seed the backbone differs, and so may the order.
            let mut without_seed = sorted(expected);
            without_seed.retain(|&id| id != 9_999);
            assert_eq!(sorted(bulk.intersection(q).unwrap()), without_seed, "bulk {q}");
        }
    }

    /// Every `(node, lower, upper, id)` row a tree stores, read off both
    /// indexes: `lowerIndex` `(node, lower, id) → upper` and `upperIndex`
    /// `(node, upper, id) → lower`.
    fn stored_rows(tree: &RiTree) -> (Vec<[i64; 4]>, Vec<[i64; 4]>) {
        let rows = |index: &str, row: fn(&[i64], i64) -> [i64; 4]| -> Vec<[i64; 4]> {
            let index = tree.table.index(index).unwrap();
            index
                .scan_all()
                .map(|e| e.unwrap())
                .map(|e| row(e.key.as_slice(), e.payload as i64))
                .collect()
        };
        let mut upper = rows(&tree.upper_index, |k, lower| [k[0], lower, k[1], k[2]]);
        upper.sort_unstable();
        (rows(&tree.lower_index, |k, upper| [k[0], k[1], upper, k[2]]), upper)
    }

    /// The bulk route computes each row's node against the parameters the
    /// whole batch leaves; fork nodes are stable under expansion, so those
    /// are the nodes per-row inserts store, even for a batch that doubles
    /// both roots many times over — into a fresh tree, and into one whose
    /// parameters an earlier, deleted interval fixed.
    #[test]
    fn a_bulk_batch_that_grows_both_roots_stores_the_rows_of_per_row_inserts() {
        let mut items = vec![(Interval::new(1000, 1010).unwrap(), 0)];
        for id in 1..600i64 {
            let reach = id * id * 37;
            let iv = match id % 3 {
                0 => Interval::new(1000 - reach, 1000 - reach + id % 50).unwrap(),
                1 => Interval::new(1000 + reach, 1000 + reach + id % 70).unwrap(),
                _ => Interval::new(990 - id, 1020 + id).unwrap(),
            };
            items.push((iv, id));
        }
        // Deleted again before the batch, these fix the offset and grow
        // each root once.
        let seeds =
            [(1100, 1101), (1200, 1300), (900, 950)].map(|(l, u)| Interval::new(l, u).unwrap());
        for emptied in [false, true] {
            let ((_db_bulk, bulk), (_db_rows, per_row)) = (fresh(), fresh());
            for tree in [&bulk, &per_row].into_iter().filter(|_| emptied) {
                for (id, &seed) in (-3..0).zip(&seeds) {
                    tree.insert(seed, id).unwrap();
                }
                for (id, &seed) in (-3..0).zip(&seeds) {
                    assert!(tree.delete(seed, id).unwrap());
                }
                assert!(tree.table.is_empty().unwrap());
            }
            let before = bulk.load_params().unwrap();
            bulk.insert_batch(&items, 1).unwrap();
            for &(iv, id) in &items {
                per_row.insert(iv, id).unwrap();
            }
            let (after, expected) = (bulk.load_params().unwrap(), per_row.load_params().unwrap());
            assert_eq!(after, expected, "emptied: {emptied}");
            assert!(
                after.left_root < 64 * before.left_root.min(-1)
                    && after.right_root > 64 * before.right_root.max(1),
                "the batch must grow both roots: {before:?} -> {after:?}"
            );
            let (lower, upper) = stored_rows(&bulk);
            assert_eq!(lower.len(), items.len());
            assert!((lower, upper) == stored_rows(&per_row), "emptied: {emptied}: rows differ");
        }
    }

    #[test]
    fn matches_naive_oracle_on_pseudorandom_data() {
        let (_db, tree) = fresh();
        let mut data: Vec<(Interval, i64)> = Vec::new();
        let mut x = 0xDEADBEEFu64;
        for id in 0..800 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let l = (x % 10_000) as i64;
            let len = ((x >> 40) % 500) as i64;
            let iv = Interval::new(l, l + len).unwrap();
            tree.insert(iv, id).unwrap();
            data.push((iv, id));
        }
        for qi in 0..50 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let ql = (x % 11_000) as i64 - 500;
            let qlen = ((x >> 33) % 800) as i64;
            let q = Interval::new(ql, ql + qlen).unwrap();
            let got = sorted(tree.intersection(q).unwrap());
            let mut want: Vec<i64> =
                data.iter().filter(|(iv, _)| iv.intersects(&q)).map(|&(_, id)| id).collect();
            want.sort_unstable();
            assert_eq!(got, want, "query {qi}: {q}");
        }
    }

    #[test]
    fn delete_removes_exactly_one_row() {
        let (_db, tree) = fresh();
        let iv = Interval::new(5, 9).unwrap();
        tree.insert(iv, 1).unwrap();
        tree.insert(iv, 2).unwrap(); // same bounds, different id
        assert!(tree.delete(iv, 1).unwrap());
        assert!(!tree.delete(iv, 1).unwrap(), "double delete reports false");
        assert_eq!(sorted(tree.intersection(iv).unwrap()), vec![2]);
        assert_eq!(tree.count().unwrap(), 1);
    }

    #[test]
    fn delete_after_data_space_expansion() {
        let (_db, tree) = fresh();
        let early = Interval::new(3, 4).unwrap();
        tree.insert(early, 1).unwrap();
        // Expand the space far beyond the original root.
        tree.insert(Interval::new(1 << 20, (1 << 20) + 5).unwrap(), 2).unwrap();
        tree.insert(Interval::new(-5000, -4000).unwrap(), 3).unwrap();
        assert!(tree.delete(early, 1).unwrap(), "fork must be stable under expansion");
        assert_eq!(
            sorted(tree.intersection(Interval::new(0, 10).unwrap()).unwrap()),
            Vec::<i64>::new()
        );
    }

    #[test]
    fn negative_bounds_and_late_left_expansion() {
        let (_db, tree) = fresh();
        tree.insert(Interval::new(1000, 1100).unwrap(), 1).unwrap();
        tree.insert(Interval::new(-800, -700).unwrap(), 2).unwrap();
        tree.insert(Interval::new(-100, 1500).unwrap(), 3).unwrap();
        assert_eq!(sorted(tree.intersection(Interval::new(-750, -720).unwrap()).unwrap()), vec![2]);
        assert_eq!(
            sorted(tree.intersection(Interval::new(-1000, 2000).unwrap()).unwrap()),
            vec![1, 2, 3]
        );
        assert_eq!(sorted(tree.intersection(Interval::new(-699, 999).unwrap()).unwrap()), vec![3]);
    }

    #[test]
    fn points_as_degenerate_intervals() {
        let (_db, tree) = fresh();
        for p in 0..100 {
            tree.insert(Interval::point(p * 2), p).unwrap();
        }
        assert_eq!(
            sorted(tree.intersection(Interval::new(10, 14).unwrap()).unwrap()),
            vec![5, 6, 7]
        );
        assert_eq!(sorted(tree.stab(11).unwrap()), Vec::<i64>::new());
        assert_eq!(sorted(tree.stab(12).unwrap()), vec![6]);
    }

    #[test]
    fn empty_tree_queries() {
        let (_db, tree) = fresh();
        assert_eq!(
            sorted(tree.intersection(Interval::new(0, 100).unwrap()).unwrap()),
            Vec::<i64>::new()
        );
        assert_eq!(tree.count().unwrap(), 0);
        assert_eq!(tree.height().unwrap(), 0);
    }

    #[test]
    fn open_infinity_intervals() {
        let (_db, tree) = fresh();
        tree.insert(Interval::new(0, 10).unwrap(), 1).unwrap();
        tree.insert_open(100, OpenEnd::Infinity, 2).unwrap();
        // Intersects any query at or after its start.
        assert_eq!(sorted(tree.intersection(Interval::new(500, 600).unwrap()).unwrap()), vec![2]);
        assert_eq!(sorted(tree.intersection(Interval::new(0, 99).unwrap()).unwrap()), vec![1]);
        assert_eq!(sorted(tree.intersection(Interval::new(0, 100).unwrap()).unwrap()), vec![1, 2]);
        assert!(tree.delete_open(100, OpenEnd::Infinity, 2).unwrap());
        assert_eq!(
            sorted(tree.intersection(Interval::new(500, 600).unwrap()).unwrap()),
            Vec::<i64>::new()
        );
    }

    #[test]
    fn open_now_intervals_follow_query_time() {
        let (_db, tree) = fresh();
        tree.insert_open(100, OpenEnd::Now, 7).unwrap();
        // now = 150: the interval is [100, 150].
        assert_eq!(
            sorted(tree.intersection_at(Interval::new(120, 130).unwrap(), 150).unwrap()),
            vec![7]
        );
        assert_eq!(
            sorted(tree.intersection_at(Interval::new(160, 170).unwrap(), 150).unwrap()),
            Vec::<i64>::new(),
            "query entirely after now must miss"
        );
        // now = 165: the same interval now reaches the query.
        assert_eq!(
            sorted(tree.intersection_at(Interval::new(160, 170).unwrap(), 165).unwrap()),
            vec![7]
        );
        // A query before the start never matches.
        assert_eq!(
            sorted(tree.intersection_at(Interval::new(0, 99).unwrap(), 150).unwrap()),
            Vec::<i64>::new()
        );
    }

    #[test]
    fn sentinel_collision_rejected() {
        let (_db, tree) = fresh();
        assert!(tree.insert(Interval::new(0, i64::MAX - 1).unwrap(), 1).is_err());
    }

    #[test]
    fn reopen_preserves_everything() {
        let pool = Arc::new(BufferPool::new(
            MemDisk::new(DEFAULT_PAGE_SIZE),
            BufferPoolConfig::with_capacity(200),
        ));
        let db = Arc::new(Database::create(Arc::clone(&pool)).unwrap());
        {
            let tree = RiTree::create(Arc::clone(&db), "t").unwrap();
            for i in 0..100 {
                tree.insert(Interval::new(i * 10, i * 10 + 25).unwrap(), i).unwrap();
            }
        }
        let tree = RiTree::open(Arc::clone(&db), "t").unwrap();
        assert_eq!(tree.count().unwrap(), 100);
        let hits = sorted(tree.intersection(Interval::new(95, 105).unwrap()).unwrap());
        // Intervals [i·10, i·10 + 25] intersect [95, 105] for i in 7..=10.
        assert_eq!(hits, vec![7, 8, 9, 10]);
        assert!(RiTree::open(db, "missing").is_err());
    }

    #[test]
    fn explain_matches_figure_10() {
        // One fixed tree, one fixed query: the EXPLAIN text and executor
        // statistics of all three plan constructors, pinned as literals.
        let (_db, tree) = fresh();
        for i in 0..300i64 {
            let l = (i * 53) % 10_000;
            tree.insert(Interval::new(l, l + 1_000 + (i % 7) * 100).unwrap(), i).unwrap();
        }
        tree.insert_open(9_000, OpenEnd::Infinity, 1_000).unwrap();
        tree.insert_open(9_500, OpenEnd::Now, 1_001).unwrap();
        let q = Interval::new(4_001, 4_702).unwrap();
        let now = UPPER_NOW - 1;
        let figure_10 = |left: usize, right: usize| {
            format!(
                "SELECT STATEMENT\n  UNION-ALL\n    NESTED LOOPS\n      \
                 COLLECTION ITERATOR LEFT_NODES ({left} rows)\n      \
                 INDEX RANGE SCAN RI_t_UPPER\n    NESTED LOOPS\n      \
                 COLLECTION ITERATOR RIGHT_NODES ({right} rows)\n      \
                 INDEX RANGE SCAN RI_t_LOWER\n"
            )
        };
        assert_eq!(tree.explain(q).unwrap(), figure_10(5, 5));
        let pins = [
            (tree.intersection_plan(q, now), figure_10(5, 5), 85, 10),
            // Figure 8: exact left nodes plus the separate BETWEEN branch.
            (
                tree.intersection_plan_fig8(q, now),
                figure_10(4, 5) + "    INDEX RANGE SCAN RI_t_LOWER\n",
                84,
                10,
            ),
            // minstep = 512 here, so the unpruned descents go deeper.
            (tree.intersection_plan_unpruned(q, now), figure_10(8, 8), 91, 16),
            // A query beginning after `now` drops the fork_now sentinel.
            (tree.intersection_plan(q, 3_000), figure_10(5, 4), 84, 9),
        ];
        for (plan, text, rows_examined, index_searches) in pins {
            let plan = plan.unwrap();
            assert_eq!(ri_relstore::explain::explain(&plan), text);
            let (ids, stats) = tree.execute_id_plan(&plan).unwrap();
            assert_eq!(ids.len(), 75);
            assert_eq!(
                stats,
                ExecStats { rows_examined, result_rows: 75, index_searches },
                "{text}"
            );
        }
    }

    #[test]
    fn bulk_load_equals_incremental() {
        let mk_db = || {
            let pool = Arc::new(BufferPool::new(
                MemDisk::new(DEFAULT_PAGE_SIZE),
                BufferPoolConfig::with_capacity(200),
            ));
            Arc::new(Database::create(pool).unwrap())
        };
        let mut data = Vec::new();
        let mut x = 0x60_0Du64;
        for id in 0..3000i64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let l = (x % 200_000) as i64 - 50_000; // negatives included
            let len = ((x >> 40) % 3000) as i64;
            data.push((Interval::new(l, l + len).unwrap(), id));
        }
        let bulk = RiTree::create_with_options(mk_db(), "t", RiOptions::default()).unwrap();
        bulk.insert_batch(&data, 1).unwrap();
        let incr = RiTree::create(mk_db(), "t").unwrap();
        for &(iv, id) in &data {
            incr.insert(iv, id).unwrap();
        }
        // Identical backbone parameters: bulk must reproduce the exact
        // incremental state, not just equivalent answers.
        assert_eq!(bulk.load_params().unwrap(), incr.load_params().unwrap());
        assert_eq!(bulk.count().unwrap(), incr.count().unwrap());
        for q in [(-60_000i64, 300_000i64), (0, 1000), (100_000, 100_500), (7, 7)] {
            let q = Interval::new(q.0, q.1).unwrap();
            assert_eq!(bulk.intersection(q).unwrap(), incr.intersection(q).unwrap(), "{q}");
        }
        // Deletions work on bulk-loaded trees (forks recomputed correctly).
        let (iv, id) = data[1234];
        assert!(bulk.delete(iv, id).unwrap());
        assert!(!bulk.delete(iv, id).unwrap());
        // Bulk-loaded indexes are denser.
        assert!(bulk.storage().unwrap().index_pages < incr.storage().unwrap().index_pages);
    }

    #[test]
    fn bulk_load_empty_and_with_skeleton() {
        let pool = Arc::new(BufferPool::new(
            MemDisk::new(DEFAULT_PAGE_SIZE),
            BufferPoolConfig::with_capacity(200),
        ));
        let db = Arc::new(Database::create(pool).unwrap());
        let opts = RiOptions { skeleton: true };
        // An empty batch is a no-op and leaves the tree bulk-loadable.
        let skel = RiTree::create_with_options(Arc::clone(&db), "s", opts).unwrap();
        skel.insert_batch(&[], 1).unwrap();
        assert_eq!(skel.count().unwrap(), 0);
        assert_eq!(skel.intersection(Interval::new(0, 10).unwrap()).unwrap(), Vec::<i64>::new());

        let data: Vec<(Interval, i64)> =
            (0..1500).map(|i| (Interval::new(i * 3, i * 3 + 10).unwrap(), i)).collect();
        skel.insert_batch(&data, 1).unwrap();
        let incr = RiTree::create_with_options(Arc::clone(&db), "i", opts).unwrap();
        for &(iv, id) in &data {
            incr.insert(iv, id).unwrap();
        }
        // The bulk route fills the directory exactly as per-row inserts do.
        let dir_len = |t: &RiTree| t.skeleton.as_ref().expect("skeleton enabled").len().unwrap();
        assert!(dir_len(&skel) > 0);
        assert_eq!(dir_len(&skel), dir_len(&incr));
        for &(iv, _) in data.iter().step_by(97) {
            assert_eq!(skel.intersection(iv).unwrap(), incr.intersection(iv).unwrap(), "{iv}");
        }
        // Reopen restores the skeleton automatically.
        let reopened = RiTree::open(db, "s").unwrap();
        assert_eq!(dir_len(&reopened), dir_len(&skel));
        let q = Interval::new(0, 2000).unwrap();
        assert_eq!(reopened.intersection(q).unwrap(), skel.intersection(q).unwrap());
    }

    /// `span_snapshot` against the rows inserted: exactly the closed
    /// intervals meeting the span, each once with its true bounds.  The
    /// node partitions it scans also hold intervals that start after the
    /// span or end before it — its pass drops those — and the open-ended
    /// rows are never reported.
    #[test]
    fn span_snapshot_is_the_rows_meeting_the_span() {
        let (_db, tree) = fresh();
        let mut x = 0x5EA_u64;
        let mut inserted = Vec::new();
        for id in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let l = (x % 100_000) as i64;
            let len = ((x >> 40) % if id % 10 == 0 { 20_000 } else { 600 }) as i64;
            tree.insert(Interval::new(l, l + len).unwrap(), id).unwrap();
            inserted.push((l, l + len, id));
        }
        tree.insert_open(30_000, OpenEnd::Infinity, 5_000).unwrap();
        tree.insert_open(31_000, OpenEnd::Now, 5_001).unwrap();
        // Rows `(node, lower, upper, id)`; fork nodes are stable under
        // data-space expansion, so the final parameters name them.
        let p = tree.load_params().unwrap();
        let mut rows: Vec<Row> = inserted
            .into_iter()
            .map(|(l, u, id)| vec![p.fork_of(l, u).unwrap(), l, u, id])
            .collect();
        rows.push(vec![FORK_INF, 30_000, UPPER_INF, 5_000]);
        rows.push(vec![FORK_NOW, 31_000, UPPER_NOW, 5_001]);
        let (mut starting_after, mut ending_before) = (0, 0);
        for (ql, qu) in [(0, 16_383), (40_000, 49_151), (98_304, 131_071), (-10, 5), (50, 50)] {
            let q = Interval::new(ql, qu).unwrap();
            let snapshot = tree.span_snapshot(q).unwrap();
            let mut got: Vec<_> =
                snapshot.iter().map(|&(iv, id)| (iv.lower, iv.upper, id)).collect();
            got.sort_unstable();
            let meets = |r: &&Row| r[2] < UPPER_NOW && r[1] <= qu && ql <= r[2];
            let mut want: Vec<_> = rows.iter().filter(meets).map(|r| (r[1], r[2], r[3])).collect();
            want.sort_unstable();
            assert_eq!(got, want, "{q}");
            // What the scans read besides: rows of the same node partitions.
            let nodes = tree.load_params().unwrap().query_nodes(ql, qu);
            let scanned = |node: i64| {
                nodes.left.iter().any(|&(a, b)| (a..=b).contains(&node))
                    || nodes.right.contains(&node)
            };
            for r in rows.iter().filter(|r| scanned(r[0])) {
                starting_after += usize::from(r[1] > qu);
                ending_before += usize::from(r[2] < ql);
            }
        }
        assert!(starting_after > 0 && ending_before > 0, "{starting_after}, {ending_before}");
    }

    #[test]
    fn storage_is_two_entries_per_interval() {
        let (_db, tree) = fresh();
        for i in 0..500 {
            tree.insert(Interval::new(i, i + 3).unwrap(), i).unwrap();
        }
        let s = tree.storage().unwrap();
        assert_eq!(s.rows, 500);
        assert_eq!(s.index_entries, 1000, "RI-tree stores exactly 2 index entries per interval");
    }
}

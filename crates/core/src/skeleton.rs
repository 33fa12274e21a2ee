//! The Skeleton Index extension (paper Section 7).
//!
//! The conclusion singles out one extension as promising: "the application
//! of the Skeleton Index technique [KS 91] to the RI-tree, because a
//! partial materialization of the primary structure can be adapted to the
//! expected data distribution".
//!
//! This module materializes exactly the useful part of the primary
//! structure: a *node directory* — one relational row per **non-empty**
//! backbone node, maintained incrementally.  A query traversal first scans
//! the directory once over the node span it would visit and drops every
//! transient `leftNodes`/`rightNodes` entry whose node holds no intervals.
//! For clustered or sparse data distributions, most of the O(h) candidate
//! nodes on the descent paths are empty, and each dropped node saves one
//! index probe of O(log_b n) I/Os — while the directory itself is tiny
//! (16 bytes per distinct non-empty node) and stays cached.
//!
//! The directory is an ordinary table + index on the same engine, so its
//! maintenance and probe costs are measured like everything else.

use crate::tree::RiTree;
use ri_pagestore::Result;
use ri_relstore::{Database, IndexDef, Table, TableDef};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Persistent directory of non-empty backbone nodes.
pub struct SkeletonDirectory {
    table_name: String,
    index_name: String,
    table: Table,
}

impl SkeletonDirectory {
    /// Creates the directory schema for the RI-tree called `name`.
    pub fn create(db: Arc<Database>, name: &str) -> Result<SkeletonDirectory> {
        let table_name = format!("RI_{name}_SKEL");
        let index_name = format!("RI_{name}_SKEL_IDX");
        // One column, keyed whole: the index is the table.
        db.create_table(TableDef {
            name: table_name.clone(),
            columns: vec!["node".into()],
            indexes: vec![IndexDef { name: index_name.clone(), key_cols: vec![0] }],
        })?;
        let table = db.table(&table_name)?;
        Ok(SkeletonDirectory { table_name, index_name, table })
    }

    /// Re-opens an existing directory.
    pub fn open(db: Arc<Database>, name: &str) -> Result<SkeletonDirectory> {
        let table_name = format!("RI_{name}_SKEL");
        let index_name = format!("RI_{name}_SKEL_IDX");
        let table = db.table(&table_name)?;
        table.index(&index_name)?;
        Ok(SkeletonDirectory { table_name, index_name, table })
    }

    /// The directory's table name.
    pub fn table_name(&self) -> &str {
        &self.table_name
    }

    /// Registers `node` as non-empty (idempotent).
    pub fn add(&self, node: i64) -> Result<()> {
        if !self.contains(node)? {
            self.table.insert(&[node])?;
        }
        Ok(())
    }

    /// Removes `node` from the directory (after its last interval left).
    pub fn remove(&self, node: i64) -> Result<()> {
        self.table.delete_row(&[node]).map(|_| ())
    }

    /// Membership probe.
    pub fn contains(&self, node: i64) -> Result<bool> {
        let index = self.table.index(&self.index_name)?;
        Ok(index.scan_range(&[node], &[node]).next().is_some())
    }

    /// All non-empty nodes within `[lo, hi]`, via a single range scan.
    fn nonempty_in(&self, lo: i64, hi: i64) -> Result<BTreeSet<i64>> {
        let index = self.table.index(&self.index_name)?;
        index.scan_range(&[lo], &[hi]).map(|e| e.map(|e| e.key.col(0))).collect()
    }

    /// Number of materialized (non-empty) nodes, counted by walking the
    /// directory index's leaves: O(leaves), exact on a quiescent table.
    pub fn len(&self) -> Result<u64> {
        self.table.row_count()
    }

    /// Whether no node is materialized; stops at the first one.
    pub fn is_empty(&self) -> Result<bool> {
        self.table.is_empty()
    }
}

impl RiTree {
    /// Filters transient query-node lists through the skeleton directory:
    /// returns the (left single nodes, right nodes) that are actually
    /// non-empty.  The `(min, max)` range pair of the left list is passed
    /// through untouched by the caller — it is one scan regardless.
    pub(crate) fn skeleton_filter(
        dir: &SkeletonDirectory,
        left_single: Vec<i64>,
        right: Vec<i64>,
    ) -> Result<(Vec<i64>, Vec<i64>)> {
        let lo = left_single.iter().chain(right.iter()).copied().min().unwrap_or(0);
        let hi = left_single.iter().chain(right.iter()).copied().max().unwrap_or(-1);
        if lo > hi {
            return Ok((left_single, right));
        }
        let nonempty = dir.nonempty_in(lo, hi)?;
        Ok((
            left_single.into_iter().filter(|w| nonempty.contains(w)).collect(),
            right.into_iter().filter(|w| nonempty.contains(w)).collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_pagestore::{BufferPool, BufferPoolConfig, MemDisk, DEFAULT_PAGE_SIZE};

    fn dir() -> SkeletonDirectory {
        let pool = Arc::new(BufferPool::new(
            MemDisk::new(DEFAULT_PAGE_SIZE),
            BufferPoolConfig::with_capacity(50),
        ));
        let db = Arc::new(Database::create(pool).unwrap());
        SkeletonDirectory::create(db, "t").unwrap()
    }

    #[test]
    fn add_is_idempotent() {
        let d = dir();
        d.add(5).unwrap();
        d.add(5).unwrap();
        d.add(-3).unwrap();
        assert_eq!(d.len().unwrap(), 2);
        assert!(d.contains(5).unwrap());
        assert!(d.contains(-3).unwrap());
        assert!(!d.contains(4).unwrap());
    }

    #[test]
    fn remove_clears_membership() {
        let d = dir();
        d.add(7).unwrap();
        d.remove(7).unwrap();
        assert!(!d.contains(7).unwrap());
        assert!(d.is_empty().unwrap());
        d.remove(7).unwrap(); // removing absent nodes is harmless
    }

    #[test]
    fn range_scan_returns_sorted_set() {
        let d = dir();
        for n in [10, -5, 30, 20, 0] {
            d.add(n).unwrap();
        }
        let s = d.nonempty_in(-5, 20).unwrap();
        assert_eq!(s.into_iter().collect::<Vec<_>>(), vec![-5, 0, 10, 20]);
    }
}

//! Disk-based B+-tree with composite integer keys.
//!
//! This crate is the reproduction's stand-in for the *built-in* B+-tree
//! index of a commercial RDBMS — the only primitive the Relational Interval
//! Tree requires from its host system.  The paper's core design rule is that
//! indexes are used **"on an as-they-are basis without any augmentation of
//! the internal data structure"** (Section 1); accordingly, nothing in this
//! crate knows anything about intervals.  The RI-tree, the Tile Index, the
//! IST and MAP21 baselines all build on these same unmodified trees, exactly
//! as they would on Oracle's B+-trees.
//!
//! Features:
//! * composite keys of 1–4 `i64` columns (relational *composite indexes*
//!   such as `(node, lower)` from the paper's Figure 2),
//! * duplicate keys disambiguated by a `u64` payload (the column the key
//!   leaves out); an entry is stored at most once,
//! * ordered range scans over leaf chains ([`BTree::scan_range`]),
//! * logarithmic insert and delete; deletion never restructures (emptied
//!   pages stay linked and absorb later inserts — the price of latch-free
//!   readers, see `tree`'s module docs),
//! * sorted [`bulk loading`](BTree::bulk_load) with a configurable fill
//!   factor (the paper bulk-loads the competitors' indexes in Section 6) —
//!   a streaming bottom-up build (`builder` module): one sequential write
//!   pass, every page stored exactly once, `O(height)` memory, so
//!   million-entry loads cost `O(pages)` writes instead of per-entry
//!   descents ([`BTree::bulk_build_into`]),
//! * an exhaustive [`BTree::check_invariants`] used by the property tests.
//!
//! All I/O goes through [`ri_pagestore::BufferPool`], so every page this
//! tree touches is visible in the experiment I/O counters.
//!
//! # Concurrency contract
//!
//! A [`BTree`] handle is `Send + Sync` (asserted at compile time below):
//! any number of threads may read **and write** one tree concurrently —
//! the paper delegates locking to the host RDBMS, and this crate plays
//! that host.  The tree is a **B-link tree** (Lehman–Yao: every node
//! carries a right-sibling link and a high key): readers
//! descend with *no latches at all*, writers hold one exclusive node
//! latch at a time, and splits are two-phase — publish the right
//! sibling under the splitting node's latch, then post the separator to
//! the parent in a separate latched step — so structure modifications
//! never exclude readers or leaf-disjoint writers (see `tree`'s module
//! docs and ARCHITECTURE.md).  There are **no caller-side rules**: even
//! writing through a tree while holding one of its scan cursors is
//! legal.  Single-threaded page-access sequences are deterministic
//! and pinned by goldens (`tests/pool_determinism.rs`, re-captured only
//! with the command in `tests/common/golden.rs`).

pub mod builder;
pub mod key;
pub mod layout;
pub mod scan;
pub mod tree;

pub use builder::predicted_pages;
pub use key::{Entry, Key, MAX_ARITY};
pub use scan::RangeScan;
pub use tree::{BTree, SmoPhase, TreeStats};

pub use ri_pagestore::{Error, Result};

/// Compile-time proof of the concurrency contract: a `BTree` (and its
/// borrowing scan cursor) can be shared across reader threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BTree>();
    assert_send_sync::<RangeScan<'_>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use ri_pagestore::{BufferPool, MemDisk};
    use std::sync::Arc;

    #[test]
    fn crate_level_smoke() {
        let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(512)));
        let tree = BTree::create(Arc::clone(&pool), 2).unwrap();
        for i in 0..500i64 {
            tree.insert(&[i % 10, i], i as u64).unwrap();
        }
        let hits: Vec<_> =
            tree.scan_range(&[3, i64::MIN], &[3, i64::MAX]).map(|e| e.unwrap().payload).collect();
        assert_eq!(hits.len(), 50);
        assert!(hits.windows(2).all(|w| w[0] < w[1]));
        tree.check_invariants().unwrap();
    }

    /// A leaf whose high key lies below the probe and whose right link
    /// points at itself: every move-right loop must give up with
    /// `Corrupt` after a bounded number of links, not spin.
    #[test]
    fn forged_right_link_cycle_is_corrupt_not_a_hang() {
        let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(512)));
        let tree = BTree::create(Arc::clone(&pool), 2).unwrap();
        tree.insert(&[1, 1], 1).unwrap();
        let probe = Entry::new(&[5, 5], 5);
        let leaf = tree.leaf_for(&probe).unwrap().unwrap();
        pool.with_page_mut(leaf, |buf| {
            let mut forged = layout::NodeMut::init(buf, 2, true);
            forged.push(&Entry::new(&[1, 1], 1));
            forged.set_next(leaf);
            forged.set_high(Some(&Entry::new(&[2, 0], 0)));
        })
        .unwrap();

        let chases = || pool.latches().stats().right_link_chases;
        let per_loop = pool.num_pages() + 1;
        assert!(matches!(tree.contains(&[5, 5], 5), Err(Error::Corrupt(_))));
        assert_eq!(chases(), per_loop);
        let mut scan = tree.scan_range(&[5, 5], &[9, 9]);
        assert!(matches!(scan.next(), Some(Err(Error::Corrupt(_)))));
        assert_eq!(chases(), 2 * per_loop);
        assert!(matches!(tree.insert(&[5, 5], 5), Err(Error::Corrupt(_))));
        assert_eq!(chases(), 3 * per_loop);
    }

    /// Two leaves that both cover the scan's range, the second linked back
    /// to the first: no move-right loop is entered (nothing is chased), so
    /// the scan's own count of links followed must end it.
    #[test]
    fn forged_leaf_chain_cycle_ends_a_scan_in_both_cursor_forms() {
        let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(512)));
        let tree = BTree::create(Arc::clone(&pool), 2).unwrap();
        for i in 0..25 {
            tree.insert(&[i, i], i as u64).unwrap();
        }
        let first = tree.leaf_for(&Entry::new(&[0, 0], 0)).unwrap().unwrap();
        let head = layout::tests::node(&tree, first);
        let last = layout::tests::node(&tree, head.next);
        assert!(head.leaf && last.leaf, "a leaf");
        assert!(last.next.is_invalid() && last.high.is_none(), "twenty-five entries split once");
        pool.with_page_mut(head.next, |buf| {
            layout::NodeMut::parse(buf, 2).unwrap().set_next(first)
        })
        .unwrap();

        let mut scan = tree.scan_all();
        assert!(matches!(scan.find_map(|e| e.err()), Some(Error::Corrupt(_))));
        assert!(scan.next().is_none(), "the error ends the scan");
        let mut entries = 0;
        let walked = tree.scan_all().for_each_run(|run| entries += run.len() / 24);
        assert!(matches!(walked, Err(Error::Corrupt(_))));
        assert!(entries as u64 <= 25 * (pool.num_pages() + 1), "bounded by the device's pages");
        assert_eq!(pool.latches().stats().right_link_chases, 0, "every leaf covered `lo`");
        // A scan that stops inside the first lap never notices.
        assert_eq!(tree.scan_range(&[0, 0], &[20, 20]).filter(|e| e.is_ok()).count(), 21);
    }

    /// A high key below the probe says "move right"; with no right link
    /// there is nowhere to go.  The two are written together, so this is
    /// `Corrupt` — not an assertion, and not a read of page `INVALID`.
    #[test]
    fn forged_high_key_without_a_right_link_is_corrupt() {
        let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(512)));
        let tree = BTree::create(Arc::clone(&pool), 2).unwrap();
        tree.insert(&[1, 1], 1).unwrap();
        let leaf = tree.leaf_for(&Entry::new(&[5, 5], 5)).unwrap().unwrap();
        pool.with_page_mut(leaf, |buf| {
            let mut forged = layout::NodeMut::init(buf, 2, true);
            forged.push(&Entry::new(&[1, 1], 1));
            forged.set_high(Some(&Entry::new(&[2, 0], 0)));
        })
        .unwrap();

        let linkless = |e: &Error| matches!(e, Error::Corrupt(why) if why.contains("right link"));
        assert!(linkless(&tree.scan_range(&[5, 5], &[9, 9]).next().unwrap().unwrap_err()));
        assert!(linkless(&tree.scan_range(&[5, 5], &[9, 9]).for_each_run(|_| ()).unwrap_err()));
        assert!(linkless(&tree.contains(&[5, 5], 5).unwrap_err()));
        assert!(linkless(&tree.insert(&[5, 5], 5).unwrap_err()));
        assert_eq!(pool.latches().stats().right_link_chases, 0, "no link, no chase");
        // Below the high key nothing moves right and nothing is wrong.
        assert!(tree.contains(&[1, 1], 1).unwrap());
    }

    /// `check_invariants` walks the leaf chain from the meta page's first
    /// leaf.  A forged first leaf that links to itself must end that walk
    /// with `Corrupt` once it has visited more pages than the leaf level
    /// holds, not loop forever.
    #[test]
    fn forged_first_leaf_self_link_is_corrupt_not_a_hang() {
        let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(512)));
        let tree = BTree::create(Arc::clone(&pool), 2).unwrap();
        tree.insert(&[1, 1], 1).unwrap();
        let orphan = pool.allocate_page().unwrap();
        pool.with_page_mut(orphan, |buf| {
            let mut forged = layout::NodeMut::init(buf, 2, true);
            forged.set_next(orphan);
            forged.set_high(Some(&Entry::new(&[2, 0], 0)));
        })
        .unwrap();
        let mut meta = tree.read_meta().unwrap();
        meta.first_leaf = orphan;
        tree.write_meta(&meta).unwrap();
        assert!(matches!(tree.check_invariants(), Err(Error::Corrupt(_))));
    }

    #[test]
    fn concurrent_descents_over_sharded_pool() {
        use ri_pagestore::BufferPoolConfig;
        let pool = Arc::new(BufferPool::new(MemDisk::new(512), BufferPoolConfig::sharded(64, 8)));
        let tree = BTree::create(Arc::clone(&pool), 2).unwrap();
        for i in 0..2000i64 {
            tree.insert(&[i % 16, i], i as u64).unwrap();
        }
        let expected: Vec<Vec<u64>> = (0..16)
            .map(|k| {
                tree.scan_range(&[k, i64::MIN], &[k, i64::MAX])
                    .map(|e| e.unwrap().payload)
                    .collect()
            })
            .collect();
        crossbeam::thread::scope(|s| {
            for t in 0..4 {
                let tree = &tree;
                let expected = &expected;
                s.spawn(move |_| {
                    for round in 0..20 {
                        let k = (t + round) % 16;
                        let got: Vec<u64> = tree
                            .scan_range(&[k, i64::MIN], &[k, i64::MAX])
                            .map(|e| e.unwrap().payload)
                            .collect();
                        assert_eq!(&got, &expected[k as usize]);
                    }
                });
            }
        })
        .unwrap();
    }
}

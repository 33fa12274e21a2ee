//! Bottom-up bulk construction of B-link trees from sorted runs.
//!
//! # Builder vs. insert: two ways to grow a tree, one set of invariants
//!
//! The *insert* path ([`BTree::insert`]) grows a tree top-down: descend,
//! latch one leaf, split upward when full.  It maintains the B-link
//! invariants (`high.is_some() == right link valid`, every entry `<`
//! its node's high key, parents route by first-entry separators) at
//! *every* intermediate state, because concurrent readers may observe
//! any of them — that is what the two-phase split protocol buys.
//!
//! The *builder* grows a tree bottom-up in one streaming pass: pack
//! leaves left-to-right at the target fill, and whenever a node of any
//! level is complete, emit its `(first entry, page)` pair to the level
//! above, which packs its own nodes the same way.  The same invariants
//! hold, but only have to hold at the *end*, because nothing can
//! observe the build in flight:
//!
//! * **No latching.**  The pages being packed are freshly allocated and
//!   unreachable — no root points at them until the final metadata
//!   install — so no reader or writer can traverse into the
//!   construction.  On a tree created by the builder's own entry points
//!   the whole build is latch-free; [`BTree::bulk_build_into`] installs
//!   the finished `(root, height, count)` under the meta latch only to
//!   turn a concurrent-insert race into a clean error instead of a lost
//!   tree.
//! * **One sequential write pass.**  Every node page is stored exactly
//!   once, the moment it is known complete (its successor's first entry
//!   is in hand, which becomes the high key).  Loading `n` entries
//!   costs `O(pages)` page writes and `O(1)` page reads — no
//!   per-entry root-to-leaf descent.
//! * **No log records for packed pages.**  Each store goes through
//!   [`ri_pagestore::BufferPool::write_fresh_page`], which logs nothing
//!   and refuses any page the build did not allocate.  Before the meta
//!   install, [`ri_pagestore::BufferPool::publish_fresh_pages`] flushes
//!   and syncs them on a durable pool; the install is then an ordinary
//!   logged meta write in the caller's transaction.  A crash before the
//!   commit rolls the meta back to empty and leaks the pages; a crash
//!   after it finds every page on the synced device.
//! * **O(height) memory.**  The builder holds one pending (partially
//!   packed) node per level; levels above the leaves are discovered on
//!   demand.  A million-entry load carries three pending nodes, not a
//!   million entries.
//!
//! Packing at fill 1.0 produces the minimum possible page count: every
//! node except the rightmost of its level holds exactly its capacity.
//! (Inserting the same entries in key order instead leaves every leaf
//! half full — the classic ascending-split pattern — at roughly twice
//! the pages.)  Lower fills trade density for headroom: a tree that
//! will absorb random inserts right after loading wants slack in every
//! leaf, one that serves a read-mostly workload wants fill 1.0.

use crate::key::Entry;
use crate::layout::{self, InternalNode, LeafNode};
use crate::tree::{BTree, Meta};
use ri_pagestore::{Error, PageId, Result};

/// The leaf currently being packed: its pre-allocated page and the
/// entries accumulated so far (never more than the leaf target).
struct LeafState {
    page: PageId,
    entries: Vec<Entry>,
}

/// An internal node currently being packed at some level: its page, the
/// first entry of its leftmost descendant (`min`, the separator this
/// node will be registered under in *its* parent), its leftmost child,
/// and the separator entries accumulated so far.
struct InnerState {
    page: PageId,
    min: Entry,
    child0: PageId,
    entries: Vec<(Entry, PageId)>,
}

/// What a completed build hands back for the metadata install.
struct Built {
    root: PageId,
    height: u16,
    first_leaf: PageId,
    count: u64,
    pages: u64,
}

/// The streaming bottom-up builder.  One pending node per level; pages
/// are written exactly once, left to right, bottom levels interleaved
/// with the upper levels as nodes complete.
struct BulkBuilder<'t> {
    tree: &'t BTree,
    /// The pool's page count when the build began: every page at or
    /// above it that the builder stores, it allocated itself.
    build_start: u64,
    leaf_target: usize,
    internal_target: usize,
    leaf: Option<LeafState>,
    /// Pending node per internal level; `inner[0]` is the leaves'
    /// parent level (tree level 2).  Levels appear when their first
    /// node is emitted from below.
    inner: Vec<Option<InnerState>>,
    first_leaf: PageId,
    count: u64,
    pages: u64,
    prev: Option<Entry>,
}

impl<'t> BulkBuilder<'t> {
    fn new(tree: &'t BTree, fill: f64) -> BulkBuilder<'t> {
        let leaf_cap = tree.leaf_cap;
        let internal_cap = tree.internal_cap;
        BulkBuilder {
            tree,
            build_start: tree.pool().num_pages(),
            leaf_target: ((leaf_cap as f64 * fill).floor() as usize).clamp(1, leaf_cap),
            internal_target: ((internal_cap as f64 * fill).floor() as usize).clamp(1, internal_cap),
            leaf: None,
            inner: Vec::new(),
            first_leaf: PageId::INVALID,
            count: 0,
            pages: 0,
            prev: None,
        }
    }

    /// Allocates a page for the node being started.  Plain pool
    /// allocation, no meta latch: the page is unreachable until the
    /// final install publishes the root, and the page total is charged
    /// to the metadata in that same install.
    fn alloc(&mut self) -> Result<PageId> {
        let page = self.tree.pool().allocate_page()?;
        self.pages += 1;
        Ok(page)
    }

    /// Stores a packed leaf: its one write, unlogged (see the module docs).
    fn store_leaf(&self, page: PageId, node: &LeafNode) -> Result<()> {
        let arity = self.tree.arity();
        self.tree
            .pool()
            .write_fresh_page(self.build_start, page, |buf| layout::write_leaf(buf, node, arity))
    }

    /// Stores a packed internal node: its one write, unlogged.
    fn store_internal(&self, page: PageId, node: &InternalNode) -> Result<()> {
        let arity = self.tree.arity();
        self.tree.pool().write_fresh_page(self.build_start, page, |buf| {
            layout::write_internal(buf, node, arity)
        })
    }

    fn push(&mut self, e: Entry) -> Result<()> {
        if let Some(prev) = self.prev {
            if e < prev {
                return Err(Error::InvalidArgument(
                    "bulk_load input is not sorted by (key, payload)".to_string(),
                ));
            }
        }
        self.prev = Some(e);
        self.count += 1;
        match &mut self.leaf {
            None => {
                let page = self.alloc()?;
                self.first_leaf = page;
                self.leaf = Some(LeafState { page, entries: vec![e] });
            }
            Some(state) if state.entries.len() == self.leaf_target => {
                // The pending leaf is complete: its successor starts at
                // `e`, which is exactly its high key.  Store it (its
                // one and only write) and register it with the parent
                // level.
                let succ = self.alloc()?;
                let state = self.leaf.take().expect("checked above");
                let node = LeafNode { entries: state.entries, next: succ, high: Some(e) };
                let min = node.entries[0];
                self.store_leaf(state.page, &node)?;
                self.leaf = Some(LeafState { page: succ, entries: vec![e] });
                self.emit(0, min, state.page)?;
            }
            Some(state) => state.entries.push(e),
        }
        Ok(())
    }

    /// Registers a completed node `(min, child)` with internal level
    /// `li` (0 = the leaves' parent), cascading upward when that
    /// level's pending node is itself complete.
    fn emit(&mut self, mut li: usize, mut min: Entry, mut child: PageId) -> Result<()> {
        loop {
            if self.inner.len() == li {
                self.inner.push(None);
            }
            match self.inner[li].take() {
                None => {
                    let page = self.alloc()?;
                    self.inner[li] =
                        Some(InnerState { page, min, child0: child, entries: Vec::new() });
                    return Ok(());
                }
                Some(mut state) if state.entries.len() == self.internal_target => {
                    // Complete: `min` (the first entry under the newly
                    // arrived child) bounds this node from above.
                    let succ = self.alloc()?;
                    let node = InternalNode {
                        child0: state.child0,
                        entries: std::mem::take(&mut state.entries),
                        next: succ,
                        high: Some(min),
                    };
                    self.store_internal(state.page, &node)?;
                    self.inner[li] =
                        Some(InnerState { page: succ, min, child0: child, entries: Vec::new() });
                    // The flushed node itself now registers one level up.
                    li += 1;
                    min = state.min;
                    child = state.page;
                }
                Some(mut state) => {
                    state.entries.push((min, child));
                    self.inner[li] = Some(state);
                    return Ok(());
                }
            }
        }
    }

    /// Flushes every level's rightmost pending node (no right link, no
    /// high key — they bound `+∞`) bottom-up.  The single node of the
    /// topmost level is the root.  Returns `None` for an empty input.
    fn finish(mut self) -> Result<Option<Built>> {
        let Some(state) = self.leaf.take() else {
            return Ok(None);
        };
        let node = LeafNode { entries: state.entries, next: PageId::INVALID, high: None };
        let min = node.entries[0];
        self.store_leaf(state.page, &node)?;
        if self.inner.is_empty() {
            // Single-leaf tree: the leaf is the root.
            return Ok(Some(Built {
                root: state.page,
                height: 1,
                first_leaf: self.first_leaf,
                count: self.count,
                pages: self.pages,
            }));
        }
        self.emit(0, min, state.page)?;
        let mut li = 0;
        loop {
            let state = self.inner[li].take().expect("every created level has a pending node");
            let node = InternalNode {
                child0: state.child0,
                entries: state.entries,
                next: PageId::INVALID,
                high: None,
            };
            self.store_internal(state.page, &node)?;
            if li + 1 == self.inner.len() {
                // A level with no level above it holds exactly one
                // node (a second node would have created the parent
                // when the first was emitted): the root.
                return Ok(Some(Built {
                    root: state.page,
                    height: li as u16 + 2,
                    first_leaf: self.first_leaf,
                    count: self.count,
                    pages: self.pages,
                }));
            }
            self.emit(li + 1, state.min, state.page)?;
            li += 1;
        }
    }
}

impl BTree {
    /// Bulk-builds this **empty** tree bottom-up from entries already
    /// sorted by `(key, payload)`, packing every node to `fill`
    /// (0 < fill ≤ 1; the rightmost node of each level holds the
    /// remainder).
    ///
    /// One streaming pass: each page is written exactly once and the
    /// builder keeps one pending node per level, so loading `n` entries
    /// costs `O(pages)` sequential page writes and `O(height)` memory —
    /// no per-entry descents (see the module docs).  On a durable pool
    /// the packed pages are written unlogged and synced to the data
    /// device, and only the meta install is logged, in the caller's
    /// transaction: the build commits, checkpoints and recovers like any
    /// other write.
    ///
    /// Errors with `InvalidArgument` if the tree is not empty, if the
    /// input is unsorted, if an entry's arity differs from the tree's,
    /// or if `fill` is out of range.  Concurrent DML *during* the build
    /// is not supported: the finished structure is installed under the
    /// meta latch, and losing an install race to a concurrent insert is
    /// reported as the same not-empty error rather than corrupting
    /// either write.
    ///
    /// ```
    /// use ri_btree::{BTree, Entry};
    /// use ri_pagestore::{BufferPool, MemDisk, DEFAULT_PAGE_SIZE};
    /// use std::sync::Arc;
    ///
    /// let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(DEFAULT_PAGE_SIZE)));
    /// let tree = BTree::create(pool, 1).unwrap();
    /// tree.bulk_build_into((0..5000i64).map(|i| Entry::new(&[i], i as u64)), 1.0).unwrap();
    /// assert_eq!(tree.entry_count().unwrap(), 5000);
    /// assert!(tree.contains(&[1234], 1234).unwrap());
    /// tree.insert(&[5000], 5000).unwrap(); // ordinary DML continues to work
    /// ```
    pub fn bulk_build_into(
        &self,
        entries: impl IntoIterator<Item = Entry>,
        fill: f64,
    ) -> Result<u64> {
        self.bulk_build_checked(entries.into_iter().map(Ok), fill)
    }

    /// [`BTree::bulk_build_into`] over fallibly produced entries — the
    /// internal form shared with [`BTree::bulk_load`], whose column
    /// vectors are validated lazily inside the iterator.
    pub(crate) fn bulk_build_checked(
        &self,
        entries: impl Iterator<Item = Result<Entry>>,
        fill: f64,
    ) -> Result<u64> {
        if !(fill > 0.0 && fill <= 1.0) {
            return Err(Error::InvalidArgument(format!("fill factor {fill} not in (0, 1]")));
        }
        let empty = |m: &Meta| m.root.is_invalid() && m.count == 0 && m.first_leaf.is_invalid();
        if !empty(&self.read_meta()?) {
            return Err(Error::InvalidArgument(
                "bulk build requires an empty tree (it replaces the structure wholesale)"
                    .to_string(),
            ));
        }
        let mut builder = BulkBuilder::new(self, fill);
        for e in entries {
            let e = e?;
            self.check_arity(e.key.as_slice())?;
            builder.push(e)?;
        }
        let Some(built) = builder.finish()? else {
            return Ok(0); // empty input: the tree stays empty
        };
        // The packed pages reach the synced device before the meta write
        // below makes them reachable.
        self.pool().publish_fresh_pages()?;
        // Install the finished structure.  On a fresh tree the latch is
        // uncontended by construction; it exists to detect (not to
        // support) a racing writer.
        self.pool().prefetch(self.meta_page())?;
        let _meta_latch = self.latches().page_exclusive(self.meta_page());
        let mut meta = self.read_meta()?;
        if !empty(&meta) {
            return Err(Error::InvalidArgument(
                "tree gained entries during the bulk build (concurrent DML is unsupported)"
                    .to_string(),
            ));
        }
        meta.root = built.root;
        meta.height = built.height;
        meta.count = built.count;
        meta.first_leaf = built.first_leaf;
        meta.pages += built.pages;
        self.write_meta(&meta)?;
        Ok(built.count)
    }
}

/// Page count a fill-1.0 bulk build of `n` entries produces, level by
/// level: `ceil(n / leaf_cap)` leaves, then each internal level packs
/// `internal_cap + 1` children per node until one remains.  Exact for
/// the builder's grouping; the scale-up figure uses it to price builds
/// it never runs, and tests use it to prove full fill.
pub fn predicted_pages(n: u64, leaf_cap: usize, internal_cap: usize) -> u64 {
    if n == 0 {
        return 0;
    }
    let mut nodes = n.div_ceil(leaf_cap as u64);
    let mut total = nodes;
    while nodes > 1 {
        nodes = nodes.div_ceil(internal_cap as u64 + 1);
        total += nodes;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{leaf_capacity, Node};
    use ri_pagestore::{BufferPool, BufferPoolConfig, MemDisk};
    use std::sync::Arc;

    fn small_pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(MemDisk::new(512), BufferPoolConfig::with_capacity(64)))
    }

    /// Minimum entry stored anywhere under `page` (leftmost descent).
    fn min_under(tree: &BTree, mut page: PageId) -> Entry {
        loop {
            match tree.read_any(page).unwrap() {
                Node::Leaf(l) => return l.entries[0],
                Node::Internal(n) => page = n.child0,
            }
        }
    }

    /// Walks one level's right-link chain, asserting every node except
    /// the rightmost is at exactly `target` fill with a high key equal
    /// to its successor's minimum entry.
    fn assert_level_packed(tree: &BTree, first: PageId, target: usize) -> Vec<PageId> {
        let mut pages = Vec::new();
        let mut page = first;
        loop {
            pages.push(page);
            let (len, next, high) = match tree.read_any(page).unwrap() {
                Node::Leaf(l) => (l.entries.len(), l.next, l.high),
                Node::Internal(n) => (n.entries.len(), n.next, n.high),
            };
            let next_min = (!next.is_invalid()).then(|| min_under(tree, next));
            match next_min {
                Some(min) => {
                    assert_eq!(len, target, "non-rightmost node {page} not at full fill");
                    assert_eq!(high, Some(min), "node {page} high key != successor's minimum");
                    page = next;
                }
                None => {
                    assert!(high.is_none(), "rightmost node {page} must bound +inf");
                    assert!(len >= 1);
                    return pages;
                }
            }
        }
    }

    #[test]
    fn every_non_rightmost_node_is_full_with_the_right_high_key() {
        let pool = small_pool();
        let tree = BTree::create(Arc::clone(&pool), 2).unwrap();
        let leaf_cap = leaf_capacity(512, 2);
        let n = (leaf_cap as i64) * 47 + 3; // several levels, ragged tail
        tree.bulk_build_into((0..n).map(|i| Entry::new(&[i / 7, i % 7], i as u64)), 1.0).unwrap();
        tree.check_invariants().unwrap();

        let meta = tree.read_meta().unwrap();
        assert_eq!(meta.count, n as u64);
        // Leaf level at leaf capacity…
        let leaves = assert_level_packed(&tree, meta.first_leaf, tree.leaf_cap);
        assert_eq!(leaves.len() as u64, (n as u64).div_ceil(tree.leaf_cap as u64));
        // …and every internal level at internal capacity.  Walk down
        // the leftmost spine to find each level's first node.
        let mut page = meta.root;
        let mut lefts = Vec::new();
        for _ in 2..=meta.height {
            lefts.push(page);
            page = match tree.read_any(page).unwrap() {
                Node::Internal(node) => node.child0,
                Node::Leaf(_) => panic!("spine ended early"),
            };
        }
        assert_eq!(page, meta.first_leaf, "spine must land on the first leaf");
        for first in lefts {
            assert_level_packed(&tree, first, tree.internal_cap);
        }
        // Full fill ⇒ the minimum possible page count.
        assert_eq!(meta.pages, predicted_pages(n as u64, tree.leaf_cap, tree.internal_cap));
    }

    #[test]
    fn builder_matches_predicted_pages_across_sizes() {
        for n in [0u64, 1, 2, 20, 21, 22, 419, 420, 421, 10_000] {
            let pool = small_pool();
            let tree = BTree::create(Arc::clone(&pool), 1).unwrap();
            tree.bulk_build_into((0..n as i64).map(|i| Entry::new(&[i], i as u64)), 1.0).unwrap();
            let stats = tree.stats().unwrap();
            assert_eq!(stats.entries, n);
            assert_eq!(
                stats.pages,
                predicted_pages(n, tree.leaf_cap, tree.internal_cap),
                "n = {n}"
            );
            tree.check_invariants().unwrap();
        }
    }

    #[test]
    fn bulk_build_rejects_a_non_empty_tree() {
        let pool = small_pool();
        let tree = BTree::create(pool, 1).unwrap();
        tree.insert(&[1], 1).unwrap();
        let err = tree.bulk_build_into([Entry::new(&[2], 2)], 1.0).unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
        // The resident entry is untouched.
        assert!(tree.contains(&[1], 1).unwrap());
        assert_eq!(tree.entry_count().unwrap(), 1);
    }

    #[test]
    fn dml_after_a_bulk_build_behaves_normally() {
        let pool = small_pool();
        let tree = BTree::create(pool, 1).unwrap();
        tree.bulk_build_into((0..500i64).map(|i| Entry::new(&[i * 2], i as u64)), 1.0).unwrap();
        // Inserts land between packed entries (forcing splits of full
        // leaves), deletes remove packed entries.
        for i in 0..200i64 {
            tree.insert(&[i * 2 + 1], 10_000 + i as u64).unwrap();
        }
        for i in 0..100i64 {
            assert!(tree.delete(&[i * 2], i as u64).unwrap());
        }
        tree.check_invariants().unwrap();
        assert_eq!(tree.entry_count().unwrap(), 500 + 200 - 100);
        assert!(tree.contains(&[3], 10_001).unwrap());
        assert!(!tree.contains(&[0], 0).unwrap());
    }

    #[test]
    fn empty_input_leaves_the_tree_empty() {
        let pool = small_pool();
        let tree = BTree::create(pool, 1).unwrap();
        assert_eq!(tree.bulk_build_into(std::iter::empty(), 1.0).unwrap(), 0);
        assert_eq!(tree.entry_count().unwrap(), 0);
        tree.check_invariants().unwrap();
        // Still usable.
        tree.insert(&[1], 1).unwrap();
        assert!(tree.contains(&[1], 1).unwrap());
    }
}

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
//!   the finished `(root, height, first_leaf)` under the meta latch only to
//!   turn a concurrent-insert race into a clean error instead of a lost
//!   tree.
//! * **One sequential write pass.**  Every node page is stored exactly
//!   once, the moment it is known complete (its successor's first entry
//!   is in hand, which becomes the high key).  Loading `n` entries
//!   costs `O(pages)` page writes and no read of any page it builds —
//!   the only pages it reads are the tree's meta page — and no
//!   per-entry root-to-leaf descent.
//! * **No log records and no device reads for packed pages.**  Each
//!   store hands its finished image to
//!   [`ri_pagestore::BufferPool::write_fresh_page`], which installs it
//!   as the frame's content without reading the page in, logs nothing
//!   and refuses any page the build did not allocate.  Before the meta
//!   install, [`ri_pagestore::BufferPool::publish_fresh_pages`] flushes
//!   and syncs them on a durable pool; the install is then an ordinary
//!   logged meta write in the caller's transaction.  A crash before the
//!   commit rolls the meta back to empty and leaks the pages; a crash
//!   after it finds every page on the synced device.
//! * **O(height) memory.**  The builder holds one page image per level:
//!   the node being packed there, written through the same
//!   `layout::NodeMut` the insert path edits pages with, and
//!   installed as its page once complete.  Levels above the leaves are
//!   discovered on demand.  A million-entry load carries three page
//!   images, not a million entries.
//!
//! Packing at fill 1.0 produces the minimum possible page count: every
//! node except the rightmost of its level holds exactly its capacity.
//! (Inserting the same entries in key order instead leaves every leaf
//! half full — the classic ascending-split pattern — at roughly twice
//! the pages.)  Lower fills trade density for headroom: a tree that
//! will absorb random inserts right after loading wants slack in every
//! leaf, one that serves a read-mostly workload wants fill 1.0.

use crate::key::Entry;
use crate::layout::NodeMut;
use crate::tree::{BTree, Meta};
use ri_pagestore::{Error, PageId, Result};

/// A node being packed: its pre-allocated page, its page image so far,
/// and the first entry stored under it (the separator it is registered
/// under in *its* parent).
struct Pending {
    page: PageId,
    node: NodeMut<Vec<u8>>,
    min: Entry,
}

/// The streaming bottom-up builder.  One page image per level; pages
/// are written exactly once, left to right, bottom levels interleaved
/// with the upper levels as nodes complete.
struct BulkBuilder<'t> {
    tree: &'t BTree,
    /// The pool's page count when the build began: every page at or
    /// above it that the builder stores, it allocated itself.
    build_start: u64,
    leaf_target: usize,
    internal_target: usize,
    /// Pending node per level; `levels[0]` is the leaves.  Levels appear
    /// when their first node is registered from below.
    levels: Vec<Option<Pending>>,
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
            levels: Vec::new(),
            first_leaf: PageId::INVALID,
            count: 0,
            pages: 0,
            prev: None,
        }
    }

    #[inline]
    fn push(&mut self, e: Entry) -> Result<()> {
        if let Some(prev) = self.prev {
            if e <= prev {
                return Err(Error::InvalidArgument(
                    "bulk_load input is not strictly sorted by (key, payload)".to_string(),
                ));
            }
        }
        self.prev = Some(e);
        self.count += 1;
        // Most entries land on the pending leaf, which has room.
        if let Some(Some(leaf)) = self.levels.first_mut() {
            if leaf.node.count() < self.leaf_target {
                leaf.node.push(&e);
                return Ok(());
            }
        }
        self.add(0, e, None)
    }

    /// Adds `min` to level `li`: as an entry on a leaf, or as the separator
    /// of `child` on an internal node.  When that level's pending node is
    /// complete, `min` is exactly its high key: the node is stored (its
    /// one and only write), a successor starts at `min`, and the stored
    /// node registers one level up.
    fn add(&mut self, mut li: usize, mut min: Entry, mut child: Option<PageId>) -> Result<()> {
        loop {
            if self.levels.len() == li {
                self.levels.push(None);
            }
            let target = if li == 0 { self.leaf_target } else { self.internal_target };
            let pending = self.levels[li].as_mut().filter(|p| p.node.count() < target);
            if let Some(Pending { node, .. }) = pending {
                node.push(&min);
                if let Some(child) = child {
                    node.set_child(node.count(), child);
                }
                return Ok(());
            }
            let succ = self.start(min, child)?;
            let succ_page = succ.page;
            let Some(done) = self.levels[li].replace(succ) else {
                if li == 0 {
                    self.first_leaf = succ_page;
                }
                return Ok(());
            };
            let registered = (done.min, Some(done.page));
            self.store(done, succ_page, Some(&min))?;
            (li, (min, child)) = (li + 1, registered);
        }
    }

    /// Starts a node on a freshly allocated page, in a zeroed image (what
    /// a fresh page holds): a leaf holding `min`, or an internal node
    /// whose `child0` is `child`, the subtree `min` starts.  Plain pool
    /// allocation, no meta latch: the page is unreachable until the final
    /// install publishes the root, which also charges the page total.
    fn start(&mut self, min: Entry, child: Option<PageId>) -> Result<Pending> {
        let page = self.tree.pool().allocate_page()?;
        self.pages += 1;
        let image = vec![0; self.tree.pool().page_size()];
        let mut node = NodeMut::init(image, self.tree.arity(), child.is_none());
        match child {
            None => node.push(&min),
            Some(child) => node.set_child(0, child),
        }
        Ok(Pending { page, node, min })
    }

    /// Stores a completed node with its right link and high key (none:
    /// the rightmost of its level): its one write, unlogged (see the
    /// module docs).
    fn store(&self, mut done: Pending, next: PageId, high: Option<&Entry>) -> Result<()> {
        done.node.set_next(next);
        done.node.set_high(high);
        self.tree.pool().write_fresh_page(self.build_start, done.page, &done.node.into_inner())
    }

    /// Stores every level's rightmost pending node (no right link, no
    /// high key — they bound `+∞`) bottom-up, each registered with the
    /// level above first.  A level with no level above it holds exactly
    /// one node (a second would have created the parent when the first
    /// was registered): the root.  Returns `(root, height)`, `None` for
    /// an empty input.
    fn finish(&mut self) -> Result<Option<(PageId, u16)>> {
        let mut below = None;
        let mut li = 0;
        // A registration may create a level, so the bound is re-read.
        while li < self.levels.len() {
            if let Some((min, page)) = below {
                self.add(li, min, Some(page))?;
            }
            let top = self.levels[li].take().expect("every created level has a pending node");
            below = Some((top.min, top.page));
            self.store(top, PageId::INVALID, None)?;
            li += 1;
        }
        Ok(below.map(|(_, root)| (root, li as u16)))
    }
}

impl BTree {
    /// Bulk-builds this **empty** tree bottom-up from distinct entries
    /// already sorted by `(key, payload)`, packing every node to `fill`
    /// (0 < fill ≤ 1; the rightmost node of each level holds the
    /// remainder).
    ///
    /// One streaming pass: each page is written exactly once and the
    /// builder keeps one page image per level, so loading `n` entries
    /// costs `O(pages)` sequential page writes and `O(height)` memory —
    /// no per-entry descents (see the module docs).  On a durable pool
    /// the packed pages are written unlogged and synced to the data
    /// device, and only the meta install is logged, in the caller's
    /// transaction: the build commits, checkpoints and recovers like any
    /// other write.
    ///
    /// Errors with `InvalidArgument` if the tree is not empty, if the
    /// input is unsorted or repeats an entry, if an entry's arity differs from the tree's,
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
        let empty = |m: &Meta| m.root.is_invalid() && m.first_leaf.is_invalid();
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
        let Some((root, height)) = builder.finish()? else {
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
        meta.root = root;
        meta.height = height;
        meta.first_leaf = builder.first_leaf;
        meta.pages += builder.pages;
        self.write_meta(&meta)?;
        Ok(builder.count)
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
    use crate::layout::leaf_capacity;
    use crate::layout::tests::node;
    use ri_pagestore::{BufferPool, BufferPoolConfig, DiskManager, FileDisk, MemDisk};
    use std::path::PathBuf;
    use std::sync::Arc;

    fn small_pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(MemDisk::new(512), BufferPoolConfig::with_capacity(64)))
    }

    /// Minimum entry stored anywhere under `page` (leftmost descent).
    fn min_under(tree: &BTree, mut page: PageId) -> Entry {
        loop {
            match node(tree, page) {
                l if l.leaf => return l.entries[0].0,
                n => page = n.child0,
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
            let n = node(tree, page);
            let (len, next, high) = (n.entries.len(), n.next, n.high);
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

        assert_eq!(tree.entry_count().unwrap(), n as u64);
        let meta = tree.read_meta().unwrap();
        // Leaf level at leaf capacity…
        let leaves = assert_level_packed(&tree, meta.first_leaf, tree.leaf_cap);
        assert_eq!(leaves.len() as u64, (n as u64).div_ceil(tree.leaf_cap as u64));
        // …and every internal level at internal capacity.  Walk down
        // the leftmost spine to find each level's first node.
        let mut page = meta.root;
        let mut lefts = Vec::new();
        for _ in 2..=meta.height {
            lefts.push(page);
            page = match node(&tree, page) {
                n if !n.leaf => n.child0,
                _ => panic!("spine ended early"),
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
            assert_eq!(tree.entry_count().unwrap(), n);
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

    /// A pool of `frames` over a `FileDisk` in a fresh file, and the file.
    fn file_pool(name: &str, frames: usize) -> (Arc<BufferPool>, Arc<FileDisk>, PathBuf) {
        let path = std::env::temp_dir().join(format!("ri-btree-{name}-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let disk = Arc::new(FileDisk::open(&path, 512).unwrap());
        let pool = BufferPool::new(Arc::clone(&disk), BufferPoolConfig::with_capacity(frames));
        (Arc::new(pool), disk, path)
    }

    /// `n` sorted arity-2 entries.
    fn entries(n: i64) -> impl Iterator<Item = Entry> {
        (0..n).map(|i| Entry::new(&[i / 7, i % 7], i as u64))
    }

    /// The builder hands each packed page to the pool whole, so no page
    /// it packs is ever read from the device: on a pool a fifth the size
    /// of the tree, the one physical read is the meta page, which the
    /// build pushes out and the install reads back.
    #[test]
    fn a_build_reads_none_of_the_pages_it_packs() {
        let (pool, _disk, path) = file_pool("no-reads", 64);
        let tree = BTree::create(Arc::clone(&pool), 2).unwrap();
        let before = pool.stats().snapshot();
        tree.bulk_build_into(entries(leaf_capacity(512, 2) as i64 * 300), 1.0).unwrap();
        let io = pool.stats().snapshot().since(&before);
        let pages = tree.stats().unwrap().pages;
        assert!(pages > 5 * 64, "{pages} pages");
        assert_eq!(io.physical_reads, 1, "the build read more than the meta page");
        assert!(io.physical_writes >= pages - 64, "packed pages evicted dirty, written once");
        tree.check_invariants().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    /// Through a pool that evicts the dirty packed pages mid-build and one
    /// that holds them all, the same build leaves the same device bytes.
    #[test]
    fn evicting_fresh_pages_mid_build_writes_the_bytes_a_resident_build_does() {
        let n = leaf_capacity(512, 2) as i64 * 120 + 5;
        let mut images = Vec::new();
        for (name, frames) in [("evicting", 4), ("resident", 4096)] {
            let (pool, disk, path) = file_pool(name, frames);
            let tree = BTree::create(Arc::clone(&pool), 2).unwrap();
            tree.bulk_build_into(entries(n), 1.0).unwrap();
            let evicted = pool.stats().snapshot().physical_writes;
            assert_eq!(evicted > 0, frames == 4, "{name}: {evicted} write-backs before the flush");
            pool.flush_all().unwrap();
            let mut image = vec![0u8; 512 * disk.num_pages() as usize];
            for (id, page) in image.chunks_mut(512).enumerate() {
                disk.read_page(PageId(id as u64), page).unwrap();
            }
            images.push(image);
            drop((tree, pool));
            std::fs::remove_file(&path).unwrap();
        }
        assert!(images[0].len() > 100 * 512, "{} bytes", images[0].len());
        assert!(images[0] == images[1], "the evicting build wrote different bytes");
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

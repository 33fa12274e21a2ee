//! The B-link tree proper: create/open, insert, delete, bulk load,
//! invariants.
//!
//! # Write concurrency: the Lehman–Yao B-link protocol
//!
//! The tree is a **B-link tree**: every node carries a *right
//! link* to its sibling and a *high key* bounding its key range
//! (`layout`).  That one structural relaxation removes the tree-wide
//! latch entirely — there is no latch under which the whole structure is
//! ever frozen (see ARCHITECTURE.md for the full argument):
//!
//! * **Readers are latch-free.**  A descent reads the meta page (root +
//!   height are written together, so the pair is consistent), walks down
//!   routing by separators, and whenever it finds its target at or past a
//!   node's high key it *moves right* through the right link.  A stale
//!   root is harmless — the root only grows, and an old root's right
//!   chain still covers the whole key space at its level.
//! * **Writers latch one node at a time.**  An insert descends latch-free
//!   (remembering the internal page it routed through at each level as a
//!   *hint stack*), takes the leaf latch exclusive, moves right under the
//!   latch if a concurrent split shifted its key range, and stores in
//!   place.  No crabbing, no shared page latches, no upgrade.  A write that
//!   does not split is *leaf-local*: that one leaf latch is all it takes,
//!   and the meta page is neither latched nor written (the tree keeps no
//!   entry count; [`BTree::entry_count`] walks the leaves).
//! * **Splits are two-phase.**  Phase 1, under only the splitting node's
//!   latch: allocate the right sibling, give it the upper half of the
//!   entries plus the old right link and high key, then publish — the
//!   sibling page is stored *before* the left node links it, so a reader
//!   can never follow a link into an unwritten page.  The tree is fully
//!   searchable the moment the left node's store lands (keys past the new
//!   high key are reached by moving right).  Phase 2, after releasing the
//!   leaf latch: post the separator into the parent under the *parent's*
//!   latch (starting from the hint stack and moving right as needed).  A
//!   parent that overflows splits the same way, one level up.  When the
//!   stack runs out, the writer latches the meta page: if the split node
//!   is still the root it installs a new root (*root grow*), otherwise a
//!   concurrent grow won the race and the writer re-descends from the
//!   current root to the correct level and posts there.
//! * **Deletes never restructure.**  An emptied leaf stays in the tree
//!   with its high key and right link intact (it still routes correctly
//!   and can absorb later inserts); pages are never unlinked or freed, so
//!   a latch-free reader can never walk into a recycled page.  This is
//!   the standard production trade-off pushed one step further than the
//!   seed's empty-page reclamation — reclaiming under B-link rules
//!   requires a right-to-left latch order or reader quiescence tracking,
//!   and is left to an explicit future vacuum.
//!
//! **Deadlock freedom.**  Writers acquire node latches one at a time in
//! two monotone directions only: *left to right* along a level (the
//! move-right loops) and *bottom up* across levels (leaf latch released
//! before the parent post).  The meta-page latch is taken only by
//! structure changes — a split's page allocation, the root plant, a root
//! grow and the bulk-build install — and is always innermost (taken while
//! holding at most one node latch, released before any other latch is
//! acquired), so every latch-order edge points right, up, or into the meta
//! page — no cycles.  Readers hold no latches at all.
//!
//! The counters telling the story live in the pool's latch manager:
//! `splits`, `right_link_chases` (zero single-threaded — only an
//! in-flight concurrent split makes a traversal land left of its key),
//! `incomplete_smo_completions` (phase-2 separator posts / root grows),
//! and `pending_root_grow_waits` (a top-level sibling split had to wait
//! for a still-pending root grow before its parent level existed).
//!
//! # Latches vs page faults (audit)
//!
//! With the pool's promoted miss path, a fault performs its device read
//! outside the shard lock — but a *latch* held across a fault would still
//! queue that latch's waiters behind the fetch.  Every page is therefore
//! [`BufferPool::prefetch`]ed immediately before its latch is acquired,
//! so the read under a page's own latch is a cache hit.  (Best-effort,
//! not an invariant: under heavy eviction pressure a concurrent fault may
//! evict the page in the prefetch-to-latch window and the latched read
//! then re-faults; the window contains no device I/O, so this is rare,
//! and merely reduces to the pre-prefetch behavior.)  Because writers
//! hold one node latch at a time and readers hold none, no latch's
//! waiters queue behind another page's device *read* on any read or
//! descent path — the residual parent-holds-while-child-prefetches
//! window of the crabbing protocol is gone along with the crabbing.
//! What can still span a fault under a latch: the split paths store
//! freshly allocated sibling/root pages (and `grow_or_relocate` writes
//! the new root under the meta latch) without prefetching them — under
//! eviction pressure such a store can fault its frame in while the
//! latch is held.  Splits are rare and the stored pages are newly
//! allocated (their fill is a device read of a zero page), so this is
//! recorded as a bounded exposure rather than engineered away.

use crate::key::Entry;
use crate::layout::{
    internal_capacity, internal_entry_size, leaf_capacity, leaf_entry_size, read_entry, NodeMut,
    NodeView,
};
use crate::scan::RangeScan;
use ri_pagestore::codec::{get_u16, get_u32, get_u64, put_u16, put_u32, put_u64};
use ri_pagestore::{BufferPool, Error, LatchGuard, LatchManager, PageId, Result};
use std::ops::ControlFlow::{Break, Continue};
use std::sync::{Arc, Mutex};

const META_MAGIC: u32 = 0x5249_4254; // "RIBT"

const OFF_MAGIC: usize = 0;
const OFF_ARITY: usize = 4;
const OFF_HEIGHT: usize = 6;
const OFF_ROOT: usize = 8;
// Offsets 16 and 24 are reserved: older meta pages hold an entry count and
// a free-list head there, which nothing reads.  No other offset moved.
const OFF_FIRST_LEAF: usize = 32;
const OFF_PAGES: usize = 40;

/// Persistent tree metadata, stored in the tree's meta page: the tree's
/// shape, which only structure changes write.
///
/// Every field is written only under an exclusive latch on the meta page,
/// and `root`/`height` change together — a reader's unlatched copy is
/// therefore internally consistent, if possibly stale (which the B-link
/// move-right rule absorbs).  No field changes on a write that does not
/// split, so such an insert or delete never touches this page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Meta {
    pub(crate) root: PageId,
    /// Number of levels; 0 = empty tree, 1 = root is a leaf.  Only ever
    /// grows (roots are never collapsed: deletes do not restructure).
    pub(crate) height: u16,
    pub(crate) first_leaf: PageId,
    /// Pages currently owned by the tree (excluding the meta page).
    pub(crate) pages: u64,
}

/// Shape statistics, read off the meta page in O(1).  The entry count is
/// not among them: [`BTree::entry_count`] walks the leaves for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeStats {
    /// Tree height in levels (0 = empty).
    pub height: u16,
    /// Pages in use (leaves + internal nodes).
    pub pages: u64,
}

/// The window of an in-flight structure modification, reported to the
/// test probe installed via [`BTree::set_smo_probe`].
///
/// This exists for the concurrency test suites: it lets a deterministic
/// test run readers *inside* the window between the two phases of a
/// split (sibling published, separator not yet posted) without relying
/// on scheduler timing.  Production code never installs a probe.
#[derive(Clone, Copy, Debug)]
pub enum SmoPhase {
    /// A leaf split published its right sibling; the parent separator is
    /// not posted yet.  The probe runs on the splitting thread, which
    /// holds **no latches** at this point.
    LeafSplitLinked {
        /// The node that split (keeps the lower half).
        left: PageId,
        /// The freshly published right sibling.
        right: PageId,
    },
    /// An internal split published its right sibling; the separator one
    /// level up is not posted yet.  No latches held.
    InternalSplitLinked {
        /// The node that split.
        left: PageId,
        /// The freshly published right sibling.
        right: PageId,
    },
    /// A root grow installed a new root above a completed split.
    RootGrown {
        /// The new root page.
        root: PageId,
    },
}

/// Test probe callback type (see [`BTree::set_smo_probe`]).
pub type SmoProbe = dyn Fn(SmoPhase) + Send + Sync;

/// A disk-based B-link tree over a shared [`BufferPool`].
///
/// A tree is identified by its *meta page*; [`BTree::create`] allocates one
/// and [`BTree::open`] re-attaches to it, which is how the relational
/// catalog persists indexes across database restarts.
///
/// Any number of threads may read and write one tree concurrently — even
/// through *different* handles opened on the same meta page, since all
/// synchronization state lives in the shared pool's latch manager.  There
/// is **no cursor rule**: scans are latch-free, so a thread may freely
/// write through a tree while holding one of its scan cursors (the
/// pre-B-link protocol forbade this).
pub struct BTree {
    pool: Arc<BufferPool>,
    meta_page: PageId,
    arity: usize,
    pub(crate) leaf_cap: usize,
    pub(crate) internal_cap: usize,
    /// Test instrumentation for the split window; `None` in production.
    smo_probe: Mutex<Option<Arc<SmoProbe>>>,
}

/// A full node's entry slots with the new one spliced in
/// ([`NodeView::spliced`]: one more than fit), and the right link and high
/// key its split's sibling inherits — all read under the node's latch.
struct Overfull {
    leaf: bool,
    slots: Vec<u8>,
    next: PageId,
    high: Option<Entry>,
}

impl Overfull {
    /// `None` while `node` has room for one more of its `cap` entries;
    /// otherwise its slots with `e` (and, internal, `child` right of it)
    /// spliced in.
    fn of(node: NodeView<'_>, cap: usize, e: &Entry, child: PageId) -> Option<Overfull> {
        (node.count() >= cap).then(|| Overfull {
            leaf: node.is_leaf(),
            slots: node.spliced(e, child),
            next: node.next(),
            high: node.high(),
        })
    }
}

/// Outcome of [`BTree::grow_or_relocate`]: either the root grew (the
/// separator is posted in the new root), or the parent at the target
/// level was located and the post must continue there.
enum ParentSearch {
    Grown,
    At(PageId),
}

impl BTree {
    /// Creates a new empty tree with keys of `arity` columns.
    pub fn create(pool: Arc<BufferPool>, arity: usize) -> Result<BTree> {
        if arity == 0 || arity > crate::key::MAX_ARITY {
            return Err(Error::InvalidArgument(format!(
                "index arity must be 1..={}, got {arity}",
                crate::key::MAX_ARITY
            )));
        }
        let meta_page = pool.allocate_page()?;
        let tree = BTree::attach(pool, meta_page, arity);
        tree.write_meta(&Meta {
            root: PageId::INVALID,
            height: 0,
            first_leaf: PageId::INVALID,
            pages: 0,
        })?;
        Ok(tree)
    }

    /// Re-opens the tree whose metadata lives at `meta_page`.
    pub fn open(pool: Arc<BufferPool>, meta_page: PageId) -> Result<BTree> {
        let (magic, arity) =
            pool.with_page(meta_page, |buf| (get_u32(buf, OFF_MAGIC), buf[OFF_ARITY] as usize))?;
        if magic != META_MAGIC || arity == 0 || arity > crate::key::MAX_ARITY {
            return Err(Error::Corrupt(format!("page {meta_page} is not a B+-tree meta page")));
        }
        Ok(BTree::attach(pool, meta_page, arity))
    }

    fn attach(pool: Arc<BufferPool>, meta_page: PageId, arity: usize) -> BTree {
        let ps = pool.page_size();
        BTree {
            pool,
            meta_page,
            arity,
            leaf_cap: leaf_capacity(ps, arity),
            internal_cap: internal_capacity(ps, arity),
            smo_probe: Mutex::new(None),
        }
    }

    #[inline]
    pub(crate) fn latches(&self) -> &LatchManager {
        self.pool.latches()
    }

    /// The page id identifying this tree (to be recorded in a catalog).
    pub fn meta_page(&self) -> PageId {
        self.meta_page
    }

    /// Number of key columns.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The buffer pool this tree performs I/O through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Number of entries stored, counted by a latch-free walk of the leaf
    /// runs ([`RangeScan::for_each_run`]): O(leaves) page reads, exact on a
    /// quiescent tree.  Under concurrent writers it counts what a scan
    /// would see.  The tree keeps no count of its own, so that a write
    /// stays leaf-local (`btree_behaviour.rs`,
    /// `writes_that_do_not_split_are_leaf_local`).
    pub fn entry_count(&self) -> Result<u64> {
        let mut bytes = 0;
        self.scan_all().for_each_run(|run| bytes += run.len() as u64)?;
        Ok(bytes / leaf_entry_size(self.arity) as u64)
    }

    /// Height and page count, from the meta page.
    pub fn stats(&self) -> Result<TreeStats> {
        let meta = self.read_meta()?;
        Ok(TreeStats { height: meta.height, pages: meta.pages })
    }

    /// Installs (or clears) the structure-modification probe on **this
    /// handle** — a test hook invoked in the window between the two
    /// phases of every split, with no latches held (see [`SmoPhase`]).
    /// The concurrency suites use it to run readers deterministically
    /// *inside* in-flight splits; production code leaves it unset, in
    /// which case the write path never looks at it off the split path.
    pub fn set_smo_probe(&self, probe: Option<Arc<SmoProbe>>) {
        *self.smo_probe.lock().unwrap_or_else(|e| e.into_inner()) = probe;
    }

    fn probe(&self, phase: SmoPhase) {
        let probe = self.smo_probe.lock().unwrap_or_else(|e| e.into_inner()).clone();
        if let Some(p) = probe {
            p(phase);
        }
    }

    // ------------------------------------------------------------------
    // Meta page and page allocation
    // ------------------------------------------------------------------

    pub(crate) fn read_meta(&self) -> Result<Meta> {
        self.pool.with_page(self.meta_page, |buf| {
            if get_u32(buf, OFF_MAGIC) != META_MAGIC {
                return Err(Error::Corrupt("meta page magic mismatch".to_string()));
            }
            Ok(Meta {
                root: PageId(get_u64(buf, OFF_ROOT)),
                height: get_u16(buf, OFF_HEIGHT),
                first_leaf: PageId(get_u64(buf, OFF_FIRST_LEAF)),
                pages: get_u64(buf, OFF_PAGES),
            })
        })?
    }

    pub(crate) fn write_meta(&self, meta: &Meta) -> Result<()> {
        self.pool.with_page_mut(self.meta_page, |buf| {
            put_u32(buf, OFF_MAGIC, META_MAGIC);
            buf[OFF_ARITY] = self.arity as u8;
            put_u16(buf, OFF_HEIGHT, meta.height);
            put_u64(buf, OFF_ROOT, meta.root.raw());
            put_u64(buf, OFF_FIRST_LEAF, meta.first_leaf.raw());
            put_u64(buf, OFF_PAGES, meta.pages);
        })
    }

    /// Allocates a page for this tree and charges it to the meta page's
    /// `pages` counter under the meta latch.  Called from split paths
    /// while holding (at most) the splitting node's latch; the meta
    /// latch is always innermost, so this cannot deadlock.
    fn alloc_page_latched(&self) -> Result<PageId> {
        let page = self.pool.allocate_page()?;
        self.pool.prefetch(self.meta_page)?;
        let _meta_latch = self.latches().page_exclusive(self.meta_page);
        self.pool.with_page_mut(self.meta_page, |buf| {
            let pages = get_u64(buf, OFF_PAGES);
            put_u64(buf, OFF_PAGES, pages + 1);
        })?;
        Ok(page)
    }

    // ------------------------------------------------------------------
    // Node I/O: a write edits its page in place
    // ------------------------------------------------------------------

    /// Edits node `page` in place through its [`NodeMut`], the header
    /// validated inside the one `with_page_mut`.  Writes only the bytes
    /// `f` changes.
    fn edit<T>(&self, page: PageId, f: impl FnOnce(&mut NodeMut<&mut [u8]>) -> T) -> Result<T> {
        let arity = self.arity;
        self.pool.with_page_mut(page, |buf| NodeMut::parse(buf, arity).map(|mut n| f(&mut n)))?
    }

    /// Formats the freshly allocated `page` as an empty node
    /// ([`NodeMut::init`]) and fills it with `f`, in one `with_page_mut`.
    fn format(
        &self,
        page: PageId,
        leaf: bool,
        f: impl FnOnce(&mut NodeMut<&mut [u8]>),
    ) -> Result<()> {
        let arity = self.arity;
        self.pool.with_page_mut(page, |buf| f(&mut NodeMut::init(buf, arity, leaf)))
    }

    // ------------------------------------------------------------------
    // Latch-free descent
    // ------------------------------------------------------------------

    /// Latch-free move-right, in place: starting at `page`, looks at each
    /// node through its [`NodeView`] (header validated, kind checked) in
    /// the pool's shared, immutable page snapshot and chases right links until the
    /// node's key range covers `target`, then runs `f` on that view.
    /// Returns the covering page with `f`'s result.  The read path's form
    /// of [`BTree::chase`], on internal levels and the leaf level alike.
    pub(crate) fn with_covering_node<T>(
        &self,
        page: PageId,
        target: &Entry,
        want_leaf: bool,
        f: impl FnMut(NodeView<'_>) -> T,
    ) -> Result<(PageId, T)> {
        let (page, found, _) = self.chase(page, target, want_leaf, false, f)?;
        Ok((page, found))
    }

    /// Latched move-right: [`BTree::with_covering_node`] with each page
    /// prefetched and exclusively latched before it is read, and the latch
    /// released before the chase moves right.  Returns the covering page,
    /// `f`'s result and the latch, still held.
    fn latch_covering_node<T>(
        &self,
        page: PageId,
        target: &Entry,
        want_leaf: bool,
        f: impl FnMut(NodeView<'_>) -> T,
    ) -> Result<(PageId, T, LatchGuard<'_>)> {
        let (page, found, guard) = self.chase(page, target, want_leaf, true, f)?;
        Ok((page, found, guard.expect("a latched chase returns its node's latch")))
    }

    /// The single canonical chase loop, latch-free or (`latch`) latched:
    /// the coverage test is [`NodeView::covers`] either way.
    fn chase<T>(
        &self,
        mut page: PageId,
        target: &Entry,
        want_leaf: bool,
        latch: bool,
        mut f: impl FnMut(NodeView<'_>) -> T,
    ) -> Result<(PageId, T, Option<LatchGuard<'_>>)> {
        let arity = self.arity;
        let mut chased = 0;
        loop {
            let guard = if latch {
                self.pool.prefetch(page)?;
                Some(self.latches().page_exclusive(page))
            } else {
                None
            };
            let step = self.pool.with_page(page, |buf| {
                let node = NodeView::parse(buf, arity)?;
                if node.is_leaf() != want_leaf {
                    let want = if want_leaf { "a leaf" } else { "an internal node" };
                    return Err(Error::Corrupt(format!("expected {want} at {page}")));
                }
                Ok(if node.covers(target) { Break(f(node)) } else { Continue(node.next()) })
            })??;
            match step {
                Break(found) => return Ok((page, found, guard)),
                Continue(next) => {
                    drop(guard);
                    self.count_chase(&mut chased, page, next)?;
                    page = next;
                }
            }
        }
    }

    /// Records one more right link, `page` → `next`, followed in a chase
    /// that has followed `chased` so far.  A node is only left through its
    /// link when its high key says so, and the two are written together:
    /// a high key with no link is `Corrupt`.  So is a chain that loops
    /// back — it visits each of its pages once, so following more links
    /// than the device has pages is a traversal that would never end.
    fn count_chase(&self, chased: &mut u64, page: PageId, next: PageId) -> Result<()> {
        if next.is_invalid() {
            return Err(Error::Corrupt(format!("high key without a right link at {page}")));
        }
        self.latches().record_right_link_chase();
        *chased += 1;
        if *chased > self.pool.num_pages() {
            return Err(Error::Corrupt(format!("right links cycle through {page}")));
        }
        Ok(())
    }

    /// Descends from `meta.root` to the leaf level, routing toward
    /// `target` in place and moving right past high keys.  Returns the
    /// leaf page reached plus (when `want_stack`) the internal page
    /// routed through at each level, shallowest first — the writer's
    /// hint stack for separator posting.
    ///
    /// `meta` may be stale: `root` and `height` are written together, so
    /// the pair is consistent, and a root that has since grown or split
    /// still covers the key space through its right chain.
    fn descend(
        &self,
        meta: &Meta,
        target: &Entry,
        want_stack: bool,
    ) -> Result<(PageId, Vec<PageId>)> {
        let mut page = meta.root;
        let mut stack =
            if want_stack { Vec::with_capacity(meta.height as usize) } else { Vec::new() };
        for _ in 2..=meta.height {
            let (covering, child) =
                self.with_covering_node(page, target, false, |node| node.route(target))?;
            if want_stack {
                stack.push(covering);
            }
            page = child;
        }
        Ok((page, stack))
    }

    // ------------------------------------------------------------------
    // Insert
    // ------------------------------------------------------------------

    /// Inserts `(cols, payload)`; returns `false`, and writes nothing, if
    /// that exact entry is already stored.
    ///
    /// The tree is a set of entries: equal keys are told apart by their
    /// payloads (the column the key leaves out).  The check is
    /// one search of the leaf the entry belongs in, under the latch the
    /// insert takes anyway, so of racing inserts of one entry exactly one
    /// returns `true`.
    ///
    /// Concurrency: the descent is latch-free, and an insert that does not
    /// split holds only the leaf latch, for one in-place edit — it neither
    /// latches nor writes the meta page (`btree_behaviour.rs`,
    /// `writes_that_do_not_split_are_leaf_local`).  A split runs the
    /// two-phase B-link protocol described in the module docs and never
    /// excludes readers or leaf-disjoint writers.
    pub fn insert(&self, cols: &[i64], payload: u64) -> Result<bool> {
        self.check_arity(cols)?;
        let entry = Entry::new(cols, payload);
        loop {
            let meta = self.read_meta()?;
            if meta.root.is_invalid() {
                if self.try_plant_root(entry)? {
                    return Ok(true);
                }
                continue; // lost the empty-tree race; a root exists now
            }
            let (leaf_hint, stack) = self.descend(&meta, &entry, true)?;
            let (leaf_page, full, guard) =
                self.latch_covering_node(leaf_hint, &entry, true, |leaf| {
                    (!leaf.contains(&entry))
                        .then(|| Overfull::of(leaf, self.leaf_cap, &entry, PageId::INVALID))
                })?;
            let Some(full) = full else {
                return Ok(false); // already stored
            };
            let Some(full) = full else {
                // Safe leaf: one latched in-place edit.  This is the
                // parallel path — leaf-disjoint writers never touch.
                self.edit(leaf_page, |leaf| leaf.insert(&entry))?;
                return Ok(true);
            };
            let (sep, right_page) = self.split(leaf_page, full)?;
            drop(guard);
            self.probe(SmoPhase::LeafSplitLinked { left: leaf_page, right: right_page });
            self.post_separator(stack, leaf_page, 1, sep, right_page)?;
            return Ok(true);
        }
    }

    /// Creates the first root leaf holding `entry`, unless another writer
    /// planted one first (returns `false`; the caller re-descends).  The
    /// leaf page is stored before the meta page points at it.
    fn try_plant_root(&self, entry: Entry) -> Result<bool> {
        self.pool.prefetch(self.meta_page)?;
        let _meta_latch = self.latches().page_exclusive(self.meta_page);
        let mut meta = self.read_meta()?;
        if !meta.root.is_invalid() {
            return Ok(false);
        }
        let root = self.pool.allocate_page()?;
        meta.pages += 1;
        self.format(root, true, |leaf| leaf.push(&entry))?;
        meta.root = root;
        meta.first_leaf = root;
        meta.height = 1;
        self.write_meta(&meta)?;
        Ok(true)
    }

    /// Phase 1 of a split, leaf or internal.  The caller holds the latch
    /// of `page`, whose slots it read under that latch into `full`.  The
    /// right sibling takes the upper half, the old right link and the old
    /// high key.  The sibling page is stored **before** the left node is
    /// truncated and relinked, so the link is never dangling for latch-free
    /// readers.  Returns the separator and the sibling page: a leaf
    /// sibling's first entry, or an internal node's middle separator, which
    /// moves up while its child becomes the sibling's `child0`.
    fn split(&self, page: PageId, full: Overfull) -> Result<(Entry, PageId)> {
        let Overfull { leaf, slots, next, high } = full;
        let sep_size = leaf_entry_size(self.arity);
        let stride = if leaf { sep_size } else { internal_entry_size(self.arity) };
        let (lower, upper) = slots.split_at(slots.len() / stride / 2 * stride);
        let sep = read_entry(upper, self.arity);
        let right_page = self.alloc_page_latched()?;
        self.format(right_page, leaf, |right| {
            if leaf {
                right.set_slots(upper);
            } else {
                right.set_child(0, PageId(get_u64(upper, sep_size)));
                right.set_slots(&upper[stride..]);
            }
            right.set_next(next);
            right.set_high(high.as_ref());
        })?;
        self.edit(page, |left| {
            left.set_slots(lower);
            left.set_next(right_page);
            left.set_high(Some(&sep));
        })?;
        self.latches().record_split();
        Ok((sep, right_page))
    }

    /// Phase 2 of the split protocol: post `(sep, right)` — the split of
    /// `left`, a node at `left_level` — into the parent level, cascading
    /// upward while parents overflow.  The caller holds **no latches**.
    /// `stack` holds the descent's per-level routing hints (shallowest
    /// first); a hint that has since split is corrected by moving right
    /// under the parent latch, and an exhausted stack means `left` was
    /// the root when the descent read it (handled by
    /// [`BTree::grow_or_relocate`]).
    fn post_separator(
        &self,
        mut stack: Vec<PageId>,
        mut left: PageId,
        mut left_level: u16,
        mut sep: Entry,
        mut right: PageId,
    ) -> Result<()> {
        loop {
            let hint = match stack.pop() {
                Some(p) => p,
                None => match self.grow_or_relocate(left, left_level, sep, right)? {
                    ParentSearch::Grown => return Ok(()),
                    ParentSearch::At(p) => p,
                },
            };
            let (page, full, guard) = self.latch_covering_node(hint, &sep, false, |node| {
                Overfull::of(node, self.internal_cap, &sep, right)
            })?;
            self.latches().record_smo_completion();
            let Some(full) = full else {
                self.edit(page, |node| {
                    let pos = node.insert(&sep);
                    node.set_child(pos + 1, right);
                })?;
                return Ok(());
            };
            // The parent overflows: split it the same two-phase way and
            // continue posting one level up.  The promoted separator
            // moves to the parent level; the right node's first child is
            // the promoted separator's child.
            let (promoted, new_right) = self.split(page, full)?;
            drop(guard);
            self.probe(SmoPhase::InternalSplitLinked { left: page, right: new_right });
            left = page;
            left_level += 1;
            sep = promoted;
            right = new_right;
        }
    }

    /// The hint stack is exhausted: `left` (at `left_level`) was at the
    /// top of the tree as this writer's descent saw it.  Under the meta
    /// latch, either it is the current root — install a new root over
    /// `(left, sep, right)` (*root grow*) — or the level above it is (or
    /// will shortly be) owned by someone else: walk down from the
    /// *current* root to the level just above `left` and return the
    /// parent to post into.
    ///
    /// One genuinely pending case exists: `left` is a *right sibling* at
    /// the top level whose own creation's root grow has not landed yet
    /// (old root `R` split into `R → left`, the splitter released its
    /// latch — making `left` reachable — but has not yet installed the
    /// new root).  Then `meta.root != left` **and** `meta.height ==
    /// left_level`: the parent that must absorb this separator does not
    /// exist yet.  The only correct move is to wait for the pending grow
    /// (we hold no latches; the grower needs only the meta latch, which
    /// we release every probe; in-process the grower always completes),
    /// then relocate normally.
    fn grow_or_relocate(
        &self,
        left: PageId,
        left_level: u16,
        sep: Entry,
        right: PageId,
    ) -> Result<ParentSearch> {
        let meta = loop {
            // `Ok(new root)` when this writer grew the tree, `Err(meta)`
            // otherwise.
            let grown: std::result::Result<PageId, Meta> = {
                self.pool.prefetch(self.meta_page)?;
                let _meta_latch = self.latches().page_exclusive(self.meta_page);
                let mut meta = self.read_meta()?;
                if meta.root == left {
                    let new_root = self.pool.allocate_page()?;
                    meta.pages += 1;
                    self.format(new_root, false, |root| {
                        root.set_child(0, left);
                        root.push(&sep);
                        root.set_child(1, right);
                    })?;
                    meta.root = new_root;
                    meta.height += 1;
                    self.write_meta(&meta)?;
                    self.latches().record_smo_completion();
                    Ok(new_root)
                } else {
                    Err(meta)
                }
            };
            match grown {
                Ok(new_root) => {
                    self.probe(SmoPhase::RootGrown { root: new_root });
                    return Ok(ParentSearch::Grown);
                }
                Err(meta) if meta.height > left_level => break meta,
                Err(_) => {
                    // The pending-grow window described above: no parent
                    // level exists yet.  Yield and re-check (counted, so
                    // the concurrency tests can observe the wait
                    // deterministically).
                    self.latches().record_pending_grow_wait();
                    std::thread::yield_now();
                }
            }
        };
        // The level above `left` exists: route down to it by `sep`
        // (moving right as needed) to find the parent that must absorb
        // the post.
        let mut page = meta.root;
        let mut level = meta.height;
        while level > left_level + 1 {
            page = self.with_covering_node(page, &sep, false, |node| node.route(&sep))?.1;
            level -= 1;
        }
        Ok(ParentSearch::At(page))
    }

    // ------------------------------------------------------------------
    // Delete
    // ------------------------------------------------------------------

    /// Deletes the exact `(cols, payload)` entry.
    ///
    /// Returns `false` if no such entry exists.  Deletion never
    /// restructures: underflowing nodes are not rebalanced (the common
    /// production trade-off, cf. PostgreSQL), and — since the B-link
    /// refactor — an emptied leaf is not even unlinked: it stays in the
    /// tree with its high key and right link, routes correctly, absorbs
    /// later inserts, and costs one page until a future vacuum.  This is
    /// what keeps readers latch-free: a page, once linked, is never
    /// freed, so no traversal can walk into recycled storage.
    ///
    /// Concurrency mirrors [`BTree::insert`]'s leaf path: latch-free
    /// descent, then one in-place edit under the leaf's exclusive latch;
    /// the meta page is never latched or written.
    pub fn delete(&self, cols: &[i64], payload: u64) -> Result<bool> {
        self.check_arity(cols)?;
        let target = Entry::new(cols, payload);
        let Some(leaf_hint) = self.leaf_for(&target)? else {
            return Ok(false);
        };
        let (leaf_page, found, guard) =
            self.latch_covering_node(leaf_hint, &target, true, |leaf| leaf.find(&target))?;
        let Some(pos) = found else {
            return Ok(false);
        };
        self.edit(leaf_page, |leaf| leaf.remove(pos))?;
        drop(guard);
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Lookup and scans
    // ------------------------------------------------------------------

    /// Returns `true` if the exact `(cols, payload)` entry is present.
    ///
    /// Latch-free: the descent routes by separators and moves right past
    /// high keys; no concurrent split, root grow, or writer can make it
    /// miss a committed entry (entries only ever move *right*, and the
    /// traversal moves right with them).
    pub fn contains(&self, cols: &[i64], payload: u64) -> Result<bool> {
        self.check_arity(cols)?;
        let target = Entry::new(cols, payload);
        let Some(leaf) = self.leaf_for(&target)? else {
            return Ok(false);
        };
        Ok(self.with_covering_node(leaf, &target, true, |node| node.contains(&target))?.1)
    }

    /// Ordered scan of all entries with `lo <= key columns <= hi`
    /// (inclusive bounds, compared lexicographically).
    ///
    /// This is the *index range scan* of the paper's query plans: a search
    /// phase of `O(log_b n)` page reads followed by a contiguous leaf scan.
    pub fn scan_range(&self, lo: &[i64], hi: &[i64]) -> RangeScan<'_> {
        RangeScan::new(self, lo, hi)
    }

    /// Ordered scan of the entire tree.
    pub fn scan_all(&self) -> RangeScan<'_> {
        let lo = vec![i64::MIN; self.arity];
        let hi = vec![i64::MAX; self.arity];
        RangeScan::new(self, &lo, &hi)
    }

    /// Descends (latch-free) to the leaf level toward `target`; `None` on
    /// an empty tree.  The page returned is a *hint*: the caller chases
    /// right from it ([`BTree::with_covering_node`]) to the covering leaf.
    pub(crate) fn leaf_for(&self, target: &Entry) -> Result<Option<PageId>> {
        let meta = self.read_meta()?;
        if meta.root.is_invalid() {
            return Ok(None);
        }
        Ok(Some(self.descend(&meta, target, false)?.0))
    }

    #[inline]
    pub(crate) fn check_arity(&self, cols: &[i64]) -> Result<()> {
        if cols.len() != self.arity {
            return Err(Error::InvalidArgument(format!(
                "key has {} columns, index expects {}",
                cols.len(),
                self.arity
            )));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Bulk loading
    // ------------------------------------------------------------------

    /// Builds a tree from distinct `(columns, payload)` pairs that are
    /// **already sorted** by `(key, payload)`, packing nodes to `fill`
    /// (0 < fill <= 1).
    ///
    /// The paper bulk-loads the competitor indexes before the query
    /// experiments (Section 6.3 notes their "good clustering properties of
    /// the bulk loaded indexes"); this constructor provides the same for all
    /// access methods in this repository.
    ///
    /// A thin column-vector adapter over the streaming bottom-up builder
    /// (`builder` module): one sequential write pass, every page stored
    /// exactly once, `O(height)` memory.  See [`BTree::bulk_build_into`]
    /// to build into an existing (empty) tree from typed [`Entry`]
    /// values, without the per-item column vectors.
    pub fn bulk_load(
        pool: Arc<BufferPool>,
        arity: usize,
        entries: impl IntoIterator<Item = (Vec<i64>, u64)>,
        fill: f64,
    ) -> Result<BTree> {
        let tree = BTree::create(pool, arity)?;
        let items = entries.into_iter().map(|(cols, payload)| {
            tree.check_arity(&cols)?;
            Ok(Entry::new(&cols, payload))
        });
        tree.bulk_build_checked(items, fill)?;
        Ok(tree)
    }

    // ------------------------------------------------------------------
    // Invariant checking (tests and debugging)
    // ------------------------------------------------------------------

    /// Exhaustively validates structural invariants; returns a descriptive
    /// error naming the first violation found.
    ///
    /// Intended for *quiescent* trees (no in-flight split): with every
    /// separator posted, each node's high key must equal the upper bound
    /// its parent derives for it, every level's right links must chain
    /// its in-order nodes, and the leaf chain must enumerate the in-order
    /// leaves.  Also checked: node ordering, separator bounds, uniform
    /// leaf depth, capacity limits, the `high ⟺ right link` pairing, and
    /// the meta page's page count.  Empty leaves are legal (deletes do not
    /// restructure).
    pub fn check_invariants(&self) -> Result<()> {
        let meta = self.read_meta()?;
        if meta.root.is_invalid() {
            if meta.height != 0 || !meta.first_leaf.is_invalid() {
                return Err(Error::Corrupt("empty tree with non-empty metadata".to_string()));
            }
            return Ok(());
        }
        // levels[h - 1] collects the in-order pages of level h.
        let mut levels: Vec<Vec<PageId>> = vec![Vec::new(); meta.height as usize];
        self.check_subtree(meta.root, meta.height, None, None, &mut levels)?;
        let mut page_budget = 0u64;
        for (idx, nodes) in levels.iter().enumerate() {
            page_budget += nodes.len() as u64;
            for pair in nodes.windows(2) {
                if self.right_link_of(pair[0])? != pair[1] {
                    return Err(Error::Corrupt(format!(
                        "level {}: node {} does not link its in-order successor {}",
                        idx + 1,
                        pair[0],
                        pair[1]
                    )));
                }
            }
            let last = *nodes.last().expect("every level has a node");
            if !self.right_link_of(last)?.is_invalid() {
                return Err(Error::Corrupt(format!(
                    "level {}: rightmost node {last} has a right link",
                    idx + 1
                )));
            }
        }
        if page_budget != meta.pages {
            return Err(Error::Corrupt(format!(
                "meta records {} pages but the tree reaches {page_budget}",
                meta.pages
            )));
        }
        // The leaf chain must enumerate exactly the in-order leaves.  A
        // chain longer than the leaf level is forged, and may loop.
        let mut chained = Vec::new();
        let mut page = meta.first_leaf;
        while !page.is_invalid() {
            if chained.len() == levels[0].len() {
                return Err(Error::Corrupt(format!(
                    "leaf chain from {} runs past the {} in-order leaves",
                    meta.first_leaf,
                    levels[0].len()
                )));
            }
            chained.push(page);
            page = self.right_link_of(page)?;
        }
        if chained != levels[0] {
            return Err(Error::Corrupt(
                "leaf chain disagrees with in-order leaf sequence".to_string(),
            ));
        }
        Ok(())
    }

    fn right_link_of(&self, page: PageId) -> Result<PageId> {
        let arity = self.arity;
        self.pool.with_page(page, |buf| NodeView::parse(buf, arity).map(|node| node.next()))?
    }

    /// Checks the subtree under `page`, a node at `level` whose entries
    /// must lie in `[lo, hi)`, through its [`NodeView`]; its children are
    /// checked from inside its page snapshot.  (A count over capacity is
    /// [`NodeView::parse`]'s to reject.)
    fn check_subtree(
        &self,
        page: PageId,
        level: u16,
        lo: Option<Entry>,
        hi: Option<Entry>,
        levels: &mut Vec<Vec<PageId>>,
    ) -> Result<()> {
        let arity = self.arity;
        self.pool.with_page(page, |buf| {
            let node = NodeView::parse(buf, arity)?;
            let kind = if node.is_leaf() { "leaf" } else { "internal" };
            if node.is_leaf() != (level == 1) {
                return Err(Error::Corrupt(format!("{kind} {page} at level {level}")));
            }
            let high = node.high();
            if high != hi {
                return Err(Error::Corrupt(format!(
                    "{kind} {page} high key disagrees with its parent separator"
                )));
            }
            if high.is_some() == node.next().is_invalid() {
                return Err(Error::Corrupt(format!(
                    "{kind} {page}: high key and right link must be set together"
                )));
            }
            let mut prev: Option<Entry> = None;
            for e in (0..node.count()).map(|i| node.entry(i)) {
                if prev.is_some_and(|p| p >= e) {
                    return Err(Error::Corrupt(format!("{kind} {page} not strictly sorted")));
                }
                if lo.is_some_and(|l| e < l) || hi.is_some_and(|h| e >= h) {
                    return Err(Error::Corrupt(format!("{kind} {page} violates separator bounds")));
                }
                prev = Some(e);
            }
            levels[level as usize - 1].push(page);
            if node.is_leaf() {
                return Ok(());
            }
            for slot in 0..=node.count() {
                let child_lo = if slot == 0 { lo } else { Some(node.entry(slot - 1)) };
                let child_hi = if slot < node.count() { Some(node.entry(slot)) } else { hi };
                self.check_subtree(node.child_at(slot), level - 1, child_lo, child_hi, levels)?;
            }
            Ok(())
        })?
    }
}

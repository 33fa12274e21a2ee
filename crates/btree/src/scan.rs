//! Range scan cursor over the leaf chain.

use crate::key::{Entry, Key};
use crate::layout::{leaf_entry_size, read_entry, write_entry};
use crate::tree::BTree;
use ri_pagestore::{Error, PageId, Result};

/// Cursor over all entries whose key columns lie in `[lo, hi]`
/// (inclusive, lexicographic): an [`Iterator`] of `Result<Entry>`, or —
/// for callers that consume everything — [`RangeScan::for_each_run`],
/// which hands each leaf's in-range entries to a closure as one *leaf
/// run*, the on-page bytes themselves, with nothing decoded or buffered
/// in between.
///
/// Nothing is read until the first entry is asked for.  The search phase
/// then costs `O(log_b n)` page accesses and the scan phase one access per
/// leaf — the cost model of the paper's Theorem in Section 4.4.  Each
/// leaf is looked at once, *in place*, inside the pool's shared page
/// snapshot ([`crate::layout::NodeView`]): the header is validated, the first leaf's
/// start and every leaf's `hi` boundary are found by binary search, and
/// the entries between them move as one slice.  No node is materialized
/// and nothing is allocated per leaf or per entry; the iterator form keeps
/// one entry buffer for the whole scan and decodes a leaf's run into it.
///
/// Cursors are **latch-free** (B-link protocol): each leaf is read through
/// the frame's immutable `Arc<[u8]>`, cloned under the shard lock and read
/// with no lock held, and the cursor follows right links, so concurrent
/// writers — including splits — proceed freely, and the owning thread may
/// even write through the same tree while the cursor is live.  The first
/// leaf is found by the *move-right rule*: the descent's leaf is only a
/// hint, and the cursor chases right links (each chase is counted) until
/// the leaf's high key covers `lo`.  Guarantee: every entry committed
/// before the first entry was requested and not concurrently deleted is
/// yielded exactly once, in order — splits only move entries *right*, and
/// the cursor moves right with them.  Entries inserted or deleted
/// concurrently may or may not appear, as with any non-snapshot index
/// scan.
///
/// A leaf chain is outside input: a scan that has followed more right
/// links than the device has pages is walking a forged cycle and ends
/// with [`Error::Corrupt`].
pub struct RangeScan<'t> {
    tree: &'t BTree,
    /// `(lo, payload 0)`: payloads are unsigned, so this sorts before
    /// every entry with key columns `lo`.
    lo: Entry,
    hi: Key,
    at: Cursor,
    /// Right links followed so far, and the device's page count when that
    /// number last reached it (re-read only then: it takes a device lock).
    followed: u64,
    page_limit: u64,
    /// Iterator form only: the current leaf's run, decoded, and the
    /// position of the next entry in it.
    buf: Vec<Entry>,
    idx: usize,
}

enum Cursor {
    /// Nothing read yet: descend toward `lo` first.
    Start,
    /// The next leaf to visit.
    Leaf(PageId),
    /// Exhausted, or failed (an error is reported once).
    Done,
}

impl<'t> RangeScan<'t> {
    pub(crate) fn new(tree: &'t BTree, lo: &[i64], hi: &[i64]) -> RangeScan<'t> {
        assert_eq!(lo.len(), tree.arity(), "lo bound arity mismatch");
        assert_eq!(hi.len(), tree.arity(), "hi bound arity mismatch");
        RangeScan {
            tree,
            lo: Entry { key: Key::new(lo), payload: 0 },
            hi: Key::new(hi),
            at: Cursor::Start,
            followed: 0,
            page_limit: 0,
            buf: Vec::new(),
            idx: 0,
        }
    }

    /// Counts the right link into `page`.  A correct chain visits each
    /// leaf once, so more links than pages means the chain loops.
    fn follow(&mut self, page: PageId) -> Result<PageId> {
        self.followed += 1;
        if self.followed > self.page_limit {
            // Pages may have been allocated since the last look.
            self.page_limit = self.tree.pool().num_pages();
            if self.followed > self.page_limit {
                return Err(Error::Corrupt(format!("leaf chain cycles through {page}")));
            }
        }
        Ok(page)
    }

    /// The one leaf walk: visits the leaf under the cursor, hands its
    /// in-range run (when there is one) to `f` from inside the page
    /// snapshot, and moves the cursor right.  `Ok(false)` once the scan
    /// is exhausted.
    fn visit_leaf(&mut self, f: &mut impl FnMut(&[u8])) -> Result<bool> {
        let (lo, hi) = (self.lo, self.hi);
        // `Done` first, so that an error ends the scan instead of repeating.
        let page = match std::mem::replace(&mut self.at, Cursor::Done) {
            Cursor::Start => self.tree.leaf_for(&lo)?,
            Cursor::Leaf(page) => Some(self.follow(page)?),
            Cursor::Done => None,
        };
        let Some(page) = page else { return Ok(false) };
        // Only the first leaf can lie left of `lo` (move right) or hold
        // entries below it; every later one covers `lo` and starts at 0.
        let visited = self.tree.with_covering_node(page, &lo, true, |leaf| {
            let from = leaf.lower_bound(&lo);
            let end = leaf.key_upper_bound(from, &hi);
            if from < end {
                f(leaf.leaf_run(from, end));
            }
            if end < leaf.count() || leaf.next().is_invalid() {
                Cursor::Done
            } else {
                Cursor::Leaf(leaf.next())
            }
        })?;
        self.at = visited.1;
        Ok(true)
    }

    /// Drains the scan by internal iteration, a leaf at a time: `f` sees
    /// every remaining entry in order as non-empty runs of on-page bytes —
    /// [`leaf_entry_size`] bytes per entry, the key columns as
    /// little-endian `i64`s followed by the `u64` payload, what
    /// [`read_entry`] decodes — one run per leaf that holds any.  A run is
    /// valid only during the call: `f` runs inside the leaf's page
    /// snapshot, so nothing is decoded, copied or allocated.  `f` may
    /// itself read (other scans included) — no latch or lock is held while
    /// it runs.
    pub fn for_each_run(mut self, mut f: impl FnMut(&[u8])) -> Result<()> {
        // What the iterator form had decoded and not yet yielded goes back
        // into the on-page encoding.
        let rest = &self.buf[self.idx..];
        if !rest.is_empty() {
            let size = leaf_entry_size(self.tree.arity());
            let mut run = vec![0; rest.len() * size];
            for (words, entry) in run.chunks_exact_mut(size).zip(rest) {
                write_entry(words, 0, entry);
            }
            f(&run);
        }
        while self.visit_leaf(&mut f)? {}
        Ok(())
    }
}

impl Iterator for RangeScan<'_> {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        let arity = self.tree.arity();
        loop {
            if let Some(&entry) = self.buf.get(self.idx) {
                self.idx += 1;
                return Some(Ok(entry));
            }
            let mut buf = std::mem::take(&mut self.buf);
            buf.clear();
            self.idx = 0;
            let more = self.visit_leaf(&mut |run| {
                let entries = run.chunks_exact(leaf_entry_size(arity));
                buf.extend(entries.map(|words| read_entry(words, arity)))
            });
            self.buf = buf;
            match more {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::tests::node;
    use ri_pagestore::{BufferPool, BufferPoolConfig, MemDisk};
    use std::sync::Arc;

    fn tree_with(n: i64) -> (Arc<BufferPool>, BTree) {
        let pool =
            Arc::new(BufferPool::new(MemDisk::new(256), BufferPoolConfig::with_capacity(16)));
        let tree = BTree::create(Arc::clone(&pool), 1).unwrap();
        for i in 0..n {
            tree.insert(&[i], i as u64 + 1000).unwrap();
        }
        (pool, tree)
    }

    #[test]
    fn empty_tree_scan_is_empty() {
        let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(256)));
        let tree = BTree::create(pool, 1).unwrap();
        assert_eq!(tree.scan_all().count(), 0);
    }

    #[test]
    fn inclusive_bounds() {
        let (_pool, tree) = tree_with(100);
        let got: Vec<u64> = tree.scan_range(&[10], &[20]).map(|e| e.unwrap().payload).collect();
        assert_eq!(got, (1010..=1020).collect::<Vec<_>>());
    }

    #[test]
    fn bounds_outside_data() {
        let (_pool, tree) = tree_with(10);
        assert_eq!(tree.scan_range(&[-100], &[-1]).count(), 0);
        assert_eq!(tree.scan_range(&[50], &[99]).count(), 0);
        assert_eq!(tree.scan_range(&[-5], &[200]).count(), 10);
    }

    #[test]
    fn point_scan() {
        let (_pool, tree) = tree_with(64);
        let got: Vec<u64> = tree.scan_range(&[7], &[7]).map(|e| e.unwrap().payload).collect();
        assert_eq!(got, vec![1007]);
    }

    #[test]
    fn scan_crosses_many_leaves_in_order() {
        let (_pool, tree) = tree_with(2000);
        let got: Vec<u64> = tree.scan_all().map(|e| e.unwrap().payload).collect();
        assert_eq!(got.len(), 2000);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn scan_skips_emptied_leaves() {
        // Delete a whole leaf's worth in the middle: the empty leaf stays
        // linked (deletes do not restructure) and the scan skips it.
        let (_pool, tree) = tree_with(64);
        for i in 20..30 {
            assert!(tree.delete(&[i], i as u64 + 1000).unwrap());
        }
        let got: Vec<u64> = tree.scan_all().map(|e| e.unwrap().payload).collect();
        let want: Vec<u64> =
            (0..64).filter(|i| !(20..30).contains(i)).map(|i| i as u64 + 1000).collect();
        assert_eq!(got, want);
        tree.check_invariants().unwrap();
    }

    /// What a scan must yield, computed the pre-`NodeView` way: whole
    /// nodes decoded (`layout::tests::decode`), routed by their separator
    /// vectors, moved right past high keys, the leaf chain filtered entry
    /// by entry.
    fn reference_scan(tree: &BTree, lo: &[i64], hi: &[i64]) -> Vec<Entry> {
        let (target, hi) = (Entry { key: Key::new(lo), payload: 0 }, Key::new(hi));
        let mut page = tree.read_meta().unwrap().root;
        let mut out = Vec::new();
        let mut positioned = false;
        while !page.is_invalid() {
            let n = node(tree, page);
            page = if !positioned && n.high.is_some_and(|h| target >= h) {
                n.next // move right
            } else if !n.leaf {
                match n.entries.partition_point(|(s, _)| *s <= target) {
                    0 => n.child0,
                    slot => n.entries[slot - 1].1,
                }
            } else {
                positioned = true;
                for e in n.keys().into_iter().filter(|e| *e >= target) {
                    if e.key > hi {
                        return out;
                    }
                    out.push(e);
                }
                n.next
            };
        }
        out
    }

    /// Both cursor forms against the reference walk.
    fn assert_scan_matches_reference(tree: &BTree, lo: &[i64], hi: &[i64]) {
        let want = reference_scan(tree, lo, hi);
        let iterated: Vec<Entry> = tree.scan_range(lo, hi).map(|e| e.unwrap()).collect();
        assert_eq!(iterated, want, "iterator over [{lo:?}, {hi:?}]");
        let arity = tree.arity();
        let decode_into = |out: &mut Vec<Entry>, run: &[u8]| {
            assert!(!run.is_empty() && run.len() % leaf_entry_size(arity) == 0, "whole entries");
            out.extend(run.chunks(leaf_entry_size(arity)).map(|words| read_entry(words, arity)));
        };
        let mut runs = Vec::new();
        tree.scan_range(lo, hi).for_each_run(|run| decode_into(&mut runs, run)).unwrap();
        assert_eq!(runs, want, "runs over [{lo:?}, {hi:?}]");
        // Switching forms mid-scan loses and repeats nothing.
        let mut scan = tree.scan_range(lo, hi);
        let mut mixed: Vec<Entry> = scan.by_ref().take(3).map(|e| e.unwrap()).collect();
        scan.for_each_run(|run| decode_into(&mut mixed, run)).unwrap();
        assert_eq!(mixed, want, "iterator then runs over [{lo:?}, {hi:?}]");
    }

    #[test]
    fn cursor_matches_a_read_node_reference_walk() {
        let pool =
            Arc::new(BufferPool::new(MemDisk::new(256), BufferPoolConfig::with_capacity(16)));
        let tree = BTree::create(Arc::clone(&pool), 2).unwrap();
        assert_scan_matches_reference(&tree, &[i64::MIN; 2], &[i64::MAX; 2]); // empty tree
        for i in 0..400i64 {
            // Four payloads per key: duplicates that differ only in payload.
            tree.insert(&[i / 4, (i / 4) % 3], (i % 4) as u64).unwrap();
        }
        for extreme in [i64::MIN, i64::MAX] {
            tree.insert(&[extreme, extreme], 0).unwrap();
            tree.insert(&[extreme, extreme], u64::MAX).unwrap();
        }
        // Empty several whole leaves in the middle; they stay linked.
        for i in 120..240i64 {
            assert!(tree.delete(&[i / 4, (i / 4) % 3], (i % 4) as u64).unwrap());
        }
        tree.check_invariants().unwrap();
        let points = [i64::MIN, i64::MIN + 1, -1, 0, 7, 29, 30, 45, 59, 60, 61, 99, 100, i64::MAX];
        for &a in &points {
            for &b in &points {
                for (lo1, hi1) in [(i64::MIN, i64::MAX), (0, 2), (1, 1), (i64::MAX, i64::MIN)] {
                    assert_scan_matches_reference(&tree, &[a, lo1], &[b, hi1]);
                }
            }
        }
        let all: Vec<Entry> = tree.scan_all().map(|e| e.unwrap()).collect();
        assert_eq!(all.len(), 400 - 120 + 4);
        assert_eq!(pool.latches().stats().right_link_chases, 0, "quiescent: nothing to chase");
    }

    #[test]
    fn cursor_started_inside_a_split_window_moves_right_and_counts_it() {
        use crate::tree::SmoPhase;
        use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
        let pool = Arc::new(BufferPool::new(MemDisk::new(128), BufferPoolConfig::with_capacity(8)));
        let tree = Arc::new(BTree::create(Arc::clone(&pool), 2).unwrap());
        let windows = Arc::new(AtomicU64::new(0));
        {
            let (tree_in, pool_in, windows) =
                (Arc::clone(&tree), Arc::clone(&pool), Arc::clone(&windows));
            tree.set_smo_probe(Some(Arc::new(move |phase| {
                let SmoPhase::LeafSplitLinked { right, .. } = phase else { return };
                // The sibling is published, its separator is not posted:
                // a scan from a key past the separator descends to the
                // left node and must follow the right link to find it.
                let sibling = node(&tree_in, right);
                assert!(sibling.leaf, "leaf split published a non-leaf");
                let sibling = sibling.keys();
                let lo = sibling.last().unwrap().key;
                if lo == sibling[0].key {
                    return; // `(lo, payload 0)` sorts below the separator: no move
                }
                windows.fetch_add(1, SeqCst);
                let chases = || pool_in.latches().stats().right_link_chases;
                let before = chases();
                let got: Vec<Entry> =
                    tree_in.scan_range(lo.as_slice(), &[i64::MAX; 2]).map(|e| e.unwrap()).collect();
                assert!(chases() > before, "the move right must be recorded");
                assert!(got.contains(sibling.last().unwrap()));
                assert_eq!(got, reference_scan(&tree_in, lo.as_slice(), &[i64::MAX; 2]));
                assert_scan_matches_reference(&tree_in, &[i64::MIN; 2], &[i64::MAX; 2]);
            })));
        }
        let mut x = 0x5EED_u64;
        for i in 0..300u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            tree.insert(&[(x % 64) as i64, ((x >> 8) % 4) as i64], i).unwrap();
        }
        tree.set_smo_probe(None); // breaks the probe's reference cycle
        assert!(windows.load(SeqCst) > 10, "the schedule must open split windows");
        tree.check_invariants().unwrap();
    }

    #[test]
    fn writes_under_a_live_cursor_are_legal() {
        // The B-link cursor holds no latch: inserting (and splitting)
        // while a cursor is mid-scan must neither deadlock nor lose any
        // entry that existed when the scan began.
        let (_pool, tree) = tree_with(50);
        let mut scan = tree.scan_all();
        let mut seen: Vec<u64> = (0..10).map(|_| scan.next().unwrap().unwrap().payload).collect();
        for i in 100..160 {
            tree.insert(&[i], i as u64 + 1000).unwrap(); // splits ahead of the cursor
        }
        seen.extend(scan.map(|e| e.unwrap().payload));
        let original: Vec<u64> = (0..50).map(|i| i + 1000).collect();
        for p in original {
            assert!(seen.contains(&p), "entry {p} lost under concurrent splits");
        }
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "cursor stays ordered");
    }
}

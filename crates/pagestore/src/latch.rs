//! Page latches: the short-term locks that let writers share a tree.
//!
//! The paper delegates all concurrency control to the host RDBMS; this
//! module is the reproduction's equivalent of that host-provided latch
//! manager.  It hands out **logical latches keyed by page id** — they
//! protect the *logical page*, not a buffer frame, so they remain valid
//! across evictions.
//!
//! The vocabulary is deliberately small: **exclusive per-page latches**
//! and nothing else.  Every caller needs mutual exclusion on one page —
//! B-link node writes and meta-page holds (`ri_btree::tree`, at most one
//! node latch at a time), the bulk builder's install step, the heap's
//! append latch and the catalog's parameter latch — while readers descend
//! latch-free, so a cell is simply "held or not" and there is nothing
//! tree-wide to lock (see ARCHITECTURE.md).
//!
//! Beside the latches the manager carries the B-link protocol's
//! deterministic counters: node **splits**, **right-link chases** (a
//! traversal found its key at or past a node's high key and moved to the
//! right sibling), and **incomplete-SMO completions** (a separator post
//! or root grow that finished a split whose sibling was already
//! published — the second phase of the two-phase split).
//!
//! Latches are deliberately **not** tied to buffer-pool I/O: acquiring or
//! releasing one never touches a page, so the single-threaded page-access
//! sequence of every operation is exactly the algorithm's — the property
//! `tests/pool_determinism.rs` pins with golden counters.
//!
//! Latch *waits* are intentionally uncounted in [`LatchStats`]: wait
//! counts depend on thread scheduling, and every number exposed here
//! feeds deterministic benchmark snapshots.  The protocol counters are
//! deterministic single-threaded (chases are 0 without concurrency;
//! splits and completions depend only on the operation sequence).

use crate::page::PageId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Number of hash-striped cell maps (a power of two).
const STRIPES: usize = 16;

#[derive(Default)]
struct Cell {
    /// Whether the latch is currently held.
    held: Mutex<bool>,
    cv: Condvar,
}

/// Cumulative latch / protocol counters (deterministic: no wait counts).
#[derive(Debug, Default)]
pub struct LatchStats {
    page_exclusive: AtomicU64,
    splits: AtomicU64,
    right_link_chases: AtomicU64,
    incomplete_smo_completions: AtomicU64,
    pending_root_grow_waits: AtomicU64,
}

/// Point-in-time copy of [`LatchStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatchSnapshot {
    /// Page latches taken exclusive (leaf/parent writes, meta holds).
    pub page_exclusive: u64,
    /// Node splits performed (leaf and internal; phase 1 of the B-link
    /// two-phase split: sibling allocated, linked, and published).
    pub splits: u64,
    /// Traversals that found their target at or past a node's high key
    /// and moved right through the right link.  Zero single-threaded:
    /// only an in-flight concurrent split makes a descent land left of
    /// its key.
    pub right_link_chases: u64,
    /// Completions of in-flight structure modifications: separator posts
    /// into a parent (or root grows) that finished a split whose right
    /// sibling was already reachable through the left node's right link
    /// (phase 2 of the two-phase split).
    pub incomplete_smo_completions: u64,
    /// Times a separator post found that its parent *level* did not
    /// exist yet (a top-level sibling split racing a still-pending root
    /// grow) and had to wait for the grow to land.  Zero
    /// single-threaded.
    pub pending_root_grow_waits: u64,
}

impl LatchSnapshot {
    /// Counter-wise difference `self - earlier`; saturates at zero.
    pub fn since(&self, earlier: &LatchSnapshot) -> LatchSnapshot {
        LatchSnapshot {
            page_exclusive: self.page_exclusive.saturating_sub(earlier.page_exclusive),
            splits: self.splits.saturating_sub(earlier.splits),
            right_link_chases: self.right_link_chases.saturating_sub(earlier.right_link_chases),
            incomplete_smo_completions: self
                .incomplete_smo_completions
                .saturating_sub(earlier.incomplete_smo_completions),
            pending_root_grow_waits: self
                .pending_root_grow_waits
                .saturating_sub(earlier.pending_root_grow_waits),
        }
    }

    /// Total latch acquisitions.
    pub fn total_acquisitions(&self) -> u64 {
        self.page_exclusive
    }
}

impl LatchStats {
    fn snapshot(&self) -> LatchSnapshot {
        LatchSnapshot {
            page_exclusive: self.page_exclusive.load(Ordering::Relaxed),
            splits: self.splits.load(Ordering::Relaxed),
            right_link_chases: self.right_link_chases.load(Ordering::Relaxed),
            incomplete_smo_completions: self.incomplete_smo_completions.load(Ordering::Relaxed),
            pending_root_grow_waits: self.pending_root_grow_waits.load(Ordering::Relaxed),
        }
    }
}

/// One hash stripe of the cell table.
type Stripe = Mutex<HashMap<u64, Arc<Cell>>>;

/// Per-pool latch table; obtain it via [`crate::BufferPool::latches`].
pub struct LatchManager {
    stripes: Box<[Stripe]>,
    stats: Arc<LatchStats>,
}

impl Default for LatchManager {
    fn default() -> Self {
        LatchManager {
            stripes: (0..STRIPES).map(|_| Mutex::new(HashMap::new())).collect(),
            stats: Arc::new(LatchStats::default()),
        }
    }
}

impl LatchManager {
    /// Exclusive latch on one page (leaf/parent writes, meta holds).
    pub fn page_exclusive(&self, page: PageId) -> LatchGuard<'_> {
        self.stats.page_exclusive.fetch_add(1, Ordering::Relaxed);
        self.acquire(page.raw())
    }

    /// Records a node split (phase 1 of the two-phase B-link split).
    pub fn record_split(&self) {
        self.stats.splits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a right-link chase (a traversal moved right past a high
    /// key).
    pub fn record_right_link_chase(&self) {
        self.stats.right_link_chases.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the completion of an in-flight structure modification
    /// (phase 2 of the two-phase split: separator posted or root grown).
    pub fn record_smo_completion(&self) {
        self.stats.incomplete_smo_completions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one wait probe by a separator post whose parent level
    /// does not exist yet (pending root grow).
    pub fn record_pending_grow_wait(&self) {
        self.stats.pending_root_grow_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of the counters.
    pub fn stats(&self) -> LatchSnapshot {
        self.stats.snapshot()
    }

    fn stripe(&self, key: u64) -> &Stripe {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.stripes[(h as usize) & (STRIPES - 1)]
    }

    fn acquire(&self, key: u64) -> LatchGuard<'_> {
        let cell = {
            let mut map = self.stripe(key).lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(map.entry(key).or_default())
        };
        {
            let mut held = cell.held.lock().unwrap_or_else(|e| e.into_inner());
            while *held {
                held = cell.cv.wait(held).unwrap_or_else(|e| e.into_inner());
            }
            *held = true;
        }
        LatchGuard { manager: self, key, cell }
    }

    /// Called by a dropping guard: release the latch, wake waiters, and
    /// garbage-collect the cell if nobody else references it.
    fn release(&self, key: u64, cell: &Arc<Cell>) {
        *cell.held.lock().unwrap_or_else(|e| e.into_inner()) = false;
        cell.cv.notify_all();
        // GC: while holding the stripe lock nobody can fetch the Arc, so a
        // strong count of 2 (map + our clone) proves the cell is unwanted.
        let mut map = self.stripe(key).lock().unwrap_or_else(|e| e.into_inner());
        if Arc::strong_count(cell) == 2 && !*cell.held.lock().unwrap_or_else(|e| e.into_inner()) {
            map.remove(&key);
        }
    }
}

/// RAII latch hold; releasing is dropping.  Holds no buffer-pool state, so
/// guards are freely `Send`/`Sync`.
#[must_use = "a latch protects nothing once dropped"]
pub struct LatchGuard<'m> {
    manager: &'m LatchManager,
    key: u64,
    cell: Arc<Cell>,
}

impl Drop for LatchGuard<'_> {
    fn drop(&mut self) {
        self.manager.release(self.key, &self.cell);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::mpsc;

    #[test]
    fn exclusive_excludes_exclusive() {
        let m = LatchManager::default();
        let released = AtomicBool::new(false);
        let inside = AtomicUsize::new(0);
        let order = AtomicUsize::new(0);
        let (arrived_tx, arrived_rx) = mpsc::channel();
        let x = m.page_exclusive(PageId(3));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let arrived_tx = arrived_tx.clone();
                let (m, released, inside, order) = (&m, &released, &inside, &order);
                s.spawn(move || {
                    arrived_tx.send(()).unwrap();
                    let _g = m.page_exclusive(PageId(3));
                    assert!(released.load(Ordering::SeqCst), "entered past a live holder");
                    assert_eq!(inside.fetch_add(1, Ordering::SeqCst), 0, "two holders at once");
                    order.fetch_add(1, Ordering::SeqCst);
                    inside.fetch_sub(1, Ordering::SeqCst);
                });
            }
            // Every waiter is running before the holder lets go; none can
            // be inside yet, whatever the schedule.
            for _ in 0..4 {
                arrived_rx.recv().unwrap();
            }
            assert_eq!(order.load(Ordering::SeqCst), 0, "all waiters blocked behind the holder");
            released.store(true, Ordering::SeqCst);
            drop(x);
        });
        assert_eq!(order.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn cells_are_garbage_collected() {
        let m = LatchManager::default();
        for i in 0..100u64 {
            let _g = m.page_exclusive(PageId(i));
        }
        let live: usize = m.stripes.iter().map(|s| s.lock().unwrap().len()).sum();
        assert_eq!(live, 0, "idle cells must be removed on release");
    }

    #[test]
    fn protocol_counters_accumulate_and_diff() {
        let m = LatchManager::default();
        let before = m.stats();
        m.record_split();
        m.record_split();
        m.record_right_link_chase();
        m.record_smo_completion();
        let delta = m.stats().since(&before);
        assert_eq!(delta.splits, 2);
        assert_eq!(delta.right_link_chases, 1);
        assert_eq!(delta.incomplete_smo_completions, 1);
        assert_eq!(delta.total_acquisitions(), 0, "protocol counters are not acquisitions");
    }

    #[test]
    fn two_threads_make_exclusive_progress_on_one_page() {
        let m = LatchManager::default();
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..50 {
                    let _x = m.page_exclusive(PageId(1));
                }
            });
            for _ in 0..50 {
                let _x = m.page_exclusive(PageId(1));
            }
        });
        assert_eq!(m.stats().page_exclusive, 100);
    }
}

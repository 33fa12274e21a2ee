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
//! node latch at a time), the bulk builder's install step and the
//! catalog's parameter latch — while readers descend
//! latch-free, so a latch is simply "held or not" and there is nothing
//! tree-wide to lock (see ARCHITECTURE.md).
//!
//! So **a latch is a page id in a set.**  The table is 16 stripes
//! (`STRIPES`), each one mutex over the set of its held page ids (hashed
//! with [`IdHash`]) plus one condition variable.  An acquire inserts the
//! id, parking while it is already there; a release removes it and wakes
//! the stripe only when its waiter count says a thread is parked — the
//! buffer pool's `Shard::wait` / `Shard::wake` discipline.  An uncontended
//! acquire plus release is two lock round trips and, once the stripe's set
//! has grown to its working size, no allocation.
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

use crate::page::{IdHash, PageId};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, PoisonError};

/// Number of hash stripes (a power of two).
const STRIPES: usize = 16;

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

/// What one stripe's mutex guards.
#[derive(Default)]
struct Held {
    /// Raw ids of this stripe's pages whose latch is held.
    pages: HashSet<u64, IdHash>,
    /// Threads parked on the stripe's condition variable; a release skips
    /// the wake while it is zero.
    waiters: u32,
}

/// One hash stripe of the latch table.
#[derive(Default)]
struct Stripe {
    held: Mutex<Held>,
    /// Signalled on a release when anyone waits.  Waiters for every page
    /// of the stripe park here, so a wake may be for another page; each
    /// rechecks its own.
    cv: Condvar,
}

/// Per-pool latch table; obtain it via [`crate::BufferPool::latches`].
#[derive(Default)]
pub struct LatchManager {
    stripes: [Stripe; STRIPES],
    stats: LatchStats,
}

impl LatchManager {
    /// Exclusive latch on one page (leaf/parent writes, meta holds).
    pub fn page_exclusive(&self, page: PageId) -> LatchGuard<'_> {
        self.stats.page_exclusive.fetch_add(1, Ordering::Relaxed);
        let key = page.raw();
        let stripe = self.stripe(key);
        let mut held = stripe.held.lock();
        while !held.pages.insert(key) {
            held.waiters += 1;
            held = stripe.cv.wait(held).unwrap_or_else(PoisonError::into_inner);
            held.waiters -= 1;
        }
        LatchGuard { stripe, key }
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
}

/// RAII latch hold; releasing is dropping.  Holds no buffer-pool state, so
/// guards are freely `Send`/`Sync`.
#[must_use = "a latch protects nothing once dropped"]
pub struct LatchGuard<'m> {
    stripe: &'m Stripe,
    key: u64,
}

impl Drop for LatchGuard<'_> {
    fn drop(&mut self) {
        let mut held = self.stripe.held.lock();
        held.pages.remove(&self.key);
        // Under the lock, so no waiter is between its count and its park.
        if held.waiters > 0 {
            self.stripe.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

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
    fn released_latches_leave_nothing_behind() {
        let m = LatchManager::default();
        let capacities = |m: &LatchManager| -> Vec<usize> {
            m.stripes.iter().map(|s| s.held.lock().pages.capacity()).collect()
        };
        for i in 0..100u64 {
            let _g = m.page_exclusive(PageId(i));
        }
        let warm = capacities(&m);
        for i in 100..10_000u64 {
            let _g = m.page_exclusive(PageId(i));
        }
        for (stripe, (s, &cap)) in m.stripes.iter().zip(&warm).enumerate() {
            let held = s.held.lock();
            assert!(held.pages.is_empty(), "stripe {stripe} still holds {:?}", held.pages);
            assert_eq!(held.waiters, 0);
            assert!(
                held.pages.capacity() <= cap,
                "stripe {stripe} grew {cap} -> {}: a warm acquire allocated",
                held.pages.capacity()
            );
        }
    }

    #[test]
    fn pages_sharing_a_stripe_latch_independently() {
        let m = Arc::new(LatchManager::default());
        let same_stripe = |p: u64| std::ptr::eq(m.stripe(p), m.stripe(1));
        let mut sharing = (2..).filter(|&p| same_stripe(p));
        let (a, b, c) =
            (PageId(1), PageId(sharing.next().unwrap()), PageId(sharing.next().unwrap()));
        let deadline = Duration::from_secs(10);

        let held_a = m.page_exclusive(a);
        // Holding `a` must not block `b`.
        let (b_tx, b_rx) = mpsc::channel();
        let (release_b_tx, release_b_rx) = mpsc::channel::<()>();
        let holder_b = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                let _b = m.page_exclusive(b);
                b_tx.send(()).unwrap();
                release_b_rx.recv().unwrap();
            })
        };
        b_rx.recv_timeout(deadline).expect("holding one page blocked another on its stripe");

        // A thread waiting on `a` parks ...
        let (a_tx, a_rx) = mpsc::channel();
        let waiter_a = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                let _a = m.page_exclusive(a);
                a_tx.send(()).unwrap();
            })
        };
        let parked = std::time::Instant::now();
        while m.stripe(a.raw()).held.lock().waiters == 0 {
            assert!(parked.elapsed() < deadline, "the waiter on a held page never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
        // ... sleeps through a wake meant for another page of its stripe ...
        drop(m.page_exclusive(c));
        assert_eq!(
            a_rx.recv_timeout(Duration::from_millis(50)),
            Err(mpsc::RecvTimeoutError::Timeout),
            "entered past a live holder"
        );
        // ... and wakes when `a` is released while `b` is still held.
        drop(held_a);
        a_rx.recv_timeout(deadline).expect("a released latch did not wake its waiter");
        waiter_a.join().unwrap();
        release_b_tx.send(()).unwrap();
        holder_b.join().unwrap();
        assert!(m.stripe(a.raw()).held.lock().pages.is_empty());
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

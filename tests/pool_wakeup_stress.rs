//! Wake accounting under load: the buffer pool wakes parked threads only
//! when its per-shard waiter count says someone waits, so a wait that
//! forgot to count itself would sleep forever.  Here four threads drive a
//! two-frame, two-shard pool through every kind of wait at once — faults
//! that coalesce on one in-flight read, faults on dirty victims whose
//! write-back is still in flight, faults that find the shard's only frame
//! reserved, and faults turned away by flushes and clears — and report
//! through a channel under a deadline, so a lost wakeup fails the test
//! instead of hanging it.

use ri_tree::pagestore::{BufferPool, BufferPoolConfig, FaultPlan, FaultyDisk, MemDisk, PageId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const PAGE_SIZE: usize = 128;
const THREADS: usize = 4;
/// Two pages per thread, one in each shard; thread `t` writes only its
/// own (`2t`, `2t + 1`), so every write is an update nobody races.
const PAGES: u64 = 2 * THREADS as u64;
const ITERS: usize = 3000;
/// Far beyond what the run needs (well under a second in release); only a
/// parked thread that nobody wakes reaches it.
const DEADLINE: Duration = Duration::from_secs(60);

/// A page's image is one byte value repeated: a torn or stale image shows.
fn uniform(page: &[u8]) -> Option<u8> {
    page.iter().all(|&b| b == page[0]).then_some(page[0])
}

/// One thread's share of the load; returns the last value it wrote to
/// each of its two pages.
fn drive(pool: &BufferPool, t: usize) -> [u8; 2] {
    let mut written = [0u8; 2];
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ (t as u64 + 1);
    for i in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        match x % 6 {
            0 | 1 => {
                let k = (x >> 8) as usize % 2;
                written[k] = written[k].wrapping_add(1);
                let v = written[k];
                pool.with_page_mut(PageId(2 * t as u64 + k as u64), |d| d.fill(v)).unwrap();
            }
            // Half the reads go to pages 0 and 1, so faults coalesce.
            2 | 3 => {
                let page = PageId((x >> 8) % 2);
                assert!(pool.with_page(page, uniform).unwrap().is_some(), "torn {page}");
            }
            _ => {
                let page = PageId((x >> 8) % PAGES);
                assert!(pool.with_page(page, uniform).unwrap().is_some(), "torn {page}");
            }
        }
        match t {
            0 if i % 64 == 63 => pool.flush_all().unwrap(),
            1 if i % 100 == 99 => pool.clear_cache().unwrap(),
            _ => {}
        }
    }
    written
}

#[test]
fn every_wait_is_woken_under_mixed_contention() {
    // Each device op yields once, so other threads run while a read or a
    // write-back is in flight.
    let disk = Arc::new(FaultyDisk::new(MemDisk::new(PAGE_SIZE), FaultPlan::default()));
    disk.set_read_hook(Some(Arc::new(|_page, _n| std::thread::yield_now())));
    disk.set_write_hook(Some(Arc::new(|_page, _n| std::thread::yield_now())));
    let pool = Arc::new(BufferPool::new(Arc::clone(&disk), BufferPoolConfig::sharded(2, 2)));
    for _ in 0..PAGES {
        pool.allocate_page().unwrap();
    }

    let (tx, rx) = mpsc::channel();
    for t in 0..THREADS {
        let (pool, tx) = (Arc::clone(&pool), tx.clone());
        std::thread::spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| drive(&pool, t)));
            tx.send((t, outcome)).unwrap();
        });
    }
    let deadline = Instant::now() + DEADLINE;
    let mut written = [[0u8; 2]; THREADS];
    let mut running: Vec<usize> = (0..THREADS).collect();
    while !running.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        let Ok((t, outcome)) = rx.recv_timeout(left) else {
            panic!("threads {running:?} still parked after {DEADLINE:?}: a lost wakeup");
        };
        running.retain(|&r| r != t);
        written[t] = outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
    }
    disk.set_read_hook(None);
    disk.set_write_hook(None);

    for (t, values) in written.iter().enumerate() {
        for (k, &v) in values.iter().enumerate() {
            let page = PageId(2 * t as u64 + k as u64);
            assert_eq!(pool.with_page(page, uniform).unwrap(), Some(v), "{page} lost a write");
        }
    }
    let io = pool.stats().snapshot();
    assert_eq!(disk.reads_attempted(), io.physical_reads, "the device saw exactly the fetches");
}

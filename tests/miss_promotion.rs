//! Stress and protocol tests for the buffer pool's promoted miss path:
//! device reads run *outside* the shard lock (three-phase
//! reserve/fetch/publish), same-page faults coalesce single-flight,
//! reserved frames are never evicted, and flush/clear drain in-flight
//! misses before touching frames.
//!
//! The tests drive real device-read ordering through the
//! [`FaultyDisk`] read hooks: a hook blocks (or rendezvouses) inside the
//! device read itself, which is exactly the window the old
//! fetch-under-the-lock implementation could never expose concurrently.
//! Threads that can park are joined under a deadline: the pool wakes only
//! waiters it has counted, so one wait that skipped the count would hang
//! the test without it.  Each of the pool's five wait sites has a test
//! here that fails if that site stops counting.

use ri_tree::pagestore::{
    BufferPool, BufferPoolConfig, FaultPlan, FaultyDisk, MemDisk, PageId, PoolStats,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const PAGE_SIZE: usize = 256;
/// Generous bound for "the other thread gets scheduled"; reached only on
/// regression (a read serialized that must overlap), never in passing runs.
const STALL: Duration = Duration::from_secs(20);

/// Rendezvous point: `arrive_and_wait(n)` blocks until `n` parties are
/// inside, panicking (with a protocol diagnosis) on timeout.
#[derive(Default)]
struct Gate {
    count: Mutex<u32>,
    cv: Condvar,
}

impl Gate {
    fn arrive_and_wait(&self, parties: u32, why: &str) {
        let mut count = self.count.lock().unwrap();
        *count += 1;
        self.cv.notify_all();
        let deadline = Instant::now() + STALL;
        while *count < parties {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "gate timed out — {why}");
            let (c, _) = self.cv.wait_timeout(count, left).unwrap();
            count = c;
        }
        self.cv.notify_all();
    }
}

/// Spin until `pred` holds, panicking on timeout.  Used from inside read
/// hooks to sequence the *other* threads' observable progress.
fn wait_until(pred: impl Fn() -> bool, why: &str) {
    let deadline = Instant::now() + STALL;
    while !pred() {
        assert!(Instant::now() < deadline, "condition timed out — {why}");
        std::thread::yield_now();
    }
}

/// Joins `handle`, panicking if it is still running after [`STALL`]: a
/// thread parked by a lost wakeup fails the test instead of hanging it.
fn join_within<T>(handle: JoinHandle<T>, why: &str) -> T {
    wait_until(|| handle.is_finished(), why);
    handle.join().unwrap()
}

struct TestEnv {
    disk: Arc<FaultyDisk<MemDisk>>,
    pool: Arc<BufferPool>,
    stats: PoolStats,
}

/// A pool over a hook-capable device; `shards` stripes over `frames`
/// total frames.  The `Arc<FaultyDisk>` stays accessible after the pool
/// takes ownership (the `DiskManager for Arc<D>` forwarder).
fn env(frames: usize, shards: usize) -> TestEnv {
    let disk = Arc::new(FaultyDisk::new(MemDisk::new(PAGE_SIZE), FaultPlan::default()));
    let pool =
        Arc::new(BufferPool::new(Arc::clone(&disk), BufferPoolConfig::sharded(frames, shards)));
    let stats = pool.stats();
    TestEnv { disk, pool, stats }
}

/// Allocates `n` pages stamped with their index, then empties the cache so
/// every page is cold.
fn cold_pages(env: &TestEnv, n: u64) -> Vec<PageId> {
    let pages: Vec<PageId> = (0..n)
        .map(|i| {
            let p = env.pool.allocate_page().unwrap();
            env.pool.with_page_mut(p, |d| d[0] = i as u8).unwrap();
            p
        })
        .collect();
    env.pool.clear_cache().unwrap();
    pages
}

/// Two threads, same (single) shard, disjoint cold pages: with promoted
/// misses *both* device reads are in flight at once — neither thread
/// waits for the other's fetch.  Under the old fetch-under-the-lock
/// implementation the second read could not start until the first
/// finished, and this rendezvous would dead-time-out.
#[test]
fn disjoint_cold_misses_in_one_shard_overlap() {
    let env = env(4, 1);
    let pages = cold_pages(&env, 2);
    let io_before = env.stats.snapshot();
    let miss_before = env.stats.miss_snapshot();
    let gate = Arc::new(Gate::default());
    let g = Arc::clone(&gate);
    env.disk.set_read_hook(Some(Arc::new(move |_page, _n| {
        g.arrive_and_wait(2, "both cold reads must be in flight simultaneously");
    })));
    let mut handles = Vec::new();
    for (i, &p) in pages.iter().enumerate() {
        let pool = Arc::clone(&env.pool);
        handles.push(std::thread::spawn(move || {
            assert_eq!(pool.with_page(p, |d| d[0]).unwrap(), i as u8);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    env.disk.set_read_hook(None);
    assert_eq!(env.stats.snapshot().since(&io_before).physical_reads, 2);
    assert_eq!(env.stats.miss_snapshot().since(&miss_before).coalesced_faults, 0);
}

/// Four threads fault the same cold page: exactly one device read is
/// issued; the other three coalesce on the in-flight entry and are served
/// from the published frame.
#[test]
fn same_page_faults_coalesce_to_one_device_read() {
    let env = env(4, 1);
    let pages = cold_pages(&env, 1);
    let page = pages[0];
    let reads_before = env.disk.reads_attempted();
    let io_before = env.stats.snapshot();
    let miss_before = env.stats.miss_snapshot();

    // The fetcher's device read parks until all three other faults have
    // registered as coalesced — proving they are blocked on the in-flight
    // entry, not queued for their own read.
    let stats = env.stats.clone();
    env.disk.set_read_hook(Some(Arc::new(move |_page, _n| {
        let base = miss_before.coalesced_faults;
        wait_until(
            || stats.miss_snapshot().coalesced_faults >= base + 3,
            "three concurrent faults must coalesce on the in-flight read",
        );
    })));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let pool = Arc::clone(&env.pool);
        handles.push(std::thread::spawn(move || {
            assert_eq!(pool.with_page(page, |d| d[0]).unwrap(), 0);
        }));
    }
    for h in handles {
        join_within(h, "the publish must wake the coalesced faults");
    }
    env.disk.set_read_hook(None);

    assert_eq!(env.disk.reads_attempted() - reads_before, 1, "single-flight: one device read");
    let io = env.stats.snapshot().since(&io_before);
    assert_eq!(io.physical_reads, 1);
    assert_eq!(io.logical_reads, 4);
    let miss = env.stats.miss_snapshot().since(&miss_before);
    assert_eq!(miss.coalesced_faults, 3);
    assert_eq!(io.physical_reads + miss.coalesced_faults, io.logical_reads, "read or coalesced");
}

/// Capacity-1 shard: while the only frame is reserved by an in-flight
/// miss, a fault on a different page must *wait for the publish* rather
/// than evict the reserved frame (whose buffer is out with the fetcher).
#[test]
fn fault_waits_when_every_frame_is_reserved() {
    let env = env(1, 1);
    let pages = cold_pages(&env, 2);
    let (p, q) = (pages[0], pages[1]);

    // P's read parks until Q's fault has *entered* the pool (its logical
    // read is counted before it can possibly block on the reservation).
    let stats = env.stats.clone();
    let io_before = env.stats.snapshot();
    let logical_before = io_before.logical_reads;
    let first_read = Arc::new(AtomicBool::new(true));
    let fr = Arc::clone(&first_read);
    env.disk.set_read_hook(Some(Arc::new(move |_page, _n| {
        if fr.swap(false, Ordering::SeqCst) {
            wait_until(
                || stats.snapshot().logical_reads >= logical_before + 2,
                "the second fault must arrive while the frame is reserved",
            );
            // Give the second fault time to reach its wait; if it were
            // (incorrectly) allowed to evict the reserved frame, the
            // publish below would corrupt or panic.
            std::thread::sleep(Duration::from_millis(50));
        }
    })));
    let pool_a = Arc::clone(&env.pool);
    let a = std::thread::spawn(move || assert_eq!(pool_a.with_page(p, |d| d[0]).unwrap(), 0));
    let pool_b = Arc::clone(&env.pool);
    let b = std::thread::spawn(move || assert_eq!(pool_b.with_page(q, |d| d[0]).unwrap(), 1));
    join_within(a, "P's fetch publishes");
    join_within(b, "P's publish must wake the fault that found every frame reserved");
    env.disk.set_read_hook(None);
    assert_eq!(
        env.stats.snapshot().since(&io_before).physical_reads,
        2,
        "Q faulted after P published"
    );
}

/// `flush_all` must drain in-flight misses before walking frames: while a
/// fetch is parked inside its device read, a concurrent flush blocks; it
/// completes promptly once the fetch publishes.
#[test]
fn flush_all_waits_for_in_flight_misses() {
    let env = env(2, 1);
    let pages = cold_pages(&env, 1);
    let page = pages[0];

    let release = Arc::new(AtomicBool::new(false));
    let rel = Arc::clone(&release);
    env.disk.set_read_hook(Some(Arc::new(move |_page, _n| {
        wait_until(|| rel.load(Ordering::SeqCst), "test releases the parked fetch");
    })));

    let disk = Arc::clone(&env.disk);
    let reads_base = disk.reads_attempted();
    let pool_reader = Arc::clone(&env.pool);
    let reader = std::thread::spawn(move || {
        assert_eq!(pool_reader.with_page(page, |d| d[0]).unwrap(), 0);
    });
    // Wait until the fetch is genuinely in flight (device read started).
    wait_until(|| disk.reads_attempted() > reads_base, "fetch reaches the device");

    let flushed = Arc::new(AtomicBool::new(false));
    let (pool_f, flag) = (Arc::clone(&env.pool), Arc::clone(&flushed));
    let flusher = std::thread::spawn(move || {
        pool_f.flush_all().unwrap();
        flag.store(true, Ordering::SeqCst);
    });
    std::thread::sleep(Duration::from_millis(100));
    assert!(!flushed.load(Ordering::SeqCst), "flush_all ran past an in-flight miss");

    release.store(true, Ordering::SeqCst);
    join_within(reader, "the released fetch publishes");
    join_within(flusher, "the publish must wake the draining flush");
    assert!(flushed.load(Ordering::SeqCst));
    env.disk.set_read_hook(None);
}

/// `clear_cache` during a parked fetch with a coalesced waiter: the clear
/// drains the miss, the waiter is served (from the published frame or by
/// refetching after the clear), and the data survives intact.
#[test]
fn clear_cache_drains_misses_and_waiters_survive() {
    let env = env(4, 1);
    let pages = cold_pages(&env, 3);
    let page = pages[1];

    let release = Arc::new(AtomicBool::new(false));
    let rel = Arc::clone(&release);
    let stats = env.stats.clone();
    let miss_base = env.stats.miss_snapshot().coalesced_faults;
    env.disk.set_read_hook(Some(Arc::new(move |_page, _n| {
        // Only the first (parked) fetch waits; post-clear refetches and
        // the waiter's possible refetch sail through.
        if !rel.load(Ordering::SeqCst) {
            wait_until(
                || rel.load(Ordering::SeqCst) || stats.miss_snapshot().coalesced_faults > miss_base,
                "a waiter coalesces or the test releases",
            );
        }
    })));

    let mut readers = Vec::new();
    for _ in 0..2 {
        let pool = Arc::clone(&env.pool);
        readers.push(std::thread::spawn(move || {
            assert_eq!(pool.with_page(page, |d| d[0]).unwrap(), 1);
        }));
    }
    // Let the fault get airborne, then clear underneath it.
    let disk = Arc::clone(&env.disk);
    wait_until(|| disk.reads_attempted() >= 4, "the contended fetch reaches the device");
    release.store(true, Ordering::SeqCst);
    env.pool.clear_cache().unwrap();
    for r in readers {
        join_within(r, "the publish or the end of the clear must wake each waiter");
    }
    env.disk.set_read_hook(None);
    // Everything still readable, correct, and quiesced.
    for (i, &p) in pages.iter().enumerate() {
        assert_eq!(env.pool.with_page(p, |d| d[0]).unwrap(), i as u8);
    }
    env.pool.clear_cache().unwrap();
}

/// The stale-image window: while a dirty victim's promoted write-back is
/// parked at the device, a fault on that victim must wait for the
/// write-back to land — serving the on-disk image during the window would
/// resurrect the pre-update page and lose the write (the regression that
/// fig19's 8-thread writer verification caught in development).
#[test]
fn fault_on_evicting_victim_waits_for_its_writeback() {
    let env = env(1, 1); // one frame: faulting Q always evicts P
    let pages = cold_pages(&env, 2);
    let (p, q) = (pages[0], pages[1]);

    // Dirty P in cache with the "new" value.
    env.pool.with_page_mut(p, |d| d[0] = 77).unwrap();

    // Park P's eviction write-back at the device.
    let release = Arc::new(AtomicBool::new(false));
    let rel = Arc::clone(&release);
    env.disk.set_write_hook(Some(Arc::new(move |_page, _n| {
        wait_until(|| rel.load(Ordering::SeqCst), "test releases the parked write-back");
    })));

    let disk = Arc::clone(&env.disk);
    let writes_base = disk.writes_attempted();
    let pool_a = Arc::clone(&env.pool);
    let evictor = std::thread::spawn(move || {
        assert_eq!(pool_a.with_page(q, |d| d[0]).unwrap(), 1);
    });
    wait_until(|| disk.writes_attempted() > writes_base, "write-back reaches the device");

    // Fault P while its write-back is parked: must block, then serve 77.
    let got = Arc::new(Mutex::new(None::<u8>));
    let (pool_b, got_b) = (Arc::clone(&env.pool), Arc::clone(&got));
    let reader = std::thread::spawn(move || {
        let v = pool_b.with_page(p, |d| d[0]).unwrap();
        *got_b.lock().unwrap() = Some(v);
    });
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(*got.lock().unwrap(), None, "fault served the stale window");

    release.store(true, Ordering::SeqCst);
    join_within(evictor, "the released write-back lands and Q publishes");
    join_within(reader, "Q's publish must wake the fault on the evicting victim");
    env.disk.set_write_hook(None);
    assert_eq!(*got.lock().unwrap(), Some(77), "the dirty update survived promotion");
}

/// Liveness: a flush must terminate under *sustained* miss traffic.  The
/// drain registers the janitor as draining, which turns new reservations
/// away until the shard quiesces — without that admission control this
/// flush waits for a gap in the miss stream that never comes.
#[test]
fn flush_terminates_under_sustained_miss_traffic() {
    let env = env(2, 1); // 2 frames, 8 hot pages: every sweep misses
    let pages = cold_pages(&env, 8);
    // A small device delay per read keeps multiple faults perpetually
    // in play around the janitor's drain attempts.
    env.disk.set_read_hook(Some(Arc::new(|_page, _n| {
        std::thread::sleep(Duration::from_millis(1));
    })));
    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|t| {
            let pool = Arc::clone(&env.pool);
            let pages = pages.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut i = t;
                while !done.load(Ordering::SeqCst) {
                    let k = i % pages.len();
                    assert_eq!(pool.with_page(pages[k], |d| d[0]).unwrap(), k as u8);
                    i += 3;
                }
            })
        })
        .collect();
    // Let the miss stream establish itself, then flush: it must return
    // while the readers are still hammering (the test harness itself is
    // the timeout that catches a starved drain).
    std::thread::sleep(Duration::from_millis(50));
    env.pool.flush_all().unwrap();
    assert!(!done.load(Ordering::SeqCst), "flush returned while traffic was still live");
    done.store(true, Ordering::SeqCst);
    for r in readers {
        join_within(r, "every fault the flush turned away must be woken");
    }
    env.disk.set_read_hook(None);
}

/// A fault turned away by a draining janitor parks until the drain ends,
/// and only the end of the drain can wake it: no publish follows it.  To
/// park it there, the thread whose publish ends the drain faults its next
/// page at once — it usually reaches the shard before the janitor it just
/// woke does.  The rounds make that interleaving all but certain.
#[test]
fn fault_turned_away_by_a_drain_is_woken_when_the_drain_ends() {
    const ROUNDS: usize = 20;
    let env = env(2, 1);
    let pages = cold_pages(&env, 2);
    let (p, q) = (pages[0], pages[1]);
    for _ in 0..ROUNDS {
        let release = Arc::new(AtomicBool::new(false));
        let rel = Arc::clone(&release);
        env.disk.set_read_hook(Some(Arc::new(move |page, _n| {
            if page == p {
                wait_until(|| rel.load(Ordering::SeqCst), "test releases the parked fetch");
            }
        })));
        let reads_base = env.disk.reads_attempted();
        let pool = Arc::clone(&env.pool);
        let fetcher = std::thread::spawn(move || {
            assert_eq!(pool.with_page(p, |d| d[0]).unwrap(), 0);
            assert_eq!(pool.with_page(q, |d| d[0]).unwrap(), 1);
        });
        let disk = Arc::clone(&env.disk);
        wait_until(|| disk.reads_attempted() > reads_base, "P's fetch reaches the device");
        let pool = Arc::clone(&env.pool);
        let janitor = std::thread::spawn(move || pool.flush_all().unwrap());
        // Let the flush register as draining and park behind the fetch.
        // (The drain is not observable from outside the pool; a round in
        // which the flush arrives late just passes without testing.)
        std::thread::sleep(Duration::from_millis(10));
        release.store(true, Ordering::SeqCst);
        join_within(janitor, "P's publish wakes the draining flush");
        join_within(fetcher, "the end of the drain must wake the fault it turned away");
        env.disk.set_read_hook(None);
        env.pool.clear_cache().unwrap();
    }
}

/// Injected read failures under contention: every faulting caller gets the
/// error (waiters retry, become the fetcher, and fail in turn — the
/// in-flight entry never wedges), and the pool works once the fault lifts.
#[test]
fn poisoned_page_fails_every_coalesced_caller_then_recovers() {
    let env = env(4, 1);
    let pages = cold_pages(&env, 1);
    let page = pages[0];
    env.disk.set_plan(FaultPlan { poison_page_reads: Some(page), ..Default::default() });
    let mut handles = Vec::new();
    for _ in 0..4 {
        let pool = Arc::clone(&env.pool);
        handles.push(std::thread::spawn(move || pool.with_page(page, |d| d[0])));
    }
    for h in handles {
        let served = join_within(h, "every coalesced caller must be woken by a failed fetch");
        assert!(served.is_err(), "a poisoned fault must error, not hang or serve");
    }
    env.disk.set_plan(FaultPlan::default());
    assert_eq!(env.pool.with_page(page, |d| d[0]).unwrap(), 0);
    env.pool.clear_cache().unwrap();
}

/// Many threads, many shards, tiny capacity, hot contention on a small
/// page set: counters stay exact — every logical access lands, every
/// fault is either a device read or a coalesced wait, and single-flight
/// guarantees reads never exceed faults.
#[test]
fn accounting_identity_holds_under_contention() {
    const THREADS: usize = 8;
    const SWEEPS: usize = 40;
    let env = env(8, 4);
    let pages = cold_pages(&env, 8);
    let before_io = env.stats.snapshot();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let pool = Arc::clone(&env.pool);
            let pages = pages.clone();
            std::thread::spawn(move || {
                for s in 0..SWEEPS {
                    for k in 0..pages.len() {
                        let i = (k + t * 3 + s) % pages.len();
                        assert_eq!(pool.with_page(pages[i], |d| d[0]).unwrap(), i as u8);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        join_within(h, "every parked fault must be woken");
    }
    let io = env.stats.snapshot().since(&before_io);
    assert_eq!(io.logical_reads, (THREADS * SWEEPS * pages.len()) as u64);
    // Pool capacity == working set: every page faults exactly once per
    // cold start regardless of racing, thanks to single-flight.
    assert_eq!(io.physical_reads, pages.len() as u64);
    // Lifetime identity: the device saw exactly the counted reads.
    assert_eq!(env.disk.reads_attempted(), env.stats.snapshot().physical_reads);
}

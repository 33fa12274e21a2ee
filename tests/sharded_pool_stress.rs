//! Multi-threaded stress for the lock-striped buffer pool: concurrent
//! readers and writers spanning every shard, under eviction pressure,
//! must lose no updates, write dirty victims back correctly, and account
//! for every access in the aggregate counters.

use crossbeam::thread;
use ri_tree::pagestore::{BufferPool, BufferPoolConfig, MemDisk, PageId, DEFAULT_PAGE_SIZE};
use std::sync::Arc;

/// Little-endian u64 at a fixed page offset: the per-page round counter.
fn get_round(d: &[u8]) -> u64 {
    u64::from_le_bytes(d[8..16].try_into().unwrap())
}

fn put_round(d: &mut [u8], v: u64) {
    d[8..16].copy_from_slice(&v.to_le_bytes());
}

/// Writers own disjoint page sets (spread over all shards) and bump each
/// owned page's round counter once per round; readers hammer arbitrary
/// pages concurrently.  Under a pool far smaller than the working set,
/// every increment must survive eviction and write-back.
#[test]
fn concurrent_writers_lose_no_updates_under_eviction() {
    const WRITERS: usize = 4;
    const READERS: usize = 3;
    const PAGES: u64 = 64;
    const ROUNDS: u64 = 25;

    let pool = Arc::new(BufferPool::new(
        MemDisk::new(DEFAULT_PAGE_SIZE),
        BufferPoolConfig::sharded(16, 8), // 2 frames per shard: constant eviction
    ));
    let pages: Vec<PageId> = (0..PAGES).map(|_| pool.allocate_page().unwrap()).collect();
    // Stamp each page with its owner writer (pages round-robin over
    // writers, and page ids round-robin over shards, so every writer
    // touches every shard).
    for (i, &p) in pages.iter().enumerate() {
        pool.with_page_mut(p, |d| d[0] = (i % WRITERS) as u8).unwrap();
    }

    thread::scope(|s| {
        for w in 0..WRITERS {
            let pool = Arc::clone(&pool);
            let pages = &pages;
            s.spawn(move |_| {
                for round in 1..=ROUNDS {
                    for (i, &p) in pages.iter().enumerate() {
                        if i % WRITERS != w {
                            continue;
                        }
                        pool.with_page_mut(p, |d| {
                            assert_eq!(d[0] as usize, w, "page {i} lost its owner stamp");
                            let seen = get_round(d);
                            assert_eq!(
                                seen,
                                round - 1,
                                "page {i}: writer {w} saw round {seen}, expected {} — an update was lost",
                                round - 1
                            );
                            put_round(d, round);
                        })
                        .unwrap();
                    }
                }
            });
        }
        for r in 0..READERS {
            let pool = Arc::clone(&pool);
            let pages = &pages;
            s.spawn(move |_| {
                let mut x = 0x1234_5678_u64 ^ (r as u64) << 32;
                for _ in 0..800 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let i = (x % PAGES) as usize;
                    pool.with_page(pages[i], |d| {
                        assert_eq!(d[0] as usize, i % WRITERS, "reader saw torn owner stamp");
                        assert!(get_round(d) <= ROUNDS, "reader saw torn round counter");
                    })
                    .unwrap();
                }
            });
        }
    })
    .unwrap();

    // Every page ends at exactly ROUNDS: nothing was lost to a concurrent
    // eviction/write-back race.
    for (i, &p) in pages.iter().enumerate() {
        let round = pool.with_page(p, get_round).unwrap();
        assert_eq!(round, ROUNDS, "page {i} finished at round {round}");
    }
    let snap = pool.stats().snapshot();
    // Exact aggregate logical accounting: the setup stamps + every
    // writer's increments are logical writes; eviction pressure forces
    // physical write-backs.
    assert_eq!(snap.logical_writes, PAGES + PAGES * ROUNDS);
    assert!(snap.physical_writes > 0, "a 16-frame pool over 64 hot pages must write back");
    // Write-back conservation: everything faulted in was either clean or
    // eventually written; a final flush leaves nothing dirty.
    pool.flush_all().unwrap();
    let after_flush = pool.stats().snapshot();
    pool.flush_all().unwrap();
    assert_eq!(
        pool.stats().snapshot().physical_writes,
        after_flush.physical_writes,
        "second flush found dirty frames that the first should have cleaned"
    );
}

/// With the working set exactly matching pool capacity there are no
/// evictions, so hit/miss counts are exact even under maximal read
/// concurrency: each page faults in exactly once (the shard lock
/// serializes racing faults of the same page), and every other access is
/// a hit.
#[test]
fn aggregate_hit_and_miss_counts_are_exact_under_concurrency() {
    const THREADS: usize = 8;
    const PAGES: u64 = 64;
    const SWEEPS: u64 = 30;

    let pool =
        Arc::new(BufferPool::new(MemDisk::new(512), BufferPoolConfig::sharded(PAGES as usize, 8)));
    let pages: Vec<PageId> = (0..PAGES).map(|_| pool.allocate_page().unwrap()).collect();
    let base = pool.stats().snapshot();

    thread::scope(|s| {
        for t in 0..THREADS {
            let pool = Arc::clone(&pool);
            let pages = &pages;
            s.spawn(move |_| {
                for sweep in 0..SWEEPS {
                    // Each thread sweeps all pages, phase-shifted so
                    // threads collide on pages in every possible order.
                    for k in 0..PAGES {
                        let i = ((k + t as u64 * 7 + sweep) % PAGES) as usize;
                        pool.with_page(pages[i], |_| {}).unwrap();
                    }
                }
            });
        }
    })
    .unwrap();

    let delta = pool.stats().snapshot().since(&base);
    assert_eq!(delta.logical_reads, THREADS as u64 * PAGES * SWEEPS, "every access counted");
    assert_eq!(delta.physical_reads, PAGES, "each page faults exactly once, races included");
    assert_eq!(delta.physical_writes, 0, "read-only workload never writes back");
    assert_eq!(delta.logical_writes, 0);
    // Per-shard counters cover the whole story losslessly.
    let per_shard = pool.stats().per_shard();
    assert_eq!(per_shard.len(), 8);
    assert_eq!(
        per_shard.iter().map(|s| s.logical_reads).sum::<u64>(),
        pool.stats().snapshot().logical_reads
    );
    // 64 dense page ids over 8 shards: a uniform 8 faults per shard.
    assert!(per_shard.iter().all(|s| s.physical_reads == PAGES / 8), "{per_shard:?}");
}

/// `flush_all` / `clear_cache` racing concurrent readers, writers, and
/// in-flight misses under the promoted miss protocol: the janitors drain
/// each shard's in-flight table before walking or dropping frames, so no
/// update may be lost, no reader may observe a torn page, and the pool
/// must quiesce cleanly afterwards.
#[test]
fn flush_and_clear_race_readers_writers_and_misses() {
    const WRITERS: usize = 3;
    const READERS: usize = 2;
    const PAGES: u64 = 48;
    const ROUNDS: u64 = 25;

    let pool = Arc::new(BufferPool::new(
        MemDisk::new(DEFAULT_PAGE_SIZE),
        BufferPoolConfig::sharded(12, 4), // 3 frames/shard over 48 hot pages: misses everywhere
    ));
    let pages: Vec<PageId> = (0..PAGES).map(|_| pool.allocate_page().unwrap()).collect();
    for (i, &p) in pages.iter().enumerate() {
        pool.with_page_mut(p, |d| d[0] = (i % WRITERS) as u8).unwrap();
    }

    thread::scope(|s| {
        for w in 0..WRITERS {
            let pool = Arc::clone(&pool);
            let pages = &pages;
            s.spawn(move |_| {
                for round in 1..=ROUNDS {
                    for (i, &p) in pages.iter().enumerate() {
                        if i % WRITERS != w {
                            continue;
                        }
                        pool.with_page_mut(p, |d| {
                            assert_eq!(d[0] as usize, w, "page {i} lost its owner stamp");
                            assert_eq!(get_round(d), round - 1, "page {i}: update lost");
                            put_round(d, round);
                        })
                        .unwrap();
                    }
                }
            });
        }
        for r in 0..READERS {
            let pool = Arc::clone(&pool);
            let pages = &pages;
            s.spawn(move |_| {
                let mut x = 0xDEAD_BEEF_u64 ^ (r as u64) << 32;
                let mut floor = vec![0u64; PAGES as usize];
                for _ in 0..600 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let i = (x % PAGES) as usize;
                    pool.with_page(pages[i], |d| {
                        assert_eq!(d[0] as usize, i % WRITERS, "reader saw torn owner stamp");
                        let seen = get_round(d);
                        assert!(
                            seen >= floor[i] && seen <= ROUNDS,
                            "page {i}: round went backwards ({} -> {seen}) across flush/clear",
                            floor[i]
                        );
                        floor[i] = seen;
                    })
                    .unwrap();
                }
            });
        }
        // Janitors: constant flushes and full cache clears while the
        // traffic above keeps every shard's miss table busy.
        for j in 0..2 {
            let pool = Arc::clone(&pool);
            s.spawn(move |_| {
                for k in 0..15 {
                    if (j + k) % 2 == 0 {
                        pool.flush_all().unwrap();
                    } else {
                        pool.clear_cache().unwrap();
                    }
                    std::thread::yield_now();
                }
            });
        }
    })
    .unwrap();

    for (i, &p) in pages.iter().enumerate() {
        assert_eq!(pool.with_page(p, get_round).unwrap(), ROUNDS, "page {i} lost an update");
    }
    // Quiesced: a flush after the storm leaves nothing dirty behind, and
    // no fetch is left in flight to land after it.
    pool.flush_all().unwrap();
    let after = pool.stats().snapshot();
    pool.flush_all().unwrap();
    assert_eq!(pool.stats().snapshot().physical_writes, after.physical_writes);
    assert_eq!(pool.stats().snapshot().physical_reads, after.physical_reads);
}

/// A single hot page incremented by one writer while a janitor loops
/// `clear_cache`: the clear's drop pass must write back frames dirtied
/// *after* its flush pass released the shard lock, or an increment is
/// silently lost.  (Code review of the miss-promotion refactor found a
/// repro for exactly this window; this pins the fix.)
#[test]
fn clear_cache_never_drops_a_freshly_dirtied_frame() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const ROUNDS: u64 = 2_000;
    let pool =
        Arc::new(BufferPool::new(MemDisk::new(DEFAULT_PAGE_SIZE), BufferPoolConfig::sharded(4, 1)));
    let page = pool.allocate_page().unwrap();
    let done = Arc::new(AtomicBool::new(false));
    thread::scope(|s| {
        let pool_j = Arc::clone(&pool);
        let done_j = Arc::clone(&done);
        s.spawn(move |_| {
            while !done_j.load(Ordering::SeqCst) {
                pool_j.clear_cache().unwrap();
            }
        });
        for round in 1..=ROUNDS {
            pool.with_page_mut(page, |d| {
                assert_eq!(get_round(d), round - 1, "clear_cache dropped a dirty frame");
                put_round(d, round);
            })
            .unwrap();
        }
        done.store(true, Ordering::SeqCst);
    })
    .unwrap();
    assert_eq!(pool.with_page(page, get_round).unwrap(), ROUNDS);
}

/// Eviction write-back correctness across shard counts: data written
/// through one shard layout is readable through any other (the disk
/// image, not the shard layout, is the source of truth).
#[test]
fn shard_layout_is_invisible_to_persisted_data() {
    let disk_pool = |shards: usize, seed: &[PageId], pool: &BufferPool| {
        for (i, &p) in seed.iter().enumerate() {
            pool.with_page_mut(p, |d| {
                d[0] = i as u8;
                d[1] = shards as u8;
            })
            .unwrap();
        }
    };
    // Write through a 16-shard pool, then reread through the same pool
    // after clearing: contents must match regardless of which shard's LRU
    // evicted what in between.
    let pool = BufferPool::new(MemDisk::new(256), BufferPoolConfig::sharded(16, 16));
    let pages: Vec<PageId> = (0..96).map(|_| pool.allocate_page().unwrap()).collect();
    disk_pool(16, &pages, &pool);
    pool.clear_cache().unwrap();
    for (i, &p) in pages.iter().enumerate() {
        let (a, b) = pool.with_page(p, |d| (d[0], d[1])).unwrap();
        assert_eq!((a, b), (i as u8, 16));
    }
}

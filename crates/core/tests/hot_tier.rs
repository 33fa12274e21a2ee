//! Coherence tests for the read-through hot tier: the tier must answer
//! exactly like the naive oracle after every single operation, an
//! admitted-then-deleted interval must never reappear from the cache,
//! and under genuinely concurrent DML a reader may never observe a
//! stale id (deleted strictly before its query began) nor miss a
//! committed one (inserted strictly before, never deleted).  And two
//! admissions of one block whose fetches overlap — forced with device read
//! hooks, not sleeps — must count the block's intervals once.

use ri_mem::NaiveIntervalSet;
use ri_pagestore::{
    BufferPool, BufferPoolConfig, FaultPlan, FaultyDisk, MemDisk, PageId, DEFAULT_PAGE_SIZE,
};
use ri_relstore::Database;
use ritree_core::{HotTier, HotTierConfig, Interval, RiTree};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

#[path = "../../../tests/common/twins.rs"]
mod twins;

fn fresh_tier(cfg: HotTierConfig) -> HotTier {
    let pool = Arc::new(BufferPool::new(
        MemDisk::new(DEFAULT_PAGE_SIZE),
        BufferPoolConfig::with_capacity(200),
    ));
    let db = Arc::new(Database::create(pool).unwrap());
    HotTier::new(RiTree::create(db, "hot").unwrap(), cfg)
}

fn iv(l: i64, u: i64) -> Interval {
    Interval::new(l, u).unwrap()
}

fn sorted(mut ids: Vec<i64>) -> Vec<i64> {
    ri_mem::sort::sort_ids(&mut ids);
    ids
}

/// The tree's answer to `q` in ascending order.
fn tree_answer(tier: &HotTier, q: Interval) -> Vec<i64> {
    sorted(tier.tree().intersection(q).unwrap())
}

/// The tier's answer to `q` in ascending order: compared as a set, a
/// duplicate id still shows.
fn tier_answer(tier: &HotTier, q: Interval) -> Vec<i64> {
    sorted(tier.intersection(q).unwrap())
}

/// Deterministic xorshift — the tests must replay identically.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Mixed inserts/deletes/queries against the oracle, with a small
/// rotating query set so blocks get admitted, hit, and invalidated;
/// exact equality is asserted after every operation.
#[test]
fn tier_matches_oracle_after_every_operation() {
    let tier = fresh_tier(HotTierConfig::with_capacity(64));
    let mut oracle = NaiveIntervalSet::new();
    let mut rng = Rng(0xC0FFEE);
    let mut live: Vec<(i64, i64, i64)> = Vec::new();
    let mut next_id = 0i64;
    // Eight fixed query windows over the hot half of the domain: repeats
    // drive 2Q admission, so later queries are served from the HINT.
    let windows: Vec<Interval> = (0..8).map(|i| iv(i * 40_000, i * 40_000 + 24_000)).collect();
    for _ in 0..250 {
        let l = rng.below(500_000) as i64;
        let u = l + 200 + rng.below(4_000) as i64;
        tier.insert(iv(l, u), next_id).unwrap();
        oracle.insert(l, u, next_id);
        live.push((l, u, next_id));
        next_id += 1;
    }
    for round in 0..600 {
        match rng.below(10) {
            0..=5 => {
                let q = windows[rng.below(8) as usize];
                assert_eq!(
                    tier_answer(&tier, q),
                    oracle.intersection(q.lower, q.upper),
                    "round {round}, query {q:?}"
                );
            }
            6..=7 => {
                let l = rng.below(500_000) as i64;
                let u = l + 200 + rng.below(4_000) as i64;
                tier.insert(iv(l, u), next_id).unwrap();
                oracle.insert(l, u, next_id);
                live.push((l, u, next_id));
                next_id += 1;
            }
            _ => {
                if !live.is_empty() {
                    let (l, u, id) = live.swap_remove(rng.below(live.len() as u64) as usize);
                    assert!(tier.delete(iv(l, u), id).unwrap(), "live triple deletes");
                    assert!(oracle.delete(l, u, id));
                }
            }
        }
    }
    let stats = tier.stats();
    assert!(stats.hits > 0, "the cache never served a query: {stats:?}");
    assert!(stats.admissions > 0, "nothing was ever admitted: {stats:?}");
    assert!(stats.invalidations > 0, "no delete ever hit a cached entry: {stats:?}");
    twins::assert_twins(tier.tree(), "after the mixed stream");
}

/// The zero-stale-reads contract in its sharpest form: admit a block,
/// verify the id is served from the cache, delete it, and require the
/// very next query — still a cache hit — to not return it.
#[test]
fn admitted_then_deleted_interval_never_reappears() {
    let tier = fresh_tier(HotTierConfig::with_capacity(1024));
    for i in 0..100 {
        tier.insert(iv(i * 100, i * 100 + 250), i).unwrap();
    }
    let q = iv(5_000, 6_000);
    tier.intersection(q).unwrap(); // miss, ghost
    tier.intersection(q).unwrap(); // miss, admit
    let hits_before = tier.stats().hits;
    let cached = tier.intersection(q).unwrap(); // hit
    assert_eq!(tier.stats().hits, hits_before + 1, "span must be resident");
    assert!(cached.contains(&55), "id 55 ([5500, 5750]) intersects {q:?}");

    assert!(tier.delete(iv(5_500, 5_750), 55).unwrap());
    let after = tier.intersection(q).unwrap();
    assert_eq!(tier.stats().hits, hits_before + 2, "delete must not demote the block");
    assert!(!after.contains(&55), "stale read of a deleted interval");

    // And a fresh insert into the resident block appears immediately.
    tier.insert(iv(5_400, 5_800), 777).unwrap();
    let with_new = tier.intersection(q).unwrap();
    assert_eq!(tier.stats().hits, hits_before + 3);
    assert!(with_new.contains(&777), "committed insert missing from a hit");
}

const WRITERS: usize = 4;
const PER_WRITER: usize = 150;
const READERS: usize = 2;
const READS: usize = 300;
const DOMAIN: i64 = 1 << 20;

/// Interval of an id: scattered deterministically over the domain.
fn iv_of(id: i64) -> Interval {
    let lo = (id.wrapping_mul(2_654_435_761)).rem_euclid(DOMAIN - 1_000);
    iv(lo, lo + 600)
}

/// Concurrent writers (disjoint id ranges, insert-then-sometimes-delete
/// through the tier) against Zipf-skewed readers, ordered by one global
/// ticket clock:
///
/// * an id whose delete **completed** before a query began must not be
///   returned (zero stale reads after delete);
/// * an id whose insert completed before the query began, with no
///   delete started by the time it ended, must be returned if it
///   intersects;
/// * after the threads quiesce, a full sweep must equal the oracle.
#[test]
fn concurrent_writers_and_readers_see_no_stale_reads() {
    let tier = fresh_tier(HotTierConfig::with_capacity(4_096));
    let clock = AtomicU64::new(1);
    let total = WRITERS * PER_WRITER;
    let ins_done: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
    let del_start: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
    let del_done: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();

    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let (tier, clock) = (&tier, &clock);
            let (ins_done, del_start, del_done) = (&ins_done, &del_start, &del_done);
            s.spawn(move || {
                for k in 0..PER_WRITER {
                    let id = (w * PER_WRITER + k) as i64;
                    tier.insert(iv_of(id), id).unwrap();
                    ins_done[id as usize].store(clock.fetch_add(1, SeqCst), SeqCst);
                    // Every third insert, delete an older id of ours.
                    if k % 3 == 2 {
                        let victim = id - 2;
                        del_start[victim as usize].store(clock.fetch_add(1, SeqCst), SeqCst);
                        assert!(tier.delete(iv_of(victim), victim).unwrap());
                        del_done[victim as usize].store(clock.fetch_add(1, SeqCst), SeqCst);
                    }
                }
            });
        }
        for r in 0..READERS {
            let (tier, clock) = (&tier, &clock);
            let (ins_done, del_start, del_done) = (&ins_done, &del_start, &del_done);
            s.spawn(move || {
                let mut rng = Rng(0xFEED + r as u64);
                for _ in 0..READS {
                    // Zipf-ish: cube a uniform variate so queries pile
                    // onto the low end of the domain — repeats there get
                    // the blocks admitted and then hit while writers
                    // churn them.
                    let u = rng.below(1 << 20) as f64 / (1u64 << 20) as f64;
                    let lo = ((u * u * u) * (DOMAIN - 4_000) as f64) as i64;
                    let q = iv(lo, lo + 3_000);
                    let t0 = clock.fetch_add(1, SeqCst);
                    let got = tier.intersection(q).unwrap();
                    let t1 = clock.fetch_add(1, SeqCst);
                    for &id in &got {
                        let dd = del_done[id as usize].load(SeqCst);
                        assert!(
                            !(dd != 0 && dd < t0),
                            "stale read: id {id} deleted at {dd}, query began at {t0}"
                        );
                    }
                    for id in 0..total {
                        let ins = ins_done[id].load(SeqCst);
                        let started = del_start[id].load(SeqCst);
                        let w = iv_of(id as i64);
                        if ins != 0
                            && ins < t0
                            && (started == 0 || started > t1)
                            && w.lower <= q.upper
                            && q.lower <= w.upper
                        {
                            assert!(
                                got.contains(&(id as i64)),
                                "lost read: id {id} ({w:?}) inserted at {ins}, \
                                 no delete started before {t1}, query [{t0}, {t1}] {q:?}"
                            );
                        }
                    }
                }
            });
        }
    });

    // Quiesced: the tier (cache hits included) must equal the oracle.
    let mut oracle = NaiveIntervalSet::new();
    for id in 0..total {
        if ins_done[id].load(SeqCst) != 0 && del_done[id].load(SeqCst) == 0 {
            let w = iv_of(id as i64);
            oracle.insert(w.lower, w.upper, id as i64);
        }
    }
    for lo in (0..DOMAIN - 8_000).step_by(65_536) {
        let q = iv(lo, lo + 8_000);
        for _ in 0..3 {
            assert_eq!(tier_answer(&tier, q), oracle.intersection(q.lower, q.upper));
        }
    }
    let all = iv(0, DOMAIN - 1);
    assert_eq!(tier_answer(&tier, all), oracle.intersection(0, DOMAIN - 1));
    let stats = tier.stats();
    assert!(stats.hits > 0, "the stress never exercised the cache: {stats:?}");
    assert!(stats.admissions > 0, "{stats:?}");
    twins::assert_twins(tier.tree(), "after the concurrent stress");
}

/// Generous bound for "the other thread gets scheduled"; reached only on a
/// regression that deadlocks the protocol below, never in passing runs.
const STALL: Duration = Duration::from_secs(20);

/// A one-way flag threads can block on.
#[derive(Default)]
struct Flag {
    set: Mutex<bool>,
    cv: Condvar,
}

impl Flag {
    fn raise(&self) {
        *self.set.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn is_raised(&self) -> bool {
        *self.set.lock().unwrap()
    }

    fn wait(&self, why: &str) {
        let deadline = Instant::now() + STALL;
        let mut set = self.set.lock().unwrap();
        while !*set {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "flag timed out — {why}");
            set = self.cv.wait_timeout(set, left).unwrap().0;
        }
    }
}

/// Two admissions of one block whose fetches overlap: `admit-a`'s miss
/// admits block 0 and is parked inside its fetch; a third miss puts the
/// block back on the ghost list, so `admit-c`'s miss admits it *again*; no
/// writer runs, so both installs find the epoch they started from.  The
/// second one must be discarded: counting the block's 400 intervals twice
/// leaves them "cached" for good once the block is evicted, and a budget of
/// 500 then admits and evicts the 200-interval block 1 in the same call,
/// forever.
#[test]
fn overlapping_admissions_of_one_block_count_it_once() {
    let disk = Arc::new(FaultyDisk::new(MemDisk::new(DEFAULT_PAGE_SIZE), FaultPlan::default()));
    let pool = Arc::new(BufferPool::new(Arc::clone(&disk), BufferPoolConfig::with_capacity(8)));
    let db = Arc::new(Database::create(Arc::clone(&pool)).unwrap());
    let tier = HotTier::new(RiTree::create(db, "race").unwrap(), HotTierConfig::with_capacity(500));
    // Default geometry: block 0 is [0, 16383], block 1 the next 16384.
    for i in 0..400 {
        tier.insert(iv(i * 40, i * 40 + 20), i).unwrap();
    }
    for i in 0..200 {
        tier.insert(iv(16_384 + i * 80, 16_384 + i * 80 + 20), 400 + i).unwrap();
    }
    let q0 = iv(100, 300);
    let q1 = iv(20_000, 20_300);
    let want0 = tree_answer(&tier, q0);
    let want1 = tree_answer(&tier, q1);

    // The pages a plain `q0` query reads.  `admit-a` is parked on a page
    // outside this set, so the main thread's own `q0` below can never
    // coalesce onto the parked fault.
    let plain: Arc<Mutex<HashSet<PageId>>> = Arc::default();
    let seen = Arc::clone(&plain);
    pool.clear_cache().unwrap();
    disk.set_read_hook(Some(Arc::new(move |page, _n| {
        seen.lock().unwrap().insert(page);
    })));
    assert_eq!(tree_answer(&tier, q0), want0);
    let plain = std::mem::take(&mut *plain.lock().unwrap());

    let (parked, gate) = (Arc::new(Flag::default()), Arc::new(Flag::default()));
    let (p, g) = (Arc::clone(&parked), Arc::clone(&gate));
    disk.set_read_hook(Some(Arc::new(move |page, _n| {
        let mine = std::thread::current().name() == Some("admit-a");
        if mine && !plain.contains(&page) && !p.is_raised() {
            p.raise();
            g.wait("the main thread opens the gate after the fourth miss");
        }
    })));

    assert_eq!(tier_answer(&tier, q0), want0); // miss 1: block 0 becomes a ghost
    std::thread::scope(|s| {
        let spawn = |name: &str| {
            let (tier, want0) = (&tier, &want0);
            std::thread::Builder::new()
                .name(name.into())
                .spawn_scoped(s, move || assert_eq!(&tier_answer(tier, q0), want0))
                .unwrap()
        };
        let a = spawn("admit-a"); // miss 2: admits block 0, parks inside the fetch
        parked.wait("admit-a's fetch reads a page the plain query does not");
        assert_eq!(tier_answer(&tier, q0), want0); // miss 3: a ghost again
        let c = spawn("admit-c"); // miss 4: admits block 0 a second time
        let deadline = Instant::now() + STALL;
        while tier.stats().misses < 4 {
            assert!(Instant::now() < deadline, "admit-c never took its miss");
            std::thread::yield_now();
        }
        gate.raise();
        a.join().unwrap();
        c.join().unwrap();
    });
    disk.set_read_hook(None);
    let stats = tier.stats();
    assert_eq!((stats.resident_blocks, stats.cached_intervals), (1, 400), "{stats:?}");
    assert_eq!(tier_answer(&tier, q0), want0);

    // Heat block 1 until it wins the gate and displaces block 0.
    for _ in 0..12 {
        assert_eq!(tier_answer(&tier, q1), want1);
    }
    let stats = tier.stats();
    assert_eq!((stats.resident_blocks, stats.cached_intervals), (1, 200), "{stats:?}");
    assert!(stats.hits > 1, "block 1 never stayed resident: {stats:?}");
    // Block 0 once, block 1 once; the second install of block 0 discarded.
    assert_eq!((stats.admissions, stats.aborted_admissions), (2, 1), "{stats:?}");
}

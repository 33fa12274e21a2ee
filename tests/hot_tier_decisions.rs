//! Hot-tier decision golden: for one seeded stream of queries, inserts and
//! deletes over a small geometry, every counter the tier keeps — and every
//! answer it gives — must not move when the tier's *storage* is changed.
//!
//! The 2Q ghost list, the TinyLFU gate, the victim order and the budget all
//! read `cached_intervals` (the number of *distinct* cached intervals) and
//! `resident_blocks`, so a storage layout that counted differently would
//! admit or evict differently; the stream is built to notice: 64 blocks of
//! 64 values, a budget of a few blocks' worth so every few admissions
//! evict, Zipf-placed queries one to four blocks wide, intervals up to 16
//! blocks long (cached in many blocks at once), intervals straddling or
//! outside the domain, and queries that leave it.
//!
//! The constants were captured at the commit *before* blocks owned their
//! entries (PR 20; the tier then kept one global HINT and a per-interval
//! refcount map) and pin that the rewrite changed time, not decisions.
//! Sibling of `tests/read_path_trace.rs`; both print and re-capture through
//! the golden rig, `tests/common/golden.rs`.

mod common;

use common::golden::{fnv_answer, xorshift, Pins, FNV_SEED};
use ri_tree::core::{HotTier, HotTierConfig, HotTierStats, Interval, RiTree};
use ri_tree::mem::sort::sort_ids;
use ri_tree::mem::NaiveIntervalSet;
use ri_tree::pagestore::{BufferPool, BufferPoolConfig, MemDisk, DEFAULT_PAGE_SIZE};
use ri_tree::relstore::Database;
use std::sync::Arc;

const DOMAIN_BITS: u32 = 12;
const BLOCK_BITS: u32 = 6;
const DOMAIN: i64 = 1 << DOMAIN_BITS;
const BLOCK: i64 = 1 << BLOCK_BITS;
const BLOCKS: u64 = (DOMAIN / BLOCK) as u64;
const STEPS: usize = 6_000;
const EVERY: usize = 250;

/// `HotTierStats` after every [`EVERY`] steps, as `[hits, misses, bypasses,
/// admissions, aborted_admissions, evicted_blocks, invalidations,
/// cached_intervals, resident_blocks]`; the last row is the final state.
const GOLDEN_TIER_STATS: [[u64; 9]; STEPS / EVERY] = [
    [72, 92, 2, 28, 0, 9, 12, 234, 19],
    [150, 188, 5, 35, 0, 19, 29, 232, 16],
    [244, 264, 5, 38, 0, 22, 43, 230, 16],
    [325, 350, 8, 39, 0, 24, 55, 233, 15],
    [411, 435, 8, 41, 0, 25, 72, 232, 16],
    [492, 529, 13, 44, 0, 29, 83, 232, 15],
    [563, 625, 15, 44, 0, 29, 92, 235, 15],
    [648, 710, 17, 44, 0, 29, 108, 233, 15],
    [720, 807, 18, 46, 0, 30, 125, 233, 16],
    [801, 890, 21, 47, 0, 30, 137, 240, 17],
    [892, 973, 22, 47, 0, 31, 149, 229, 16],
    [986, 1054, 24, 47, 0, 31, 152, 240, 16],
    [1028, 1187, 29, 52, 0, 35, 165, 238, 17],
    [1080, 1314, 35, 62, 0, 46, 179, 230, 16],
    [1142, 1421, 40, 65, 0, 48, 196, 233, 17],
    [1239, 1506, 43, 66, 0, 49, 211, 229, 17],
    [1331, 1596, 46, 69, 0, 51, 223, 230, 18],
    [1405, 1689, 50, 70, 0, 52, 239, 234, 18],
    [1493, 1779, 54, 80, 0, 62, 244, 239, 18],
    [1590, 1868, 55, 80, 0, 63, 255, 234, 17],
    [1678, 1950, 60, 82, 0, 64, 272, 235, 18],
    [1760, 2042, 63, 82, 0, 64, 286, 236, 18],
    [1834, 2140, 64, 84, 0, 67, 297, 235, 17],
    [1924, 2239, 65, 86, 0, 69, 307, 236, 17],
];
/// FNV-1a over every answer (length, then ids), in step order, each answer
/// in ascending id order: the answer sets.
const GOLDEN_TIER_ANSWER_HASH: u64 = 0xedbc_6661_39e5_f434;
/// FNV-1a over every answer (length, then ids) in the order returned: the
/// order each path (hit, admitting miss, plain miss, bypass) produces.
const GOLDEN_TIER_ANSWER_ORDER_HASH: u64 = 0x2306_2557_625d_96bc;

/// Zipf(1) over the blocks in integer arithmetic: rank `r` weighs
/// `10^6 / (r + 1)`, and ranks map to blocks through a fixed stride so the
/// hot blocks are scattered over the domain; `shift` moves the hot set.
fn zipf_block(x: &mut u64, shift: u64) -> u64 {
    let weight = |rank: u64| 1_000_000 / (rank + 1);
    let total: u64 = (0..BLOCKS).map(weight).sum();
    let mut r = xorshift(x) % total;
    for rank in 0..BLOCKS {
        if r < weight(rank) {
            return (rank * 37 + shift) % BLOCKS;
        }
        r -= weight(rank);
    }
    unreachable!("r < total")
}

/// An interval to store: mostly a fraction of a block long, one in eight up
/// to 16 blocks, one in sixteen straddling or outside the domain.
fn random_interval(x: &mut u64) -> Interval {
    let r = xorshift(x);
    let lower = (r % DOMAIN as u64) as i64;
    let len = match (r >> 16) % 16 {
        0 | 1 => ((r >> 24) % (16 * BLOCK as u64)) as i64,
        2 => return Interval::new(lower - DOMAIN / 2, lower - DOMAIN / 2 + 3 * BLOCK).unwrap(),
        3 => return Interval::new(lower + DOMAIN / 2, lower + DOMAIN / 2 + 3 * BLOCK).unwrap(),
        _ => ((r >> 24) % (BLOCK as u64 / 2)) as i64,
    };
    Interval::new(lower, lower + len).unwrap()
}

fn stats_row(s: &HotTierStats) -> [u64; 9] {
    [
        s.hits,
        s.misses,
        s.bypasses,
        s.admissions,
        s.aborted_admissions,
        s.evicted_blocks,
        s.invalidations,
        s.cached_intervals as u64,
        s.resident_blocks as u64,
    ]
}

#[test]
fn tier_decisions_are_pinned() {
    let pool = Arc::new(BufferPool::new(
        MemDisk::new(DEFAULT_PAGE_SIZE),
        BufferPoolConfig::with_capacity(200),
    ));
    let db = Arc::new(Database::create(pool).unwrap());
    let cfg = HotTierConfig {
        domain_lower: 0,
        domain_bits: DOMAIN_BITS,
        block_bits: BLOCK_BITS,
        capacity: 240,
        ghost_capacity: 24,
    };
    let tier = HotTier::new(RiTree::create(db, "golden").unwrap(), cfg);
    let mut oracle = NaiveIntervalSet::new();
    let mut live: Vec<(Interval, i64)> = Vec::new();
    let mut next_id = 0i64;
    let mut x = 0x7137_D3C1_5105_u64;

    let mut insert = |tier: &HotTier, oracle: &mut NaiveIntervalSet, x: &mut u64| {
        let iv = random_interval(x);
        tier.insert(iv, next_id).unwrap();
        oracle.insert(iv.lower, iv.upper, next_id);
        next_id += 1;
        (iv, next_id - 1)
    };
    for _ in 0..700 {
        live.push(insert(&tier, &mut oracle, &mut x));
    }

    let mut answers = FNV_SEED;
    let mut answer_order = FNV_SEED;
    let mut rows = Vec::new();
    for step in 1..=STEPS {
        match xorshift(&mut x) % 20 {
            0..=13 => {
                // A query at a Zipf-placed block: a stab, or a range one to
                // four blocks wide; one in 64 leaves the domain (a bypass).
                // The hot set moves once, halfway: old residents must go.
                let r = xorshift(&mut x);
                let shift = if step <= STEPS / 2 { 0 } else { 21 };
                let lower = zipf_block(&mut x, shift) as i64 * BLOCK + (r % BLOCK as u64) as i64;
                let q = if (r >> 8) % 64 == 0 {
                    Interval::new(lower, lower + DOMAIN).unwrap()
                } else if (r >> 16) % 3 == 0 {
                    Interval::point(lower)
                } else {
                    let upper = lower + ((r >> 24) % (3 * BLOCK as u64 + 1)) as i64;
                    Interval::new(lower, upper.min(DOMAIN - 1)).unwrap()
                };
                let ids =
                    if q.lower == q.upper { tier.stab(q.lower) } else { tier.intersection(q) };
                let mut ids = ids.unwrap();
                answer_order = fnv_answer(answer_order, &ids);
                sort_ids(&mut ids);
                assert_eq!(ids, oracle.intersection(q.lower, q.upper), "step {step}, query {q:?}");
                answers = fnv_answer(answers, &ids);
            }
            14..=16 => live.push(insert(&tier, &mut oracle, &mut x)),
            _ => {
                let (iv, id) = live.swap_remove((xorshift(&mut x) % live.len() as u64) as usize);
                assert!(tier.delete(iv, id).unwrap(), "step {step}: live triple deletes");
                assert!(oracle.delete(iv.lower, iv.upper, id));
            }
        }
        if step % EVERY == 0 {
            rows.push(stats_row(&tier.stats()));
        }
    }

    let mut pins = Pins::default();
    pins.rows("TIER_STATS", &rows, &GOLDEN_TIER_STATS);
    pins.value("TIER_ANSWER_HASH", &answers, &GOLDEN_TIER_ANSWER_HASH);
    pins.value("TIER_ANSWER_ORDER_HASH", &answer_order, &GOLDEN_TIER_ANSWER_ORDER_HASH);
    let last = rows.last().unwrap();
    assert!(last[0] > 1_000 && last[3] > 50 && last[5] > 50 && last[6] > 50, "dull stream");
    pins.check();
}

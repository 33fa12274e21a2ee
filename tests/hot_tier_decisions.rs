//! Hot-tier decision golden: for one seeded stream of queries, inserts and
//! deletes over a small geometry, every counter the tier keeps — and every
//! answer it gives — must not move when the tier's *storage* is changed.
//!
//! The 2Q ghost list, the TinyLFU gate, the victim order and the budget all
//! read `cached_intervals` (the number of *distinct* cached intervals) and
//! `resident_blocks`, so a storage layout that counted differently would
//! admit or evict differently; the stream is built to notice: 64 blocks of
//! 64 values, a budget of a few blocks' worth so every few admissions
//! evict, Zipf-placed queries one to four blocks wide whose hot set moves
//! every [`PHASE`] steps, intervals up to 16 blocks long (cached in many
//! blocks at once), intervals straddling or outside the domain, and
//! queries that leave it.
//!
//! The answer-set hash covers the first [`ANSWER_HASH_STEPS`] steps and
//! was captured at the commit *before* blocks owned their entries (the
//! tier then kept one global HINT and a per-interval refcount map): it
//! pins that the rewrite changed time, not decisions.  The stats and the
//! answer order are policy; a change of the admission or eviction rules
//! re-captures them, saying why.
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
/// Steps between moves of the hot set: about two of the tier's counter
/// decay periods, so each move leaves residents that must be displaced.
const PHASE: usize = 3_000;
const STEPS: usize = 4 * PHASE;
/// Steps whose answer sets [`GOLDEN_TIER_ANSWER_HASH`] covers.  Every
/// answer of every step is checked against the oracle as well.
const ANSWER_HASH_STEPS: usize = 2 * PHASE;
const EVERY: usize = 250;

/// `HotTierStats` after every [`EVERY`] steps, as `[hits, misses, bypasses,
/// admissions, aborted_admissions, evicted_blocks, invalidations,
/// cached_intervals, resident_blocks]`; the last row is the final state.
const GOLDEN_TIER_STATS: [[u64; 9]; STEPS / EVERY] = [
    [71, 93, 2, 28, 0, 9, 12, 234, 19],
    [149, 189, 5, 32, 0, 13, 29, 240, 19],
    [243, 265, 5, 33, 0, 15, 40, 237, 18],
    [326, 349, 8, 34, 0, 17, 49, 240, 17],
    [415, 431, 8, 34, 0, 18, 66, 229, 16],
    [495, 526, 13, 34, 0, 18, 76, 231, 16],
    [570, 618, 15, 34, 0, 18, 87, 231, 16],
    [659, 699, 17, 34, 0, 18, 102, 229, 16],
    [735, 792, 18, 35, 0, 18, 120, 235, 17],
    [816, 875, 21, 35, 0, 18, 134, 234, 17],
    [905, 960, 22, 35, 0, 18, 147, 232, 17],
    [1007, 1033, 24, 39, 0, 22, 150, 232, 17],
    [1041, 1174, 29, 39, 0, 22, 163, 234, 17],
    [1078, 1316, 35, 41, 0, 24, 178, 229, 17],
    [1127, 1436, 40, 46, 0, 28, 198, 233, 18],
    [1208, 1537, 43, 46, 0, 28, 213, 229, 18],
    [1290, 1637, 46, 50, 0, 32, 228, 230, 18],
    [1365, 1729, 50, 50, 0, 32, 243, 233, 18],
    [1446, 1826, 54, 50, 0, 32, 251, 236, 18],
    [1541, 1917, 55, 50, 0, 32, 261, 238, 18],
    [1621, 2007, 60, 50, 0, 32, 278, 238, 18],
    [1693, 2109, 63, 50, 0, 32, 292, 239, 18],
    [1762, 2212, 64, 50, 0, 33, 303, 237, 17],
    [1841, 2322, 65, 50, 0, 34, 312, 234, 16],
    [1855, 2476, 71, 52, 0, 36, 320, 229, 16],
    [1889, 2631, 73, 54, 0, 37, 326, 234, 17],
    [1929, 2770, 73, 55, 0, 39, 331, 233, 16],
    [1984, 2884, 76, 56, 0, 40, 346, 230, 16],
    [2037, 3005, 78, 57, 0, 41, 361, 229, 16],
    [2089, 3118, 83, 58, 0, 42, 375, 234, 16],
    [2146, 3225, 86, 59, 0, 43, 392, 235, 16],
    [2206, 3329, 96, 59, 0, 43, 409, 236, 16],
    [2286, 3439, 98, 59, 0, 43, 423, 232, 16],
    [2353, 3546, 100, 60, 0, 43, 436, 237, 17],
    [2422, 3655, 103, 60, 0, 44, 446, 234, 16],
    [2484, 3766, 106, 60, 0, 45, 457, 237, 15],
    [2502, 3927, 109, 61, 0, 47, 465, 233, 14],
    [2551, 4057, 111, 61, 0, 47, 479, 235, 14],
    [2601, 4183, 116, 61, 0, 47, 492, 232, 14],
    [2653, 4305, 117, 61, 0, 48, 504, 219, 13],
    [2699, 4422, 122, 62, 0, 48, 518, 231, 14],
    [2761, 4531, 125, 62, 0, 48, 532, 227, 14],
    [2817, 4648, 126, 64, 0, 50, 543, 234, 14],
    [2880, 4758, 128, 64, 0, 50, 558, 231, 14],
    [2941, 4863, 133, 64, 0, 50, 573, 227, 14],
    [3003, 4972, 133, 66, 0, 51, 589, 238, 15],
    [3055, 5085, 136, 66, 0, 53, 600, 227, 13],
    [3110, 5205, 140, 66, 0, 53, 610, 230, 13],
];
/// FNV-1a over the answers of the first [`ANSWER_HASH_STEPS`] steps
/// (length, then ids), in step order, each answer in ascending id order:
/// the answer sets.
const GOLDEN_TIER_ANSWER_HASH: u64 = 0xedbc_6661_39e5_f434;
/// FNV-1a over every answer (length, then ids) in the order returned: the
/// order each path (hit, admitting miss, plain miss, bypass) produces.
const GOLDEN_TIER_ANSWER_ORDER_HASH: u64 = 0xdbf7_5392_8f97_2c23;

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
                // The hot set moves every `PHASE` steps: old residents
                // must go.
                let r = xorshift(&mut x);
                let shift = 21 * ((step - 1) / PHASE) as u64;
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
                if step <= ANSWER_HASH_STEPS {
                    answers = fnv_answer(answers, &ids);
                }
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

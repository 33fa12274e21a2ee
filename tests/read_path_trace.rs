//! Read-path trace golden: for one fixed tree and one fixed query set, the
//! sequence of pages the read path touches — and the counters it leaves
//! behind — must not move when the read path is made cheaper.
//!
//! The pool is four frames wide, so nearly every logical page access is a
//! device read: the device's read-id sequence *is* the access sequence
//! (page ids and order), up to immediate repeats.  The golden rig's
//! `RecordingDisk` (`tests/common/golden.rs`) folds that sequence into a
//! hash, and the pool's four [`IoSnapshot`] counters are folded in after
//! every query.  Covered: `RiTree::intersection` /
//! `stab` / `intersection_batch`, the raw `BTree::scan_range` and
//! `contains`, and the hot tier's miss and admission path
//! (`RiTree::span_snapshot`).
//!
//! The answers are pinned twice.  `READ_ANSWER_HASH` folds each query
//! answer sorted with `sort_ids`, so it pins the answer *sets* whatever
//! order a query returns them in; `READ_ANSWER_ORDER_HASH` folds every
//! answer as returned, so it pins the RI-tree's plan order (the `UNION
//! ALL` branches in order, each branch's outer rows in order, each index's
//! leaf runs in key order) and the hot tier's order (a hit's blocks in
//! turn, an admission's snapshot, a plain miss's plan order).
//!
//! The constants were captured at the commit *before* the decode-free
//! read path (PR 14) and pin that the rewrite changed time, not work;
//! `READ_ANSWER_ORDER_HASH` was captured when queries stopped sorting
//! their answers, and again when the hot tier stopped sorting its own;
//! neither moved a page access or an answer set.
//! Sibling of `tests/pool_determinism.rs`, which pins the write path.

mod common;

use common::golden::{fnv_answer, fnv_io, xorshift, Pins, RecordingDisk, FNV_SEED};
use ri_tree::core::{HotTier, HotTierConfig, Interval, RiTree};
use ri_tree::mem::sort::sort_ids;
use ri_tree::pagestore::{BufferPool, BufferPoolConfig, IoSnapshot};
use ri_tree::relstore::Database;
use std::sync::Arc;

const GOLDEN_READ_FINAL: IoSnapshot = IoSnapshot {
    logical_reads: 13_511,
    logical_writes: 0,
    physical_reads: 13_423,
    physical_writes: 0,
};
/// FNV-1a over every page id the device was asked to read, in order.
const GOLDEN_READ_PAGE_SEQUENCE_HASH: u64 = 0x0839_07f3_9a4a_2475;
/// FNV-1a over the four pool counters after every query.
const GOLDEN_READ_COUNTER_TRACE_HASH: u64 = 0xad22_a706_6d43_d52a;
/// FNV-1a over every answer (length, then ids), each query answer in
/// ascending id order.
const GOLDEN_READ_ANSWER_HASH: u64 = 0x71f5_8ff1_9b25_b43f;
/// FNV-1a over every answer (length, then ids) in the order returned.
const GOLDEN_READ_ANSWER_ORDER_HASH: u64 = 0x642d_7350_5921_0143;

#[test]
fn read_path_access_sequence_is_pinned() {
    let disk = Arc::new(RecordingDisk::new(512));
    let pool = Arc::new(BufferPool::new(Arc::clone(&disk), BufferPoolConfig::with_capacity(4)));
    let db = Arc::new(Database::create(Arc::clone(&pool)).unwrap());
    let tree = RiTree::create(Arc::clone(&db), "trace").unwrap();

    // Data: 2,500 intervals over [0, 2^20), a slice of them deleted again
    // so the leaf chains hold thinned and emptied leaves.
    let mut x = 0x5EED_7ACE_u64;
    let mut data = Vec::new();
    for id in 0..2_500i64 {
        let r = xorshift(&mut x);
        let lower = (r % (1 << 20)) as i64;
        let iv = Interval::new(lower, lower + ((r >> 24) % 6_000) as i64).unwrap();
        tree.insert(iv, id).unwrap();
        data.push((iv, id));
    }
    data.sort_by_key(|&(iv, _)| iv.lower);
    for &(iv, id) in &data[900..1_150] {
        assert!(tree.delete(iv, id).unwrap());
    }

    // Everything above is the fixture; the trace starts here.
    pool.clear_cache().unwrap();
    disk.reset();
    let stats = pool.stats();
    let before = stats.snapshot();
    let mut counter_trace = FNV_SEED;
    let mut answers = FNV_SEED;
    let mut answer_order = FNV_SEED;
    // `query`: `ids` is a query answer, whose set `READ_ANSWER_HASH` pins;
    // otherwise it is cursor output, pinned in key order by both hashes.
    let mut step = |ids: &[i64], query: bool| {
        counter_trace = fnv_io(counter_trace, &stats.snapshot().since(&before));
        answer_order = fnv_answer(answer_order, ids);
        let mut ids = ids.to_vec();
        if query {
            sort_ids(&mut ids);
        }
        answers = fnv_answer(answers, &ids);
    };

    // 1. The facade's queries.
    let mut queries = Vec::new();
    for i in 0..60 {
        let r = xorshift(&mut x);
        let lower = (r % (1 << 20)) as i64;
        let len = if i % 2 == 0 { 0 } else { ((r >> 24) % 40_000) as i64 };
        queries.push(Interval::new(lower, lower + len).unwrap());
    }
    for (i, &q) in queries.iter().enumerate() {
        let ids = if i % 2 == 0 { tree.stab(q.lower) } else { tree.intersection(q) };
        step(&ids.unwrap(), true);
    }
    for ids in tree.intersection_batch(&queries[..12], 1).unwrap() {
        step(&ids, true);
    }

    // 2. The raw B-link cursor and point lookup on one index.
    let table = db.table(tree.table_name()).unwrap();
    let lower_index = table.index("RI_trace_LOWER").unwrap();
    for _ in 0..20 {
        let r = xorshift(&mut x);
        let (a, b) = ((r % (1 << 20)) as i64, ((r >> 20) % (1 << 20)) as i64);
        let (lo, hi) = (a.min(b), a.max(b));
        let ids: Vec<i64> = lower_index
            .scan_range(&[lo, i64::MIN, i64::MIN], &[hi, i64::MAX, i64::MAX])
            .map(|e| e.unwrap().key.col(2))
            .collect();
        step(&ids, false);
    }
    let all: Vec<_> = lower_index.scan_all().map(|e| e.unwrap()).collect();
    step(&[all.len() as i64], false);
    for e in all.iter().step_by(97) {
        let hit = lower_index.contains(e.key.as_slice(), e.payload).unwrap();
        let miss = lower_index.contains(e.key.as_slice(), e.payload + 1_000_000).unwrap();
        step(&[hit as i64, miss as i64], false);
    }

    // 3. The hot tier: repeated windows, so blocks miss, get admitted
    //    through `span_snapshot`, then hit.
    let tier = HotTier::new(tree, HotTierConfig::with_capacity(4_096));
    for round in 0..40 {
        let lower = (round % 5) * 150_000 + 10_000;
        step(&tier.intersection(Interval::new(lower, lower + 20_000).unwrap()).unwrap(), true);
    }
    let tier_stats = tier.stats();
    assert!(tier_stats.admissions > 0, "the admission path must be part of the trace");
    assert!(tier_stats.hits > 0 && tier_stats.misses > 0);

    let page_sequence = disk.recording().read_hash;
    let mut pins = Pins::default();
    pins.value("READ_FINAL", &stats.snapshot().since(&before), &GOLDEN_READ_FINAL);
    pins.value("READ_PAGE_SEQUENCE_HASH", &page_sequence, &GOLDEN_READ_PAGE_SEQUENCE_HASH);
    pins.value("READ_COUNTER_TRACE_HASH", &counter_trace, &GOLDEN_READ_COUNTER_TRACE_HASH);
    pins.value("READ_ANSWER_HASH", &answers, &GOLDEN_READ_ANSWER_HASH);
    pins.value("READ_ANSWER_ORDER_HASH", &answer_order, &GOLDEN_READ_ANSWER_ORDER_HASH);
    pins.check();
}

//! The RI-tree's query-answer contract.  A query is Figure 9's `UNION ALL`
//! with no `ORDER BY`, so an answer comes back in plan order, and what is
//! promised about it is:
//!
//! * each intersecting id appears exactly once (Section 4.2) — sorted, the
//!   answer is the naive oracle's;
//! * the order depends only on the tree's parameters, its entries and the
//!   query — the same query twice, and the same query on the tree closed
//!   and reopened from its devices, return the identical vector;
//! * `intersection_batch` and `stab(p)` equal the per-query
//!   `intersection` calls element for element.
//!
//! Checked over random data (a bulk-loaded first batch, per-row inserts,
//! open-ended intervals, deletes) on a durable pool small enough to evict.
//!
//! The hot tier answers under the same contract, with its resident blocks
//! part of what fixes the order: each id once, sorted the oracle's, and
//! the same query on the same tier state the identical vector, on all four
//! of its paths (hit, plain miss, admitting miss, bypass); a plain miss
//! and a bypass return the tree's vector unchanged.

use proptest::prelude::*;
use ri_mem::sort::sort_ids;
use ri_pagestore::{BufferPool, BufferPoolConfig, MemDisk, DEFAULT_PAGE_SIZE};
use ri_relstore::Database;
use ritree_core::{HotTier, HotTierConfig, HotTierStats, Interval, OpenEnd, RiTree, UPPER_NOW};
use std::sync::Arc;

const TABLE: &str = "contract";
/// Fewer frames than the tree has pages, so queries evict and refetch.
const FRAMES: usize = 4;

/// A stored interval's upper end.
#[derive(Clone, Copy, Debug)]
enum End {
    Closed(i64),
    Open(OpenEnd),
}

/// `(lower, end, id)`: what the oracle filters.
type Row = (i64, End, i64);

/// A durable tree's two devices, kept to reopen it from.
struct Devices {
    data: Arc<MemDisk>,
    log: Arc<MemDisk>,
}

impl Devices {
    fn new() -> Devices {
        Devices {
            data: Arc::new(MemDisk::new(DEFAULT_PAGE_SIZE)),
            log: Arc::new(MemDisk::new(DEFAULT_PAGE_SIZE)),
        }
    }

    fn pool(&self) -> Arc<BufferPool> {
        let config = BufferPoolConfig::with_capacity(FRAMES);
        let pool = BufferPool::new_durable(Arc::clone(&self.data), config, Arc::clone(&self.log));
        Arc::new(pool.unwrap())
    }

    fn create(&self) -> RiTree {
        RiTree::create(Arc::new(Database::create(self.pool()).unwrap()), TABLE).unwrap()
    }

    fn reopen(&self) -> RiTree {
        RiTree::open(Arc::new(Database::open(self.pool()).unwrap()), TABLE).unwrap()
    }
}

/// The ids of `rows` intersecting `q` at time `now`, ascending: an
/// `[lower, now]` row meets a query that does not start after `now`
/// (Section 4.6), an `[lower, ∞)` row every query reaching `lower`.
fn oracle(rows: &[Row], q: Interval, now: i64) -> Vec<i64> {
    let meets = |&&(lower, end, _): &&Row| {
        lower <= q.upper
            && match end {
                End::Closed(upper) => q.lower <= upper,
                End::Open(OpenEnd::Infinity) => true,
                End::Open(OpenEnd::Now) => q.lower <= now,
            }
    };
    let mut ids: Vec<i64> = rows.iter().filter(meets).map(|r| r.2).collect();
    ids.sort_unstable();
    ids
}

/// Asserts the contract for `q` at `now` on `tree`, holding `rows`.
fn check_answer(tree: &RiTree, rows: &[Row], q: Interval, now: i64) -> Vec<i64> {
    let ids = tree.intersection_at(q, now).unwrap();
    check_exactly_once(&ids, rows, q, now);
    assert_eq!(tree.intersection_at(q, now).unwrap(), ids, "{q} at {now} asked twice");
    ids
}

/// Asserts that `ids` holds each id once and, sorted, is the oracle's.
fn check_exactly_once(ids: &[i64], rows: &[Row], q: Interval, now: i64) {
    let mut sorted = ids.to_vec();
    sort_ids(&mut sorted);
    assert!(sorted.windows(2).all(|w| w[0] < w[1]), "duplicate id in {q} at {now}: {ids:?}");
    assert_eq!(sorted, oracle(rows, q, now), "{q} at {now}");
}

fn interval() -> impl Strategy<Value = (i64, i64)> {
    // Mostly short intervals, some long, negatives and points included.
    (-5_000i64..5_000, prop_oneof![4 => 0i64..300, 1 => 0i64..8_000])
        .prop_map(|(l, len)| (l, l + len))
}

/// A stored row: its bounds, its shape (0..=7 closed, 8 `[lower, ∞)`,
/// 9 `[lower, now]`) and, one time in five (0), a delete once all are in.
fn row() -> impl Strategy<Value = ((i64, i64), u8, u8)> {
    (interval(), 0u8..10, 0u8..5)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn answers_are_exactly_once_deterministic_and_shared_by_every_entry_point(
        shapes in prop::collection::vec(row(), 0..400),
        bulk in 0usize..400,
        queries in prop::collection::vec(interval(), 1..12),
        nows in prop::collection::vec(-6_000i64..6_000, 1..4),
    ) {
        let devices = Devices::new();
        let tree = devices.create();

        // The first `bulk` closed rows go in as one batch — into an empty
        // tree, the bulk builder — the rest one at a time.
        let mut rows: Vec<Row> = Vec::new();
        let mut batch = Vec::new();
        for (id, &((lower, upper), shape, _)) in shapes.iter().enumerate() {
            let id = id as i64;
            let end = match shape {
                8 => End::Open(OpenEnd::Infinity),
                9 => End::Open(OpenEnd::Now),
                _ => End::Closed(upper),
            };
            match end {
                End::Closed(upper) if batch.len() < bulk && rows.len() == batch.len() => {
                    batch.push((Interval::new(lower, upper).unwrap(), id));
                }
                _ => {
                    if !batch.is_empty() {
                        tree.insert_batch(&std::mem::take(&mut batch), 2).unwrap();
                    }
                    match end {
                        End::Closed(upper) => {
                            tree.insert(Interval::new(lower, upper).unwrap(), id).unwrap()
                        }
                        End::Open(open) => tree.insert_open(lower, open, id).unwrap(),
                    }
                }
            }
            rows.push((lower, end, id));
        }
        if !batch.is_empty() {
            tree.insert_batch(&batch, 2).unwrap();
        }
        // Thin the leaves: delete the rows marked for it.
        let mut kept = Vec::new();
        for (&(lower, end, id), &(_, _, delete)) in rows.iter().zip(&shapes) {
            if delete != 0 {
                kept.push((lower, end, id));
                continue;
            }
            let deleted = match end {
                End::Closed(upper) => tree.delete(Interval::new(lower, upper).unwrap(), id),
                End::Open(open) => tree.delete_open(lower, open, id),
            };
            prop_assert!(deleted.unwrap(), "row {id} must delete");
        }
        let rows = kept;
        tree.db().commit().unwrap();

        let qs: Vec<Interval> =
            queries.iter().map(|&(l, u)| Interval::new(l, u).unwrap()).collect();
        let answers: Vec<Vec<i64>> =
            qs.iter().map(|&q| check_answer(&tree, &rows, q, UPPER_NOW - 1)).collect();
        for &q in &qs {
            for &now in &nows {
                check_answer(&tree, &rows, q, now);
            }
        }
        prop_assert_eq!(&tree.intersection_batch(&qs, 2).unwrap(), &answers);
        for (&q, answer) in qs.iter().zip(&answers) {
            prop_assert_eq!(&tree.intersection(q).unwrap(), answer);
            let stab = tree.stab(q.lower).unwrap();
            prop_assert_eq!(&stab, &tree.intersection(Interval::point(q.lower)).unwrap());
            prop_assert_eq!(
                &tree.intersection_with_stats(q, UPPER_NOW - 1).unwrap().0,
                answer
            );
        }

        // Closed and reopened from its devices: the same vectors.
        drop(tree);
        let reopened = devices.reopen();
        for (&q, answer) in qs.iter().zip(&answers) {
            prop_assert_eq!(&reopened.intersection(q).unwrap(), answer, "{} after reopen", q);
        }
        prop_assert_eq!(&reopened.intersection_batch(&qs, 2).unwrap(), &answers);
    }
}

/// The tier's geometry: 64 blocks of 64 values over `[0, 4096)`, room for
/// every row and a ghost for every block, so a query's first miss makes
/// its blocks ghosts, its second admits them and its third hits.
const TIER: HotTierConfig = HotTierConfig {
    domain_lower: 0,
    domain_bits: 12,
    block_bits: 6,
    capacity: 1 << 16,
    ghost_capacity: 64,
};

/// Which path answered a tier query, read off the counters it moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Path {
    Hit,
    PlainMiss,
    AdmittingMiss,
    Bypass,
}

fn path(before: &HotTierStats, after: &HotTierStats) -> Path {
    if after.hits > before.hits {
        Path::Hit
    } else if after.bypasses > before.bypasses {
        Path::Bypass
    } else if after.admissions + after.aborted_admissions
        > before.admissions + before.aborted_admissions
    {
        Path::AdmittingMiss
    } else {
        Path::PlainMiss
    }
}

/// Two tiers given the same writes and queries, so each holds the state
/// the other does: every query must return the identical vector from both.
struct Twins {
    tiers: [HotTier; 2],
    /// How many answers each path gave.
    paths: [usize; 4],
}

impl Twins {
    fn new() -> Twins {
        let tier = || {
            let config = BufferPoolConfig::with_capacity(FRAMES);
            let pool = Arc::new(BufferPool::new(MemDisk::new(DEFAULT_PAGE_SIZE), config));
            let tree = RiTree::create(Arc::new(Database::create(pool).unwrap()), TABLE).unwrap();
            HotTier::new(tree, TIER)
        };
        Twins { tiers: [tier(), tier()], paths: [0; 4] }
    }

    /// Applies a write to both tiers; `op` returns whether it applied.
    fn write(&self, op: impl Fn(&HotTier) -> ri_pagestore::Result<bool>) {
        for tier in &self.tiers {
            assert!(op(tier).unwrap(), "the write applies");
        }
    }

    /// Asks `q` of both tiers and checks the contract; a hit is asked again
    /// (a hit moves no block), a plain miss and a bypass must be the
    /// tree's vector.
    fn query(&mut self, rows: &[Row], q: Interval) -> Path {
        let now = UPPER_NOW - 1;
        let [a, b] = &self.tiers;
        let before = a.stats();
        let ids = a.intersection(q).unwrap();
        let taken = path(&before, &a.stats());
        check_exactly_once(&ids, rows, q, now);
        assert_eq!(b.intersection(q).unwrap(), ids, "{q} ({taken:?}) on the twin tier");
        match taken {
            Path::Hit => {
                assert_eq!(a.intersection(q).unwrap(), ids, "{q} hit twice");
                assert_eq!(b.intersection(q).unwrap(), ids, "{q} hit twice on the twin");
            }
            Path::PlainMiss | Path::Bypass => {
                assert_eq!(a.tree().intersection(q).unwrap(), ids, "{q} ({taken:?})");
            }
            Path::AdmittingMiss => {}
        }
        self.paths[taken as usize] += 1;
        taken
    }
}

/// A stored row for the tier: mostly inside its domain, some straddling
/// an edge or outside it.
fn tier_row() -> impl Strategy<Value = (i64, i64)> {
    (-300i64..4_400, prop_oneof![4 => 0i64..100, 1 => 0i64..1_500])
        .prop_map(|(l, len)| (l, l + len))
}

/// A query inside the tier's domain, one to several blocks wide.
fn tier_query() -> impl Strategy<Value = (i64, i64)> {
    (0i64..4_096, prop_oneof![2 => 0i64..1, 3 => 0i64..200])
        .prop_map(|(l, len)| (l, (l + len).min(4_095)))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn tier_answers_are_exactly_once_and_deterministic_on_every_path(
        stored in prop::collection::vec((tier_row(), 0u8..4), 1..300),
        queries in prop::collection::vec(tier_query(), 1..10),
        open_lower in -300i64..4_400,
    ) {
        let mut twins = Twins::new();
        let mut rows: Vec<Row> = Vec::new();
        for (id, &((lower, upper), _)) in stored.iter().enumerate() {
            let (iv, id) = (Interval::new(lower, upper).unwrap(), id as i64);
            twins.write(|tier| tier.insert(iv, id).map(|()| true));
            rows.push((lower, End::Closed(upper), id));
        }
        let mut qs: Vec<Interval> =
            queries.iter().map(|&(l, u)| Interval::new(l, u).unwrap()).collect();
        // Two that leave the domain: bypasses whatever is stored.
        qs.push(Interval::new(-400, 30).unwrap());
        qs.push(Interval::new(4_000, 5_000).unwrap());

        // Each query three times: ghost, admission, hit.
        for _ in 0..3 {
            for &q in &qs {
                twins.query(&rows, q);
            }
        }
        // Deletes edit the resident blocks; the queries ask them again.
        for (&((lower, upper), delete), id) in stored.iter().zip(0i64..) {
            if delete == 0 {
                twins.write(|tier| tier.delete(Interval::new(lower, upper).unwrap(), id));
                rows.retain(|r| r.2 != id);
            }
        }
        for &q in &qs {
            twins.query(&rows, q);
        }
        // An open-ended row stored: every query bypasses, then stops.
        let open = stored.len() as i64;
        twins.write(|tier| tier.insert_open(open_lower, OpenEnd::Infinity, open).map(|()| true));
        rows.push((open_lower, End::Open(OpenEnd::Infinity), open));
        for &q in &qs {
            prop_assert_eq!(twins.query(&rows, q), Path::Bypass);
        }
        twins.write(|tier| tier.delete_open(open_lower, OpenEnd::Infinity, open));
        rows.pop();
        for &q in &qs {
            twins.query(&rows, q);
        }
        prop_assert!(twins.paths.iter().all(|&n| n > 0), "paths taken {:?}", twins.paths);
    }
}

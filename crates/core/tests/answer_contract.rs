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

use proptest::prelude::*;
use ri_mem::sort::sort_ids;
use ri_pagestore::{BufferPool, BufferPoolConfig, MemDisk, DEFAULT_PAGE_SIZE};
use ri_relstore::Database;
use ritree_core::{Interval, OpenEnd, RiTree, UPPER_NOW};
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
    let mut sorted = ids.clone();
    sort_ids(&mut sorted);
    assert!(sorted.windows(2).all(|w| w[0] < w[1]), "duplicate id in {q} at {now}: {ids:?}");
    assert_eq!(sorted, oracle(rows, q, now), "{q} at {now}");
    assert_eq!(tree.intersection_at(q, now).unwrap(), ids, "{q} at {now} asked twice");
    ids
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

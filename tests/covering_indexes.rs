//! The RI-tree's two indexes are its table: `lowerIndex (node, lower, id)
//! → upper` and `upperIndex (node, upper, id) → lower` each hold the whole
//! row, and nothing else does.  This suite pins what follows from that:
//!
//! * an `(interval, id)` the tree holds is refused as `InvalidArgument` —
//!   by `insert`, `insert_open`, and `insert_batch` on both its paths —
//!   and `delete` removes the one copy;
//! * an Allen query reads exactly the pages of its candidate query's two
//!   branch scans: no probe outside the two indexes;
//! * the twin check (`common::twins`) catches an entry without its twin.

mod common;

use common::twins::assert_twins;
use ri_tree::pagestore::{DiskManager, PageId, Result};
use ri_tree::prelude::*;
use std::sync::Mutex;

fn fresh() -> RiTree {
    let pool = Arc::new(BufferPool::new(
        MemDisk::new(DEFAULT_PAGE_SIZE),
        BufferPoolConfig::with_capacity(256),
    ));
    RiTree::create(Arc::new(Database::create(pool).unwrap()), "t").unwrap()
}

fn iv(l: i64, u: i64) -> Interval {
    Interval::new(l, u).unwrap()
}

fn refused(r: Result<()>) -> bool {
    matches!(r, Err(ri_tree::pagestore::Error::InvalidArgument(_)))
}

#[test]
fn a_stored_interval_and_id_is_refused_by_insert_and_deleted_once() {
    let tree = fresh();
    tree.insert(iv(10, 20), 1).unwrap();
    tree.insert(iv(10, 20), 2).unwrap(); // same bounds, another id
                                         // Same id and lower bound, another upper: another pair (which the
                                         // query path, assuming distinct ids, is not asked about).
    tree.insert(iv(10, 21), 1).unwrap();
    assert!(refused(tree.insert(iv(10, 20), 1)));
    assert_eq!(tree.count().unwrap(), 3);
    assert!(tree.delete(iv(10, 21), 1).unwrap());
    assert_eq!(common::sorted(tree.stab(15).unwrap()), [1, 2]);
    tree.insert_open(5, OpenEnd::Now, 3).unwrap();
    assert!(refused(tree.insert_open(5, OpenEnd::Now, 3)));
    assert_twins(&tree, "after the refusals");

    assert!(tree.delete(iv(10, 20), 1).unwrap());
    assert!(!tree.delete(iv(10, 20), 1).unwrap(), "one copy, one delete");
    assert!(tree.delete_open(5, OpenEnd::Now, 3).unwrap());
    assert!(!tree.delete_open(5, OpenEnd::Now, 3).unwrap());
    assert!(!tree.has_open_intervals(), "the refused open insert counted nothing");
    assert_eq!(common::sorted(tree.stab(15).unwrap()), [2]);
    assert_eq!(tree.count().unwrap(), 1);
    // A deleted pair may come back.
    tree.insert(iv(10, 20), 1).unwrap();
    assert_twins(&tree, "after the deletes");
}

#[test]
fn insert_batch_refuses_a_stored_or_repeated_pair_on_both_paths() {
    let items: Vec<(Interval, i64)> = (0..300).map(|i| (iv(i * 7, i * 7 + 40), i)).collect();

    // Bulk path (an empty tree): a pair given twice fails the whole batch
    // before any entry is written, and the tree stays bulk-loadable.
    let bulk = fresh();
    let mut repeated = items.clone();
    repeated.push(items[123]);
    assert!(refused(bulk.insert_batch(&repeated, 1)));
    assert_eq!(bulk.count().unwrap(), 0);
    bulk.insert_batch(&items, 1).unwrap();
    assert_eq!(bulk.count().unwrap(), 300);
    assert_twins(&bulk, "bulk path");

    // Per-row path (a tree that holds rows): the stored pair fails its own
    // row; the batch's other rows are inserted.
    for threads in [1, 3] {
        let rows = fresh();
        rows.insert(items[7].0, items[7].1).unwrap();
        assert!(refused(rows.insert_batch(&items, threads)), "{threads} threads");
        assert_eq!(rows.count().unwrap(), 300, "{threads} threads");
        let all = common::sorted(rows.intersection(iv(0, 3_000)).unwrap());
        assert_eq!(all, (0..300).collect::<Vec<_>>(), "{threads} threads");
        assert_twins(&rows, "per-row path");
        assert!(rows.delete(items[7].0, items[7].1).unwrap());
        assert!(!rows.delete(items[7].0, items[7].1).unwrap());
    }
}

#[test]
fn the_twin_check_catches_an_entry_without_its_twin() {
    let tree = fresh();
    for i in 0..50 {
        tree.insert(iv(i * 3, i * 3 + 9), i).unwrap();
    }
    assert_twins(&tree, "intact");
    // Drop one upperIndex entry behind the table's back.
    let table = tree.db().table(tree.table_name()).unwrap();
    let upper = table.index(&format!("{}_UPPER", tree.table_name())).unwrap();
    let victim = upper.scan_all().nth(17).unwrap().unwrap();
    assert!(upper.delete(victim.key.as_slice(), victim.payload).unwrap());
    let check = std::panic::AssertUnwindSafe(|| assert_twins(&tree, "one twin lost"));
    let caught = std::panic::catch_unwind(check);
    assert!(caught.is_err(), "a lowerIndex entry without its twin must fail the check");
}

/// A `MemDisk` that logs the id of every page it reads.
struct ReadLog {
    inner: MemDisk,
    reads: Mutex<Vec<u64>>,
}

impl ReadLog {
    /// The pages read since the last call, sorted.
    fn take(&self) -> Vec<u64> {
        let mut reads = std::mem::take(&mut *self.reads.lock().unwrap());
        reads.sort_unstable();
        reads
    }
}

impl DiskManager for ReadLog {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.reads.lock().unwrap().push(id.raw());
        self.inner.read_page(id, buf)
    }
    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        self.inner.write_page(id, buf)
    }
    fn allocate_page(&self) -> Result<PageId> {
        self.inner.allocate_page()
    }
    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
}

/// The candidate query `RiTree::allen_at` answers `rel` from (Section
/// 4.5): a superset of the relation's result, `None` when it is empty.
fn candidate(rel: AllenRelation, q: Interval) -> Option<Interval> {
    use AllenRelation::*;
    match rel {
        Meets | Overlaps | Starts | Equals | Contains | StartedBy => Some(Interval::point(q.lower)),
        Finishes | FinishedBy | OverlappedBy | MetBy => Some(Interval::point(q.upper)),
        During => Some(q),
        Before => (q.lower > i64::MIN).then(|| iv(i64::MIN, q.lower - 1)),
        After => (q.upper < i64::MAX).then(|| iv(q.upper + 1, i64::MAX)),
    }
}

/// Each of the thirteen Allen relations, on closed and open-ended
/// intervals at several `now`s: the answer is the naive oracle's, and from
/// a cold cache the query reads exactly the pages its candidate query
/// reads — the same page ids, as many logical and physical reads — so the
/// bounds it filters on come off the two indexes' entries, with no probe
/// outside them.
#[test]
fn allen_queries_read_only_their_candidate_scans_and_match_the_oracle() {
    let disk =
        Arc::new(ReadLog { inner: MemDisk::new(DEFAULT_PAGE_SIZE), reads: Mutex::default() });
    let pool = Arc::new(BufferPool::new(Arc::clone(&disk), BufferPoolConfig::with_capacity(4096)));
    let tree = RiTree::create(Arc::new(Database::create(Arc::clone(&pool)).unwrap()), "a").unwrap();
    // (lower, upper, id); `upper` None: open-ended at `now`, i64::MAX: at ∞.
    let mut data: Vec<(i64, Option<i64>, i64)> = Vec::new();
    let mut x = 0xA11E_u64;
    for id in 0..3_000 {
        let r = common::golden::xorshift(&mut x);
        let l = (r % 50_000) as i64;
        let u = l + ((r >> 32) % 900) as i64;
        tree.insert(iv(l, u), id).unwrap();
        data.push((l, Some(u), id));
    }
    for (i, l) in [(0, 20_000), (1, 35_000), (2, 49_000)] {
        tree.insert_open(l, OpenEnd::Now, 10_000 + i).unwrap();
        tree.insert_open(l + 500, OpenEnd::Infinity, 20_000 + i).unwrap();
        data.push((l, None, 10_000 + i));
        data.push((l + 500, Some(i64::MAX), 20_000 + i));
    }
    // Open-ended intervals past every finite upper bound (`after` must
    // reach them), and one before every closed lower bound.
    tree.insert_open(60_000, OpenEnd::Infinity, 30_000).unwrap();
    tree.insert_open(55_000, OpenEnd::Now, 30_001).unwrap();
    tree.insert_open(-700, OpenEnd::Now, 30_002).unwrap();
    data.extend([(60_000, Some(i64::MAX), 30_000), (55_000, None, 30_001), (-700, None, 30_002)]);
    // Queries sharing endpoints with stored intervals, so that the
    // equality relations have answers.
    let queries: Vec<Interval> = data
        .iter()
        .step_by(211)
        .filter_map(|&(l, u, _)| u.filter(|&u| u < 60_000).map(|u| iv(l, u)))
        .chain([iv(20_000, 21_000), iv(34_000, 36_000), iv(48_000, 49_500)])
        .collect();
    let (mut answered, mut reads) = (0, 0);
    for now in [30_000, 49_200, 58_000] {
        for &q in &queries {
            for rel in AllenRelation::ALL {
                pool.clear_cache().unwrap();
                disk.take();
                let before = pool.stats().snapshot();
                let got = tree.allen_at(rel, q, now).unwrap();
                let allen_io = pool.stats().snapshot().since(&before);
                let allen_pages = disk.take();

                let mut want: Vec<i64> = data
                    .iter()
                    .filter_map(|&(l, u, id)| {
                        let u = u.unwrap_or(now);
                        (l <= u && rel.matches(&iv(l, u), &q)).then_some(id)
                    })
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "{rel:?} {q} at now = {now}");
                answered += got.len();

                pool.clear_cache().unwrap();
                disk.take();
                let before = pool.stats().snapshot();
                if let Some(c) = candidate(rel, q) {
                    tree.intersection_at(c, now).unwrap();
                }
                let candidate_io = pool.stats().snapshot().since(&before);
                assert_eq!(allen_io, candidate_io, "{rel:?} {q} at now = {now}");
                assert_eq!(allen_pages, disk.take(), "{rel:?} {q} at now = {now}");
                reads += allen_io.physical_reads;
            }
        }
    }
    assert!(answered > 500 && reads > 1_000, "a dull workload: {answered} answers, {reads} reads");
}

//! Failure injection through the whole stack: injected device faults must
//! surface as errors (never panics or silent corruption), and the database
//! must remain usable once the fault clears.

mod common;

use common::crash::{Oracle, Rig};
use ri_tree::pagestore::{FaultPlan, FaultyDisk, PageId, WalConfig};
use ri_tree::prelude::*;

/// Builds a database on a shared fault-injectable disk.  The `FaultyDisk`
/// handle is kept through an `Arc` so the plan can be changed mid-test.
struct FaultyEnv {
    faulty: Arc<FaultyDisk<MemDisk>>,
    pool: Arc<BufferPool>,
}

fn faulty_env() -> FaultyEnv {
    let faulty = Arc::new(FaultyDisk::new(MemDisk::new(DEFAULT_PAGE_SIZE), FaultPlan::default()));
    let pool = Arc::new(BufferPool::new(
        Arc::clone(&faulty),
        BufferPoolConfig::with_capacity(8), // tiny: faults trigger quickly
    ));
    FaultyEnv { faulty, pool }
}

#[test]
fn read_fault_surfaces_as_error_then_recovers() {
    let env = faulty_env();
    let db = Arc::new(Database::create(Arc::clone(&env.pool)).unwrap());
    let tree = RiTree::create(Arc::clone(&db), "t").unwrap();
    for i in 0..2000i64 {
        tree.insert(Interval::new(i * 3, i * 3 + 40).unwrap(), i).unwrap();
    }
    env.pool.clear_cache().unwrap();

    // Fail the next read: the cold-cache query must error, not panic.
    let reads_so_far = env.faulty.reads_attempted();
    env.faulty.set_plan(FaultPlan { fail_read_at: Some(reads_so_far), ..Default::default() });
    let err = tree.intersection(Interval::new(0, 100).unwrap()).unwrap_err();
    assert!(err.to_string().contains("injected"), "unexpected error: {err}");

    // Lift the fault: identical query now succeeds with correct results.
    env.faulty.set_plan(FaultPlan::default());
    let hits = tree.intersection(Interval::new(0, 100).unwrap()).unwrap();
    assert_eq!(hits.len(), 34); // intervals with 3i <= 100 && 3i+40 >= 0
}

#[test]
fn write_fault_during_insert_is_reported() {
    let env = faulty_env();
    let db = Arc::new(Database::create(Arc::clone(&env.pool)).unwrap());
    let tree = RiTree::create(Arc::clone(&db), "t").unwrap();
    for i in 0..500i64 {
        tree.insert(Interval::new(i, i + 5).unwrap(), i).unwrap();
    }
    // Fail the next write-back: some insert soon must fail when the tiny
    // pool evicts a dirty page.
    let writes = env.faulty.writes_attempted();
    env.faulty.set_plan(FaultPlan { fail_write_at: Some(writes), ..Default::default() });
    let mut failed = false;
    for i in 500..1500i64 {
        if tree.insert(Interval::new(i, i + 5).unwrap(), i).is_err() {
            failed = true;
            break;
        }
    }
    assert!(failed, "expected some insert to hit the injected write fault");

    // After the (one-shot) fault, the database continues to work, and all
    // successfully inserted intervals are queryable.
    env.faulty.set_plan(FaultPlan::default());
    tree.insert(Interval::new(10_000, 10_010).unwrap(), 9999).unwrap();
    assert!(tree.stab(10_005).unwrap().contains(&9999));
    let all = tree.intersection(Interval::new(0, 20_000).unwrap()).unwrap();
    assert!(all.len() >= 501, "previously inserted intervals must survive");
}

/// A device fault on the *log* append path must fail the commit cleanly:
/// the durable horizon does not move (no partially published commit),
/// and once the fault clears, the very next commit publishes everything
/// — including the records the failed attempt had appended — which a
/// post-crash reopen then proves durable.
#[test]
fn wal_append_fault_fails_commit_without_partial_publish() {
    let rig = Rig::mem(DEFAULT_PAGE_SIZE, 64);
    let tree = rig.create(WalConfig::default()).unwrap();
    let db = tree.db();
    let mut rows: Vec<(i64, Interval)> =
        (0..50i64).map(|i| (i, Interval::new(i * 20, i * 20 + 30).unwrap())).collect();
    for &(id, iv) in &rows {
        tree.insert(iv, id).unwrap();
    }
    db.commit().unwrap();

    let wal = db.pool().wal().unwrap();
    let durable_before = wal.durable_lsn();
    assert_eq!(durable_before, wal.end_lsn());

    // Fail the next write on the log device: the commit's group flush
    // dies before any of its pages reach the disk.
    rig.log.set_plan(FaultPlan {
        fail_write_at: Some(rig.log.writes_attempted()),
        ..Default::default()
    });
    tree.insert(Interval::new(70_000, 70_100).unwrap(), 777).unwrap();
    let err = db.commit().unwrap_err();
    assert!(err.to_string().contains("injected"), "unexpected error: {err}");
    assert_eq!(
        wal.durable_lsn(),
        durable_before,
        "a failed commit must not move the durable horizon (no partial publish)"
    );
    assert!(wal.end_lsn() > durable_before, "the failed commit's records stay pending");

    // Fault clears (it was one-shot): the database keeps working, and the
    // next commit publishes the retained records together with its own.
    tree.insert(Interval::new(80_000, 80_100).unwrap(), 888).unwrap();
    db.commit().unwrap();
    assert_eq!(wal.durable_lsn(), wal.end_lsn(), "retry publishes the full backlog");
    assert!(tree.stab(70_050).unwrap().contains(&777));
    assert!(tree.stab(80_050).unwrap().contains(&888));

    // Power cut, reopen from the raw devices: everything the successful
    // commits covered — including the insert whose first commit attempt
    // failed — survives recovery.
    rig.crash_now();
    drop(tree);
    rows.push((777, Interval::new(70_000, 70_100).unwrap()));
    rows.push((888, Interval::new(80_000, 80_100).unwrap()));
    let oracle: Oracle = rows.into_iter().collect();
    oracle.verify(&rig.reopen().unwrap(), "power cut after the retried commit");
}

#[test]
fn deep_failure_leaves_prior_data_intact() {
    let env = faulty_env();
    let db = Arc::new(Database::create(Arc::clone(&env.pool)).unwrap());
    let tree = RiTree::create(Arc::clone(&db), "t").unwrap();
    let baseline: Vec<i64> = (0..300).collect();
    for &i in &baseline {
        tree.insert(Interval::new(i * 10, i * 10 + 100).unwrap(), i).unwrap();
    }
    let before = tree.intersection(Interval::new(0, 5000).unwrap()).unwrap();

    // Poison reads of a page that belongs to the lower index tree; queries
    // fail while poisoned.
    env.pool.clear_cache().unwrap();
    env.faulty.set_plan(FaultPlan { poison_page_reads: Some(PageId(3)), ..Default::default() });
    let _ = tree.intersection(Interval::new(0, 5000).unwrap()); // may fail
    env.faulty.set_plan(FaultPlan::default());

    let after = tree.intersection(Interval::new(0, 5000).unwrap()).unwrap();
    assert_eq!(before, after, "read faults must not corrupt state");
}

/// Forged or rotted B-link node headers — an entry count past the page,
/// an unknown tag, the wrong arity, a pre-B-link format version — on every
/// leaf or every internal node of both indexes: the read path validates
/// each page header before searching it in place, so a raw index scan and
/// a whole `RiTree::intersection` report `Error::Corrupt`.  Nothing
/// panics, nothing indexes past a page, and once the device is repaired
/// the answers are back.
#[test]
fn forged_index_pages_surface_as_corrupt_errors() {
    use ri_tree::pagestore::{DiskManager, Error};
    let disk = Arc::new(MemDisk::new(DEFAULT_PAGE_SIZE));
    let pool = Arc::new(BufferPool::new(Arc::clone(&disk), BufferPoolConfig::with_capacity(64)));
    let db = Arc::new(Database::create(Arc::clone(&pool)).unwrap());
    let tree = RiTree::create(Arc::clone(&db), "forged").unwrap();
    for i in 0..3_000i64 {
        tree.insert(Interval::new(i * 5, i * 5 + 40).unwrap(), i).unwrap();
    }
    let q = Interval::new(2_000, 9_000).unwrap();
    let honest = tree.intersection(q).unwrap();
    assert!(!honest.is_empty());
    pool.clear_cache().unwrap();

    // Index nodes by header signature: tag 1/2, arity 3, format 2 (meta
    // and catalog pages carry a magic word).
    let mut buf = vec![0u8; DEFAULT_PAGE_SIZE];
    let mut nodes = Vec::new();
    for id in (0..disk.num_pages()).map(PageId) {
        disk.read_page(id, &mut buf).unwrap();
        if matches!(buf[0], 1 | 2) && buf[1] == 3 && buf[4] == 2 {
            nodes.push((id, buf[0]));
        }
    }
    let table = db.table(tree.table_name()).unwrap();
    let forgeries: [(&str, usize, &[u8]); 4] =
        [("count", 2, &[0xFF, 0xFF]), ("tag", 0, &[7]), ("arity", 1, &[2]), ("version", 4, &[1])];
    for (kind, name) in [(1u8, "leaf"), (2, "internal")] {
        let pristine: Vec<(PageId, Vec<u8>)> = nodes
            .iter()
            .filter(|n| n.1 == kind)
            .map(|&(id, _)| {
                disk.read_page(id, &mut buf).unwrap();
                (id, buf.clone())
            })
            .collect();
        assert!(pristine.len() >= 2, "both indexes need {name} pages");
        for (what, off, bytes) in forgeries {
            for (id, page) in &pristine {
                let mut forged = page.clone();
                forged[off..off + bytes.len()].copy_from_slice(bytes);
                disk.write_page(*id, &forged).unwrap();
            }
            let err = tree.intersection(q).expect_err("a forged page must not answer");
            assert!(matches!(err, Error::Corrupt(_)), "{name} {what}: {err}");
            for index in ["RI_forged_LOWER", "RI_forged_UPPER"] {
                let scanned: Result<Vec<_>, Error> = table
                    .index(index)
                    .unwrap()
                    .scan_range(&[i64::MIN; 3], &[i64::MAX; 3])
                    .collect();
                assert!(matches!(scanned, Err(Error::Corrupt(_))), "{index} {name} {what}");
            }
            // Repair the device under an empty cache: the answers return.
            pool.clear_cache().unwrap();
            for (id, page) in &pristine {
                disk.write_page(*id, page).unwrap();
            }
            assert_eq!(tree.intersection(q).unwrap(), honest, "after repairing {name} {what}");
            pool.clear_cache().unwrap();
        }
    }
}

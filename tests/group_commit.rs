//! Group commit with real writer threads: concurrent `Database::commit`
//! calls share log fsyncs (leader/follower), the WAL's accounting
//! identities hold exactly even while fuzzy checkpoints race the
//! committers, and no committed work is lost when the machine dies right
//! after the last commit returns.

mod common;

use common::crash::{Oracle, Rig};
use ri_tree::pagestore::{FlushPolicy, WalConfig};
use ri_tree::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

const PAGE: usize = 2048;
const THREADS: usize = 4;
/// Commits per thread in the ungated free-running phase.
const FREE_COMMITS: usize = 24;

/// Deterministic interval for row `id`.
fn iv(id: i64) -> Interval {
    let lo = (id * 131) % 60_000;
    Interval::new(lo, lo + 200 + id % 97).unwrap()
}

#[test]
fn concurrent_commits_share_fsyncs_and_lose_nothing() {
    // Roomy pool: no evictions, so no forced write-back syncs muddy the
    // commit accounting under test.
    let rig = Rig::mem(PAGE, 200);
    let tree = rig.create(WalConfig::default()).expect("create");
    let db = tree.db();
    let pool = db.pool();
    db.commit().expect("setup commit");

    let wal = pool.wal().expect("durable pool has a WAL");
    let base = wal.stats();

    // Gate: the first log-device fsync after arming parks until all
    // gated commit records have been appended, so the waiting committers
    // demonstrably ride a later (or the same) sync — on any scheduler,
    // including a single-CPU runner where threads would otherwise
    // serialize into one fsync each.
    let armed = Arc::new(AtomicBool::new(true));
    let release = Arc::new(AtomicBool::new(false));
    {
        let armed = Arc::clone(&armed);
        let release = Arc::clone(&release);
        rig.log.set_sync_hook(Some(Arc::new(move |_sync_idx| {
            if armed.swap(false, Ordering::SeqCst) {
                while !release.load(Ordering::SeqCst) {
                    thread::sleep(Duration::from_millis(1));
                }
            }
        })));
    }

    // Gated round: one insert+commit per thread.
    let gate_target = base.commits + THREADS as u64;
    thread::scope(|s| {
        for t in 0..THREADS as i64 {
            let tree = &tree;
            s.spawn(move || {
                let id = t * 1000;
                tree.insert(iv(id), id).expect("insert");
                db.commit().expect("commit");
            });
        }
        // Referee: release the parked fsync once every gated commit
        // record is in the log's append buffer.
        let wal = pool.wal().unwrap();
        let release = Arc::clone(&release);
        s.spawn(move || {
            while wal.stats().commits < gate_target {
                thread::sleep(Duration::from_millis(1));
            }
            release.store(true, Ordering::SeqCst);
        });
    });
    let gated = wal.stats();
    let gated_commits = gated.commits - base.commits;
    let gated_syncs = gated.syncs - base.syncs;
    assert_eq!(gated_commits, THREADS as u64);
    assert!(
        gated_syncs <= 2,
        "{THREADS} gated commits must share at most 2 fsyncs (parked leader + \
         one group flush), saw {gated_syncs}"
    );
    assert!(
        gated.group_commits - base.group_commits >= 2,
        "at least two commits must ride another thread's fsync"
    );

    // Free-running phase: real contention, no gate — and a checkpointer
    // thread issuing fuzzy checkpoints into the middle of it, so log
    // truncation, group fsyncs, and open commit windows interleave.
    let writers_done = AtomicBool::new(false);
    let checkpoints_taken = thread::scope(|s| {
        let mut writers = Vec::with_capacity(THREADS);
        for t in 0..THREADS as i64 {
            let tree = &tree;
            writers.push(s.spawn(move || {
                for k in 1..=FREE_COMMITS as i64 {
                    let id = t * 1000 + k;
                    tree.insert(iv(id), id).expect("insert");
                    db.commit().expect("commit");
                }
            }));
        }
        let writers_done = &writers_done;
        let checkpointer = s.spawn(move || {
            let mut taken = 0u64;
            loop {
                db.checkpoint().expect("checkpoint racing group commit");
                taken += 1;
                if writers_done.load(Ordering::SeqCst) && taken >= 3 {
                    return taken;
                }
                thread::sleep(Duration::from_millis(1));
            }
        });
        for w in writers {
            w.join().unwrap();
        }
        writers_done.store(true, Ordering::SeqCst);
        checkpointer.join().unwrap()
    });

    let end = wal.stats();
    let commits = end.commits - base.commits;
    let leaders = end.commit_syncs - base.commit_syncs;
    let followers = end.group_commits - base.group_commits;
    let forced = end.forced_syncs - base.forced_syncs;
    let checkpoints = end.checkpoints - base.checkpoints;
    let total_rows = THREADS as u64 * (1 + FREE_COMMITS as u64);
    assert_eq!(commits, total_rows, "every submitted commit must be counted");
    assert_eq!(
        leaders + followers,
        commits,
        "exact accounting: every commit is a leader or a follower, never both or neither"
    );
    assert_eq!(checkpoints, checkpoints_taken, "every checkpoint must be counted");
    assert!(checkpoints >= 3, "the checkpointer must actually race the free phase");
    assert_eq!(
        end.checkpoint_syncs - base.checkpoint_syncs,
        2 * checkpoints,
        "each checkpoint issues exactly two syncs: record flush + anchor rewrite"
    );
    // The full sync ledger balances absolutely, not just as deltas: every
    // log-device sync ever issued has exactly one attributed cause, even
    // when a checkpoint's flush races the commit leader election.
    assert_eq!(
        end.syncs,
        end.commit_syncs + end.forced_syncs + end.checkpoint_syncs,
        "sync accounting identity broken: {end:?}"
    );
    // Grouping must save fsyncs on the commit path (the gated round
    // guarantees at least two followers on any scheduler).  Raw `syncs`
    // is no yardstick here: checkpoint and write-back-barrier syncs are
    // legitimate non-commit traffic, counted above, not against grouping.
    assert!(
        leaders < commits,
        "grouping must save commit fsyncs: {leaders} commit-led syncs (+{forced} forced) \
         for {commits} commits"
    );
    assert_eq!(wal.durable_lsn(), wal.end_lsn(), "commit returns only once durable");

    // Power cut: every commit that returned must survive recovery — the
    // checkpoints flushed some pages and truncated their log records, the
    // WAL tail replays the rest.
    rig.crash_now();
    drop(tree);
    let oracle: Oracle = (0..THREADS as i64)
        .flat_map(|t| (0..=FREE_COMMITS as i64).map(move |k| t * 1000 + k))
        .map(|id| (id, iv(id)))
        .collect();
    oracle.verify(&rig.reopen().expect("recovery"), "power cut after the last commit");
}

/// The background flusher racing group commit: with
/// `FlushPolicy::Background` the flusher demonstrably drains a large
/// transaction's backlog ahead of its commit, the absolute sync ledger
/// (`syncs == commit_syncs + forced_syncs + checkpoint_syncs`) still
/// balances exactly — the flusher writes but never syncs — and a power
/// cut right after the last commit loses nothing.
#[test]
fn flusher_races_group_commit_without_breaking_the_sync_ledger() {
    const BIG_TXN_ROWS: i64 = 200;
    let rig = Rig::mem(PAGE, 200);
    let config = WalConfig {
        flush_policy: FlushPolicy::Background { watermark_bytes: 1024 },
        ..WalConfig::default()
    };
    let tree = rig.create(config).expect("create with flusher");
    let db = tree.db();
    db.commit().expect("setup commit");
    let wal = db.pool().wal().expect("durable pool has a WAL");

    // One large open transaction: every insert crosses the 1 KB
    // watermark, so the flusher must drain the backlog while the commit
    // is still far away.
    for id in 0..BIG_TXN_ROWS {
        tree.insert(iv(id), id).expect("insert");
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while wal.stats().flusher_writes == 0 {
        assert!(std::time::Instant::now() < deadline, "flusher never drained the backlog");
        thread::yield_now();
    }
    assert!(wal.stats().flusher_bytes > 0, "the drain must cover actual stream bytes");

    // Concurrent committers + a racing checkpointer on top of the
    // still-running flusher, then the ledger must balance absolutely.
    thread::scope(|s| {
        for t in 1..=THREADS as i64 {
            let tree = &tree;
            s.spawn(move || {
                for k in 0..FREE_COMMITS as i64 {
                    let id = t * 1000 + k;
                    tree.insert(iv(id), id).expect("insert");
                    db.commit().expect("commit");
                }
            });
        }
        s.spawn(move || {
            for _ in 0..3 {
                db.checkpoint().expect("checkpoint racing flusher and committers");
                thread::sleep(Duration::from_millis(1));
            }
        });
    });
    db.commit().expect("commit of the big transaction");

    let end = wal.stats();
    assert_eq!(
        end.commit_syncs + end.group_commits,
        end.commits,
        "every commit is exactly a leader or a follower: {end:?}"
    );
    assert_eq!(
        end.syncs,
        end.commit_syncs + end.forced_syncs + end.checkpoint_syncs,
        "sync accounting identity broken with the flusher racing commits: {end:?}"
    );
    assert_eq!(wal.durable_lsn(), wal.end_lsn(), "commit returns only once durable");

    // Power cut: the flusher thread dies with the machine; every commit
    // that returned must survive recovery.
    rig.crash_now();
    drop(tree);
    let oracle: Oracle = (0..BIG_TXN_ROWS)
        .chain(
            (1..=THREADS as i64).flat_map(|t| (0..FREE_COMMITS as i64).map(move |k| t * 1000 + k)),
        )
        .map(|id| (id, iv(id)))
        .collect();
    oracle.verify(&rig.reopen().expect("recovery"), "power cut with the flusher racing");
}

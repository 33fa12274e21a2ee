//! Kill-anywhere crash recovery: a WAL-backed RI-tree database is killed
//! at *every* device write index of a seeded workload — cleanly and with
//! torn (partial-sector) dying writes — then reopened, and the recovered
//! state is checked op by op against an in-memory oracle.
//!
//! The durability contract under test:
//!
//! * every insert whose `Database::commit` returned before the crash is
//!   present after recovery, bit-exact;
//! * the one in-flight insert is atomic — fully present iff its commit
//!   record reached the log device, fully absent otherwise;
//! * recovery never panics, never reports corruption, and leaves the
//!   database writable.
//!
//! Both devices (data + log) share one [`FaultClock`], so the crash
//! index ranges over the *interleaved* global write sequence — log-page
//! appends, checkpoint write-backs, and the checkpoint anchor rewrite
//! all take their turn dying.  Unsynced buffered writes survive the
//! power cut by a seeded per-write coin, so every crash point also
//! exercises a different surviving subset of the volatile write cache.

use ri_tree::pagestore::{
    BufferPool, BufferPoolConfig, CrashPlan, FaultClock, FaultPlan, FaultyDisk, FlushPolicy,
    MemDisk, WalConfig,
};
use ri_tree::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

/// Small pages: more log pages per commit, more crash points per op.
const PAGE: usize = 1024;
/// Torn-write granularity — four sectors per page.
const SECTOR: usize = 256;
/// Deliberately tiny pool so dirty data pages are written back (through
/// the WAL barrier) mid-workload, not only at checkpoints.
const FRAMES: usize = 16;
/// Committed inserts in the seeded workload.
const OPS: usize = 128;
/// A checkpoint (flush + log truncation) runs after every this many ops,
/// so crash indices also land inside checkpoints and after truncations.
const CHECKPOINT_EVERY: usize = 24;

/// Deterministic workload: op `i` inserts this interval with id `i`.
fn op_interval(i: usize) -> Interval {
    let mut x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x5EED);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 32;
    let lo = (x % 50_000) as i64;
    let len = 1 + (x >> 17) as i64 % 400;
    Interval::new(lo, lo + len).unwrap()
}

/// The two shared in-memory devices that survive a "reboot", plus the
/// clock the fault wrappers crash on.
struct Rig {
    data: Arc<MemDisk>,
    wal: Arc<MemDisk>,
    clock: Arc<FaultClock>,
    data_faulty: Arc<FaultyDisk<Arc<MemDisk>>>,
    wal_faulty: Arc<FaultyDisk<Arc<MemDisk>>>,
}

impl Rig {
    fn new() -> Rig {
        let data = Arc::new(MemDisk::new(PAGE));
        let wal = Arc::new(MemDisk::new(PAGE));
        let clock = FaultClock::new();
        let data_faulty = Arc::new(FaultyDisk::with_clock(
            Arc::clone(&data),
            FaultPlan::default(),
            Arc::clone(&clock),
        ));
        let wal_faulty = Arc::new(FaultyDisk::with_clock(
            Arc::clone(&wal),
            FaultPlan::default(),
            Arc::clone(&clock),
        ));
        Rig { data, wal, clock, data_faulty, wal_faulty }
    }
}

fn pool_config() -> BufferPoolConfig {
    BufferPoolConfig::with_capacity(FRAMES)
}

/// The background-flusher configuration the `flusher_*` sweeps run
/// under: a low watermark keeps the flusher draining concurrently with
/// the workload, so — the shared [`FaultClock`] being thread-blind —
/// crash indices land inside its drains just like anyone else's writes.
fn flusher_config() -> WalConfig {
    WalConfig {
        flush_policy: FlushPolicy::Background { watermark_bytes: 512 },
        ..WalConfig::default()
    }
}

/// Counts the global device writes and sync barriers that setup alone
/// (create + DDL + commit + checkpoint) costs under `wal_config`, so
/// sweeps can skip killing the pre-workload phase.
fn setup_spans(wal_config: WalConfig) -> (u64, u64) {
    let rig = Rig::new();
    {
        let pool = Arc::new(
            BufferPool::new_durable_with(
                Arc::clone(&rig.data_faulty),
                pool_config(),
                Arc::clone(&rig.wal_faulty),
                wal_config,
            )
            .expect("durable pool"),
        );
        let db = Arc::new(Database::create(Arc::clone(&pool)).expect("create"));
        let _tree = RiTree::create(Arc::clone(&db), "t").expect("ddl");
        db.commit().expect("commit");
        db.checkpoint().expect("checkpoint");
        // The pool drop joins any flusher thread before we read the clock.
    }
    (rig.clock.writes(), rig.clock.syncs())
}

/// Runs setup + the seeded workload on the rig's faulty devices.  When
/// `crash` is set, the clock is armed `rel_write` global writes after
/// setup finishes.  Returns `Ok(committed)` if the workload completed,
/// `Err(committed_before_crash)` if the simulated machine died.
fn run_workload(
    rig: &Rig,
    wal_config: WalConfig,
    crash: Option<(u64, usize, u64)>,
) -> Result<usize, usize> {
    let pool = Arc::new(
        BufferPool::new_durable_with(
            Arc::clone(&rig.data_faulty),
            pool_config(),
            Arc::clone(&rig.wal_faulty),
            wal_config,
        )
        .expect("durable pool on fresh devices"),
    );
    let db = Arc::new(Database::create(Arc::clone(&pool)).expect("create"));
    let tree = RiTree::create(Arc::clone(&db), "t").expect("ddl");
    db.commit().expect("setup commit");
    db.checkpoint().expect("setup checkpoint");

    if let Some((rel_write, torn_sectors, persist_seed)) = crash {
        rig.clock.arm_crash(CrashPlan {
            crash_at_write: Some(rig.clock.writes() + rel_write),
            torn_sectors,
            sector_bytes: SECTOR,
            persist_seed,
            ..Default::default()
        });
    }

    let mut committed = 0usize;
    for i in 0..OPS {
        let step = (|| -> ri_tree::core::Result<()> {
            tree.insert(op_interval(i), i as i64)?;
            db.commit()?;
            Ok(())
        })();
        if let Err(err) = step {
            assert!(
                err.to_string().contains("crash"),
                "op {i}: only the simulated crash may fail the workload, got: {err}"
            );
            return Err(committed);
        }
        committed += 1;
        if (i + 1) % CHECKPOINT_EVERY == 0 {
            if let Err(err) = db.checkpoint() {
                assert!(
                    err.to_string().contains("crash"),
                    "checkpoint after op {i}: unexpected error: {err}"
                );
                return Err(committed);
            }
        }
    }
    Ok(committed)
}

/// Reboots: settles the dead devices' write caches, reopens the raw
/// in-memory devices with a fresh durable pool (redo recovery runs in
/// `Database::open`), and checks the recovered tree op by op against the
/// oracle.  `max_in_flight` is the size of the one transaction that may
/// additionally survive **atomically** (its commit record reached the log
/// before the crash): the recovered count must be `committed` or
/// `committed + max_in_flight`, never a partial transaction.  Returns the
/// recovered row count.
fn reopen_and_verify(rig: &Rig, committed: usize, max_in_flight: usize, ctx: &str) -> usize {
    rig.data_faulty.settle_crash();
    rig.wal_faulty.settle_crash();
    let pool = Arc::new(
        BufferPool::new_durable(Arc::clone(&rig.data), pool_config(), Arc::clone(&rig.wal))
            .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}")),
    );
    let db = Arc::new(Database::open(pool).unwrap_or_else(|e| panic!("{ctx}: open failed: {e}")));
    let tree =
        RiTree::open(Arc::clone(&db), "t").unwrap_or_else(|e| panic!("{ctx}: tree open: {e}"));

    let n = tree.count().unwrap_or_else(|e| panic!("{ctx}: count: {e}")) as usize;
    assert!(
        n == committed || n == committed + max_in_flight,
        "{ctx}: recovered {n} ops, but {committed} committed before the crash \
         (only the whole {max_in_flight}-op in-flight transaction may additionally survive)"
    );

    // The oracle: ids and intervals of the first `n` ops, exactly.
    let oracle: BTreeMap<i64, Interval> = (0..n).map(|i| (i as i64, op_interval(i))).collect();
    let mut got = tree
        .intersection(Interval::new(0, 100_000).unwrap())
        .unwrap_or_else(|e| panic!("{ctx}: full-range query: {e}"));
    got.sort_unstable();
    let want: Vec<i64> = oracle.keys().copied().collect();
    assert_eq!(got, want, "{ctx}: recovered id set diverged from the oracle");
    for (&id, iv) in &oracle {
        let hits = tree.stab(iv.lower).unwrap_or_else(|e| panic!("{ctx}: stab: {e}"));
        assert!(hits.contains(&id), "{ctx}: op {id} committed but not recovered at {iv:?}");
    }
    n
}

/// The exhaustive sweep: a dry run counts the workload's global device
/// writes, then the machine is killed at every write index — once
/// cleanly (the dying write leaves no trace) and twice torn (1–3 leading
/// sectors of the dying write persist) — and recovery is verified after
/// each kill.
#[test]
fn kill_at_every_write_index_and_recover() {
    // Setup writes are not crash candidates (the database exists once
    // the workload starts); count the span the workload covers.
    let before = setup_spans(WalConfig::default()).0;
    let dry = Rig::new();
    assert_eq!(run_workload(&dry, WalConfig::default(), None), Ok(OPS));
    let total = dry.clock.writes();
    assert!(total > before, "workload must write");
    let span = total - before;

    let mut crash_points = 0u64;
    let mut in_flight_survived = 0u64;
    for rel in 0..span {
        // Three variants per index: clean kill, and two torn kills with
        // different surviving prefixes and persistence coins.
        for (variant, torn) in
            [(0u64, 0usize), (1, 1 + (rel as usize % 3)), (2, 1 + ((rel as usize + 1) % 3))]
        {
            let rig = Rig::new();
            let seed = rel * 0x9E37 + variant;
            let committed = match run_workload(&rig, WalConfig::default(), Some((rel, torn, seed)))
            {
                Err(committed) => committed,
                Ok(done) => {
                    // The workload finished before write index `rel` was
                    // reached — only possible for indices at the very end
                    // of the span (the dry run's final checkpoint).
                    assert_eq!(done, OPS);
                    rig.clock.crash_now();
                    done
                }
            };
            let ctx = format!("write {rel}/{span} variant {variant} (torn {torn})");
            let recovered = reopen_and_verify(&rig, committed, 1, &ctx);
            if recovered == committed + 1 {
                in_flight_survived += 1;
            }
            crash_points += 1;
        }
    }
    assert!(crash_points >= 1000, "the sweep must cover >= 1000 crash points, got {crash_points}");
    // Sanity on the sweep's reach: some crashes must land after a durable
    // commit record but before commit() returned (the in-flight op
    // surviving atomically), or the atomicity branch is untested.
    assert!(
        in_flight_survived > 0,
        "no crash point ever made the in-flight op durable — sweep too coarse"
    );
    eprintln!(
        "kill-anywhere: {crash_points} crash points over {span} write indices, \
         in-flight op survived {in_flight_survived} times"
    );
}

/// Two-insert transactions in the checkpoint-race workload.
const RACE_TXNS: usize = 30;
/// Every this many transactions, a checkpoint runs **between** the two
/// inserts — i.e. with the transaction open and its first row's records
/// in the truncation candidate range.
const RACE_CHECKPOINT_EVERY: usize = 3;

/// Where to kill the checkpoint-race workload.
enum RaceCrash {
    /// Die at the `rel`-th post-setup device write, tearing `torn`
    /// leading sectors of the dying write.
    Write { rel: u64, torn: usize, seed: u64 },
    /// Die at the `rel`-th post-setup sync barrier (the dying sync
    /// destages nothing — the whole cache settles by seeded coin).
    Sync { rel: u64, seed: u64 },
}

/// Workload where checkpoints race open transactions *by construction*:
/// every transaction inserts two intervals, and every
/// [`RACE_CHECKPOINT_EVERY`]-th transaction issues `Database::checkpoint`
/// between them.  A fuzzy checkpoint must then spare the open
/// transaction's log records; truncating them is exactly the bug the
/// regression test below pins down.  Returns committed op counts (always
/// even — two per transaction).
fn run_checkpoint_race_workload(
    rig: &Rig,
    wal_config: WalConfig,
    crash: Option<RaceCrash>,
) -> Result<usize, usize> {
    let pool = Arc::new(
        BufferPool::new_durable_with(
            Arc::clone(&rig.data_faulty),
            pool_config(),
            Arc::clone(&rig.wal_faulty),
            wal_config,
        )
        .expect("durable pool on fresh devices"),
    );
    let db = Arc::new(Database::create(Arc::clone(&pool)).expect("create"));
    let tree = RiTree::create(Arc::clone(&db), "t").expect("ddl");
    db.commit().expect("setup commit");
    db.checkpoint().expect("setup checkpoint");

    match crash {
        Some(RaceCrash::Write { rel, torn, seed }) => rig.clock.arm_crash(CrashPlan {
            crash_at_write: Some(rig.clock.writes() + rel),
            torn_sectors: torn,
            sector_bytes: SECTOR,
            persist_seed: seed,
            ..Default::default()
        }),
        Some(RaceCrash::Sync { rel, seed }) => rig.clock.arm_crash(CrashPlan {
            crash_at_sync: Some(rig.clock.syncs() + rel),
            persist_seed: seed,
            ..Default::default()
        }),
        None => {}
    }

    let mut committed = 0usize;
    for t in 0..RACE_TXNS {
        let step = (|| -> ri_tree::core::Result<()> {
            tree.insert(op_interval(2 * t), (2 * t) as i64)?;
            if t % RACE_CHECKPOINT_EVERY == 0 {
                db.checkpoint()?;
            }
            tree.insert(op_interval(2 * t + 1), (2 * t + 1) as i64)?;
            db.commit()?;
            Ok(())
        })();
        if let Err(err) = step {
            assert!(
                err.to_string().contains("crash"),
                "txn {t}: only the simulated crash may fail the workload, got: {err}"
            );
            return Err(committed);
        }
        committed += 2;
    }
    Ok(committed)
}

/// Verifies one checkpoint-race crash point: the recovered count must be
/// a whole number of transactions — an odd count means a checkpoint
/// truncated half of an uncommitted transaction's log tail and recovery
/// resurrected the other half.
fn verify_race_crash_point(rig: &Rig, committed: usize, ctx: &str) -> usize {
    let recovered = reopen_and_verify(rig, committed, 2, ctx);
    assert_eq!(
        recovered % 2,
        0,
        "{ctx}: recovered {recovered} ops — a partial transaction survived"
    );
    recovered
}

/// The kill-anywhere matrix extended with a concurrent-writer-during-
/// checkpoint workload: the machine dies at every post-setup device
/// write index (clean and torn) while checkpoints race open
/// transactions, and recovery must restore a whole number of committed
/// transactions at every single index.
#[test]
fn kill_at_every_write_index_with_checkpoint_racing_dml() {
    race_write_sweep(WalConfig::default(), "ckpt-race");
}

/// Shared body of the write-index race sweeps: measures the workload's
/// post-setup write span under `wal_config`, then kills at every index
/// (clean and torn) and verifies whole-transaction recovery.
fn race_write_sweep(wal_config: WalConfig, tag: &str) {
    let before = setup_spans(wal_config).0;
    let dry = Rig::new();
    assert_eq!(run_checkpoint_race_workload(&dry, wal_config, None), Ok(2 * RACE_TXNS));
    let total = dry.clock.writes();
    assert!(total > before, "workload must write");
    let span = total - before;

    let mut crash_points = 0u64;
    let mut in_flight_survived = 0u64;
    for rel in 0..span {
        for (variant, torn) in
            [(0u64, 0usize), (1, 1 + (rel as usize % 3)), (2, 1 + ((rel as usize + 1) % 3))]
        {
            let rig = Rig::new();
            let seed = rel * 0xC0FFEE + variant;
            let committed = match run_checkpoint_race_workload(
                &rig,
                wal_config,
                Some(RaceCrash::Write { rel, torn, seed }),
            ) {
                Err(committed) => committed,
                Ok(done) => {
                    assert_eq!(done, 2 * RACE_TXNS);
                    rig.clock.crash_now();
                    done
                }
            };
            let ctx = format!("{tag} write {rel}/{span} variant {variant} (torn {torn})");
            if verify_race_crash_point(&rig, committed, &ctx) == committed + 2 {
                in_flight_survived += 1;
            }
            crash_points += 1;
        }
    }
    assert!(crash_points >= 500, "the sweep must cover >= 500 crash points, got {crash_points}");
    // The reach check is only meaningful when the write schedule is
    // deterministic: with the background flusher racing, which write
    // index carries the commit record varies per run, so whether any
    // kill lands in the commit-durable-but-not-returned window is a
    // coin toss the sweep must tolerate either way.
    if wal_config.flush_policy == FlushPolicy::Off {
        assert!(
            in_flight_survived > 0,
            "no crash point ever made the in-flight transaction durable — sweep too coarse"
        );
    }
    eprintln!(
        "{tag} kill-anywhere: {crash_points} crash points over {span} write indices, \
         in-flight transaction survived {in_flight_survived} times"
    );
}

/// Same workload, but the kill lands on every post-setup **sync
/// barrier** instead of every write: the power cut strikes exactly when
/// the mid-transaction checkpoint flushes its log, syncs the data
/// device, or rewrites the anchor — the narrow windows the fuzzy
/// protocol's ordering argument lives on.
#[test]
fn kill_at_every_sync_index_with_checkpoint_racing_dml() {
    race_sync_sweep(WalConfig::default(), "ckpt-race");
}

/// Shared body of the sync-barrier race sweeps (see the write sweep's
/// twin above): the power cut strikes at every post-setup sync barrier.
fn race_sync_sweep(wal_config: WalConfig, tag: &str) {
    let before = setup_spans(wal_config).1;
    let dry = Rig::new();
    assert_eq!(run_checkpoint_race_workload(&dry, wal_config, None), Ok(2 * RACE_TXNS));
    let total = dry.clock.syncs();
    assert!(total > before, "workload must sync");
    let span = total - before;

    let mut crash_points = 0u64;
    for rel in 0..span {
        for seed_salt in 0..4u64 {
            let rig = Rig::new();
            let seed = rel * 0x51C2 + seed_salt;
            let committed = match run_checkpoint_race_workload(
                &rig,
                wal_config,
                Some(RaceCrash::Sync { rel, seed }),
            ) {
                Err(committed) => committed,
                Ok(done) => {
                    assert_eq!(done, 2 * RACE_TXNS);
                    rig.clock.crash_now();
                    done
                }
            };
            let ctx = format!("{tag} sync {rel}/{span} seed {seed}");
            verify_race_crash_point(&rig, committed, &ctx);
            crash_points += 1;
        }
    }
    eprintln!("{tag} sync sweep: {crash_points} crash points over {span} sync barriers");
}

/// Satellite sweep: the write-index race matrix re-run with the
/// background flusher on.  Its drains interleave with commits, group
/// commits, and checkpoints on the shared clock, so a slice of these
/// kills lands mid-flusher-write; recovery must be indistinguishable
/// from the `FlushPolicy::Off` sweep (the flusher never syncs, so it
/// can only move bytes *earlier*, never make an uncommitted record
/// durable-and-replayed).
#[test]
fn flusher_kill_at_every_write_index_with_checkpoint_racing_dml() {
    race_write_sweep(flusher_config(), "flusher-race");
}

/// Sync-barrier twin of the sweep above, flusher on: the flusher adds
/// no barriers of its own, so every kill still lands on a commit,
/// write-back, or checkpoint sync — now with flusher-drained bytes in
/// the cache ahead of it.
#[test]
fn flusher_kill_at_every_sync_index_with_checkpoint_racing_dml() {
    race_sync_sweep(flusher_config(), "flusher-race");
}

/// Satellite sweep: segment rollovers straddling open transactions.
/// Four-page segments leave 3 KB of payload per segment at this page
/// size, so nearly every two-insert transaction spills across a
/// rollover (header + anchor rewrite mid-transaction), and checkpoints
/// keep retiring and recycling the slots behind it — all with the
/// flusher racing.  Every post-setup write index is killed clean and
/// torn, and recovery must restore whole transactions only.
#[test]
fn flusher_kill_across_segment_rollovers_with_open_transactions() {
    let config = WalConfig { segment_pages: 4, ..flusher_config() };
    // Prove the geometry does what the sweep needs: a handful of
    // two-insert transactions must already span several segments.
    {
        let rig = Rig::new();
        let pool = Arc::new(
            BufferPool::new_durable_with(
                Arc::clone(&rig.data_faulty),
                pool_config(),
                Arc::clone(&rig.wal_faulty),
                config,
            )
            .expect("durable pool"),
        );
        let db = Arc::new(Database::create(Arc::clone(&pool)).expect("create"));
        let tree = RiTree::create(Arc::clone(&db), "t").expect("ddl");
        for t in 0..4usize {
            tree.insert(op_interval(2 * t), (2 * t) as i64).expect("insert");
            tree.insert(op_interval(2 * t + 1), (2 * t + 1) as i64).expect("insert");
            db.commit().expect("commit");
        }
        let s = pool.wal().unwrap().stats();
        assert!(
            s.segments_created >= 3,
            "3 KB segments must roll over within a few transactions: {s:?}"
        );
    }
    race_write_sweep(config, "rollover");
}

/// Regression (the fuzzy-checkpoint bug): a writer parked **mid-
/// transaction** while `Database::checkpoint` runs must still roll back
/// cleanly after a crash.
///
/// The rendezvous is deterministic: the writer inserts its first
/// uncommitted row, then the main thread starts a checkpoint whose
/// data-device sync parks on a sync hook; while parked, the writer is
/// released to insert its *second* uncommitted row (DML truly interleaves
/// inside the checkpoint window), finishes, and the checkpoint resumes.
/// The machine then dies with the transaction still open.
///
/// Before the fix, the checkpoint flushed the writer's first-row page
/// images to the data device and truncated their before-images out of the
/// log, so recovery resurrected half a transaction that was never
/// committed.  With fuzzy checkpoints the truncation horizon stops below
/// the open transaction's first record and recovery rolls both rows back.
#[test]
fn checkpoint_racing_open_transaction_rolls_back_cleanly() {
    const SETUP_OPS: usize = 3;
    let rig = Rig::new();
    let pool = Arc::new(
        BufferPool::new_durable(
            Arc::clone(&rig.data_faulty),
            // Roomy pool: no evictions, so the only data-device sync after
            // setup is the checkpoint's own flush — the hook below parks
            // exactly the checkpoint window.
            BufferPoolConfig::with_capacity(64),
            Arc::clone(&rig.wal_faulty),
        )
        .expect("durable pool"),
    );
    let db = Arc::new(Database::create(Arc::clone(&pool)).expect("create"));
    let tree = RiTree::create(Arc::clone(&db), "t").expect("ddl");
    for i in 0..SETUP_OPS {
        tree.insert(op_interval(i), i as i64).expect("setup insert");
    }
    db.commit().expect("setup commit");
    db.checkpoint().expect("setup checkpoint");
    rig.clock.arm_crash(CrashPlan { crash_at_write: None, ..Default::default() });

    let first_insert_done = Arc::new(AtomicBool::new(false));
    let writer_may_continue = Arc::new(AtomicBool::new(false));
    let writer_done = Arc::new(AtomicBool::new(false));
    {
        // Park the first post-setup data-device sync (the checkpoint's
        // flush) until the writer has squeezed its second uncommitted
        // insert into the window.
        let armed = Arc::new(AtomicBool::new(true));
        let writer_may_continue = Arc::clone(&writer_may_continue);
        let writer_done = Arc::clone(&writer_done);
        rig.data_faulty.set_sync_hook(Some(Arc::new(move |_idx| {
            if armed.swap(false, Ordering::SeqCst) {
                writer_may_continue.store(true, Ordering::SeqCst);
                while !writer_done.load(Ordering::SeqCst) {
                    thread::sleep(Duration::from_millis(1));
                }
            }
        })));
    }

    thread::scope(|s| {
        let writer = {
            let tree = &tree;
            let first_insert_done = Arc::clone(&first_insert_done);
            let writer_may_continue = Arc::clone(&writer_may_continue);
            let writer_done = Arc::clone(&writer_done);
            s.spawn(move || {
                // First uncommitted row, before the checkpoint starts.
                tree.insert(op_interval(100), 100).expect("in-flight insert 1");
                first_insert_done.store(true, Ordering::SeqCst);
                while !writer_may_continue.load(Ordering::SeqCst) {
                    thread::sleep(Duration::from_millis(1));
                }
                // Second uncommitted row, inside the checkpoint window.
                tree.insert(op_interval(101), 101).expect("in-flight insert 2");
                writer_done.store(true, Ordering::SeqCst);
                // The transaction never commits: the crash below must roll
                // back both rows.
            })
        };
        // The writer owns the only open transaction; checkpoint once its
        // first insert is logged.
        while !first_insert_done.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(1));
        }
        db.checkpoint().expect("checkpoint racing the open transaction");
        writer.join().expect("writer thread");
    });
    rig.data_faulty.set_sync_hook(None);
    rig.clock.crash_now();
    drop((tree, db, pool));

    let n = reopen_and_verify(&rig, SETUP_OPS, 0, "checkpoint vs open transaction");
    assert_eq!(
        n, SETUP_OPS,
        "the open transaction never committed; no part of it may survive the crash"
    );
}

/// A power cut with *no* dying write — the machine stops between device
/// operations with an arbitrary unsynced write-cache subset — recovers
/// to exactly the committed prefix.
#[test]
fn power_cut_between_writes_recovers_committed_prefix() {
    for seed in 0..8u64 {
        let rig = Rig::new();
        rig.clock.arm_crash(CrashPlan {
            crash_at_write: None,
            torn_sectors: 0,
            sector_bytes: SECTOR,
            persist_seed: seed,
            ..Default::default()
        });
        let pool = Arc::new(
            BufferPool::new_durable(
                Arc::clone(&rig.data_faulty),
                pool_config(),
                Arc::clone(&rig.wal_faulty),
            )
            .expect("durable pool"),
        );
        let db = Arc::new(Database::create(Arc::clone(&pool)).expect("create"));
        let tree = RiTree::create(Arc::clone(&db), "t").expect("ddl");
        db.commit().expect("commit");
        let committed = 40 + (seed as usize * 7) % 30;
        for i in 0..committed {
            tree.insert(op_interval(i), i as i64).expect("insert");
            db.commit().expect("commit");
        }
        rig.clock.crash_now();
        drop((tree, db, pool));
        reopen_and_verify(&rig, committed, 0, &format!("power cut, seed {seed}"));
    }
}

//! Kill-anywhere crash recovery: a WAL-backed RI-tree database is killed
//! at *every* device write index of a seeded workload — cleanly and with
//! torn (partial-sector) dying writes — then reopened, and the recovered
//! state is checked op by op against an in-memory oracle.
//!
//! The durability contract under test:
//!
//! * every insert whose `Database::commit` returned before the crash is
//!   present after recovery, bit-exact;
//! * the one in-flight transaction is atomic — fully present iff its
//!   commit record reached the log device, fully absent otherwise;
//! * recovery never panics, never reports corruption, and leaves the
//!   database writable.
//!
//! Both devices (data + log) share one fault clock, so the crash index
//! ranges over the *interleaved* global write sequence — log-page
//! appends, checkpoint write-backs, and the checkpoint anchor rewrite
//! all take their turn dying.  Unsynced buffered writes survive the
//! power cut by a seeded per-write coin, so every crash point also
//! exercises a different surviving subset of the volatile write cache.
//! The rig, scripts, oracle and sweeps live in `tests/common/crash.rs`.

mod common;

use common::crash::{
    flusher_config, insert, op_interval, replay, sweep_syncs, sweep_writes, At, CrashPoint, Oracle,
    Rig, Script, FRAMES, PAGE,
};
use ri_tree::pagestore::{CrashPlan, FlushPolicy, WalConfig};
use ri_tree::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

/// The exhaustive sweep: 128 one-insert transactions with a checkpoint
/// every 24, killed at every write index — once cleanly (the dying write
/// leaves no trace) and three times torn (1, 2 and 3 leading sectors of
/// the dying write persist) — with recovery verified after each kill.
#[test]
fn kill_at_every_write_index_and_recover() {
    sweep_writes(&Script::kill_anywhere(), WalConfig::default(), 1000);
}

/// The kill-anywhere matrix extended with a concurrent-writer-during-
/// checkpoint workload: the machine dies at every post-setup device
/// write index (clean and torn) while checkpoints race open
/// transactions, and recovery must restore a whole number of committed
/// transactions at every single index — an odd count would mean a
/// checkpoint truncated half of an uncommitted transaction's log tail
/// and recovery resurrected the other half.
#[test]
fn kill_at_every_write_index_with_checkpoint_racing_dml() {
    sweep_writes(&Script::checkpoint_race(), WalConfig::default(), 500);
}

/// Same workload, but the kill lands on every post-setup **sync
/// barrier** instead of every write: the power cut strikes exactly when
/// the mid-transaction checkpoint flushes its log, syncs the data
/// device, or rewrites the anchor — the narrow windows the fuzzy
/// protocol's ordering argument lives on.
#[test]
fn kill_at_every_sync_index_with_checkpoint_racing_dml() {
    sweep_syncs(&Script::checkpoint_race(), WalConfig::default(), 4);
}

/// The write-index race matrix re-run with the background flusher on.
/// Its drains interleave with commits, group commits, and checkpoints on
/// the shared clock, so a slice of these kills lands mid-flusher-write;
/// recovery must be indistinguishable from the `FlushPolicy::Off` sweep
/// (the flusher never syncs, so it can only move bytes *earlier*, never
/// make an uncommitted record durable-and-replayed).
#[test]
fn flusher_kill_at_every_write_index_with_checkpoint_racing_dml() {
    sweep_writes(&Script::checkpoint_race(), flusher_config(), 500);
}

/// Sync-barrier twin of the sweep above, flusher on: the flusher adds
/// no barriers of its own, so every kill still lands on a commit,
/// write-back, or checkpoint sync — now with flusher-drained bytes in
/// the cache ahead of it.
#[test]
fn flusher_kill_at_every_sync_index_with_checkpoint_racing_dml() {
    sweep_syncs(&Script::checkpoint_race(), flusher_config(), 4);
}

/// Segment rollovers straddling open transactions.  Two-page segments
/// leave 1 KB of payload per segment at this page size, so nearly every
/// two-insert transaction (≈ 0.8 KB of records) spills across a rollover
/// (header + anchor rewrite mid-transaction), and checkpoints keep
/// retiring and recycling the slots behind it — all with the flusher
/// racing.  Every post-setup write index is killed clean and torn, and
/// recovery must restore whole transactions only.
#[test]
fn flusher_kill_across_segment_rollovers_with_open_transactions() {
    let config = WalConfig { segment_pages: 2, ..flusher_config() };
    // Prove the geometry does what the sweep needs: a handful of
    // two-insert transactions must already span several segments.
    {
        let tree = Rig::mem(PAGE, FRAMES).create(config).expect("create");
        for t in 0..4usize {
            insert(2 * t).apply(&tree).expect("insert");
            insert(2 * t + 1).apply(&tree).expect("insert");
            tree.db().commit().expect("commit");
        }
        let s = tree.db().pool().wal().unwrap().stats();
        assert!(
            s.segments_created >= 3,
            "1 KB segments must roll over within a few transactions: {s:?}"
        );
    }
    sweep_writes(&Script::checkpoint_race(), config, 500);
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
    // Roomy pool: no evictions, so the only data-device sync after setup
    // is the checkpoint's own flush — the hook below parks exactly the
    // checkpoint window.
    let rig = Rig::mem(PAGE, 64);
    let tree = rig.create(WalConfig::default()).expect("create");
    let mut oracle = Oracle::default();
    oracle.run_txn(&tree, &[insert(0), insert(1), insert(2)]).expect("setup");
    tree.db().checkpoint().expect("setup checkpoint");
    rig.arm(CrashPlan::default());

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
        rig.data.set_sync_hook(Some(Arc::new(move |_idx| {
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
        tree.db().checkpoint().expect("checkpoint racing the open transaction");
        writer.join().expect("writer thread");
    });
    rig.data.set_sync_hook(None);
    rig.crash_now();
    drop(tree);

    // The open transaction never committed: the oracle holds no in-flight
    // rows, so no part of it may survive the crash.
    oracle.verify(&rig.reopen().expect("recovery"), "checkpoint vs open transaction");
}

/// A power cut with *no* dying write — the machine stops between device
/// operations with an arbitrary unsynced write-cache subset — recovers
/// to exactly the committed prefix.
#[test]
fn power_cut_between_writes_recovers_committed_prefix() {
    for seed in 0..8u64 {
        let rig = Rig::mem(PAGE, FRAMES);
        rig.arm(CrashPlan { persist_seed: seed, ..CrashPlan::default() });
        let tree = rig.create(WalConfig::default()).expect("create");
        tree.db().commit().expect("commit");
        let mut oracle = Oracle::default();
        for i in 0..40 + (seed as usize * 7) % 30 {
            oracle.run_txn(&tree, &[insert(i)]).expect("no crash point");
        }
        // The power goes while the pool still caches dirty pages: its
        // closing write-back runs into the dead machine, so recovery must
        // redo those pages from the log.
        rig.crash_now();
        let writes = rig.data.writes_attempted();
        drop(tree);
        assert!(rig.data.writes_attempted() > writes, "seed {seed}: no dirty page was lost");
        oracle.verify(&rig.reopen().expect("recovery"), &format!("power cut, seed {seed}"));
    }
}

/// A failing sweep point panics with its `CrashPoint`, printed as the
/// literal below; `replay` reruns exactly that point.
#[test]
fn printed_crash_point_replays() {
    let point = CrashPoint {
        script: "ckpt-race",
        wal: WalConfig { segment_pages: 256, flush_policy: FlushPolicy::Off },
        at: At::Write(40),
        torn_sectors: 2,
        persist_seed: 505937201,
    };
    assert_eq!(
        format!("{point:?}"),
        "CrashPoint { script: \"ckpt-race\", wal: WalConfig { segment_pages: 256, \
         flush_policy: FlushPolicy::Off }, at: At::Write(40), torn_sectors: 2, \
         persist_seed: 505937201 }"
    );
    replay(point);
}

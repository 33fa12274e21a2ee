//! Log-device trace golden: for one fixed single-threaded script, every
//! write, allocation and sync the log device receives — in order, with
//! the bytes written — must not move when the log's code is reorganised.
//!
//! The golden rig's `RecordingDisk` (`tests/common/golden.rs`) sits under
//! the log and folds each `(op, page id, FNV of bytes)` into a running
//! hash; after every step of the script the hash, the operation count and
//! the full [`WalSnapshot`] are compared with the table below.  The
//! script runs `FlushPolicy::Off` (no flusher thread, so the sequence is
//! exact) with 128-byte pages and 3-page segments — 256 stream bytes per
//! segment, 20 map entries per anchor — and covers: small and
//! page-spanning transactions, single rollovers, a double rollover inside
//! one flush (the anchor-guard pre-sync), a quiescent checkpoint, a fuzzy
//! checkpoint with an open transaction, update records with one, three
//! and the full table of eight byte runs (as Delta and as FirstMod) and
//! with differences merged into one run, a wedged full segment map and
//! the checkpoint pass that relieves it, a crash with an uncommitted tail
//! on both devices, and reopen + `recover`.
//!
//! The constants were first captured at the commit *before* `wal.rs`
//! became the `wal/` module and passed unmodified until log format v4
//! (PR 18: update records carry byte runs instead of one span), which
//! changed the version in every anchor and the bytes of every update
//! record.  They were recaptured then, after the two multi-run steps were
//! added to the script, once more for log format v5 (update and Commit
//! records lost their transaction id, and a checkpoint appends no
//! record), and for log format v6 (a FirstMod leaves out its pre-image's
//! longest zero run).  For v6 the script's pages start out on the data
//! device with no zero byte but a 16-byte run, so its FirstMods still
//! span pages and drive the same rollovers; one page starts zeroed, so
//! the tail also rolls back a FirstMod that logged no pre-image byte.
//! What they pin since is that format, sync count and write order do
//! not move.  Sibling of
//! `tests/read_path_trace.rs` and `tests/pool_determinism.rs`.

mod common;

use common::golden::{image, image_hash, Literal, Pins, RecordingDisk};
use ri_tree::pagestore::{
    BufferPool, BufferPoolConfig, DiskManager, Error, FlushPolicy, MemDisk, PageId, RecoveryReport,
    Result, WalConfig, WalSnapshot,
};
use std::sync::Arc;

const PS: usize = 128;
const CONFIG: WalConfig = WalConfig { segment_pages: 3, flush_policy: FlushPolicy::Off };

/// What one step of the script left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    label: &'static str,
    /// Writes + allocations + syncs the log device has seen so far.
    ops: u64,
    /// Running FNV-1a over every `(op, page id, FNV of bytes)` so far.
    trace: u64,
    /// The `WalSnapshot` fields, in declaration order.
    snap: [u64; 14],
}

#[rustfmt::skip]
const GOLDEN_STEPS: &[Step] = &[
    Step { label: "attach (fresh device)", ops: 4, trace: 0x747f8d7025ac0bba, snap: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] },
    Step { label: "small txn, first rollover", ops: 12, trace: 0xb2a09d033023f459, snap: [1, 195, 1, 1, 0, 0, 0, 1, 0, 2, 0, 0, 1, 0] },
    Step { label: "delta txn, second rollover", ops: 20, trace: 0x957bfe54a019a47b, snap: [2, 270, 2, 2, 0, 0, 0, 2, 0, 4, 0, 0, 2, 0] },
    Step { label: "page-spanning txn, double rollover in one flush", ops: 37, trace: 0xa8f989799c054779, snap: [5, 797, 3, 3, 0, 1, 0, 4, 0, 9, 0, 0, 4, 0] },
    Step { label: "quiescent checkpoint", ops: 40, trace: 0x8cec03494c5054f4, snap: [5, 797, 3, 3, 0, 1, 2, 6, 1, 9, 0, 0, 4, 3] },
    Step { label: "txn after truncation (fresh FirstMod, recycled slot)", ops: 43, trace: 0x9e6ec9c5e33a5a8c, snap: [6, 992, 4, 4, 0, 1, 2, 7, 1, 11, 0, 0, 4, 3] },
    Step { label: "fuzzy checkpoint with an open transaction", ops: 52, trace: 0x63d8a75173d1e695, snap: [7, 1158, 4, 4, 0, 2, 4, 10, 2, 14, 0, 0, 5, 3] },
    Step { label: "open transaction commits", ops: 54, trace: 0xe96a6f27fc6406b4, snap: [8, 1233, 5, 5, 0, 2, 4, 11, 2, 15, 0, 0, 5, 3] },
    Step { label: "full run tables and a merged run", ops: 72, trace: 0xf9ccff3dfa818dbd, snap: [11, 1838, 6, 6, 0, 4, 4, 14, 2, 21, 0, 0, 8, 3] },
    Step { label: "write-back pass while filling the map", ops: 122, trace: 0xd8d9486bf23a9d4d, snap: [18, 3203, 13, 13, 0, 4, 4, 21, 2, 39, 0, 0, 13, 3] },
    Step { label: "commit wedged on a full segment map", ops: 219, trace: 0xbef6860af1784675, snap: [32, 5933, 27, 26, 0, 4, 4, 34, 2, 73, 0, 0, 23, 3] },
    Step { label: "checkpoint relieves the full map", ops: 229, trace: 0xcec6208792e8e851, snap: [32, 5933, 27, 26, 0, 4, 7, 37, 3, 76, 0, 0, 24, 12] },
    Step { label: "page-spanning txn after relief", ops: 236, trace: 0x49647752f421b3dd, snap: [34, 6294, 28, 27, 0, 4, 7, 38, 3, 80, 0, 0, 25, 12] },
    Step { label: "three-run Delta and FirstMod", ops: 242, trace: 0x5afcdba2ff30b7e6, snap: [36, 6572, 29, 28, 0, 4, 7, 39, 3, 83, 0, 0, 26, 12] },
    Step { label: "uncommitted tail written back", ops: 248, trace: 0xc850f4303d48adad, snap: [38, 6792, 29, 28, 0, 5, 7, 40, 3, 86, 0, 0, 27, 12] },
    Step { label: "reopen + recover", ops: 251, trace: 0xa65a80cd790b7279, snap: [0, 0, 0, 0, 0, 0, 2, 2, 1, 0, 0, 0, 0, 13] },
];

const GOLDEN_LOG_IMAGE_HASH: u64 = 0x3436_68af_76a0_3d98;
const GOLDEN_DATA_IMAGE_HASH: u64 = 0x2569_5a9f_75aa_42f1;
const GOLDEN_REPORT: RecoveryReport = RecoveryReport {
    records_scanned: 36,
    committed_records: 34,
    tail_records: 2,
    commits: 16,
    pages_redone: 17,
    pages_rolled_back: 2,
};

/// A step prints as the row of [`GOLDEN_STEPS`] that pins it.
impl Literal for Step {
    fn literal(&self) -> String {
        let Step { label, ops, trace, snap } = self;
        format!("Step {{ label: {label:?}, ops: {ops}, trace: {trace:#018x}, snap: {snap:?} }}")
    }
}

fn snap_fields(s: WalSnapshot) -> [u64; 14] {
    // Exhaustive: a new counter must be added to the golden deliberately.
    let WalSnapshot {
        records,
        record_bytes,
        commits,
        commit_syncs,
        group_commits,
        forced_syncs,
        checkpoint_syncs,
        syncs,
        checkpoints,
        log_page_writes,
        flusher_writes,
        flusher_bytes,
        segments_created,
        segments_retired,
    } = s;
    [
        records,
        record_bytes,
        commits,
        commit_syncs,
        group_commits,
        forced_syncs,
        checkpoint_syncs,
        syncs,
        checkpoints,
        log_page_writes,
        flusher_writes,
        flusher_bytes,
        segments_created,
        segments_retired,
    ]
}

/// The script's view of the two devices plus what the committed state of
/// every data page must be.
struct Script {
    log: Arc<RecordingDisk>,
    data: Arc<MemDisk>,
    pool: BufferPool,
    /// Page images as of the last commit boundary.
    committed: Vec<[u8; PS]>,
    /// Page images including the open transaction's updates.
    current: Vec<[u8; PS]>,
    steps: Vec<Step>,
}

fn open_pool(log: &Arc<RecordingDisk>, data: &Arc<MemDisk>) -> BufferPool {
    BufferPool::new_durable_with(
        Arc::clone(data),
        BufferPoolConfig::with_capacity(64),
        Arc::clone(log),
        CONFIG,
    )
    .unwrap()
}

impl Script {
    fn wal_stats(&self) -> WalSnapshot {
        self.pool.wal().unwrap().stats()
    }

    fn step(&mut self, label: &'static str) {
        let mut r = self.log.recording();
        let step = Step {
            label,
            ops: r.ops,
            trace: r.write_hash,
            snap: snap_fields(self.pool.wal().unwrap().stats()),
        };
        let ops = std::mem::take(&mut r.recent);
        drop(r);
        if GOLDEN_STEPS.get(self.steps.len()) != Some(&step) {
            eprintln!(
                "{label:?} drifted; (op, page, bytes-hash) since the previous step: {ops:x?}"
            );
        }
        self.steps.push(step);
    }

    /// Allocates a page and puts `img` on the data device, outside the
    /// log, as an earlier checkpointed session would have left it.
    fn new_page(&mut self, img: [u8; PS]) {
        let page = self.pool.allocate_page().unwrap();
        self.data.write_page(page, &img).unwrap();
        self.committed.push(img);
        self.current.push(img);
    }

    fn touch(&mut self, page: usize, off: usize, val: u8) {
        self.touch_all(page, &[(off, val)]);
    }

    /// One update — one log record — changing every `(offset, value)`.
    fn touch_all(&mut self, page: usize, bytes: &[(usize, u8)]) {
        let write = |d: &mut [u8]| bytes.iter().for_each(|&(off, val)| d[off] = val);
        self.pool.with_page_mut(PageId(page as u64), write).unwrap();
        write(&mut self.current[page]);
    }

    fn commit(&mut self) -> Result<u64> {
        // The Commit record is appended even when making it durable
        // fails, so the boundary holds either way.
        self.committed = self.current.clone();
        self.pool.wal().unwrap().commit()
    }

    /// `Database::checkpoint`, spelled out at pool level.
    fn checkpoint(&mut self) {
        let wal = self.pool.wal().unwrap();
        let fence = wal.end_lsn();
        self.pool.flush_all().unwrap();
        wal.checkpoint(fence).unwrap();
    }
}

#[test]
fn log_device_trace_is_pinned() {
    let log = Arc::new(RecordingDisk::new(PS));
    let data = Arc::new(MemDisk::new(PS));
    let pool = open_pool(&log, &data);
    let mut s = Script {
        log: Arc::clone(&log),
        data: Arc::clone(&data),
        pool,
        committed: Vec::new(),
        current: Vec::new(),
        steps: Vec::new(),
    };
    // Pages 0..39 hold no zero byte but the 16 at 64..80, so each
    // FirstMod logs a 112-byte pre-image around that hole; page 39 is
    // zeroed, as freshly allocated, and its FirstMod logs no pre-image
    // byte.
    for page in 0..40u8 {
        let mut img = [0u8; PS];
        if page < 39 {
            img.iter_mut().enumerate().for_each(|(i, b)| *b = (i as u8 ^ page) | 0x80);
            img[64..80].fill(0);
        }
        s.new_page(img);
    }
    s.step("attach (fresh device)");

    // A FirstMod + Commit: 195 bytes, opens segment 0.
    s.touch(0, 5, 1);
    s.commit().unwrap();
    s.step("small txn, first rollover");

    // A Delta + Commit: 75 bytes, crosses into segment 1 and rewrites the
    // partial tail page with its already-written prefix.
    s.touch(0, 6, 2);
    s.commit().unwrap();
    s.step("delta txn, second rollover");

    // Three FirstMods + Commit: 527 bytes over segments 1..=3, so one
    // flush rolls over twice and the second anchor write must pre-sync.
    let before = s.wal_stats();
    for (page, val) in [(1, 11), (2, 12), (3, 13)] {
        s.touch(page, 9, val);
    }
    s.commit().unwrap();
    let after = s.wal_stats();
    assert_eq!(after.segments_created - before.segments_created, 2, "double rollover");
    assert_eq!(after.forced_syncs - before.forced_syncs, 1, "anchor-guard pre-sync");
    s.step("page-spanning txn, double rollover in one flush");

    let before = s.wal_stats();
    s.checkpoint();
    let after = s.wal_stats();
    assert_eq!(after.checkpoint_syncs - before.checkpoint_syncs, 2, "log flush + anchor");
    assert_eq!(after.record_bytes, before.record_bytes, "a checkpoint appends no record");
    assert!(after.segments_retired > before.segments_retired);
    s.step("quiescent checkpoint");

    s.touch(0, 7, 3);
    s.commit().unwrap();
    s.step("txn after truncation (fresh FirstMod, recycled slot)");

    // An open transaction straddles the checkpoint: the write-back pass
    // forces its record durable and its image onto the data device, and
    // the horizon stops at its first record.  No record is appended.
    s.touch(4, 1, 9);
    let before = s.wal_stats();
    s.checkpoint();
    let after = s.wal_stats();
    assert_eq!(after.forced_syncs - before.forced_syncs, 1, "WAL-before-data barrier");
    assert_eq!(after.record_bytes, before.record_bytes, "a checkpoint appends no record");
    s.step("fuzzy checkpoint with an open transaction");
    s.touch(4, 2, 10);
    s.commit().unwrap();
    s.step("open transaction commits");

    // A full run table, as a Delta (page 4 was logged just above) and as
    // a FirstMod: runs merge across up to 16 equal bytes, so eight single
    // bytes 18 apart are all a 128-byte page has room for, and the fold
    // beyond the table's end is pinned in `wal::tests` on larger pages.
    // And nine differences 9 apart that travel as one merged run.
    let stride = |n: usize, step: usize| (0..n).map(|i| (step * i, 0x50 + i as u8)).collect();
    let (full, merged): (Vec<_>, Vec<_>) = (stride(8, 18), stride(9, 9));
    s.touch_all(4, &full);
    s.touch_all(37, &full);
    s.touch_all(36, &merged);
    s.commit().unwrap();
    s.step("full run tables and a merged run");

    // Fill the 20-entry segment map: one fresh page per transaction, so no
    // page run straddles and pins the horizon.  The fence for the relief
    // checkpoint is sampled honestly, before a write-back pass part-way.
    let mut fence = None;
    let mut wedged = None;
    for page in 5..40 {
        if page == 12 {
            fence = Some(s.pool.wal().unwrap().end_lsn());
            s.pool.flush_all().unwrap();
            s.step("write-back pass while filling the map");
        }
        s.touch(page, 3, page as u8);
        if let Err(e) = s.commit() {
            wedged = Some(e);
            break;
        }
    }
    match wedged {
        Some(Error::InvalidArgument(msg)) => assert!(msg.contains("segment map full"), "{msg}"),
        other => panic!("the map must fill up, got {other:?}"),
    }
    s.step("commit wedged on a full segment map");

    let before = s.wal_stats();
    s.pool.wal().unwrap().checkpoint(fence.unwrap()).unwrap();
    let after = s.wal_stats();
    assert_eq!(after.checkpoint_syncs - before.checkpoint_syncs, 3, "relief pass syncs once more");
    assert!(after.segments_retired > before.segments_retired);
    s.step("checkpoint relieves the full map");

    s.touch(1, 10, 21);
    s.touch(2, 10, 22);
    s.commit().unwrap();
    s.step("page-spanning txn after relief");

    // Updates that change a page in several places, each further from
    // the next than runs merge across: page 1 has its FirstMod above the
    // scan start, so its record is a three-run Delta; page 38 is
    // untouched so far, so its record is a three-run FirstMod.  Recovery
    // below replays both.
    s.touch_all(1, &[(20, 31), (60, 32), (100, 33)]);
    s.touch_all(38, &[(0, 41), (50, 42), (51, 43), (127, 44)]);
    s.commit().unwrap();
    s.step("three-run Delta and FirstMod");

    // The crash: an uncommitted tail, forced onto both devices by a
    // write-back pass, then the pool vanishes without its `Drop` flush.
    s.touch(3, 10, 23);
    s.touch(39, 0, 99);
    s.pool.flush_all().unwrap();
    s.step("uncommitted tail written back");
    let Script { pool, committed, mut steps, .. } = s;
    std::mem::forget(pool);

    let pool = open_pool(&log, &data);
    let report = pool.recover().unwrap().expect("the log has a tail to recover");
    assert!(pool.recover().unwrap().is_none(), "recovery runs once");
    let mut s = Script {
        log,
        data,
        pool,
        committed,
        current: Vec::new(),
        steps: std::mem::take(&mut steps),
    };
    s.step("reopen + recover");
    assert!(report.pages_rolled_back >= 2 && report.tail_records == 2, "{report:?}");

    // Not only pinned but right: the data device holds exactly the
    // committed state.
    let data = image(&*s.data);
    for (page, want) in s.committed.iter().enumerate() {
        assert_eq!(data[page], want[..], "page {page} is not at its committed state");
    }

    let mut pins = Pins::default();
    pins.rows("STEPS", &s.steps, GOLDEN_STEPS);
    pins.value("LOG_IMAGE_HASH", &image_hash(&*s.log), &GOLDEN_LOG_IMAGE_HASH);
    pins.value("DATA_IMAGE_HASH", &image_hash(&*s.data), &GOLDEN_DATA_IMAGE_HASH);
    pins.value("REPORT", &report, &GOLDEN_REPORT);
    pins.check();
}

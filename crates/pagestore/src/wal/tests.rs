use super::diff::{diff, Runs, MAX_RUNS};
use super::flush::SPARE_MAX_BYTES;
use super::format::{self, Record, REC_HDR};
use super::*;
use crate::disk::MemDisk;
use crate::faulty::{FaultPlan, FaultyDisk};
use proptest::prelude::*;
use std::sync::Arc;

impl Wal {
    /// Opens (or initializes) the log on `disk` with default settings.
    fn attach(disk: Box<dyn DiskManager>) -> Result<Wal> {
        Wal::attach_with(disk, WalConfig::default())
    }

    /// Capacities of the append buffer and of the flush routine's spare.
    fn buffer_capacities(&self) -> (usize, usize) {
        (self.append.lock().pending.capacity(), self.flush.lock().spare.capacity())
    }
}

fn fresh_wal(ps: usize) -> (Arc<MemDisk>, Wal) {
    let disk = Arc::new(MemDisk::new(ps));
    let wal = Wal::attach(Box::new(Arc::clone(&disk))).unwrap();
    (disk, wal)
}

fn fresh_wal_with(ps: usize, config: WalConfig) -> (Arc<MemDisk>, Wal) {
    let disk = Arc::new(MemDisk::new(ps));
    let wal = Wal::attach_with(Box::new(Arc::clone(&disk)), config).unwrap();
    (disk, wal)
}

/// A page image with no zero byte, which a FirstMod logs whole: the tests
/// of the log's geometry use it to make records span pages.
fn dense(ps: usize) -> Vec<u8> {
    (0..ps).map(|i| i as u8 | 0x80).collect()
}

/// Scans a device the way a fresh attach would: via its best anchor.
fn scan_fresh(disk: &dyn DiskManager) -> Recovered {
    let anchor = segments::read_best_anchor(disk).unwrap();
    Recovered::read(disk, &anchor.map, anchor.start)
}

/// A scanned record with its bytes copied out, for assertions.
#[derive(Debug, Clone, PartialEq)]
enum Rec {
    FirstMod { page: u64, before: Vec<u8>, runs: Vec<(u32, u32)>, delta: Vec<u8> },
    Delta { page: u64, runs: Vec<(u32, u32)>, delta: Vec<u8> },
    Commit { seq: u64 },
}

/// The records a fresh attach would read from `disk`, copied out.
fn records(disk: &dyn DiskManager) -> Vec<Rec> {
    let anchor = segments::read_best_anchor(disk).unwrap();
    let mut out = Vec::new();
    recover::scan(disk, &anchor.map, anchor.start, |rec, _| {
        out.push(match rec {
            Record::FirstMod { page, before, runs, delta } => Rec::FirstMod {
                page: page.raw(),
                before: before.image(),
                runs: runs.as_slice().to_vec(),
                delta: delta.to_vec(),
            },
            Record::Delta { page, runs, delta } => Rec::Delta {
                page: page.raw(),
                runs: runs.as_slice().to_vec(),
                delta: delta.to_vec(),
            },
            Record::Commit { seq } => Rec::Commit { seq },
        })
    });
    out
}

#[test]
fn identical_images_log_nothing() {
    let (_d, wal) = fresh_wal(128);
    let img = vec![3u8; 128];
    assert_eq!(wal.log_update(PageId(5), &img, &img).unwrap(), 0);
    assert_eq!(wal.stats().records, 0);
    assert_eq!(wal.end_lsn(), 0);
}

#[test]
fn first_mod_then_delta_then_commit_roundtrips_through_scan() {
    let (disk, wal) = fresh_wal(128);
    let old = vec![0u8; 128];
    let mut v1 = old.clone();
    v1[10..20].copy_from_slice(&[7u8; 10]);
    let mut v2 = v1.clone();
    v2[100] = 9;
    assert!(wal.log_update(PageId(4), &old, &v1).unwrap() > 0);
    assert!(wal.log_update(PageId(4), &v1, &v2).unwrap() > 0);
    let end = wal.commit().unwrap();
    assert_eq!(wal.durable_lsn(), end);
    let s = wal.stats();
    assert_eq!((s.records, s.commits, s.commit_syncs, s.group_commits), (2, 1, 1, 0));
    drop(wal);

    // A fresh attach finds the full committed stream.
    let scan = scan_fresh(&*disk);
    assert_eq!(scan.records, 3);
    assert_eq!(scan.committed, 3);
    assert_eq!(scan.committed_end, end);
    assert_eq!(scan.max_seq, 1);
    assert_eq!(
        records(&*disk),
        [
            Rec::FirstMod { page: 4, before: old, runs: vec![(10, 10)], delta: vec![7u8; 10] },
            Rec::Delta { page: 4, runs: vec![(100, 1)], delta: vec![9u8] },
            Rec::Commit { seq: 1 },
        ]
    );
}

#[test]
fn uncommitted_tail_is_dropped_on_attach() {
    let (disk, wal) = fresh_wal(128);
    let old = vec![0u8; 128];
    let mut new = old.clone();
    new[0] = 1;
    wal.log_update(PageId(2), &old, &new).unwrap();
    let committed_end = wal.commit().unwrap();
    // An uncommitted record past the commit, flushed but not committed.
    let mut newer = new.clone();
    newer[1] = 2;
    let lsn = wal.log_update(PageId(2), &new, &newer).unwrap();
    wal.make_durable(lsn).unwrap();
    drop(wal);

    let wal2 = Wal::attach(Box::new(Arc::clone(&disk))).unwrap();
    let log = wal2.take_recovered().unwrap();
    assert_eq!(log.records, 3, "commit + committed mod + tail mod");
    assert_eq!(log.committed, 2);
    assert_eq!(wal2.end_lsn(), committed_end, "appends resume at the commit boundary");
}

#[test]
fn a_commit_commits_other_threads_updates() {
    // The unit of commit is the log prefix, not a thread's run: thread A
    // appends an update and does not commit, thread B commits, and B's
    // Commit makes A's update durable.  What either appends after that
    // Commit rolls back.
    let (disk, wal) = fresh_wal(128);
    let old = vec![0u8; 128];
    let img = |byte: u8| {
        let mut img = old.clone();
        img[7] = byte;
        img
    };
    let (a1, a2, b, c) = (img(1), img(2), img(3), img(4));
    let turn = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            wal.log_update(PageId(1), &old, &a1).unwrap();
            turn.wait();
            turn.wait(); // B has committed
            wal.log_update(PageId(1), &a1, &a2).unwrap();
        });
        s.spawn(|| {
            turn.wait(); // A has appended
            wal.log_update(PageId(2), &old, &b).unwrap();
            wal.commit().unwrap();
            turn.wait();
            wal.log_update(PageId(3), &old, &c).unwrap();
        });
    });
    // The crash: both post-Commit updates reach the device, no Commit
    // follows them.
    wal.make_durable(wal.end_lsn()).unwrap();
    drop(wal);

    let wal = Wal::attach(Box::new(Arc::clone(&disk))).unwrap();
    let (images, report) = wal.take_redo().unwrap().unwrap();
    assert_eq!(images[&1], a1, "A's update before B's Commit is committed, its later one is not");
    assert_eq!(images[&2], b);
    assert_eq!(images[&3], old, "B's update after its Commit rolls back to the pre-image");
    assert_eq!((report.commits, report.tail_records, report.pages_rolled_back), (1, 2, 1));
}

#[test]
fn checkpoint_truncates_and_old_records_are_not_rescanned() {
    let (disk, wal) = fresh_wal(128);
    let old = vec![0u8; 128];
    let mut new = old.clone();
    new[5] = 5;
    wal.log_update(PageId(9), &old, &new).unwrap();
    wal.commit().unwrap();
    wal.checkpoint(wal.end_lsn()).unwrap();
    assert_eq!(wal.stats().checkpoints, 1);
    drop(wal);

    let wal2 = Wal::attach(Box::new(Arc::clone(&disk))).unwrap();
    assert!(wal2.take_recovered().is_none(), "truncated log has no records");
    // Appends resume past the truncated region without tripping over
    // the stale record bytes still physically present below `start`.
    let mut v2 = new.clone();
    v2[6] = 6;
    wal2.log_update(PageId(9), &new, &v2).unwrap();
    let end = wal2.commit().unwrap();
    drop(wal2);
    let wal3 = Wal::attach(Box::new(Arc::clone(&disk))).unwrap();
    let log = wal3.take_recovered().unwrap();
    assert_eq!(log.committed, 2);
    assert_eq!(wal3.end_lsn(), end);
}

#[test]
fn records_spanning_many_pages_survive() {
    // Page size 128 and pre-images with no zero byte: every FirstMod body
    // is longer than a page, so every such record spans pages and partial
    // tail pages are append-rewritten.
    let (disk, wal) = fresh_wal(128);
    let mut prev = dense(128);
    let mut ends = Vec::new();
    for i in 0..20u8 {
        let mut next = prev.clone();
        next[(i as usize * 5) % 128] = i + 1;
        let start = wal.end_lsn();
        let end = wal.log_update(PageId(u64::from(i) % 3), &prev, &next).unwrap();
        if i < 3 {
            assert!(end - start > 128, "FirstMod {i} of {} bytes fits a page", end - start);
        }
        ends.push(wal.commit().unwrap());
        prev = next;
    }
    drop(wal);
    let scan = scan_fresh(&*disk);
    assert_eq!(scan.records, 40, "20 mods + 20 commits");
    assert_eq!(scan.committed, 40);
    assert_eq!(scan.committed_end, *ends.last().unwrap());
}

/// Bytes of a FirstMod record ahead of its pre-image: the frame, `page |
/// n | delta_len | hole_off | hole_len`, and one run-table entry.
const ONE_RUN_FIRST_MOD_HEAD: u64 = REC_HDR as u64 + 24 + 8;

#[test]
fn a_fresh_page_logs_no_pre_image_byte() {
    // A page the pool has just allocated is all zeros: its first update's
    // record is its head and the bytes it changed, nothing more.
    let (data, log) = (Arc::new(MemDisk::new(2048)), Arc::new(MemDisk::new(2048)));
    let pool = crate::BufferPool::new_durable(data, crate::BufferPoolConfig::with_capacity(4), log)
        .unwrap();
    let page = pool.allocate_page().unwrap();
    let before = pool.wal().unwrap().stats().record_bytes;
    pool.with_page_mut(page, |d| d[100..110].fill(7)).unwrap();
    let logged = pool.wal().unwrap().stats().record_bytes - before;
    assert_eq!(logged, ONE_RUN_FIRST_MOD_HEAD + 10);
    // A page with no zero byte logs all of it.
    let (disk, wal) = fresh_wal(2048);
    let (old, mut new) = (vec![9u8; 2048], vec![9u8; 2048]);
    new[100..110].fill(7);
    assert_eq!(wal.log_update(PageId(1), &old, &new).unwrap(), ONE_RUN_FIRST_MOD_HEAD + 2048 + 10);
    wal.commit().unwrap();
    drop(wal);
    assert!(matches!(&records(&*disk)[0], Rec::FirstMod { before, .. } if before == &old));
}

#[test]
fn torn_tail_page_breaks_the_chain_cleanly() {
    let (disk, wal) = fresh_wal(128);
    let old = vec![0u8; 128];
    let mut new = old.clone();
    new[0] = 1;
    wal.log_update(PageId(1), &old, &new).unwrap();
    wal.commit().unwrap();
    let end = wal.end_lsn();
    drop(wal);
    // Corrupt one byte in the middle of the committed record's body.
    // Segment 0 lives in slot 0: header on device page 2, payload
    // pages from 3.
    let victim = PageId(3 + (end / 2) / 128);
    let mut page = vec![0u8; 128];
    disk.read_page(victim, &mut page).unwrap();
    page[(end / 2 % 128) as usize] ^= 0xFF;
    disk.write_page(victim, &page).unwrap();
    let scan = scan_fresh(&*disk);
    assert_eq!(scan.records, 0, "checksum break stops the scan");
    assert_eq!(scan.committed, 0);
}

#[test]
fn commit_accounting_identity_holds_under_threads() {
    let wal = Arc::new({
        let disk = MemDisk::new(256);
        Wal::attach(Box::new(disk)).unwrap()
    });
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || {
                let mut prev = vec![0u8; 256];
                for i in 0..50u8 {
                    let mut next = prev.clone();
                    next[t as usize * 8] = i.wrapping_add(1);
                    wal.log_update(PageId(t), &prev, &next).unwrap();
                    wal.commit().unwrap();
                    prev = next;
                }
            })
        })
        .collect();
    for th in threads {
        th.join().unwrap();
    }
    let s = wal.stats();
    assert_eq!(s.commits, 200);
    assert_eq!(s.commit_syncs + s.group_commits, s.commits, "exact commit accounting");
    assert_eq!(s.syncs, s.commit_syncs + s.forced_syncs + s.checkpoint_syncs);
    assert_eq!(wal.durable_lsn(), wal.end_lsn());
}

#[test]
fn fuzzy_checkpoint_spares_the_open_transactions_records() {
    let (disk, wal) = fresh_wal(128);
    let old = vec![0u8; 128];
    let mut v1 = old.clone();
    v1[0] = 1;
    // A committed transaction, fully flushed...
    wal.log_update(PageId(1), &old, &v1).unwrap();
    wal.commit().unwrap();
    // ...then an open transaction whose record reaches the device.
    let lsn = wal.log_update(PageId(2), &old, &v1).unwrap();
    wal.make_durable(lsn).unwrap();
    let fence = wal.end_lsn();
    let bytes = wal.stats().record_bytes;
    wal.checkpoint(fence).unwrap();
    let s = wal.stats();
    assert_eq!(s.checkpoints, 1);
    assert_eq!(s.checkpoint_syncs, 2, "log flush + anchor rewrite");
    assert_eq!(s.syncs, s.commit_syncs + s.forced_syncs + s.checkpoint_syncs);
    assert_eq!((s.record_bytes, wal.end_lsn()), (bytes, fence), "a checkpoint appends nothing");
    drop(wal);

    // The committed generation was truncated, but the open
    // transaction's FirstMod pre-image survives for rollback as the
    // scan's first — and only — record.
    let wal2 = Wal::attach(Box::new(Arc::clone(&disk))).unwrap();
    let log = wal2.take_recovered().unwrap();
    assert_eq!(log.committed, 0, "nothing at or above the horizon is committed");
    let recs = records(&*disk);
    assert_eq!(recs.len(), 1);
    assert!(matches!(&recs[0], Rec::FirstMod { page: 2, before, .. } if before == &old));
}

#[test]
fn fuzzy_then_idle_checkpoint_truncates_everything() {
    let (disk, wal) = fresh_wal(128);
    let old = vec![0u8; 128];
    let mut v1 = old.clone();
    v1[3] = 3;
    // Open transaction at checkpoint time: horizon pins to its first
    // record (LSN 0), so the start cannot move at all.
    wal.log_update(PageId(5), &old, &v1).unwrap();
    let end = wal.end_lsn();
    wal.checkpoint(end).unwrap();
    assert_eq!(wal.stats().checkpoints, 1);
    assert_eq!(wal.end_lsn(), end, "a checkpoint with a writer in flight appends nothing");
    // Commit closes the run; a second checkpoint moves `start` to the
    // very end, so the whole log is logically empty.
    let end = wal.commit().unwrap();
    wal.checkpoint(end).unwrap();
    assert_eq!(wal.end_lsn(), end, "an idle checkpoint appends nothing");
    drop(wal);
    let wal2 = Wal::attach(Box::new(Arc::clone(&disk))).unwrap();
    assert!(wal2.take_recovered().is_none(), "truncated log has no records");
    // Appending past the truncated prefix still works after the fuzzy
    // interlude.
    let mut v2 = v1.clone();
    v2[4] = 4;
    wal2.log_update(PageId(5), &v1, &v2).unwrap();
    let end = wal2.commit().unwrap();
    drop(wal2);
    let wal3 = Wal::attach(Box::new(Arc::clone(&disk))).unwrap();
    let log = wal3.take_recovered().unwrap();
    assert_eq!(log.committed, 2);
    assert_eq!(wal3.end_lsn(), end);
}

#[test]
fn straddling_page_run_drags_the_horizon_down() {
    let (disk, wal) = fresh_wal(128);
    let old = vec![0u8; 128];
    let mut v1 = old.clone();
    v1[7] = 7;
    let mut v2 = v1.clone();
    v2[8] = 8;
    // FirstMod below the fence, Delta above it, then a commit: the
    // fixpoint must refuse to orphan the Delta and keep everything.
    wal.log_update(PageId(7), &old, &v1).unwrap();
    let fence = wal.end_lsn();
    wal.log_update(PageId(7), &v1, &v2).unwrap();
    wal.commit().unwrap();
    wal.checkpoint(fence).unwrap();
    drop(wal);
    let wal2 = Wal::attach(Box::new(Arc::clone(&disk))).unwrap();
    let log = wal2.take_recovered().unwrap();
    assert_eq!(log.committed, 3, "FirstMod + Delta + Commit all survive");
    assert!(
        matches!(records(&*disk)[0], Rec::FirstMod { page: 7, .. }),
        "the pre-image stayed below the horizon"
    );
}

#[test]
fn log_rolls_over_into_new_segments() {
    // seg_pages = 2 at ps = 128 leaves a single 128-byte payload page
    // per segment, so every commit straddles several rollovers.
    let config = WalConfig { segment_pages: 2, flush_policy: FlushPolicy::Off };
    let (disk, wal) = fresh_wal_with(128, config);
    let old = dense(128);
    let mut new = old.clone();
    new[9] = 9;
    for _ in 0..8 {
        wal.log_update(PageId(9), &old, &new).unwrap();
        wal.commit().unwrap();
    }
    let s = wal.stats();
    assert!(s.segments_created >= 6, "tiny segments must force rollovers: {s:?}");
    let end = wal.end_lsn();
    drop(wal);
    // A fresh attach reads seg_pages back from the anchor, walks the
    // segment map, and finds every committed record.
    let wal2 = Wal::attach(Box::new(Arc::clone(&disk))).unwrap();
    let log = wal2.take_recovered().unwrap();
    assert_eq!(log.committed, 16, "8 FirstMods + 8 Commits span the segment chain");
    assert_eq!(wal2.end_lsn(), end);
}

#[test]
fn checkpoint_retires_whole_segments_and_recycles_their_slots() {
    let config = WalConfig { segment_pages: 2, flush_policy: FlushPolicy::Off };
    let (disk, wal) = fresh_wal_with(128, config);
    let old = dense(128);
    let mut new = old.clone();
    new[1] = 1;
    for _ in 0..6 {
        wal.log_update(PageId(4), &old, &new).unwrap();
        wal.commit().unwrap();
    }
    wal.checkpoint(wal.end_lsn()).unwrap();
    let s = wal.stats();
    assert!(s.segments_retired >= 4, "segments wholly below start must retire: {s:?}");
    // Keep writing through more checkpoints: retired slots are
    // recycled, so the device ends up with fewer slots than segments
    // ever created.
    for _ in 0..6 {
        wal.log_update(PageId(4), &old, &new).unwrap();
        wal.commit().unwrap();
        wal.checkpoint(wal.end_lsn()).unwrap();
    }
    let s2 = wal.stats();
    assert!(s2.segments_created > s.segments_created, "the tail kept rolling over");
    let device_slots = (disk.num_pages() - 2) / 2;
    assert!(
        device_slots < s2.segments_created,
        "recycling must reuse slots: {} slots on device, {} segments created",
        device_slots,
        s2.segments_created
    );
}

#[test]
fn torn_anchor_write_falls_back_to_the_other_anchor() {
    // Enough traffic for at least one rollover, then a checkpoint with
    // fence 0: it rewrites the anchor (same map, same start) without
    // retiring anything, so the two on-device anchors describe the
    // same committed stream.
    let config = WalConfig { segment_pages: 4, flush_policy: FlushPolicy::Off };
    let (disk, wal) = fresh_wal_with(128, config);
    let old = dense(128);
    let mut new = old.clone();
    new[5] = 5;
    for _ in 0..4 {
        wal.log_update(PageId(8), &old, &new).unwrap();
        wal.commit().unwrap();
    }
    wal.checkpoint(0).unwrap();
    assert!(wal.stats().segments_created >= 2, "need at least one rollover");
    drop(wal);

    // Torch the page holding the *newest* anchor, as a torn anchor
    // rewrite would: recovery must fall back to the older twin.
    let best = segments::read_best_anchor(&*disk).unwrap();
    disk.write_page(PageId(best.seq & 1), &[0xAA; 128]).unwrap();

    let wal2 = Wal::attach(Box::new(Arc::clone(&disk))).unwrap();
    let log = wal2.take_recovered().unwrap();
    assert_eq!(log.committed, 8, "the fallback anchor still maps every segment");
    // The survivor is fully operational: new appends commit and
    // survive yet another attach.
    wal2.log_update(PageId(8), &new, &old).unwrap();
    let end = wal2.commit().unwrap();
    drop(wal2);
    let wal3 = Wal::attach(Box::new(Arc::clone(&disk))).unwrap();
    assert_eq!(wal3.end_lsn(), end);
    assert_eq!(wal3.take_recovered().unwrap().committed, 10);
}

#[test]
fn full_segment_map_reports_a_clean_error() {
    // ps = 128 caps the anchor at (128 - 48) / 4 = 20 slots; with
    // 128-byte segments and no checkpoints the map must fill up.
    let config = WalConfig { segment_pages: 2, flush_policy: FlushPolicy::Off };
    let (_d, wal) = fresh_wal_with(128, config);
    let old = dense(128);
    let mut new = old.clone();
    new[2] = 2;
    let mut hit = None;
    for _ in 0..200 {
        if let Err(e) = wal.log_update(PageId(3), &old, &new).and_then(|_| wal.commit()) {
            hit = Some(e);
            break;
        }
    }
    match hit {
        Some(Error::InvalidArgument(msg)) => {
            assert!(msg.contains("segment map full"), "unexpected message: {msg}")
        }
        other => panic!("expected a segment-map-full error, got {other:?}"),
    }
}

#[test]
fn background_flusher_drains_ahead_of_commit() {
    let config = WalConfig {
        segment_pages: 4,
        flush_policy: FlushPolicy::Background { watermark_bytes: 64 },
    };
    let disk = Arc::new(MemDisk::new(128));
    let wal = Arc::new(Wal::attach_with(Box::new(Arc::clone(&disk)), config).unwrap());
    let runner = {
        let wal = Arc::clone(&wal);
        std::thread::spawn(move || wal.flusher_run())
    };
    let old = dense(128);
    let mut new = old.clone();
    new[6] = 6;
    for _ in 0..4 {
        wal.log_update(PageId(6), &old, &new).unwrap();
    }
    // Each append crossed the 64-byte watermark, so the flusher was
    // woken; wait for it to drain at least once.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while wal.stats().flusher_writes == 0 {
        assert!(std::time::Instant::now() < deadline, "flusher never drained the buffer");
        std::thread::yield_now();
    }
    assert!(wal.stats().flusher_bytes > 0);
    // Commit still waits for its own durability (the flusher never
    // syncs), and the sync ledger stays exact.
    let end = wal.commit().unwrap();
    assert_eq!(wal.durable_lsn(), end, "commit returns only once durable");
    let s = wal.stats();
    assert_eq!(s.syncs, s.commit_syncs + s.forced_syncs + s.checkpoint_syncs);
    wal.flusher_stop();
    runner.join().unwrap();
    drop(wal);
    let wal2 = Wal::attach(Box::new(Arc::clone(&disk))).unwrap();
    let log = wal2.take_recovered().unwrap();
    assert_eq!(log.committed, 5, "FirstMod + three Deltas + Commit all recovered");
}

#[test]
fn double_rollover_in_one_flush_pre_syncs_the_anchor() {
    // seg_pages = 2 at ps = 128: a single 211-byte commit flush spans
    // segments 0 and 1, so two anchor rewrites happen inside one
    // flush.  The second lands on the page of the only durable anchor
    // (parities alternate) and must be preceded by a guard sync —
    // otherwise a torn write there, with the first rollover's anchor
    // never destaged, would leave no usable anchor at all.
    let config = WalConfig { segment_pages: 2, flush_policy: FlushPolicy::Off };
    let (disk, wal) = fresh_wal_with(128, config);
    let old = dense(128);
    let mut new = old.clone();
    new[9] = 9;
    wal.log_update(PageId(9), &old, &new).unwrap();
    let end = wal.commit().unwrap();
    let s = wal.stats();
    assert_eq!(s.segments_created, 2, "the flush must straddle one rollover: {s:?}");
    assert_eq!(
        (s.commit_syncs, s.forced_syncs, s.syncs),
        (1, 1, 2),
        "the second rollover's anchor guard must sync once, attributed as forced: {s:?}"
    );
    assert_eq!(s.syncs, s.commit_syncs + s.forced_syncs + s.checkpoint_syncs);
    assert_eq!(wal.durable_lsn(), end);
    drop(wal);
    let scan = scan_fresh(&*disk);
    assert_eq!(scan.committed, 2, "FirstMod + Commit recovered across the rollovers");
}

#[test]
fn kill_at_every_write_with_tiny_segments_keeps_every_durable_commit() {
    use crate::disk::MemDisk;
    use crate::faulty::{CrashPlan, FaultClock, FaultPlan, FaultyDisk};
    // seg_pages = 2 at ps = 128: every commit's flush crosses one or
    // more rollovers, so anchor rewrites outnumber syncs — the
    // geometry where an unsynced rollover anchor write can land on
    // the page holding the only durable anchor.  Kill the machine at
    // every global write index, torn and clean, across persistence
    // seeds: whatever survives, a reattach must find an intact
    // anchor mapping every commit that returned before the cut.
    const COMMITS: usize = 6;
    let config = WalConfig { segment_pages: 2, flush_policy: FlushPolicy::Off };
    let old = dense(128);
    for torn in [0usize, 1] {
        for seed in [1u64, 7, 23, 41] {
            let mut crash_at = 0u64;
            loop {
                let mem = Arc::new(MemDisk::new(128));
                let clock = FaultClock::new();
                let faulty = Arc::new(FaultyDisk::with_clock(
                    Arc::clone(&mem),
                    FaultPlan::default(),
                    Arc::clone(&clock),
                ));
                let wal = Wal::attach_with(Box::new(Arc::clone(&faulty)), config).unwrap();
                // The clock counts from device creation, so index the
                // sweep past the writes the attach already consumed.
                let base = faulty.writes_attempted();
                clock.arm_crash(CrashPlan {
                    crash_at_write: Some(base + crash_at),
                    torn_sectors: torn,
                    sector_bytes: 32,
                    persist_seed: seed,
                    ..CrashPlan::default()
                });
                let mut survived = 0usize;
                for i in 0..COMMITS {
                    let mut img = old.clone();
                    img[i] = i as u8 + 1;
                    let res =
                        wal.log_update(PageId(i as u64), &old, &img).and_then(|_| wal.commit());
                    match res {
                        Ok(_) => survived = i + 1,
                        Err(_) => break,
                    }
                }
                let done = !clock.crashed();
                drop(wal);
                faulty.settle_crash();
                if done {
                    break; // crash index past the whole workload: sweep over
                }
                let ctx = format!("crash at write {crash_at} (torn {torn}, seed {seed})");
                let wal2 = Wal::attach(Box::new(Arc::clone(&mem)))
                    .unwrap_or_else(|e| panic!("{ctx}: reattach failed: {e:?}"));
                let committed = wal2.take_recovered().map_or(0, |log| log.committed);
                assert!(
                    committed >= 2 * survived,
                    "{ctx}: {survived} commits returned but only {committed} committed \
                     records recovered — a durable anchor was destroyed"
                );
                assert_eq!(committed % 2, 0, "{ctx}: half a transaction recovered");
                crash_at += 1;
            }
        }
    }
}

#[test]
fn checkpoint_relieves_a_full_segment_map() {
    // ps = 128 caps the anchor map at 20 slots; distinct pages keep
    // every FirstMod run short, so nothing pins the horizon.  Fill
    // the map until an append wedges on "segment map full" with the
    // failed commit's bytes stuck in the pending backlog — then a
    // checkpoint must retire the flushed segments *before* its own
    // record flush, drain the backlog into the freed slots, and
    // leave the log fully operational.
    let config = WalConfig { segment_pages: 2, flush_policy: FlushPolicy::Off };
    let (disk, wal) = fresh_wal_with(128, config);
    let old = dense(128);
    let mut wedged = false;
    for i in 0..200u64 {
        let mut img = old.clone();
        img[(i % 128) as usize] = 1;
        if wal.log_update(PageId(i), &old, &img).and_then(|_| wal.commit()).is_err() {
            wedged = true;
            break;
        }
    }
    assert!(wedged, "the tiny anchor map must fill up");
    // Pre-fix, this checkpoint died on the very map-full error it was
    // advised to fix: its record flush ran before any retirement.
    wal.checkpoint(wal.end_lsn()).expect("checkpoint must relieve the full map");
    let s = wal.stats();
    assert!(s.segments_retired > 0, "relief must retire segments: {s:?}");
    // The log is unwedged: fresh commits append and survive attach.
    for i in 0..4u64 {
        let mut img = old.clone();
        img[1] = i as u8 + 1;
        wal.log_update(PageId(1000 + i), &old, &img).unwrap();
        wal.commit().unwrap();
    }
    let s = wal.stats();
    assert_eq!(s.syncs, s.commit_syncs + s.forced_syncs + s.checkpoint_syncs);
    drop(wal);
    let scan = scan_fresh(&*disk);
    assert_eq!(scan.committed, 8, "the four post-relief commits all recovered");
}

#[test]
fn a_drained_backlog_does_not_keep_its_allocation() {
    let (_d, wal) = fresh_wal(1024);
    let (old, new) = (vec![0u8; 1024], vec![0xFFu8; 1024]);
    // One transaction buffers a backlog several times the spare bound…
    for page in 0..600 {
        wal.log_update(PageId(page), &old, &new).unwrap();
    }
    assert!(wal.buffer_capacities().0 > 4 * SPARE_MAX_BYTES);
    // …and the flush that writes it out lets the allocation go.
    wal.commit().unwrap();
    assert_eq!(wal.buffer_capacities(), (0, 0));
    // Ordinary transactions then alternate between two small buffers.
    for page in 0..4 {
        wal.log_update(PageId(page), &new, &old).unwrap();
        wal.commit().unwrap();
        let (pending, spare) = wal.buffer_capacities();
        assert!(pending <= SPARE_MAX_BYTES && spare <= SPARE_MAX_BYTES);
    }
    let (pending, spare) = wal.buffer_capacities();
    assert!(pending > 0 && spare > 0, "small buffers are kept for reuse: {pending}, {spare}");
}

/// Appends one single-byte FirstMod per page of `pages`.
fn append_first_mods(wal: &Wal, pages: std::ops::Range<u64>) -> u64 {
    let old = dense(128);
    let mut new = old.clone();
    new[40] = 4;
    pages.map(|p| wal.log_update(PageId(p), &old, &new).unwrap()).last().unwrap()
}

#[test]
fn failed_flush_puts_the_backlog_back_in_front_of_racing_appends() {
    // The same three appends on a device that never fails: its unflushed
    // backlog is the byte string the failing log must end up holding, its
    // device after the commit the image the retry must produce.
    let (twin_disk, twin) = fresh_wal(128);
    append_first_mods(&twin, 1..4);
    let expected = twin.append.lock().pending.clone();
    twin.commit().unwrap();

    // Write indices from the flush's start: 0 the segment header, 1 the
    // rollover's anchor, 2.. the three payload pages of the backlog.
    for fail_at_write in [Some(3), None] {
        let mem = Arc::new(MemDisk::new(128));
        let faulty = Arc::new(FaultyDisk::new(Arc::clone(&mem), FaultPlan::default()));
        let wal = Arc::new(Wal::attach(Box::new(Arc::clone(&faulty))).unwrap());
        let target = append_first_mods(&wal, 1..3);
        // The third append races the flush: it arrives while the first
        // device write is under way, after the backlog was taken.
        let racer = Arc::downgrade(&wal);
        let raced = std::sync::atomic::AtomicBool::new(false);
        faulty.set_write_hook(Some(Arc::new(move |_, _| {
            if !raced.swap(true, Ordering::SeqCst) {
                append_first_mods(&racer.upgrade().unwrap(), 3..4);
            }
        })));
        faulty.set_plan(FaultPlan {
            fail_write_at: fail_at_write.map(|n| faulty.writes_attempted() + n),
            // Otherwise the sync fails, after every page write landed.
            fail_sync_at: fail_at_write.is_none().then(|| faulty.syncs_attempted()),
            ..FaultPlan::default()
        });
        let ctx = format!("failing write {fail_at_write:?}");
        assert!(wal.make_durable(target).is_err(), "{ctx}: the injected fault must surface");
        assert_eq!(wal.append.lock().pending, expected, "{ctx}: backlog order");
        {
            let fs = wal.flush.lock();
            assert_eq!((fs.flushed_lsn, fs.partial.len()), (0, 0), "{ctx}: nothing is published");
            assert!(fs.spare.is_empty(), "{ctx}: the spare is handed back empty");
        }
        assert_eq!(wal.durable_lsn(), 0, "{ctx}");
        // The retry rewrites the identical bytes in the original order.
        faulty.set_plan(FaultPlan::default());
        assert_eq!(wal.commit().unwrap(), twin.end_lsn(), "{ctx}");
        assert_eq!(mem.num_pages(), twin_disk.num_pages(), "{ctx}");
        let (mut got, mut want) = (vec![0u8; 128], vec![0u8; 128]);
        for p in (0..mem.num_pages()).map(PageId) {
            mem.read_page(p, &mut got).unwrap();
            twin_disk.read_page(p, &mut want).unwrap();
            assert_eq!(got, want, "{ctx}: device page {p:?} differs from the unfailed twin's");
        }
        let pages: Vec<_> = records(&*mem)
            .iter()
            .filter_map(|r| match r {
                Rec::FirstMod { page, .. } => Some(*page),
                _ => None,
            })
            .collect();
        assert_eq!(pages, [1, 2, 3], "{ctx}: recovered record order");
    }
}

#[test]
fn differences_past_the_run_table_fold_into_the_last_run() {
    // Ten single-byte differences 20 bytes apart: too far to merge, two
    // more than the table holds.
    let (disk, wal) = fresh_wal(256);
    let old = vec![0u8; 256];
    let mut new = old.clone();
    for i in 0..10 {
        new[5 + 20 * i] = i as u8 + 1;
    }
    // Page 1 gets there by a FirstMod, page 2 by a Delta.
    let mut mid = old.clone();
    mid[255] = 9;
    let mut new2 = new.clone();
    new2[255] = 9;
    wal.log_update(PageId(1), &old, &new).unwrap();
    wal.log_update(PageId(2), &old, &mid).unwrap();
    wal.log_update(PageId(2), &mid, &new2).unwrap();
    wal.commit().unwrap();
    drop(wal);
    let mut want: Vec<(u32, u32)> = (0..7).map(|i| (5 + 20 * i, 1)).collect();
    want.push((145, 41)); // differences eight to ten: 145, 165, 185
    let recs = records(&*disk);
    for rec in [&recs[0], &recs[2]] {
        let (Rec::FirstMod { runs, delta, .. } | Rec::Delta { runs, delta, .. }) = rec else {
            panic!("expected an update record, got {rec:?}");
        };
        assert_eq!(runs, &want);
        assert_eq!(delta[..7], [1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(delta[7..], new[145..186], "the last run carries the equal bytes it spans");
    }
    // The same images through redo.
    let wal = Wal::attach(Box::new(Arc::clone(&disk))).unwrap();
    let (images, _) = wal.take_redo().unwrap().unwrap();
    assert_eq!((&images[&1], &images[&2]), (&new, &new2));
}

/// `(old, new)` images of one page: a 100-byte page (whose last four
/// bytes lie past the final whole word), or a 128- or 256-byte one, with
/// no, sparse, dense or last-bytes-only edits.
fn page_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    // `count` edits of `(offset, length, byte)`.
    let some = |count: std::ops::Range<usize>, len: std::ops::Range<usize>| {
        prop::collection::vec((0usize..256, len, any::<u8>()), count)
    };
    let edits = prop_oneof![
        some(0..1, 1..2),
        some(1..5, 1..40),
        some(20..60, 1..4),
        some(1..4, 1..2)
            .prop_map(|es| es.into_iter().map(|(o, l, b)| (255 - o % 4, l, b)).collect()),
    ];
    (0usize..3, prop::collection::vec(any::<u8>(), 256..257), edits).prop_map(
        |(size, mut old, edits): (usize, Vec<u8>, Vec<(usize, usize, u8)>)| {
            let ps = [100, 128, 256][size];
            old.truncate(ps);
            let mut new = old.clone();
            for (off, len, byte) in edits {
                // Counted from the page's end, so "the last bytes" are
                // the last bytes at every page size.
                let end = ps - (255 - off) % ps;
                new[end.saturating_sub(len)..end].fill(byte);
            }
            (old, new)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn diff_runs_are_exact_and_redo_reproduces_the_new_image((old, new) in page_pair()) {
        let runs = diff(&old, &new);
        let runs = runs.as_slice();
        prop_assert!(runs.len() <= MAX_RUNS);
        prop_assert_eq!(runs.is_empty(), old == new);
        let (mut end, mut patched) = (0, old.clone());
        for &(off, len) in runs {
            let (off, len) = (off as usize, len as usize);
            prop_assert!(len > 0 && off >= end, "ascending, disjoint, non-empty: {runs:?}");
            prop_assert_eq!(&old[end..off], &new[end..off], "bytes between runs are equal");
            prop_assert!(old[off] != new[off] && old[off + len - 1] != new[off + len - 1]);
            patched[off..off + len].copy_from_slice(&new[off..off + len]);
            end = off + len;
        }
        prop_assert_eq!(&old[end..], &new[end..], "bytes past the last run are equal");
        prop_assert_eq!(&patched, &new);

        // Encode → device → scan → decode → redo: page 1 reaches `new`
        // through a FirstMod, page 2 through a Delta.
        let (disk, wal) = fresh_wal(old.len());
        let lsn = wal.log_update(PageId(1), &old, &new).unwrap();
        prop_assert_eq!(lsn == 0, old == new);
        let filler = vec![old[0].wrapping_add(1); old.len()];
        wal.log_update(PageId(2), &filler, &old).unwrap();
        wal.log_update(PageId(2), &old, &new).unwrap();
        wal.commit().unwrap();
        drop(wal);
        let wal = Wal::attach(Box::new(Arc::clone(&disk))).unwrap();
        let (images, report) = wal.take_redo().unwrap().unwrap();
        prop_assert_eq!(report.commits, 1);
        prop_assert_eq!(images.get(&1), (old != new).then_some(&new));
        prop_assert_eq!(&images[&2], &new);
    }
}

/// A page image with no zero byte, one zero run, several, or only zeros,
/// at a size that is a whole number of words or not.
fn holed_image() -> impl Strategy<Value = Vec<u8>> {
    let zeros = prop_oneof![
        (0usize..1).prop_map(|_| vec![]),
        prop::collection::vec((0usize..256, 1usize..200), 1..2),
        prop::collection::vec((0usize..256, 1usize..40), 2..12),
        (0usize..1).prop_map(|_| vec![(0, 256)]),
    ];
    (0usize..3, prop::collection::vec(1u8..255, 256..257), zeros).prop_map(
        |(size, mut img, zeros)| {
            img.truncate([100, 128, 256][size]);
            let ps = img.len();
            for (off, len) in zeros {
                let off = off % ps;
                img[off..(off + len).min(ps)].fill(0);
            }
            img
        },
    )
}

/// The longest run of zero bytes in `img`.
fn longest_zero_run(img: &[u8]) -> usize {
    img.split(|&b| b != 0).map(<[u8]>::len).max().unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn first_mod_pre_images_round_trip_around_their_hole(
        old in holed_image(),
        at in 0usize..256,
        byte in 1u8..255,
    ) {
        // Page 1's FirstMod is committed (redo rebuilds `new` from the
        // pre-image), page 2's is not (rollback restores the pre-image).
        let ps = old.len();
        let mut new = old.clone();
        new[at % ps] = new[at % ps].wrapping_add(byte);
        let (disk, wal) = fresh_wal(ps);
        let first = wal.log_update(PageId(1), &old, &new).unwrap();
        wal.commit().unwrap();
        wal.log_update(PageId(2), &old, &new).unwrap();
        wal.make_durable(wal.end_lsn()).unwrap();
        drop(wal);
        let recs = records(&*disk);
        prop_assert!(matches!(&recs[0], Rec::FirstMod { before, .. } if before == &old));
        prop_assert!(matches!(&recs[2], Rec::FirstMod { before, .. } if before == &old));
        // The hole is the longest zero run, unless that run holds no
        // aligned word and so is at most 14 bytes long.
        let kept = first - ONE_RUN_FIRST_MOD_HEAD - 1;
        let longest = longest_zero_run(&old) as u64;
        let hole = ps as u64 - kept;
        prop_assert!(hole == longest || (hole < longest && longest <= 14),
            "hole {hole}, longest zero run {longest}");
        let wal = Wal::attach(Box::new(Arc::clone(&disk))).unwrap();
        let (images, report) = wal.take_redo().unwrap().unwrap();
        prop_assert_eq!((report.pages_redone, report.pages_rolled_back), (1, 1));
        prop_assert_eq!(&images[&1], &new);
        prop_assert_eq!(&images[&2], &old);
    }
}

/// One record of a forged log: the API never writes orphaned Deltas or
/// regressing commit sequences, so the fold's equivalence to the
/// two-pass redo is checked over records encoded directly.
#[derive(Debug, Clone)]
enum Forged {
    /// A one-run update of `page` writing `byte` over `off .. off + len`;
    /// a FirstMod's pre-image is filled with `byte + 1`.
    Update { first: bool, page: u64, off: u32, len: u32, byte: u8 },
    /// A Commit whose sequence number is the last one plus `step` (0
    /// repeats it: a regression).
    Commit { step: u64 },
    /// A checksum-valid record of kind 4, a v4 log's Checkpoint record
    /// with an empty list: the valid chain ends before it.
    Retired,
}

/// The kind byte of the Checkpoint record log format v5 retired.
const RETIRED_CHECKPOINT_KIND: u8 = 4;

fn forged() -> impl Strategy<Value = Forged> {
    let update = |first| {
        (0u64..5, 0u32..120, 1u32..9, any::<u8>())
            .prop_map(move |(page, off, len, byte)| Forged::Update { first, page, off, len, byte })
    };
    prop_oneof![
        3 => update(true),
        5 => update(false),
        3 => (0u64..12).prop_map(|step| Forged::Commit { step }),
        1 => (0u8..1).prop_map(|_| Forged::Retired),
    ]
}

/// Writes `log` to a fresh 128-byte-page log device, durably.
fn write_forged(log: &[Forged]) -> Arc<MemDisk> {
    let (disk, wal) = fresh_wal(128);
    let mut seq = 0;
    for rec in log {
        forge(&wal, |out, lsn| match *rec {
            Forged::Update { first, page, off, len, byte } => {
                let mut runs = Runs::default();
                runs.push(off, len);
                let (before, new) = ([byte.wrapping_add(1); 128], [byte; 128]);
                let before = first.then_some(&before[..]);
                format::encode_update(out, lsn, PageId(page), before, &runs, &new)
            }
            Forged::Commit { step } => {
                seq += step;
                format::encode_commit(out, lsn, seq)
            }
            Forged::Retired => {
                // horizon u64 = 0 | n u32 = 0
                format::encode_record(out, lsn, RETIRED_CHECKPOINT_KIND, &[&[0; 12]])
            }
        });
    }
    wal.make_durable(wal.end_lsn()).unwrap();
    disk
}

/// Appends the record `encode` frames at the stream end to `wal`'s
/// backlog, bypassing the API's bookkeeping.
fn forge(wal: &Wal, encode: impl FnOnce(&mut Vec<u8>, u64) -> u64) {
    let mut guard = wal.append.lock();
    let ap = &mut *guard;
    ap.end_lsn = encode(&mut ap.pending, ap.end_lsn);
}

#[test]
fn a_log_at_the_largest_sequence_numbers_refuses_the_next_ones() {
    // A Commit that passes its checksum but carries u64::MAX as its
    // sequence number: the attach reseeds the commit sequence from it, so
    // the next one cannot exist.
    let (disk, wal) = fresh_wal(128);
    forge(&wal, |out, lsn| format::encode_commit(out, lsn, u64::MAX));
    wal.make_durable(wal.end_lsn()).unwrap();
    drop(wal);
    let wal = Wal::attach(Box::new(Arc::clone(&disk))).unwrap();
    assert_eq!(wal.take_redo().unwrap().unwrap().1.commits, 1, "the log itself recovers");
    let (old, new) = (vec![0u8; 128], vec![1u8; 128]);
    let end = wal.log_update(PageId(1), &old, &new).unwrap();
    assert!(matches!(wal.commit(), Err(Error::Corrupt(m)) if m.contains("commit sequence")));
    assert_eq!(wal.end_lsn(), end, "the refused commit appended no record");
}

type Redone = (std::collections::BTreeMap<u64, Vec<u8>>, RecoveryReport);

/// The redo the one-pass fold replaced: the records up to the last Commit
/// replayed in order, then each page first modified in the uncommitted
/// tail given its pre-image unless a committed record wrote it.
fn two_pass_redo(recs: &[Rec]) -> std::result::Result<Redone, String> {
    let apply = |img: &mut Vec<u8>, runs: &[(u32, u32)], delta: &[u8]| {
        let mut rest = delta;
        for &(off, len) in runs {
            let (bytes, tail) = rest.split_at(len as usize);
            img[off as usize..][..bytes.len()].copy_from_slice(bytes);
            rest = tail;
        }
    };
    let committed = recs.iter().rposition(|r| matches!(r, Rec::Commit { .. })).map_or(0, |i| i + 1);
    let (done, tail) = recs.split_at(committed);
    let mut images = std::collections::BTreeMap::new();
    let (mut commits, mut last_seq) = (0, 0);
    for rec in done {
        match rec {
            Rec::FirstMod { page, before, runs, delta, .. } => {
                let mut img = before.clone();
                apply(&mut img, runs, delta);
                images.insert(*page, img);
            }
            Rec::Delta { page, runs, delta, .. } => {
                let img = images
                    .get_mut(page)
                    .ok_or(format!("WAL delta for page {page} without a prior first-mod"))?;
                apply(img, runs, delta);
            }
            Rec::Commit { seq } => {
                if *seq <= last_seq {
                    return Err(format!("WAL commit sequence regressed: {seq} after {last_seq}"));
                }
                (commits, last_seq) = (commits + 1, *seq);
            }
        }
    }
    let pages_redone = images.len();
    for rec in tail {
        if let Rec::FirstMod { page, before, .. } = rec {
            images.entry(*page).or_insert_with(|| before.clone());
        }
    }
    let report = RecoveryReport {
        records_scanned: recs.len(),
        committed_records: committed,
        tail_records: tail.len(),
        commits,
        pages_redone,
        pages_rolled_back: images.len() - pages_redone,
    };
    Ok((images, report))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn one_pass_fold_matches_the_two_pass_redo(log in prop::collection::vec(forged(), 0..40)) {
        let disk = write_forged(&log);
        let recs = records(&*disk);
        let retired = log.iter().position(|rec| matches!(rec, Forged::Retired));
        prop_assert_eq!(recs.len(), retired.unwrap_or(log.len()), "kind 4 ends the chain");
        let want = two_pass_redo(&recs);
        let wal = Wal::attach(Box::new(Arc::clone(&disk))).unwrap();
        let got = match wal.take_redo() {
            Ok(redone) => Ok(redone.unwrap_or_else(|| {
                (Default::default(), two_pass_redo(&[]).unwrap().1)
            })),
            Err(Error::Corrupt(msg)) => Err(msg),
            Err(other) => panic!("redo failed with {other:?}"),
        };
        prop_assert_eq!(got, want);
    }
}

//! Page-oriented write-ahead log with group commit and redo recovery.
//!
//! The WAL lives on its **own block device** beside the data device, so
//! the data file keeps the exact layout the paper experiments were
//! calibrated against (header at page 0, etc.).  This file states the
//! contract; each mechanism is documented beside the code that owns it:
//!
//! | module | owns |
//! |---|---|
//! | `format` | every byte offset: record framing and checksums, the three record kinds, anchor and segment-header pages |
//! | `diff` | which bytes of a page an update changed: the byte runs an update record carries |
//! | `segments` | where the stream lives on the device: the segment map, rollover, slot recycling, the anchor-write guard, the stream reader |
//! | `flush` | append buffer → device: the one flush routine, the I/O-leader protocol behind group commit, the background flusher's thread body |
//! | `checkpoint` | the truncation horizon and the one routine that advances the scan start and retires segments |
//! | `recover` | the attach-time scan, one pass that folds each record into page images as it is read and rolls the uncommitted tail back at the end |
//!
//! # LSNs and commit boundaries
//!
//! An LSN is a logical byte offset into the append-only record stream;
//! a record's end LSN is the LSN stamp of the page it describes.  The
//! unit of commit is the log prefix: a Commit record commits every update
//! appended before it, whichever thread appended it (see the caveat at
//! the end).  Records name no transaction; the log only tracks where the
//! updates appended since the last Commit begin, because a checkpoint
//! must not truncate the pre-images their rollback needs.
//!
//! # The WAL-before-data invariant
//!
//! The buffer pool stamps each frame with the end-LSN of its latest log
//! record and calls [`Wal::make_durable`] before any device write-back
//! ([`crate::buffer::BufferPool`] does this at its three write-back
//! sites).  Hence no page image whose update is not yet in the durable
//! log can reach the data device — redo can always reconstruct.
//!
//! # Durability and the two accounting identities
//!
//! [`Wal::commit`] returns once the whole stream up to its Commit record
//! is durable, whether this thread led the device sync or another
//! thread's sync covered it.  [`WalSnapshot`] exposes the exact
//! accounting: `commits == commit_syncs + group_commits`, and
//! `syncs == commit_syncs + forced_syncs + checkpoint_syncs`.  Both hold
//! with the background flusher ([`FlushPolicy::Background`]) racing
//! group commit, because the flusher writes pages but never syncs.
//!
//! # The fuzzy-checkpoint contract
//!
//! [`Wal::checkpoint`] does **not** require quiescent writers.  Given a
//! fence sampled before the caller's write-back pass, it truncates the
//! log to a horizon below which every record is committed *and* on the
//! data device, while the rollback pre-images of every update appended
//! since the last Commit survive.  A crash at any instant of a checkpoint
//! recovers either the pre- or the post-checkpoint log, both consistent.
//!
//! # Recovery
//!
//! Attaching adopts the newer valid anchor and scans the stream from its
//! `start` to the first torn or stale record, folding each record into
//! page images as it reads it: memory follows the pages the log touches,
//! not its length.  [`crate::buffer::BufferPool::recover`] then puts the
//! committed prefix of history on the data device: committed records
//! redone, pages first modified in the uncommitted tail restored to their
//! pre-images.
//!
//! Commit atomicity is defined at commit boundaries of a serialized
//! history: concurrent writers get durability (no committed record is
//! lost, and no update appended after the last Commit survives a crash —
//! even one flushed to the data device inside a checkpoint window) but
//! not crash-atomicity of *interleaved* work: a Commit record commits
//! everything appended so far, including another thread's updates whose
//! own commit has not come yet.  The unit test
//! `a_commit_commits_other_threads_updates` pins that boundary; one writer
//! at a time is what would close it.

mod checkpoint;
mod diff;
mod flush;
mod format;
mod recover;
mod segments;
#[cfg(test)]
mod tests;

use crate::{DiskManager, Error, PageId, Result};
use flush::{FlusherCtl, IoState};
use parking_lot::Mutex;
use recover::Recovered;
use segments::{FlushState, SegMap};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Condvar;

/// When (if ever) buffered log bytes are written to the device ahead of
/// the commit path's own flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlushPolicy {
    /// No background writer: bytes reach the device only when a commit,
    /// write-back barrier, or checkpoint flushes them.
    #[default]
    Off,
    /// A background flusher thread drains the append buffer (without
    /// syncing) whenever it holds at least `watermark_bytes`.
    Background {
        /// Buffered-byte threshold that wakes the flusher.
        watermark_bytes: usize,
    },
}

/// Log storage configuration, fixed when the log is attached (see
/// [`crate::buffer::BufferPool::new_durable_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Device pages per log segment, including the segment header page.
    /// Applies when initializing an empty device; an existing log's
    /// segment size is read back from its anchor.
    pub segment_pages: u32,
    /// Background flusher policy (default: [`FlushPolicy::Off`]).
    pub flush_policy: FlushPolicy,
}

impl Default for WalConfig {
    fn default() -> Self {
        // Header page + 255 payload pages.
        WalConfig { segment_pages: 256, flush_policy: FlushPolicy::Off }
    }
}

/// What redo recovery did, as reported by `BufferPool::recover`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Valid records found in the log tail.
    pub records_scanned: usize,
    /// Records replayed (up to and including the last Commit).
    pub committed_records: usize,
    /// Records past the last Commit (rolled back).
    pub tail_records: usize,
    /// Commit boundaries replayed.
    pub commits: u64,
    /// Pages rebuilt from committed log records.
    pub pages_redone: usize,
    /// Pages restored to their pre-images (first modified in the tail).
    pub pages_rolled_back: usize,
}

/// Monotonic WAL counters (atomics, like [`crate::stats::IoStats`]).
#[derive(Default)]
struct WalStats {
    records: AtomicU64,
    record_bytes: AtomicU64,
    commits: AtomicU64,
    commit_syncs: AtomicU64,
    group_commits: AtomicU64,
    forced_syncs: AtomicU64,
    checkpoint_syncs: AtomicU64,
    syncs: AtomicU64,
    checkpoints: AtomicU64,
    log_page_writes: AtomicU64,
    flusher_writes: AtomicU64,
    flusher_bytes: AtomicU64,
    segments_created: AtomicU64,
    segments_retired: AtomicU64,
}

/// Point-in-time copy of the WAL counters.
///
/// Invariants (single snapshot, quiescent log):
/// `commits == commit_syncs + group_commits` (every successful commit
/// either led one fsync or was covered by someone else's), and
/// `syncs == commit_syncs + forced_syncs + checkpoint_syncs` (every log
/// device sync is led by exactly one commit, one forced barrier, or one
/// checkpoint — checkpoints issue two each, the log flush and the
/// anchor rewrite, plus a third when relieving a full segment map).  The
/// background flusher writes pages without syncing — except for the
/// anchor-guard sync a back-to-back rollover forces, counted under
/// `forced_syncs` — so both identities hold exactly with it racing group
/// commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalSnapshot {
    /// Page-update records appended (FirstMod + Delta, not Commits).
    pub records: u64,
    /// Total encoded bytes appended to the stream (all record kinds).
    pub record_bytes: u64,
    /// Commit records appended whose durability was then awaited.
    pub commits: u64,
    /// Commits that led a group: they performed the device sync.
    pub commit_syncs: u64,
    /// Commits served by another thread's sync — the group-commit win.
    pub group_commits: u64,
    /// Syncs forced by a durability barrier that is not a commit: the
    /// WAL-before-data barrier (page write-backs) and the anchor guard a
    /// rollover issues when the previous anchor write is still unsynced.
    pub forced_syncs: u64,
    /// Syncs issued by checkpoints (two per checkpoint: log flush +
    /// anchor rewrite, plus one more when a full segment map forces an
    /// early retirement pass), including recovery's own checkpoint.
    pub checkpoint_syncs: u64,
    /// Device syncs issued on the log device, all causes.
    pub syncs: u64,
    /// Checkpoint truncations performed.
    pub checkpoints: u64,
    /// Physical payload-page writes issued on the log device (segment
    /// headers and anchor rewrites are not counted here).
    pub log_page_writes: u64,
    /// Background-flusher drain passes that wrote at least one page.
    pub flusher_writes: u64,
    /// Stream bytes written to the device by the background flusher.
    pub flusher_bytes: u64,
    /// Segments opened by rollover (including the very first one).
    pub segments_created: u64,
    /// Whole segments retired below `start_lsn` by checkpoints; their
    /// slots are recycled by later rollovers.
    pub segments_retired: u64,
}

/// Where appends go before they are flushed.
#[derive(Default)]
struct AppendState {
    /// Next LSN to assign == current logical end of the stream.
    end_lsn: u64,
    /// Encoded bytes no flush has taken yet: the stream's tail up to
    /// `end_lsn` (between flushes, everything from `flushed_lsn` on).
    pending: Vec<u8>,
    /// Pages FirstMod-logged since the current truncation horizon, with
    /// the LSNs of their first and latest records — the horizon fixpoint
    /// needs both ends of each page's record run.
    logged: HashMap<PageId, (u64, u64)>,
    /// Commit sequence number (monotone across the log's lifetime).
    commit_seq: u64,
    /// LSN of the first update appended since the last Commit, if any:
    /// no checkpoint truncates at or above it.
    uncommitted_from: Option<u64>,
}

/// Append-only page-redo log on a dedicated block device.  Created via
/// [`crate::buffer::BufferPool::new_durable`]; shared by reference through
/// [`crate::buffer::BufferPool::wal`].
pub struct Wal {
    disk: Box<dyn DiskManager>,
    page_size: usize,
    /// `Some(watermark_bytes)` under [`FlushPolicy::Background`].
    watermark: Option<usize>,
    append: Mutex<AppendState>,
    io: Mutex<IoState>,
    cv: Condvar,
    flush: Mutex<FlushState>,
    flusher: Mutex<FlusherCtl>,
    flusher_cv: Condvar,
    stats: WalStats,
    recovered: Mutex<Option<Recovered>>,
}

impl Wal {
    /// Opens (or initializes) the log on `disk`.  A non-empty device must
    /// carry a valid anchor; the record stream is scanned up to the first
    /// torn/stale record and the result parked for `BufferPool::recover`.
    /// Appends resume at the last commit boundary.
    pub(crate) fn attach_with(disk: Box<dyn DiskManager>, config: WalConfig) -> Result<Wal> {
        let page_size = disk.page_size();
        if format::anchor_capacity(page_size) < 1 {
            return Err(Error::InvalidArgument(format!(
                "WAL device page size {page_size} smaller than the anchor"
            )));
        }
        if config.segment_pages < 2 {
            return Err(Error::InvalidArgument(
                "WAL segment_pages must be at least 2 (header page + payload)".into(),
            ));
        }
        let anchor = if disk.num_pages() == 0 {
            disk.allocate_page()?;
            disk.allocate_page()?;
            let map = SegMap {
                seg_pages: u64::from(config.segment_pages),
                first_seg: 0,
                slots: VecDeque::new(),
            };
            disk.write_page(PageId(0), &format::encode_anchor(page_size, 0, 0, &map))?;
            disk.sync()?;
            format::Anchor { seq: 0, start: 0, map }
        } else {
            let mut anchor = segments::read_best_anchor(&*disk)?;
            if anchor.map.slots.is_empty() {
                // An empty map pins its origin to the scan start so the
                // next rollover maps exactly the segment being written.
                anchor.map.first_seg = anchor.start / anchor.map.payload_bytes(page_size);
            }
            anchor
        };
        let log = Recovered::read(&*disk, &anchor.map, anchor.start);
        let end = log.committed_end;
        let flush = FlushState::resume(&*disk, anchor, end)?;
        Ok(Wal {
            disk,
            page_size,
            watermark: match config.flush_policy {
                FlushPolicy::Off => None,
                FlushPolicy::Background { watermark_bytes } => Some(watermark_bytes.max(1)),
            },
            append: Mutex::new(AppendState {
                end_lsn: end,
                // Resume the commit sequence above anything the scan saw,
                // so retained generations never observe a regression.
                commit_seq: log.max_seq,
                ..AppendState::default()
            }),
            io: Mutex::new(IoState { durable_lsn: end, syncing: false }),
            cv: Condvar::new(),
            flush: Mutex::new(flush),
            flusher: Mutex::new(FlusherCtl::default()),
            flusher_cv: Condvar::new(),
            stats: WalStats::default(),
            recovered: Mutex::new((log.records > 0).then_some(log)),
        })
    }

    /// Current counters.
    pub fn stats(&self) -> WalSnapshot {
        let s = &self.stats;
        WalSnapshot {
            records: s.records.load(Ordering::Acquire),
            record_bytes: s.record_bytes.load(Ordering::Acquire),
            commits: s.commits.load(Ordering::Acquire),
            commit_syncs: s.commit_syncs.load(Ordering::Acquire),
            group_commits: s.group_commits.load(Ordering::Acquire),
            forced_syncs: s.forced_syncs.load(Ordering::Acquire),
            checkpoint_syncs: s.checkpoint_syncs.load(Ordering::Acquire),
            syncs: s.syncs.load(Ordering::Acquire),
            checkpoints: s.checkpoints.load(Ordering::Acquire),
            log_page_writes: s.log_page_writes.load(Ordering::Acquire),
            flusher_writes: s.flusher_writes.load(Ordering::Acquire),
            flusher_bytes: s.flusher_bytes.load(Ordering::Acquire),
            segments_created: s.segments_created.load(Ordering::Acquire),
            segments_retired: s.segments_retired.load(Ordering::Acquire),
        }
    }

    /// Logical end of the record stream (next LSN to be assigned).
    pub fn end_lsn(&self) -> u64 {
        self.append.lock().end_lsn
    }

    /// Everything at or below this LSN is durable on the log device.
    pub fn durable_lsn(&self) -> u64 {
        self.io.lock().durable_lsn
    }

    /// Whether `page` has a record at or above the truncation horizon:
    /// the buffer pool refuses an unlogged write of such a page.
    pub(crate) fn has_record(&self, page: PageId) -> bool {
        self.append.lock().logged.contains_key(&page)
    }

    /// Appends a redo record for an update of `page` from image `old` to
    /// image `new`: the byte runs in which the two differ (a few, each
    /// byte-exact — not the span from the first to the last difference),
    /// behind the pre-image if this is the page's first record since the
    /// truncation horizon (less its longest zero run, which recovery
    /// fills back in: a freshly allocated page logs no pre-image byte).
    /// Returns the record's end LSN — the page's new LSN stamp — or 0 if
    /// the images are identical (nothing to log).
    /// The record is buffered in memory; durability comes from
    /// [`Wal::commit`] or [`Wal::make_durable`].
    pub fn log_update(&self, page: PageId, old: &[u8], new: &[u8]) -> Result<u64> {
        if old.len() != new.len() || old.len() != self.page_size {
            return Err(Error::InvalidArgument(format!(
                "log_update image sizes {}/{} != page size {}",
                old.len(),
                new.len(),
                self.page_size
            )));
        }
        let runs = diff::diff(old, new);
        if runs.as_slice().is_empty() {
            return Ok(0);
        }

        let mut guard = self.append.lock();
        let ap = &mut *guard;
        let lsn = ap.end_lsn;
        ap.uncommitted_from.get_or_insert(lsn);
        let before = match ap.logged.entry(page) {
            Entry::Occupied(mut e) => {
                e.get_mut().1 = lsn;
                None
            }
            Entry::Vacant(e) => {
                e.insert((lsn, lsn));
                Some(old)
            }
        };
        let end = format::encode_update(&mut ap.pending, lsn, page, before, &runs, new);
        ap.end_lsn = end;
        let wake = self.watermark.is_some_and(|w| ap.pending.len() >= w);
        drop(guard);
        self.stats.records.fetch_add(1, Ordering::Release);
        self.stats.record_bytes.fetch_add(end - lsn, Ordering::Release);
        if wake {
            self.wake_flusher();
        }
        Ok(end)
    }

    /// Appends a Commit record and group-commits it: returns once the
    /// whole stream up to (and including) the record is durable.  Returns
    /// the commit's end LSN.
    pub fn commit(&self) -> Result<u64> {
        let target = {
            let mut ap = self.append.lock();
            let ap = &mut *ap;
            ap.commit_seq = next_commit_seq(ap.commit_seq)?;
            let lsn = ap.end_lsn;
            ap.end_lsn = format::encode_commit(&mut ap.pending, lsn, ap.commit_seq);
            // A Commit commits the whole log prefix (module docs).
            ap.uncommitted_from = None;
            self.stats.record_bytes.fetch_add(ap.end_lsn - lsn, Ordering::Release);
            ap.end_lsn
        };
        self.stats.commits.fetch_add(1, Ordering::Release);
        let led = self.lead_or_follow(target)?;
        let counter = if led { &self.stats.commit_syncs } else { &self.stats.group_commits };
        counter.fetch_add(1, Ordering::Release);
        Ok(target)
    }

    /// Forces the log durable up to `lsn` — the write-back barrier used by
    /// the buffer pool before any data-page device write.
    pub fn make_durable(&self, lsn: u64) -> Result<()> {
        if self.lead_or_follow(lsn)? {
            self.stats.forced_syncs.fetch_add(1, Ordering::Release);
        }
        Ok(())
    }
}

/// The commit sequence number after `last`.  The sequence resumes from
/// the largest value a scan read, so a Commit that passes its checksum but
/// carries `u64::MAX` exhausts it: that is `Corrupt`, not an overflow.
fn next_commit_seq(last: u64) -> Result<u64> {
    last.checked_add(1).ok_or_else(|| {
        Error::Corrupt(format!("WAL commit sequence exhausted: the log reached {last}"))
    })
}

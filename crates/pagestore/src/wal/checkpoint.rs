//! Fuzzy checkpoints: choosing the truncation horizon and advancing the
//! recovery scan start to it.
//!
//! The caller samples the *flush fence* — `end_lsn()` — *before* its
//! write-back pass, so every record below the fence describes an update
//! whose page has since reached the data device.  The checkpoint picks a
//! **horizon**: the older of the fence and the first update appended
//! since the last Commit (the stream end if there is none), lowered
//! further until no page's record run straddles it (a Delta above the
//! horizon must never orphan its FirstMod below it).  The checkpoint
//! appends no record: it flushes and syncs the log, then rewrites the
//! anchor with `start` advanced to the horizon.  Records below it are
//! thereby truncated logically — they are all committed and their pages
//! are on the data device — while the FirstMod pre-images of every
//! uncommitted update (all at or above the horizon) survive for rollback.
//! The FirstMod dedup is re-keyed to the horizon: pages whose records
//! were truncated log a fresh pre-image on their next update.
//!
//! Truncation reclaims the device by **retiring whole segments**: every
//! segment lying wholly below the new `start` leaves the front of the
//! anchor's map and its slot joins the free list that the next rollover
//! draws from — no quiescent instant required.

use super::{format, segments::FlushState, Wal};
use crate::{PageId, Result};
use std::collections::HashMap;
use std::sync::atomic::Ordering;

impl Wal {
    /// Fuzzy checkpoint: truncates the log down to a horizon that spares
    /// the rollback pre-images of every update not yet committed.
    /// `flushed_fence` is the caller's `end_lsn()` sample taken *before*
    /// it wrote back dirty data pages (normally `Database::checkpoint`):
    /// every record below the fence describes an update whose page has
    /// reached the data device, so such records are truncatable once no
    /// uncommitted update or straddling page run needs them.  Callers need **not** be
    /// quiescent — commits, updates, and this checkpoint interleave
    /// freely — and a steady checkpoint cadence bounds the log's size.
    pub fn checkpoint(&self, flushed_fence: u64) -> Result<()> {
        let leading = self.acquire_leader(u64::MAX);
        debug_assert!(leading, "no LSN reaches u64::MAX, so there is nothing to follow");
        let res = self.checkpoint_as_leader(flushed_fence);
        self.release_leader(res.as_ref().ok().copied());
        res.map(|_| ())
    }

    /// Returns the stream end the checkpoint made durable.
    fn checkpoint_as_leader(&self, flushed_fence: u64) -> Result<u64> {
        // Sampled outside the append lock (lock order: flush → append).  A
        // stale fence (from before a concurrent checkpoint advanced the
        // start) must never move the start backwards: floor it.  A stale
        // (lower) flushed position only makes the early pass below more
        // conservative.
        let (start_floor, flushed_floor) = {
            let fs = self.flush.lock();
            (fs.start_lsn, fs.flushed_lsn)
        };
        let eff_fence = flushed_fence.max(start_floor);
        // Under the append lock: pick the horizon and re-key the FirstMod
        // dedup.  `pre_horizon` is the same horizon additionally capped at
        // the flushed position and re-run through the straddle fixpoint —
        // the furthest the scan start may advance *before* the pending
        // backlog is flushed.  It must be computed here: the retain below
        // forgets the runs wholly under `h`, so the fixpoint cannot be
        // re-derived later.
        let (horizon, pre_horizon) = {
            let mut ap = self.append.lock();
            let oldest = ap.uncommitted_from.unwrap_or(ap.end_lsn);
            let h = straddle_floor(&ap.logged, eff_fence.min(oldest));
            debug_assert!(h >= start_floor, "truncation horizon may only move forward");
            let pre = straddle_floor(&ap.logged, h.min(flushed_floor));
            // The fixpoint guarantees `first >= h` keeps exactly the pages
            // with a surviving record.
            ap.logged.retain(|_, &mut (first, _)| first >= h);
            (h, pre)
        };
        // A full segment map plus a pending backlog needing a rollover
        // would wedge: the flush below fails with the same map-full error
        // the appenders see, and only truncation retires segments.  So
        // truncate to the pre-flush horizon *first* and let the flush
        // reuse the freed slots — but only when the flush would actually
        // hit the error, keeping the common checkpoint at exactly two
        // syncs.  (If nothing below `pre_horizon` is retirable — one giant
        // uncommitted run pins the whole map, say — the flush still
        // fails and the error propagates; truncation cannot spare records
        // a rollback may need.)
        {
            let mut fs = self.flush.lock();
            let full = fs.map.slots.len() >= format::anchor_capacity(self.page_size);
            let start = pre_horizon.max(fs.start_lsn);
            if full
                && self.append.lock().end_lsn > fs.map.mapped_end(self.page_size)
                && fs.map.retires_front(start, self.page_size)
            {
                self.advance_start(&mut fs, start)?;
            }
        }
        let (end, _) = self.flush(true)?;
        self.stats.checkpoint_syncs.fetch_add(1, Ordering::Release);
        let mut fs = self.flush.lock();
        // The background flusher may have drained newer appends by now; it
        // only ever advances.
        debug_assert!(fs.flushed_lsn >= end);
        let start = horizon.max(fs.start_lsn);
        self.advance_start(&mut fs, start)?;
        self.stats.checkpoints.fetch_add(1, Ordering::Release);
        Ok(end)
    }

    /// Advances the scan start to `start` and retires every segment lying
    /// wholly below it.  The new anchor is persisted and synced *before*
    /// it is adopted and the slots are recycled: a crash in between
    /// leaves the old anchor + old records, which is still a consistent
    /// (pre-checkpoint) log.
    fn advance_start(&self, fs: &mut FlushState, start: u64) -> Result<()> {
        let mut map = fs.map.clone();
        let retired = map.retire_below(start, self.page_size);
        self.write_anchor_guarded(fs, start, &map)?;
        self.disk.sync()?;
        fs.synced_anchor_seq = fs.anchor_seq;
        self.stats.syncs.fetch_add(1, Ordering::Release);
        self.stats.checkpoint_syncs.fetch_add(1, Ordering::Release);
        fs.start_lsn = start;
        fs.map = map;
        self.stats.segments_retired.fetch_add(retired.len() as u64, Ordering::Release);
        fs.free.extend(retired);
        Ok(())
    }
}

/// Lowers `h` to the FirstMod LSN of any page whose record run straddles
/// it, until a fixpoint: truncating at the result orphans no Delta from
/// its pre-image.  Monotone decreasing, bounded by the oldest FirstMod.
fn straddle_floor(logged: &HashMap<PageId, (u64, u64)>, mut h: u64) -> u64 {
    while let Some(first) = logged
        .values()
        .filter(|&&(first, last)| first < h && last >= h)
        .map(|&(first, _)| first)
        .min()
    {
        h = first;
    }
    h
}

//! Append buffer → device: the one flush routine, the I/O-leader
//! protocol behind group commit, and the background flusher's thread body.
//!
//! Appending buffers bytes in memory; [`Wal::flush`] is the only code
//! that writes them out.  The partially-filled tail page is
//! append-rewritten: every rewrite carries the identical
//! previously-written prefix, so under the torn-write model (a prefix of
//! sectors persists) a torn tail rewrite can only damage bytes past the
//! last sync — exactly the bytes recovery discards anyway when the
//! checksum chain breaks.
//!
//! **Leader/follower.**  Whoever needs `target` durable and finds no
//! leader at work becomes the leader, flushes *everything appended so
//! far* (other threads' records included) and issues one device sync;
//! everyone else waits for it and re-checks, usually finding their LSN
//! covered **without their own fsync**.  A checkpoint takes the same
//! leadership for its whole run.
//!
//! **Background flusher.**  Under [`FlushPolicy::Background`](super::FlushPolicy)
//! the pool's flusher thread calls the same flush routine **without
//! syncing** whenever the backlog crosses the watermark, so a leader
//! usually finds its bytes already on the device and only pays the
//! fsync.  It serializes with leaders on the flush-state lock, never
//! touches `durable_lsn`, and issues no sync of its own (the anchor
//! guard of a back-to-back rollover aside, which counts as forced).

use super::{segments::FlushState, Wal};
use crate::Result;
use std::sync::atomic::Ordering;
use std::sync::PoisonError;

/// Group-commit coordination.
pub(super) struct IoState {
    /// Everything at or below this LSN is durable on the log device.
    pub(super) durable_lsn: u64,
    /// A leader is currently flushing + syncing the device.
    pub(super) syncing: bool,
}

/// Wakeup/shutdown flags for the background flusher thread.
#[derive(Default)]
pub(super) struct FlusherCtl {
    wake: bool,
    shutdown: bool,
}

/// Largest capacity a drained append buffer keeps for reuse.  One large
/// transaction grows the backlog to megabytes; a larger buffer is dropped
/// once written so the burst does not pin its allocation for the life of
/// the log.  (A bulk load no longer does: it logs only the meta writes
/// that publish its pages.)
pub(super) const SPARE_MAX_BYTES: usize = 256 << 10;

/// `buf` emptied for reuse as the next spare — or a fresh, unallocated
/// one if it outgrew [`SPARE_MAX_BYTES`].
fn recycled(mut buf: Vec<u8>) -> Vec<u8> {
    buf.clear();
    if buf.capacity() > SPARE_MAX_BYTES {
        buf = Vec::new();
    }
    buf
}

impl Wal {
    /// Writes every pending stream byte to its log pages and, if `sync`,
    /// syncs the device.  Returns the stream end now on the device and
    /// the bytes this call wrote.  Syncing callers hold the I/O
    /// leadership.
    ///
    /// The backlog is *taken*, not copied: the append buffer is swapped
    /// with the flush state's empty spare, so appends made while the
    /// device writes run land in the spare, and the written buffer becomes
    /// the next spare.  On failure — including a failed sync *after* the
    /// page writes landed — the taken bytes go back in front of whatever
    /// was appended meanwhile and `flushed_lsn` and `partial` are
    /// untouched, so nothing is published and a retry rewrites the
    /// identical bytes.
    pub(super) fn flush(&self, sync: bool) -> Result<(u64, usize)> {
        let mut fs = self.flush.lock();
        let fs = &mut *fs;
        let (mut bytes, target_end) = {
            let mut ap = self.append.lock();
            let spare = std::mem::take(&mut fs.spare);
            (std::mem::replace(&mut ap.pending, spare), ap.end_lsn)
        };
        debug_assert_eq!(fs.flushed_lsn + bytes.len() as u64, target_end);
        let res = self.write_stream(fs, &bytes).and_then(|new_partial| {
            if sync {
                self.disk.sync()?;
                self.stats.syncs.fetch_add(1, Ordering::Release);
                // The sync also destaged any rollover anchor written above.
                fs.synced_anchor_seq = fs.anchor_seq;
            }
            Ok(new_partial)
        });
        match res {
            Ok(new_partial) => {
                fs.flushed_lsn = target_end;
                fs.partial = new_partial;
                let written = bytes.len();
                fs.spare = recycled(bytes);
                Ok((target_end, written))
            }
            Err(e) => {
                let mut ap = self.append.lock();
                bytes.extend_from_slice(&ap.pending);
                fs.spare = recycled(std::mem::replace(&mut ap.pending, bytes));
                Err(e)
            }
        }
    }

    /// Writes `bytes` (the stream range starting at `fs.flushed_lsn`) to
    /// the device, rewriting the partial tail page with its
    /// already-written prefix and rolling over into a fresh segment
    /// whenever the stream outgrows the mapped ones.  Returns the new
    /// tail page's written prefix, which the caller installs only once
    /// everything else succeeded.
    fn write_stream(&self, fs: &mut FlushState, bytes: &[u8]) -> Result<Vec<u8>> {
        let ps = self.page_size;
        let payload = fs.map.payload_bytes(ps);
        debug_assert_eq!((fs.flushed_lsn % ps as u64) as usize, fs.partial.len());
        let mut scratch = vec![0u8; ps];
        let mut written = 0usize;
        while written < bytes.len() {
            let pos = fs.flushed_lsn + written as u64;
            self.ensure_segment(fs, pos / payload)?;
            let (page, off) =
                fs.map.locate(pos, ps).expect("ensure_segment mapped the segment being written");
            let n = (ps - off).min(bytes.len() - written);
            scratch.fill(0);
            // `off > 0` only on the first page of this flush.
            scratch[..off].copy_from_slice(&fs.partial[..off]);
            scratch[off..off + n].copy_from_slice(&bytes[written..written + n]);
            self.disk.write_page(page, &scratch)?;
            self.stats.log_page_writes.fetch_add(1, Ordering::Release);
            written += n;
        }
        // The new tail page's prefix is the tail of (old prefix ++ bytes).
        let tail_off = ((fs.flushed_lsn + bytes.len() as u64) % ps as u64) as usize;
        Ok(match bytes.len().checked_sub(tail_off) {
            Some(from) => bytes[from..].to_vec(),
            None => [&fs.partial[..], bytes].concat(),
        })
    }

    /// Waits until `target` is durable (`false`) or no leader is at work,
    /// and then becomes the I/O leader (`true`): the one thread allowed to
    /// sync the device and move the scan start.
    pub(super) fn acquire_leader(&self, target: u64) -> bool {
        let mut io = self.io.lock();
        while io.durable_lsn < target && io.syncing {
            io = self.cv.wait(io).unwrap_or_else(PoisonError::into_inner);
        }
        if io.durable_lsn >= target {
            return false;
        }
        io.syncing = true;
        true
    }

    /// Ends the leadership, publishing the stream end the leader made
    /// durable (if its I/O succeeded) and waking every waiter.
    pub(super) fn release_leader(&self, durable: Option<u64>) {
        let mut io = self.io.lock();
        io.syncing = false;
        if let Some(durable) = durable {
            io.durable_lsn = io.durable_lsn.max(durable);
        }
        self.cv.notify_all();
    }

    /// Leader/follower durability: the caller either finds `target`
    /// durable by the time no leader is at work (`false`), or leads one
    /// flush + sync of everything appended so far (`true`).
    pub(super) fn lead_or_follow(&self, target: u64) -> Result<bool> {
        if !self.acquire_leader(target) {
            return Ok(false);
        }
        let res = self.flush(true);
        self.release_leader(res.as_ref().ok().map(|&(end, _)| end));
        res.map(|_| true)
    }

    /// Nudges the background flusher (no-op when none is running).
    pub(super) fn wake_flusher(&self) {
        let mut ctl = self.flusher.lock();
        if !ctl.wake {
            ctl.wake = true;
            self.flusher_cv.notify_all();
        }
    }

    /// Body of the background flusher thread: wait for a watermark
    /// wakeup, drain the append buffer to the device, repeat until
    /// [`Wal::flusher_stop`].  Errors are swallowed — the commit path
    /// re-attempts the identical write and reports them.
    pub(crate) fn flusher_run(&self) {
        loop {
            let mut ctl = self.flusher.lock();
            while !ctl.wake && !ctl.shutdown {
                ctl = self.flusher_cv.wait(ctl).unwrap_or_else(PoisonError::into_inner);
            }
            if ctl.shutdown {
                return;
            }
            ctl.wake = false;
            drop(ctl);
            if let Ok((_, bytes @ 1..)) = self.flush(false) {
                self.stats.flusher_writes.fetch_add(1, Ordering::Release);
                self.stats.flusher_bytes.fetch_add(bytes as u64, Ordering::Release);
            }
        }
    }

    /// Signals the flusher thread to exit (the owner joins the handle).
    pub(crate) fn flusher_stop(&self) {
        let mut ctl = self.flusher.lock();
        ctl.shutdown = true;
        self.flusher_cv.notify_all();
    }
}

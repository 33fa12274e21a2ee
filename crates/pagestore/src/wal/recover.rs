//! Reading the log back: the attach-time scan and the redo/rollback fold
//! that turns its records into page images.
//!
//! [`scan_records`] follows the stream from the anchor's `start` until
//! the LSN/checksum chain breaks or the mapped segments end, yielding
//! the valid record prefix.  [`Wal::take_redo`] then replays all records
//! up to the last Commit into in-memory page images (FirstMod starts
//! from its pre-image, Delta applies on top, Checkpoint is a no-op) and
//! **rolls back** the uncommitted tail by restoring the pre-images of
//! pages first modified in the tail.  Pages whose records all sit below
//! the scan start are bitwise correct on the data device — that is what
//! the truncation horizon guarantees — so writing the images out yields
//! exactly the committed prefix of history.

use super::diff::Runs;
use super::format::{self, WalRecord, REC_HDR};
use super::segments::{SegMap, StreamReader};
use super::{RecoveryReport, Wal};
use crate::{DiskManager, Error, Result};
use std::collections::{BTreeMap, BTreeSet};

/// Page images keyed by raw page id.
type PageImages = BTreeMap<u64, Vec<u8>>;

/// What a log scan found: the valid record prefix plus the high-water
/// marks of the monotone sequences embedded in it.
#[derive(Default)]
pub(super) struct RecoveredLog {
    /// All records of the valid prefix, in LSN order.
    pub(super) records: Vec<WalRecord>,
    /// Leading records up to and including the last Commit.
    pub(super) committed: usize,
    /// Stream position just past that last Commit (== `start` if none).
    pub(super) committed_end: u64,
    /// Highest commit sequence number seen (0 if none).
    pub(super) max_seq: u64,
    /// Highest transaction id seen (0 if none).
    pub(super) max_txn: u64,
}

/// Scans the record stream from `start` (device-mapped via the anchor's
/// segment map) until the LSN/checksum chain breaks or the mapped
/// segments end.
pub(super) fn scan_records(disk: &dyn DiskManager, map: &SegMap, start: u64) -> RecoveredLog {
    let ps = disk.page_size();
    let mut reader = StreamReader::new(disk, map);
    let mut out = RecoveredLog { committed_end: start, ..RecoveredLog::default() };
    let mut pos = start;
    let (mut hdr, mut body) = (Vec::new(), Vec::new());
    while reader.read(pos, REC_HDR, &mut hdr) {
        let Some(body_len) = format::body_len(&hdr, pos, ps) else {
            break;
        };
        if !reader.read(pos + REC_HDR as u64, body_len, &mut body) {
            break;
        }
        let Some(rec) = format::decode_record(&hdr, &body, ps) else {
            break;
        };
        pos += (REC_HDR + body_len) as u64;
        let txn = match &rec {
            WalRecord::FirstMod { txn, .. } | WalRecord::Delta { txn, .. } => *txn,
            WalRecord::Commit { seq, txn } => {
                out.max_seq = out.max_seq.max(*seq);
                (out.committed, out.committed_end) = (out.records.len() + 1, pos);
                *txn
            }
            WalRecord::Checkpoint { active, .. } => {
                active.iter().map(|&(txn, _)| txn).max().unwrap_or(0)
            }
        };
        out.max_txn = out.max_txn.max(txn);
        out.records.push(rec);
    }
    out
}

/// Redoes one update on `img`: `delta` holds the new bytes of `runs`,
/// concatenated (the decoder checked that the two agree and fit the page).
fn apply_runs(img: &mut [u8], runs: &Runs, delta: &[u8]) {
    let mut rest = delta;
    for &(off, len) in runs.as_slice() {
        let (bytes, tail) = rest.split_at(len as usize);
        img[off as usize..][..bytes.len()].copy_from_slice(bytes);
        rest = tail;
    }
}

impl RecoveredLog {
    /// Folds the scanned records into the page images recovery must
    /// write — committed records redone, the uncommitted tail rolled
    /// back — keyed by raw page id.
    fn redo(mut self) -> Result<(PageImages, RecoveryReport)> {
        let tail = self.records.split_off(self.committed);
        let (committed_records, tail_records) = (self.records.len(), tail.len());
        let mut images = PageImages::new();
        let (mut commits, mut last_seq) = (0u64, 0u64);
        for rec in self.records {
            match rec {
                WalRecord::FirstMod { page, before: mut img, runs, delta, .. } => {
                    apply_runs(&mut img, &runs, &delta);
                    images.insert(page.raw(), img);
                }
                WalRecord::Delta { page, runs, delta, .. } => {
                    // A Delta is always preceded by its page's FirstMod at
                    // or above the scan start (the truncation-horizon
                    // fixpoint guarantees no page run straddles it), so a
                    // missing image means the log is inconsistent.
                    let img = images.get_mut(&page.raw()).ok_or_else(|| {
                        Error::Corrupt(format!(
                            "WAL delta for page {} without a prior first-mod",
                            page.raw()
                        ))
                    })?;
                    apply_runs(img, &runs, &delta);
                }
                WalRecord::Commit { seq, .. } => {
                    // Sequence numbers are strictly increasing within the
                    // retained log; a regression means records from
                    // different histories got mixed.
                    if seq <= last_seq {
                        return Err(Error::Corrupt(format!(
                            "WAL commit sequence regressed: {seq} after {last_seq}"
                        )));
                    }
                    last_seq = seq;
                    commits += 1;
                }
                WalRecord::Checkpoint { .. } => {}
            }
        }
        let pages_redone = images.len();
        // Roll back the uncommitted tail: a FirstMod there proves the page
        // was untouched by the committed prefix *of this generation*; its
        // pre-image is exactly the committed state.  (If the page also has
        // a committed image — possible when it was re-FirstMod'ed after an
        // interleaved checkpoint window — the committed image wins.)
        let mut tail_txns = BTreeSet::new();
        for rec in tail {
            if let WalRecord::FirstMod { txn, .. } | WalRecord::Delta { txn, .. } = &rec {
                tail_txns.insert(*txn);
            }
            if let WalRecord::FirstMod { page, before, .. } = rec {
                images.entry(page.raw()).or_insert(before);
            }
        }
        let report = RecoveryReport {
            records_scanned: committed_records + tail_records,
            committed_records,
            tail_records,
            commits,
            pages_redone,
            pages_rolled_back: images.len() - pages_redone,
            txns_rolled_back: tail_txns.len() as u64,
        };
        Ok((images, report))
    }
}

impl Wal {
    /// Takes the log contents found at attach time (once).
    pub(super) fn take_recovered(&self) -> Option<RecoveredLog> {
        self.recovered.lock().take()
    }

    /// Takes the log found at attach time (once) as the page images
    /// `BufferPool::recover` must put on the data device before it
    /// checkpoints the log, plus the report of what they came from.
    /// `None` when there is nothing to recover.
    pub(crate) fn take_redo(&self) -> Result<Option<(PageImages, RecoveryReport)>> {
        self.take_recovered().map(|log| log.redo()).transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_are_applied_in_table_order_and_touch_nothing_else() {
        let mut runs = Runs::default();
        for (off, len) in [(1, 2), (3, 1), (9, 3)] {
            runs.push(off, len);
        }
        let mut img = [0u8; 12];
        apply_runs(&mut img, &runs, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(img, [0, 1, 2, 3, 0, 0, 0, 0, 0, 4, 5, 6]);
    }
}

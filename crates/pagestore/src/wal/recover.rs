//! Reading the log back: one pass from the checksummed stream to the page
//! images recovery writes.
//!
//! [`scan`] follows the stream from the anchor's `start` until the
//! LSN/checksum chain breaks or the mapped segments end, decoding each
//! record in place in one reused buffer.  [`Recovered::fold`] applies it
//! to the page images at once (FirstMod starts from its pre-image, its
//! hole zero-filled; Delta applies on top; Commit extends the committed
//! prefix), so no record outlives its read.  Where the last Commit lies
//! is known only when the stream ends, so the fold keeps, for every page
//! touched since the latest Commit, the image a rollback restores — the
//! page's state at that Commit, or the pre-image of its first FirstMod if
//! the records had not touched it before — and drops them at each Commit.
//! When the stream ends, [`Recovered::finish`] restores them: the
//! uncommitted tail is rolled back.  Memory is one image per page touched
//! plus one per page touched since the last Commit, whatever the log's
//! length.
//!
//! Pages whose records all sit below the scan start are bitwise correct on
//! the data device — that is what the truncation horizon guarantees — so
//! writing the images out yields exactly the committed prefix of history.

use super::diff::Runs;
use super::format::{self, Record, REC_HDR};
use super::segments::{SegMap, StreamReader};
use super::{RecoveryReport, Wal};
use crate::{DiskManager, Error, Result};
use std::collections::{BTreeMap, HashMap};

/// Page images keyed by raw page id, in page order.
type PageImages = BTreeMap<u64, Vec<u8>>;

/// Calls `visit` with every record of the valid prefix of the stream
/// from `start` (device-mapped via the anchor's segment map), in LSN
/// order, and the stream position just past it.  The record borrows the
/// scan's buffer, which the next record reuses.
pub(super) fn scan(
    disk: &dyn DiskManager,
    map: &SegMap,
    start: u64,
    mut visit: impl FnMut(Record<'_>, u64),
) {
    let ps = disk.page_size();
    let mut reader = StreamReader::new(disk, map);
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
        visit(rec, pos);
    }
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

/// The image a page returns to if no Commit follows its latest update.
struct Undo {
    image: Vec<u8>,
    /// The records had not touched the page before: restoring `image`
    /// rolls it back to a FirstMod pre-image.
    created: bool,
}

/// What the attach-time scan found: the high-water mark of the commit
/// sequence and the page images the records fold into.
#[derive(Default)]
pub(super) struct Recovered {
    /// Records of the valid prefix.
    pub(super) records: usize,
    /// Leading records up to and including the last Commit.
    pub(super) committed: usize,
    /// Stream position just past that last Commit (== `start` if none).
    pub(super) committed_end: u64,
    /// Highest commit sequence number seen (0 if none).
    pub(super) max_seq: u64,
    /// Every page the records touched, as of the latest record.
    images: HashMap<u64, Vec<u8>>,
    /// Pages touched since the last Commit, with what a rollback restores.
    undo: HashMap<u64, Undo>,
    /// The first page since the last Commit whose Delta found no image:
    /// the log is inconsistent if a Commit follows.
    orphan: Option<u64>,
    /// Commits folded, and the sequence number of the latest.
    commits: u64,
    last_seq: u64,
    /// The first inconsistency among committed records; updates stop
    /// folding there, and only the scan's marks keep moving.
    error: Option<Error>,
}

impl Recovered {
    /// Scans the stream from `start` and folds every record of its valid
    /// prefix.
    pub(super) fn read(disk: &dyn DiskManager, map: &SegMap, start: u64) -> Recovered {
        let mut log = Recovered { committed_end: start, ..Recovered::default() };
        scan(disk, map, start, |rec, end| log.fold(rec, end));
        log
    }

    /// Folds one record, which ends at stream position `end`.
    fn fold(&mut self, rec: Record<'_>, end: u64) {
        self.records += 1;
        match rec {
            Record::FirstMod { page, before, runs, delta } => {
                if self.error.is_some() {
                    return;
                }
                let mut img = before.image();
                apply_runs(&mut img, &runs, delta);
                // A page FirstMod'ed again (after a checkpoint window
                // re-keyed the dedup) starts over from its new pre-image.
                let undo = match self.images.insert(page.raw(), img) {
                    Some(prior) => Undo { image: prior, created: false },
                    None => Undo { image: before.image(), created: true },
                };
                self.undo.entry(page.raw()).or_insert(undo);
            }
            Record::Delta { page, runs, delta } => {
                if self.error.is_some() {
                    return;
                }
                let Some(img) = self.images.get_mut(&page.raw()) else {
                    // A Delta is always preceded by its page's FirstMod at
                    // or above the scan start (the truncation-horizon
                    // fixpoint guarantees no page run straddles it), so a
                    // Commit after this one proves the log inconsistent.
                    self.orphan.get_or_insert(page.raw());
                    return;
                };
                self.undo
                    .entry(page.raw())
                    .or_insert_with(|| Undo { image: img.clone(), created: false });
                apply_runs(img, &runs, delta);
            }
            Record::Commit { seq } => {
                self.max_seq = self.max_seq.max(seq);
                (self.committed, self.committed_end) = (self.records, end);
                if self.error.is_none() {
                    self.error = self.check_commit(seq).err();
                }
                (self.commits, self.last_seq) = (self.commits + 1, seq);
                self.undo.clear();
                self.orphan = None;
            }
        }
    }

    /// Whether the records a Commit with sequence `seq` commits are
    /// consistent, in LSN order: the orphaned Delta came before it.
    fn check_commit(&self, seq: u64) -> Result<()> {
        if let Some(page) = self.orphan {
            return Err(Error::Corrupt(format!(
                "WAL delta for page {page} without a prior first-mod"
            )));
        }
        // Sequence numbers are strictly increasing within the retained
        // log; a regression means records from different histories got
        // mixed.
        if seq <= self.last_seq {
            return Err(Error::Corrupt(format!(
                "WAL commit sequence regressed: {seq} after {}",
                self.last_seq
            )));
        }
        Ok(())
    }

    /// The page images recovery must write — committed records redone,
    /// the uncommitted tail rolled back — plus the report of what they
    /// came from.
    fn finish(self) -> Result<(PageImages, RecoveryReport)> {
        if let Some(err) = self.error {
            return Err(err);
        }
        let mut images = self.images;
        let mut pages_rolled_back = 0;
        for (page, undo) in self.undo {
            pages_rolled_back += usize::from(undo.created);
            images.insert(page, undo.image);
        }
        let report = RecoveryReport {
            records_scanned: self.records,
            committed_records: self.committed,
            tail_records: self.records - self.committed,
            commits: self.commits,
            pages_redone: images.len() - pages_rolled_back,
            pages_rolled_back,
        };
        Ok((images.into_iter().collect(), report))
    }
}

impl Wal {
    /// Takes the log contents found at attach time (once).
    pub(super) fn take_recovered(&self) -> Option<Recovered> {
        self.recovered.lock().take()
    }

    /// Takes the log found at attach time (once) as the page images
    /// `BufferPool::recover` must put on the data device before it
    /// checkpoints the log, plus the report of what they came from.
    /// `None` when there is nothing to recover.
    pub(crate) fn take_redo(&self) -> Result<Option<(PageImages, RecoveryReport)>> {
        self.take_recovered().map(Recovered::finish).transpose()
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

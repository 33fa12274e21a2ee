//! Where the stream lives on the device: the segment map, slot
//! recycling, the anchor-write guard, and the reader that follows the map.
//!
//! The record stream is cut into size-bounded segments of
//! `payload = (segment_pages − 1) × page_size` bytes each: stream byte
//! `s` belongs to segment `s / payload` at segment offset `s % payload`.
//! The anchor carries the **segment map** — a run of consecutive segment
//! numbers starting at `first_seg`, each mapped to a device *slot* (slot
//! `k` owns device pages `2 + k·segment_pages ..`, the first of which is
//! the segment header).  The payload is a whole number of pages, so LSN
//! multiples of `page_size` always fall on device page boundaries and a
//! page's bytes never straddle a segment.
//!
//! Appending past the end of the mapped region **rolls over**: the lowest
//! retired slot (or a freshly allocated one) gets a new segment header
//! and the anchor gains a map entry — usually with no device sync,
//! because losing an unsynced rollover merely ends the recovery scan at
//! the segment boundary, which only ever discards unsynced bytes.  At
//! most **one** anchor write may be outstanding, though: anchor writes
//! alternate between device pages 0 and 1, so a second unsynced rewrite
//! would land on the page holding the only *durable* anchor, and tearing
//! it (while the intermediate anchor was never destaged) could lose both
//! copies.  [`Wal::write_anchor_guarded`] therefore syncs first whenever
//! the previous anchor write is still unsynced.
//!
//! Stale bytes in a recycled slot cannot be mistaken for live records:
//! segment LSN ranges are disjoint, [`StreamReader`] validates each
//! segment header's `first_lsn` before trusting its pages, and a record's
//! embedded LSN must equal its stream position.

use super::format::{self, Anchor};
use super::Wal;
use crate::{DiskManager, Error, PageId, Result};
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::Ordering;

/// The anchor's segment map: consecutive segments `first_seg ..
/// first_seg + slots.len()`, each owning the device pages of its slot.
#[derive(Debug, Clone)]
pub(super) struct SegMap {
    /// Device pages per slot, including the segment header page.
    pub(super) seg_pages: u64,
    /// Segment number of `slots[0]`.
    pub(super) first_seg: u64,
    /// Device slot of each mapped segment, oldest first.
    pub(super) slots: VecDeque<u32>,
}

impl SegMap {
    /// Stream bytes each segment holds.
    pub(super) fn payload_bytes(&self, ps: usize) -> u64 {
        (self.seg_pages - 1) * ps as u64
    }

    /// First device page of `slot` (its segment header).
    fn header_page(&self, slot: u32) -> PageId {
        PageId(2 + u64::from(slot) * self.seg_pages)
    }

    /// Stream position one past the last mapped segment.
    pub(super) fn mapped_end(&self, ps: usize) -> u64 {
        (self.first_seg + self.slots.len() as u64) * self.payload_bytes(ps)
    }

    /// Whether the oldest mapped segment lies wholly below `start`.
    pub(super) fn retires_front(&self, start: u64, ps: usize) -> bool {
        !self.slots.is_empty() && (self.first_seg + 1) * self.payload_bytes(ps) <= start
    }

    /// Pops every leading segment lying wholly below stream position
    /// `start`, returning the freed slots (an emptied map is re-based at
    /// `start`'s segment).  Callers persist the shrunk map in an anchor
    /// before recycling the slots.
    pub(super) fn retire_below(&mut self, start: u64, ps: usize) -> Vec<u32> {
        let mut retired = Vec::new();
        while self.retires_front(start, ps) {
            retired.extend(self.slots.pop_front());
            self.first_seg += 1;
        }
        if self.slots.is_empty() {
            self.first_seg = start / self.payload_bytes(ps);
        }
        retired
    }

    /// Header page of segment `seg`, or `None` if it is not mapped.
    fn header_of(&self, seg: u64) -> Option<PageId> {
        let idx = usize::try_from(seg.checked_sub(self.first_seg)?).ok()?;
        Some(self.header_page(*self.slots.get(idx)?))
    }

    /// Device page holding stream byte `lsn` plus its offset in the page,
    /// or `None` if the byte's segment is not mapped.
    pub(super) fn locate(&self, lsn: u64, ps: usize) -> Option<(PageId, usize)> {
        let payload = self.payload_bytes(ps);
        let off = (lsn % payload) as usize;
        let page = self.header_of(lsn / payload)?.raw() + 1 + (off / ps) as u64;
        Some((PageId(page), off % ps))
    }
}

/// Device-position state, touched only under the flush lock (by the
/// current I/O leader or the background flusher).
pub(super) struct FlushState {
    /// Logical truncation point / recovery scan start (anchor `start`).
    /// Invariant: `start_lsn <= flushed_lsn`, and it only moves forward.
    pub(super) start_lsn: u64,
    /// Stream bytes `[.., flushed_lsn)` have been written to device
    /// pages (though they are only *durable* up to the last sync).
    pub(super) flushed_lsn: u64,
    /// Bytes of the partially-filled tail page already written to the
    /// device: every rewrite of that page must repeat them verbatim.
    pub(super) partial: Vec<u8>,
    /// Sequence number of the current anchor; every rewrite bumps it.
    pub(super) anchor_seq: u64,
    /// Highest anchor sequence covered by a device sync.
    pub(super) synced_anchor_seq: u64,
    /// The current segment map, as persisted in the anchor.
    pub(super) map: SegMap,
    /// Retired slots available for rollover reuse (lowest first).
    pub(super) free: BTreeSet<u32>,
    /// The empty buffer the next flush hands the appenders in exchange
    /// for their backlog (see [`Wal::flush`]).
    pub(super) spare: Vec<u8>,
}

/// Whole slots the device has room for behind its two anchor pages.
fn carved_slots(disk: &dyn DiskManager, map: &SegMap) -> u64 {
    disk.num_pages().saturating_sub(2) / map.seg_pages
}

impl FlushState {
    /// The state of a log whose adopted anchor is `anchor` and whose
    /// appends resume at stream position `end`.
    pub(super) fn resume(disk: &dyn DiskManager, anchor: Anchor, end: u64) -> Result<FlushState> {
        let ps = disk.page_size();
        // The already-written bytes of the page holding the resume
        // position: the prefix every tail-page rewrite must carry.
        let tail_off = (end % ps as u64) as usize;
        let mut partial = Vec::new();
        if tail_off > 0 {
            let Some((page, off)) = anchor.map.locate(end, ps) else {
                return Err(Error::Corrupt("WAL anchor maps no segment for the log tail".into()));
            };
            debug_assert_eq!(off, tail_off);
            partial.resize(ps, 0);
            disk.read_page(page, &mut partial)?;
            partial.truncate(tail_off);
        }
        let free = (0..carved_slots(disk, &anchor.map))
            .filter_map(|s| u32::try_from(s).ok())
            .filter(|s| !anchor.map.slots.contains(s))
            .collect();
        Ok(FlushState {
            start_lsn: anchor.start,
            flushed_lsn: end,
            partial,
            anchor_seq: anchor.seq,
            // The adopted anchor is on the device (fresh init synced it; a
            // reopened one was read back), so it is the durable baseline
            // whose twin page the first rollover may overwrite.
            synced_anchor_seq: anchor.seq,
            map: anchor.map,
            free,
            spare: Vec::new(),
        })
    }
}

impl Wal {
    /// Maps segment `seg` if the stream has outgrown the mapped region:
    /// recycles the lowest retired slot (or carves a new one out of the
    /// device), writes its segment header, and persists the grown map in
    /// the next anchor.
    pub(super) fn ensure_segment(&self, fs: &mut FlushState, seg: u64) -> Result<()> {
        if fs.map.slots.is_empty() {
            fs.map.first_seg = seg;
        }
        let next_seg = fs.map.first_seg + fs.map.slots.len() as u64;
        if seg < next_seg {
            debug_assert!(seg >= fs.map.first_seg, "log writes only move forward");
            return Ok(());
        }
        debug_assert_eq!(seg, next_seg, "only the next segment ever rolls over");
        let cap = format::anchor_capacity(self.page_size);
        if fs.map.slots.len() >= cap {
            return Err(Error::InvalidArgument(format!(
                "WAL segment map full ({cap} segments of {} pages); \
                 checkpoint to retire old segments",
                fs.map.seg_pages
            )));
        }
        let slot = match fs.free.first().copied() {
            Some(slot) => slot,
            None => {
                // Carve a fresh slot out of the device.  Allocation is
                // durable-immediate; if the header or anchor write below
                // fails, the slot stays on the free list for the retry.
                let carved = carved_slots(&*self.disk, &fs.map);
                let slot = u32::try_from(carved).map_err(|_| {
                    Error::InvalidArgument("WAL device exceeds 2^32 segment slots".into())
                })?;
                while self.disk.num_pages() < 2 + (carved + 1) * fs.map.seg_pages {
                    self.disk.allocate_page()?;
                }
                fs.free.insert(slot);
                slot
            }
        };
        let header = format::encode_segment_header(
            self.page_size,
            seg * fs.map.payload_bytes(self.page_size),
        );
        self.disk.write_page(fs.map.header_page(slot), &header)?;
        let mut grown = fs.map.clone();
        grown.slots.push_back(slot);
        let start = fs.start_lsn;
        self.write_anchor_guarded(fs, start, &grown)?;
        fs.map = grown;
        fs.free.remove(&slot);
        self.stats.segments_created.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Persists a new anchor (sequence `fs.anchor_seq + 1`, carrying
    /// `start` and `map`) and bumps `fs.anchor_seq` — **pre-syncing the
    /// device when the previous anchor write is still unsynced**.  Anchor
    /// parities alternate, so with an intermediate anchor outstanding
    /// this write lands on the page holding the latest *durable* anchor;
    /// tearing it in a crash while the intermediate write was never
    /// destaged would lose both copies, and recovery would fall back to
    /// a stale anchor whose map can exclude segments holding
    /// already-synced commits.  The guard sync destages the intermediate
    /// anchor first, keeping at least one intact current-or-newer anchor
    /// durable at every instant; it is attributed to `forced_syncs` in
    /// the sync ledger.
    pub(super) fn write_anchor_guarded(
        &self,
        fs: &mut FlushState,
        start: u64,
        map: &SegMap,
    ) -> Result<()> {
        if fs.anchor_seq != fs.synced_anchor_seq {
            self.disk.sync()?;
            self.stats.syncs.fetch_add(1, Ordering::Release);
            self.stats.forced_syncs.fetch_add(1, Ordering::Release);
            fs.synced_anchor_seq = fs.anchor_seq;
        }
        let seq = fs.anchor_seq + 1;
        let anchor = format::encode_anchor(self.page_size, seq, start, map);
        self.disk.write_page(PageId(seq & 1), &anchor)?;
        fs.anchor_seq = seq;
        Ok(())
    }
}

/// Reads both anchor pages and adopts the valid one with the higher
/// sequence number: the page being overwritten always held the *older*
/// anchor, so a torn anchor write can never lose both.
pub(super) fn read_best_anchor(disk: &dyn DiskManager) -> Result<Anchor> {
    let mut best: Option<Anchor> = None;
    let mut err = Error::Corrupt("no valid WAL anchor".into());
    let mut buf = vec![0u8; disk.page_size()];
    for page in 0..disk.num_pages().min(2) {
        disk.read_page(PageId(page), &mut buf)?;
        match format::parse_anchor(&buf) {
            Ok(Some(a)) if best.as_ref().is_none_or(|b| a.seq > b.seq) => best = Some(a),
            Ok(_) => {}
            Err(e) => err = e,
        }
    }
    best.ok_or(err)
}

/// Sequential page-at-a-time reader over the segment-mapped log stream.
/// Each segment's header is validated once before its pages are trusted,
/// so a slot the anchor maps but whose header write never persisted (a
/// crash mid-rollover) cleanly ends the stream at the boundary.
pub(super) struct StreamReader<'a> {
    disk: &'a dyn DiskManager,
    ps: usize,
    map: &'a SegMap,
    /// The segment whose header was validated last (reads only move
    /// forward, so no earlier one is asked for again).
    verified: Option<u64>,
    cached_page: Option<PageId>,
    cache: Vec<u8>,
}

impl<'a> StreamReader<'a> {
    pub(super) fn new(disk: &'a dyn DiskManager, map: &'a SegMap) -> Self {
        let ps = disk.page_size();
        StreamReader { disk, ps, map, verified: None, cached_page: None, cache: vec![0u8; ps] }
    }

    /// Checks segment `seg`'s header: mapped, on-device, intact, and
    /// naming this segment's `first_lsn`.
    fn verify_segment(&mut self, seg: u64) -> bool {
        if self.verified == Some(seg) {
            return true;
        }
        let Some(header) = self.map.header_of(seg) else {
            return false;
        };
        let mut buf = vec![0u8; self.ps];
        let ok = header.raw() + self.map.seg_pages <= self.disk.num_pages()
            && self.disk.read_page(header, &mut buf).is_ok()
            && format::is_segment_header(&buf, seg * self.map.payload_bytes(self.ps));
        if ok {
            self.verified = Some(seg);
        }
        ok
    }

    /// Reads `len` stream bytes at `pos` into `out`; `false` if the range
    /// runs off the mapped, validated segments (the stream ends here).
    pub(super) fn read(&mut self, mut pos: u64, len: usize, out: &mut Vec<u8>) -> bool {
        out.clear();
        let payload = self.map.payload_bytes(self.ps);
        while out.len() < len {
            if !self.verify_segment(pos / payload) {
                return false;
            }
            let Some((page, off)) = self.map.locate(pos, self.ps) else {
                return false;
            };
            if self.cached_page != Some(page) {
                if self.disk.read_page(page, &mut self.cache).is_err() {
                    return false;
                }
                self.cached_page = Some(page);
            }
            let n = (self.ps - off).min(len - out.len());
            out.extend_from_slice(&self.cache[off..off + n]);
            pos += n as u64;
        }
        true
    }
}

//! The log's on-disk format — the only file that knows a byte offset.
//!
//! Device pages 0 and 1 hold a pair of alternating **anchors**; the rest
//! of the device is carved into fixed-size segment slots, each opened by
//! a **segment header** page and holding a slice of the **record**
//! stream.  All integers are little-endian; every checksum is FNV-1a 64
//! (a torn or stale write only needs to be *detected*, not
//! authenticated).
//!
//! ```text
//! record          lsn u64 | body_len u32 | kind u8 | crc u64 | body …
//!                 crc covers (lsn, kind, body); lsn = stream position
//! FirstMod body   page u64 | n u32 | delta_len u32 | hole_off u32
//!                 | hole_len u32 | n × (off u32 | len u32)
//!                 | before [page_size − hole_len] | delta [delta_len]
//!                 before = the pre-image without the zero bytes
//!                 hole_off .. hole_off + hole_len, inside the page
//! Delta body      page u64 | n u32 | delta_len u32
//!                 | n × (off u32 | len u32) | delta [delta_len]
//!                 1 ≤ n ≤ 8 runs, ascending and disjoint, each non-empty
//!                 and inside the page; delta = the runs' new bytes
//!                 concatenated, delta_len = Σ len
//! Commit body     seq u64
//! anchor          magic u32 | version u16 | pad u16 | anchor_seq u64
//!                 | start u64 | seg_pages u32 | count u32 | first_seg u64
//!                 | count × slot u32 | crc u64 (covers all before it)
//! segment header  magic u32 | pad u32 | first_lsn u64 | crc u64
//! ```
//!
//! * **FirstMod** — the *first* modification of a page since the last
//!   truncation horizon: the pre-image plus the byte runs this update
//!   changed.  Redo never needs the data device for such a page.  The
//!   pre-image leaves out its *hole*, its longest zero run, which the
//!   decoder fills back in: a freshly allocated page (a split's new right
//!   sibling) logs no pre-image byte, a half-full leaf about half of one.
//! * **Delta** — a later modification: the changed byte runs only.
//! * **Commit** — commits every record before it; recovery replays
//!   exactly the records up to the last durable Commit.  `seq` increases
//!   strictly over the log's lifetime; recovery refuses a regression.
//!
//! Kind 4 was a fuzzy checkpoint's diagnostic record up to format v4; a
//! scan treats it like any unknown kind, as the end of the stream.  Format
//! v6 added the hole; an anchor of an older version is refused.
//!
//! The anchor with sequence `s` lives on device page `s & 1`, so a
//! rewrite always lands on the page holding the *older* anchor.  `start`
//! is where recovery scans from; the map assigns device slots to the
//! consecutive segments `first_seg .. first_seg + count`.

use super::diff::{Runs, MAX_RUNS};
use super::segments::SegMap;
use crate::codec::{get_u16, get_u32, get_u64, put_u16, put_u32, put_u64};
use crate::{Error, PageId, Result};

pub(super) const REC_HDR: usize = 8 + 4 + 1 + 8;
const KIND_FIRST_MOD: u8 = 1;
const KIND_DELTA: u8 = 2;
const KIND_COMMIT: u8 = 3;
/// `page | n | delta_len`, the fixed head of an update body.
const UPDATE_HEAD: usize = 16;
/// `hole_off | hole_len`, which a FirstMod's head carries next.
const HOLE_FIELDS: usize = 8;
/// One run-table entry, `off | len`.
const RUN_ENTRY: usize = 8;

const WAL_MAGIC: u32 = 0x5249_574C; // "RIWL"
const WAL_VERSION: u16 = 6;
const ANCHOR_HDR: usize = 40;
const SEG_MAGIC: u32 = 0x5249_5347; // "RISG"

/// Map entries an anchor page can carry: header + entries + trailing crc.
pub(super) fn anchor_capacity(page_size: usize) -> usize {
    page_size.saturating_sub(ANCHOR_HDR + 8) / 4
}

fn fnv<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn record_checksum(lsn: u64, kind: u8, body_parts: &[&[u8]]) -> u64 {
    fnv([&lsn.to_le_bytes()[..], &[kind]].into_iter().chain(body_parts.iter().copied()))
}

/// A log record decoded in place: its byte fields borrow the buffer the
/// record was read into (a Commit commits every update appended so far).
#[derive(Debug, Clone, Copy)]
pub(super) enum Record<'a> {
    FirstMod { page: PageId, before: PreImage<'a>, runs: Runs, delta: &'a [u8] },
    Delta { page: PageId, runs: Runs, delta: &'a [u8] },
    Commit { seq: u64 },
}

/// A FirstMod's pre-image as logged: the page without its hole, the zero
/// bytes `hole_off .. hole_off + hole_len`.
#[derive(Debug, Clone, Copy)]
pub(super) struct PreImage<'a> {
    kept: &'a [u8],
    hole_off: usize,
    hole_len: usize,
}

impl PreImage<'_> {
    /// The whole pre-image, its hole zero-filled.
    pub(super) fn image(&self) -> Vec<u8> {
        let mut img = vec![0u8; self.kept.len() + self.hole_len];
        let (head, tail) = self.kept.split_at(self.hole_off);
        img[..self.hole_off].copy_from_slice(head);
        img[self.hole_off + self.hole_len..].copy_from_slice(tail);
        img
    }
}

/// The zero run of `img` a FirstMod leaves out, as `(offset, length)`:
/// the longest one that holds an aligned all-zero word, `(0, 0)` if none
/// does (a run that holds none is at most 14 bytes long).  One pass,
/// eight bytes at a time.
fn zero_hole(img: &[u8]) -> (usize, usize) {
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("eight bytes"));
    let (words, tail) = img.split_at(img.len() / 8 * 8);
    let mut hole = (0, 0);
    // Byte offsets, each a multiple of 8: where the scan resumes.
    let mut at = 0;
    while let Some(skip) = words[at..].chunks_exact(8).position(|w| word(w) == 0) {
        let first = at + 8 * skip;
        let zeros = words[first..].chunks_exact(8).position(|w| word(w) != 0);
        at = zeros.map_or(words.len(), |n| first + 8 * n);
        // Widen the zero words by the zero bytes on either side; the
        // high bytes of a little-endian word come last.
        let before = match first {
            0 => 0,
            _ => (word(&words[first - 8..first]).leading_zeros() / 8) as usize,
        };
        let after = match words.get(at..at + 8) {
            Some(next) => (word(next).trailing_zeros() / 8) as usize,
            None => tail.iter().take_while(|&&b| b == 0).count(),
        };
        let (start, end) = (first - before, at + after);
        if end - start > hole.1 {
            hole = (start, end - start);
        }
    }
    hole
}

/// Frames one record onto `out`, returning the new stream end.
pub(super) fn encode_record(out: &mut Vec<u8>, lsn: u64, kind: u8, body_parts: &[&[u8]]) -> u64 {
    let body_len: usize = body_parts.iter().map(|p| p.len()).sum();
    out.extend_from_slice(&lsn.to_le_bytes());
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&record_checksum(lsn, kind, body_parts).to_le_bytes());
    for part in body_parts {
        out.extend_from_slice(part);
    }
    lsn + (REC_HDR + body_len) as u64
}

/// Appends the record of an update that left `runs` of `page` as they
/// are in the image `new` — a FirstMod when the page's pre-image is
/// given (logged without its hole), else a Delta.
pub(super) fn encode_update(
    out: &mut Vec<u8>,
    lsn: u64,
    page: PageId,
    before: Option<&[u8]>,
    runs: &Runs,
    new: &[u8],
) -> u64 {
    let runs = runs.as_slice();
    let mut head = [0u8; UPDATE_HEAD + HOLE_FIELDS + RUN_ENTRY * MAX_RUNS];
    put_u64(&mut head, 0, page.raw());
    put_u32(&mut head, 8, runs.len() as u32);
    // head | the pre-image before and after its hole | one part per run
    let mut parts: [&[u8]; 3 + MAX_RUNS] = [&[]; 3 + MAX_RUNS];
    let mut table = UPDATE_HEAD;
    if let Some(before) = before {
        let (off, len) = zero_hole(before);
        put_u32(&mut head, UPDATE_HEAD, off as u32);
        put_u32(&mut head, UPDATE_HEAD + 4, len as u32);
        (parts[1], parts[2]) = (&before[..off], &before[off + len..]);
        table += HOLE_FIELDS;
    }
    let mut delta_len = 0;
    for (i, &(off, len)) in runs.iter().enumerate() {
        put_u32(&mut head, table + RUN_ENTRY * i, off);
        put_u32(&mut head, table + RUN_ENTRY * i + 4, len);
        parts[3 + i] = &new[off as usize..][..len as usize];
        delta_len += len;
    }
    put_u32(&mut head, 12, delta_len);
    parts[0] = &head[..table + RUN_ENTRY * runs.len()];
    let kind = if before.is_some() { KIND_FIRST_MOD } else { KIND_DELTA };
    encode_record(out, lsn, kind, &parts[..3 + runs.len()])
}

pub(super) fn encode_commit(out: &mut Vec<u8>, lsn: u64, seq: u64) -> u64 {
    encode_record(out, lsn, KIND_COMMIT, &[&seq.to_le_bytes()])
}

/// The largest record body a log with `ps`-byte pages holds: a FirstMod
/// with no hole and a full run table whose runs cover the page.
fn max_body(ps: usize) -> usize {
    UPDATE_HEAD + HOLE_FIELDS + RUN_ENTRY * MAX_RUNS + 2 * ps
}

/// The body length announced by the record header `hdr` read at stream
/// position `pos`, if it can start a valid record: its LSN is its
/// position, its kind exists, and its body fits the largest record a log
/// with `ps`-byte pages can hold — the bound on what a scan allocates.
pub(super) fn body_len(hdr: &[u8], pos: u64, ps: usize) -> Option<usize> {
    let (lsn, len, kind) = (get_u64(hdr, 0), get_u32(hdr, 8) as usize, hdr[12]);
    (lsn == pos && len <= max_body(ps) && (KIND_FIRST_MOD..=KIND_COMMIT).contains(&kind))
        .then_some(len)
}

/// Decodes the record `hdr | body` in place; `None` if the checksum or the
/// body's own structure is broken (the valid chain ends before this
/// record).
pub(super) fn decode_record<'a>(hdr: &[u8], body: &'a [u8], ps: usize) -> Option<Record<'a>> {
    let (lsn, kind) = (get_u64(hdr, 0), hdr[12]);
    if record_checksum(lsn, kind, &[body]) != get_u64(hdr, 13) {
        return None;
    }
    decode_body(kind, body, ps)
}

fn decode_body(kind: u8, body: &[u8], ps: usize) -> Option<Record<'_>> {
    match kind {
        KIND_COMMIT if body.len() == 8 => Some(Record::Commit { seq: get_u64(body, 0) }),
        KIND_FIRST_MOD | KIND_DELTA => {
            let table = UPDATE_HEAD + if kind == KIND_FIRST_MOD { HOLE_FIELDS } else { 0 };
            if body.len() < table {
                return None;
            }
            let page = PageId(get_u64(body, 0));
            let n = get_u32(body, 8) as usize;
            let delta_len = get_u32(body, 12) as usize;
            // A Delta carries no pre-image: as if its hole were the page.
            let (hole_off, hole_len) = if kind == KIND_FIRST_MOD {
                (get_u32(body, UPDATE_HEAD) as usize, get_u32(body, UPDATE_HEAD + 4) as usize)
            } else {
                (0, ps)
            };
            // `n`, `delta_len` and the hole are bounded before they enter
            // a sum.
            if !(1..=MAX_RUNS).contains(&n)
                || delta_len > ps
                || hole_len > ps
                || hole_off > ps - hole_len
                || body.len() != table + RUN_ENTRY * n + (ps - hole_len) + delta_len
            {
                return None;
            }
            let mut runs = Runs::default();
            let (mut end, mut total) = (0usize, 0usize);
            for i in 0..n {
                let off = get_u32(body, table + RUN_ENTRY * i);
                let len = get_u32(body, table + RUN_ENTRY * i + 4);
                let run_end = (off as usize).checked_add(len as usize)?;
                if len == 0 || (off as usize) < end || run_end > ps {
                    return None;
                }
                (end, total) = (run_end, total + len as usize);
                runs.push(off, len);
            }
            if total != delta_len {
                return None;
            }
            let (kept, delta) = body[table + RUN_ENTRY * n..].split_at(ps - hole_len);
            Some(if kind == KIND_FIRST_MOD {
                let before = PreImage { kept, hole_off, hole_len };
                Record::FirstMod { page, before, runs, delta }
            } else {
                Record::Delta { page, runs, delta }
            })
        }
        _ => None,
    }
}

/// A decoded, validated anchor.
pub(super) struct Anchor {
    pub(super) seq: u64,
    pub(super) start: u64,
    pub(super) map: SegMap,
}

/// The anchor page carrying `map` as sequence `seq`; it belongs on device
/// page `seq & 1`.
pub(super) fn encode_anchor(page_size: usize, seq: u64, start: u64, map: &SegMap) -> Vec<u8> {
    debug_assert!(map.slots.len() <= anchor_capacity(page_size));
    let mut page = vec![0u8; page_size];
    put_u32(&mut page, 0, WAL_MAGIC);
    put_u16(&mut page, 4, WAL_VERSION);
    put_u64(&mut page, 8, seq);
    put_u64(&mut page, 16, start);
    put_u32(&mut page, 24, map.seg_pages as u32);
    put_u32(&mut page, 28, map.slots.len() as u32);
    put_u64(&mut page, 32, map.first_seg);
    for (i, &slot) in map.slots.iter().enumerate() {
        put_u32(&mut page, ANCHOR_HDR + 4 * i, slot);
    }
    let crc_off = ANCHOR_HDR + 4 * map.slots.len();
    let crc = fnv([&page[..crc_off]]);
    put_u64(&mut page, crc_off, crc);
    page
}

/// Decodes one anchor page.  `Ok(None)` means "not a valid anchor"
/// (zeroed, torn, or checksum-broken — fall back to the twin page);
/// `Err` means a structurally recognizable anchor of the wrong version.
pub(super) fn parse_anchor(page: &[u8]) -> Result<Option<Anchor>> {
    if get_u32(page, 0) != WAL_MAGIC {
        return Ok(None);
    }
    let version = get_u16(page, 4);
    if version != WAL_VERSION {
        return Err(Error::Corrupt(format!(
            "WAL anchor version {version} (expected {WAL_VERSION})"
        )));
    }
    let seg_pages = u64::from(get_u32(page, 24));
    let count = get_u32(page, 28) as usize;
    if seg_pages < 2 || count > anchor_capacity(page.len()) {
        return Ok(None);
    }
    let crc_off = ANCHOR_HDR + 4 * count;
    if get_u64(page, crc_off) != fnv([&page[..crc_off]]) {
        return Ok(None);
    }
    let slots = (0..count).map(|i| get_u32(page, ANCHOR_HDR + 4 * i)).collect();
    Ok(Some(Anchor {
        seq: get_u64(page, 8),
        start: get_u64(page, 16),
        map: SegMap { seg_pages, first_seg: get_u64(page, 32), slots },
    }))
}

/// The self-checksummed header page opening the segment whose stream
/// range starts at `first_lsn`.
pub(super) fn encode_segment_header(page_size: usize, first_lsn: u64) -> Vec<u8> {
    let mut page = vec![0u8; page_size];
    put_u32(&mut page, 0, SEG_MAGIC);
    put_u64(&mut page, 8, first_lsn);
    let crc = fnv([&page[..16]]);
    put_u64(&mut page, 16, crc);
    page
}

/// Whether `page` is the intact header of the segment starting at
/// `first_lsn` (and not, say, a recycled slot's stale one).
pub(super) fn is_segment_header(page: &[u8], first_lsn: u64) -> bool {
    get_u32(page, 0) == SEG_MAGIC
        && get_u64(page, 8) == first_lsn
        && get_u64(page, 16) == fnv([&page[..16]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskManager, MemDisk};

    const PS: usize = 64;

    /// An update body with the head fields and table as given — whether
    /// or not they agree — a pre-image with no hole if `kind` is
    /// FirstMod, and `bytes` run bytes.
    fn body(kind: u8, n: u32, delta_len: u32, table: &[(u32, u32)], bytes: usize) -> Vec<u8> {
        let mut b = vec![0u8; UPDATE_HEAD];
        put_u64(&mut b, 0, 3);
        put_u32(&mut b, 8, n);
        put_u32(&mut b, 12, delta_len);
        if kind == KIND_FIRST_MOD {
            b.resize(UPDATE_HEAD + HOLE_FIELDS, 0);
        }
        for &(off, len) in table {
            b.extend_from_slice(&off.to_le_bytes());
            b.extend_from_slice(&len.to_le_bytes());
        }
        if kind == KIND_FIRST_MOD {
            b.extend_from_slice(&[0xBB; PS]);
        }
        b.resize(b.len() + bytes, 0xDD);
        b
    }

    /// A body whose head and length agree with `table`.
    fn consistent(kind: u8, table: &[(u32, u32)]) -> Vec<u8> {
        let total: u32 = table.iter().map(|&(_, len)| len).sum();
        body(kind, table.len() as u32, total, table, total as usize)
    }

    /// A FirstMod body with the one run `(0, 4)` that announces the hole
    /// `hole_off .. hole_off + hole_len` and carries `kept` pre-image
    /// bytes — whether or not the three agree.
    fn holed(hole_off: u32, hole_len: u32, kept: usize) -> Vec<u8> {
        let mut b = body(KIND_FIRST_MOD, 1, 4, &[(0, 4)], 4);
        put_u32(&mut b, UPDATE_HEAD, hole_off);
        put_u32(&mut b, UPDATE_HEAD + 4, hole_len);
        let at = UPDATE_HEAD + HOLE_FIELDS + RUN_ENTRY;
        b.splice(at..at + PS, std::iter::repeat_n(0xBB, kept));
        b
    }

    #[test]
    fn update_bodies_decode_to_their_run_table() {
        // Adjacent runs are disjoint, hence valid; so is a full table.
        let full: Vec<(u32, u32)> = (0..MAX_RUNS as u32).map(|i| (8 * i, 1)).collect();
        for table in [&[(2, 2), (40, 8)][..], &[(2, 2), (4, 4)], &[(0, 64)], &full] {
            for kind in [KIND_FIRST_MOD, KIND_DELTA] {
                let body = consistent(kind, table);
                let rec = decode_body(kind, &body, PS).expect("valid body");
                let (runs, delta, before) = match rec {
                    Record::FirstMod { runs, delta, before, .. } => {
                        (runs, delta, Some(before.image()))
                    }
                    Record::Delta { runs, delta, .. } => (runs, delta, None),
                    other => panic!("decoded an update as {other:?}"),
                };
                assert_eq!(runs.as_slice(), table);
                assert!(delta.iter().all(|&b| b == 0xDD));
                assert_eq!(delta.len(), table.iter().map(|&(_, len)| len as usize).sum::<usize>());
                assert_eq!(before, (kind == KIND_FIRST_MOD).then(|| vec![0xBB; PS]));
            }
        }
    }

    #[test]
    fn a_pre_image_is_rebuilt_around_its_hole() {
        // Holes at the start, inside, at the end, empty, and the whole page.
        for (off, len) in [(0, 10), (10, 20), (PS - 5, 5), (PS, 0), (7, 0), (0, PS)] {
            let body = holed(off as u32, len as u32, PS - len);
            let Some(Record::FirstMod { before, delta, .. }) =
                decode_body(KIND_FIRST_MOD, &body, PS)
            else {
                panic!("hole ({off}, {len}) refused");
            };
            let mut want = vec![0xBB; PS];
            want[off..off + len].fill(0);
            assert_eq!(before.image(), want, "hole ({off}, {len})");
            assert_eq!(delta, [0xDD; 4]);
        }
    }

    #[test]
    fn update_decoder_rejects_every_malformed_run_table() {
        let nine: Vec<(u32, u32)> = (0..9).map(|i| (i, 1)).collect();
        for kind in [KIND_FIRST_MOD, KIND_DELTA] {
            let rejected: [(&str, Vec<u8>); 14] = [
                ("no runs", consistent(kind, &[])),
                ("more runs than the table holds", consistent(kind, &nine)),
                ("a run count far past the body", body(kind, u32::MAX, 4, &[(0, 4)], 4)),
                ("a zero-length run", consistent(kind, &[(2, 0), (40, 8)])),
                ("a zero-length only run", consistent(kind, &[(2, 0)])),
                ("overlapping runs", consistent(kind, &[(10, 8), (17, 2)])),
                ("descending runs", consistent(kind, &[(40, 8), (2, 2)])),
                ("a run past the page", consistent(kind, &[(60, 8)])),
                ("a run starting past the page", consistent(kind, &[(64, 1)])),
                ("a run whose end wraps", body(kind, 1, 2, &[(u32::MAX, 2)], 2)),
                ("delta_len one short of the runs", body(kind, 2, 9, &[(2, 2), (40, 8)], 9)),
                ("delta_len one past the runs", body(kind, 2, 11, &[(2, 2), (40, 8)], 11)),
                ("a body one byte short", body(kind, 1, 4, &[(0, 4)], 3)),
                ("a body one byte long", body(kind, 1, 4, &[(0, 4)], 5)),
            ];
            for (what, body) in rejected {
                assert!(decode_body(kind, &body, PS).is_none(), "kind {kind} accepted {what}");
            }
        }
        // The pre-image is part of the announced length, too.
        let delta_shaped = consistent(KIND_DELTA, &[(0, 4)]);
        assert!(decode_body(KIND_FIRST_MOD, &delta_shaped, PS).is_none());
    }

    #[test]
    fn update_decoder_rejects_every_forged_hole() {
        let rejected = [
            ("a hole one byte past the page", holed(PS as u32 - 19, 20, PS - 20)),
            ("a hole starting past the page", holed(PS as u32 + 1, 0, PS)),
            ("a hole longer than the page", holed(0, PS as u32 + 1, 0)),
            ("a hole of u32::MAX bytes", holed(0, u32::MAX, 0)),
            ("a hole whose end wraps", holed(u32::MAX, 2, PS - 2)),
            ("one kept byte more than the hole leaves", holed(10, 20, PS - 19)),
            ("one kept byte fewer than the hole leaves", holed(10, 20, PS - 21)),
            ("the whole page kept around a hole", holed(10, 20, PS)),
            ("no byte kept around a hole of one byte", holed(10, 1, 0)),
        ];
        for (what, body) in rejected {
            assert!(decode_body(KIND_FIRST_MOD, &body, PS).is_none(), "accepted {what}");
        }
    }

    /// The longest zero run of `img` by a byte-at-a-time walk, among
    /// those that hold an aligned eight-byte word.
    fn reference_hole(img: &[u8]) -> (usize, usize) {
        let whole = img.len() / 8 * 8;
        let (mut hole, mut i) = ((0, 0), 0);
        while i < img.len() {
            if img[i] != 0 {
                i += 1;
                continue;
            }
            let start = i;
            while i < img.len() && img[i] == 0 {
                i += 1;
            }
            let holds_a_word = start.next_multiple_of(8) + 8 <= i.min(whole);
            if holds_a_word && i - start > hole.1 {
                hole = (start, i - start);
            }
        }
        hole
    }

    #[test]
    fn the_hole_is_the_longest_zero_run_holding_an_aligned_word() {
        let mut images = vec![vec![0u8; 100], vec![1u8; 100], vec![0u8; 0]];
        // Runs across word edges, inside one word, of 14 bytes holding no
        // aligned word, in the bytes past the last whole word, at both
        // ends, and equal ones (the first wins).
        for zeros in [
            &[(3, 20)][..],
            &[(1, 6), (40, 44)],
            &[(1, 6)],
            &[(1, 15), (17, 25)],
            &[(95, 100)],
            &[(88, 100)],
            &[(0, 9), (30, 39)],
            &[(93, 98)],
            &[(10, 30), (50, 70), (96, 100)],
        ] {
            let mut img = vec![0x5Au8; 100];
            zeros.iter().for_each(|&(from, to)| img[from..to].fill(0));
            images.push(img);
        }
        // Pseudo-random images, sparse and dense in zeros, at four sizes.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..400 {
            let mut img = vec![0u8; [64, 100, 127, 256][i % 4]];
            for b in img.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *b = if x % 8 < [1, 4, 7][i % 3] { 0 } else { x as u8 | 1 };
            }
            images.push(img);
        }
        for img in &images {
            assert_eq!(zero_hole(img), reference_hole(img), "{img:?}");
        }
    }

    #[test]
    fn scan_allocation_bound_covers_the_largest_update_and_no_more() {
        // The largest record: a full table whose runs cover the page.
        let ps = 1 << 16;
        let mut runs = Runs::default();
        for i in 0..MAX_RUNS {
            runs.push((i * ps / MAX_RUNS) as u32, (ps / MAX_RUNS) as u32);
        }
        let (image, mut out) = (vec![7u8; ps], Vec::new());
        encode_update(&mut out, 0, PageId(1), Some(&image), &runs, &image);
        let (hdr, body) = out.split_at(REC_HDR);
        assert_eq!(body_len(hdr, 0, ps), Some(body.len()));
        assert!(decode_record(hdr, body, ps).is_some());
        let mut longer = hdr.to_vec();
        put_u32(&mut longer, 8, body.len() as u32 + 1);
        assert_eq!(body_len(&longer, 0, ps), None);
    }

    #[test]
    fn body_len_refuses_one_byte_past_the_largest_update_body() {
        // At the default 2 KB pages: 16 head bytes, 8 hole bytes, eight
        // run entries, the pre-image without a hole and a page of run
        // bytes.
        assert_eq!(max_body(crate::DEFAULT_PAGE_SIZE), 4184);
        let hdr = |kind: u8, len: usize| {
            let mut h = [0u8; REC_HDR];
            put_u64(&mut h, 0, 77);
            put_u32(&mut h, 8, len as u32);
            h[12] = kind;
            h
        };
        for ps in [PS, crate::DEFAULT_PAGE_SIZE, 4096] {
            let max = max_body(ps);
            for kind in [KIND_FIRST_MOD, KIND_DELTA, KIND_COMMIT] {
                assert_eq!(body_len(&hdr(kind, max), 77, ps), Some(max), "kind {kind}");
                assert_eq!(body_len(&hdr(kind, max + 1), 77, ps), None, "kind {kind}");
                assert_eq!(body_len(&hdr(kind, 8), 78, ps), None, "an LSN off its position");
            }
            // Kind 4, the retired Checkpoint record, starts nothing.
            for kind in [0, 4, 5, u8::MAX] {
                assert_eq!(body_len(&hdr(kind, 8), 77, ps), None, "kind {kind}");
            }
        }
    }

    #[test]
    fn an_anchor_of_the_previous_format_version_is_refused_as_corrupt() {
        let map = SegMap { seg_pages: 4, first_seg: 0, slots: [0].into() };
        let mut page = encode_anchor(128, 1, 0, &map);
        assert!(parse_anchor(&page).unwrap().is_some());
        // Version 5 logged each FirstMod's whole pre-image.
        put_u16(&mut page, 4, 5);
        assert!(matches!(parse_anchor(&page), Err(Error::Corrupt(_))));
        // … and so is a device that carries nothing newer.
        let disk = MemDisk::new(128);
        disk.allocate_page().unwrap();
        disk.write_page(PageId(0), &page).unwrap();
        let attached = crate::wal::Wal::attach_with(Box::new(disk), Default::default());
        let named = "WAL anchor version 5 (expected 6)";
        assert!(matches!(attached, Err(Error::Corrupt(msg)) if msg.contains(named)));
    }
}

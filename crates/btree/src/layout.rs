//! On-page layout of B-link tree nodes (format version 2).
//!
//! Every node occupies exactly one page.  The layout is fixed-width: a 24
//! byte header, densely packed entries, and — on every node that is not
//! the rightmost of its level — a *high key* in the last separator-sized
//! slot of the page.
//!
//! ```text
//! offset  size  field
//! 0       1     node type (1 = leaf, 2 = internal; 3 is reserved)
//! 1       1     key arity
//! 2       2     entry count (u16)
//! 4       1     page format version (2; version 1 had no right links)
//! 5       1     flags (bit 0: node stores a high key)
//! 6       2     reserved
//! 8       8     leaf: right link (= next leaf in key order) | internal:
//!               leftmost child (child0)
//! 16      8     internal: right link (right sibling on the same level) |
//!               leaf: reserved, zero (format 1 kept a previous-leaf
//!               pointer here; the B-link protocol has no backward chain)
//! 24      ...   entries
//! tail    k+8   high key (one separator-sized slot), present iff flag 0
//! ```
//!
//! * Leaf entry: `arity` × `i64` key columns, then the `u64` payload.
//! * Internal entry: a full separator entry (key columns + payload) followed
//!   by the `u64` page id of the child holding entries `>=` the separator.
//!   Entries `<` the first separator live under `child0`.
//!
//! # Right links and high keys (Lehman–Yao)
//!
//! The *high key* is an exclusive upper bound: every entry `e` stored in
//! (or below) the node satisfies `e < high`.  A node without a high key is
//! the rightmost of its level and bounds `+∞`.  The *right link* points to
//! the sibling holding `[high, …)`; the two are set together when a node
//! splits, so `high.is_some() == right link is valid` is an invariant.
//! Any traversal that finds its target at or past a node's high key simply
//! *moves right* — which is what lets splits publish the new sibling
//! before the parent's separator exists, and lets readers descend with no
//! latches at all (see `tree`'s module docs).
//!
//! Format version 1 pages (no version byte, a `prev` pointer instead of a
//! high key) are **not readable**; [`NodeView::parse`] rejects them.  The
//! write path's golden counters were re-captured for format 2 (the
//! command is in `tests/common/golden.rs`).
//!
//! # One view, a read side and a write side
//!
//! [`NodeView`] reads a page: it validates the header once, then compares,
//! binary-searches and reads columns *in place* — no allocation, nothing
//! decoded that is not returned.  `NodeMut` is its write twin over
//! `&mut [u8]`, sharing the validation and the offsets: an insert or a
//! delete shifts the entries after its slot by one and rewrites the
//! count, a split copies whole entries, and `NodeMut::init` formats a
//! fresh page.  An edit writes only the bytes it changes, so the slots
//! past the count keep what they last held.  Either way a page is outside
//! input: a header that does not describe a node of this tree is
//! [`Error::Corrupt`], never a panic.

use crate::key::{Entry, Key};
use ri_pagestore::codec::{get_i64, get_u16, get_u64, put_i64, put_u16, put_u64};
use ri_pagestore::{Error, PageId, Result};
use std::cmp::Ordering;

/// Node type tag for leaves.
pub const NODE_LEAF: u8 = 1;
/// Node type tag for internal nodes.
pub const NODE_INTERNAL: u8 = 2;
/// Node type tag reserved for free-list pages.  The tree never frees a
/// page (see `tree`'s module docs), so nothing writes it;
/// [`NodeView::parse`] rejects it like any unknown tag.
pub const NODE_FREE: u8 = 3;

/// On-page format version written into (and required of) every node.
pub const FORMAT_VERSION: u8 = 2;

const OFF_TYPE: usize = 0;
const OFF_ARITY: usize = 1;
const OFF_COUNT: usize = 2;
const OFF_VERSION: usize = 4;
const OFF_FLAGS: usize = 5;
const OFF_LINK: usize = 8;
/// Internal nodes keep `child0` in the primary link slot, so their right
/// link lives in the second one (a leaf's is reserved, written zero).
const OFF_INTERNAL_NEXT: usize = 16;
/// First byte of the entry area.
pub const HEADER_SIZE: usize = 24;

/// Flag bit: the node stores a high key in the page's tail slot.
const FLAG_HIGH_KEY: u8 = 1;

/// Size in bytes of a leaf entry for the given arity.
#[inline]
pub fn leaf_entry_size(arity: usize) -> usize {
    arity * 8 + 8
}

/// Size in bytes of an internal entry (separator + child pointer).
#[inline]
pub fn internal_entry_size(arity: usize) -> usize {
    leaf_entry_size(arity) + 8
}

/// Maximum number of entries a leaf page can hold (one separator-sized
/// slot at the page tail is reserved for the high key).
#[inline]
pub fn leaf_capacity(page_size: usize, arity: usize) -> usize {
    capacity(page_size, arity, true)
}

/// Maximum number of separator entries an internal page can hold
/// (an internal page with `k` entries has `k + 1` children; the high-key
/// slot is reserved exactly as on leaves).
#[inline]
pub fn internal_capacity(page_size: usize, arity: usize) -> usize {
    capacity(page_size, arity, false)
}

/// Bytes per entry slot: an entry on a leaf, a separator and the child
/// right of it on an internal node.
#[inline]
fn slot_size(arity: usize, leaf: bool) -> usize {
    if leaf {
        leaf_entry_size(arity)
    } else {
        internal_entry_size(arity)
    }
}

/// Entry slots a node of `page_size` bytes holds.
#[inline]
fn capacity(page_size: usize, arity: usize, leaf: bool) -> usize {
    (page_size - HEADER_SIZE - leaf_entry_size(arity)) / slot_size(arity, leaf)
}

/// Offset of the high-key slot, the last separator-sized slot of the page.
#[inline]
fn high_offset(page_size: usize, arity: usize) -> usize {
    page_size - leaf_entry_size(arity)
}

/// Decodes one leaf entry (or separator) from its on-page bytes: `arity`
/// little-endian `i64` key columns, then the `u64` payload.
#[inline]
pub fn read_entry(words: &[u8], arity: usize) -> Entry {
    // One bounds check for the whole entry, then fixed-trip loads.
    let words = &words[..leaf_entry_size(arity)];
    let mut cols = [0i64; crate::key::MAX_ARITY];
    for (c, slot) in cols.iter_mut().enumerate() {
        if c < arity {
            *slot = get_i64(words, c * 8);
        }
    }
    Entry { key: Key::from_padded(cols, arity), payload: get_u64(words, arity * 8) }
}

pub(crate) fn write_entry(buf: &mut [u8], off: usize, e: &Entry) {
    let arity = e.key.arity();
    for (c, v) in e.key.as_slice().iter().enumerate() {
        put_i64(buf, off + c * 8, *v);
    }
    put_u64(buf, off + arity * 8, e.payload);
}

/// A validated, borrowed view of one node page — the read path's way to
/// look at a node (see the module docs).  [`NodeView::parse`] checks the
/// header once; after that every entry offset is known to lie inside the
/// page, and the accessors search and read in place.
#[derive(Clone, Copy)]
pub struct NodeView<'a> {
    buf: &'a [u8],
    arity: usize,
    count: usize,
    leaf: bool,
}

impl<'a> NodeView<'a> {
    /// Validates the header of `buf` as a node of a tree with `arity` key
    /// columns: format version, arity, node tag, and an entry count that
    /// fits the page.
    pub fn parse(buf: &'a [u8], arity: usize) -> Result<NodeView<'a>> {
        if buf[OFF_VERSION] != FORMAT_VERSION {
            return Err(Error::Corrupt(format!(
                "node format version {} (expected {FORMAT_VERSION}; pre-B-link pages are not readable)",
                buf[OFF_VERSION]
            )));
        }
        let stored_arity = buf[OFF_ARITY] as usize;
        if stored_arity != arity {
            return Err(Error::Corrupt(format!(
                "node arity {stored_arity} does not match tree arity {arity}"
            )));
        }
        let leaf = match buf[OFF_TYPE] {
            NODE_LEAF => true,
            NODE_INTERNAL => false,
            other => return Err(Error::Corrupt(format!("unexpected node tag {other}"))),
        };
        let (count, capacity) =
            (get_u16(buf, OFF_COUNT) as usize, capacity(buf.len(), arity, leaf));
        if count > capacity {
            return Err(Error::Corrupt(format!(
                "node claims {count} entries, a page holds at most {capacity}"
            )));
        }
        Ok(NodeView { buf, arity, count, leaf })
    }

    /// `true` for a leaf, `false` for an internal node.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.leaf
    }

    /// Number of entries (leaf) or separators (internal).
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Right sibling on the same level, or [`PageId::INVALID`].
    #[inline]
    pub fn next(&self) -> PageId {
        PageId(get_u64(self.buf, if self.leaf { OFF_LINK } else { OFF_INTERNAL_NEXT }))
    }

    #[inline]
    fn offset(&self, i: usize) -> usize {
        HEADER_SIZE + i * slot_size(self.arity, self.leaf)
    }

    /// Orders the on-page key columns at `off` against `cols`.
    #[inline]
    fn cmp_cols_at(&self, off: usize, cols: &[i64]) -> Ordering {
        for (c, want) in cols.iter().enumerate() {
            match get_i64(self.buf, off + c * 8).cmp(want) {
                Ordering::Equal => {}
                unequal => return unequal,
            }
        }
        Ordering::Equal
    }

    /// Orders the on-page entry at `off` (key columns, then payload)
    /// against `target`.
    #[inline]
    fn cmp_at(&self, off: usize, target: &Entry) -> Ordering {
        debug_assert_eq!(target.key.arity(), self.arity);
        self.cmp_cols_at(off, target.key.as_slice())
            .then_with(|| get_u64(self.buf, off + self.arity * 8).cmp(&target.payload))
    }

    /// First index in `from..count()` whose entry fails `below` — the
    /// entries are sorted, so `below` holds on a prefix.
    #[inline]
    fn partition_point(&self, from: usize, below: impl Fn(usize) -> bool) -> usize {
        let (mut lo, mut hi) = (from, self.count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if below(self.offset(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Offset of the high key; `None` = +∞, the rightmost node of a level.
    #[inline]
    fn high_offset(&self) -> Option<usize> {
        (self.buf[OFF_FLAGS] & FLAG_HIGH_KEY != 0).then(|| high_offset(self.buf.len(), self.arity))
    }

    /// The high key, decoded.
    pub fn high(&self) -> Option<Entry> {
        self.high_offset().map(|off| self.entry_at(off))
    }

    /// `true` when `target` lies below the high key; `false` means the
    /// traversal must *move right*.  Compared in place.
    #[inline]
    pub fn covers(&self, target: &Entry) -> bool {
        self.high_offset().is_none_or(|off| self.cmp_at(off, target) == Ordering::Greater)
    }

    /// Index of the first entry `>= target` (binary search in place).
    pub fn lower_bound(&self, target: &Entry) -> usize {
        self.partition_point(0, |off| self.cmp_at(off, target) == Ordering::Less)
    }

    /// Index of the first entry at or after `from` whose key columns
    /// exceed `hi` — the exclusive end of an inclusive range scan.
    pub fn key_upper_bound(&self, from: usize, hi: &Key) -> usize {
        self.partition_point(from, |off| self.cmp_cols_at(off, hi.as_slice()) != Ordering::Greater)
    }

    /// Index of the first entry equal to `target`, if the node stores it.
    pub(crate) fn find(&self, target: &Entry) -> Option<usize> {
        let i = self.lower_bound(target);
        (i < self.count && self.cmp_at(self.offset(i), target) == Ordering::Equal).then_some(i)
    }

    /// `true` when a leaf stores exactly `target`.
    pub fn contains(&self, target: &Entry) -> bool {
        self.find(target).is_some()
    }

    /// Internal node: the child page that must contain `target` — the one
    /// right of the last separator `<= target`, `child0` when there is none.
    pub fn route(&self, target: &Entry) -> PageId {
        debug_assert!(!self.leaf);
        self.child_at(self.partition_point(0, |off| self.cmp_at(off, target) != Ordering::Greater))
    }

    /// Internal node: the child page at routing slot `slot` (`0` for
    /// `child0`, `i + 1` for the child right of separator `i`).
    pub fn child_at(&self, slot: usize) -> PageId {
        debug_assert!(!self.leaf && slot <= self.count);
        PageId(match slot {
            0 => get_u64(self.buf, OFF_LINK),
            i => get_u64(self.buf, self.offset(i - 1) + leaf_entry_size(self.arity)),
        })
    }

    /// Decodes entry (or separator) `i`.
    #[inline]
    pub fn entry(&self, i: usize) -> Entry {
        debug_assert!(i < self.count);
        self.entry_at(self.offset(i))
    }

    #[inline]
    fn entry_at(&self, off: usize) -> Entry {
        read_entry(&self.buf[off..], self.arity)
    }

    /// Leaf: the dense on-page bytes of entries `from..end` — a *leaf
    /// run*, `end - from` records of [`leaf_entry_size`] bytes, each what
    /// [`read_entry`] decodes.  Nothing is decoded or copied.
    #[inline]
    pub fn leaf_run(&self, from: usize, end: usize) -> &'a [u8] {
        debug_assert!(self.leaf && from <= end && end <= self.count);
        &self.buf[self.offset(from)..self.offset(end)]
    }

    /// The entry slots of this node with `e` spliced in at its sorted
    /// place (ahead of equal entries) — and, on an internal node, `child`
    /// as the child right of it: the `count() + 1` slots a full node
    /// splits, in one page-sized scratch.
    pub(crate) fn spliced(&self, e: &Entry, child: PageId) -> Vec<u8> {
        let at = self.offset(self.lower_bound(e)) - HEADER_SIZE;
        let mut slots = Vec::with_capacity(self.buf.len());
        slots.extend_from_slice(&self.buf[HEADER_SIZE..][..at]);
        slots.resize(at + slot_size(self.arity, self.leaf), 0);
        write_entry(&mut slots, at, e);
        if !self.leaf {
            put_u64(&mut slots, at + leaf_entry_size(self.arity), child.raw());
        }
        slots.extend_from_slice(&self.buf[HEADER_SIZE + at..self.offset(self.count)]);
        slots
    }
}

/// The write side of [`NodeView`]: the same validated header and the
/// same offsets over a page it may edit — a pool frame's `&mut [u8]`, or
/// an owned image the bulk builder packs.  An edit writes only the bytes
/// it changes: the slots past the count keep what they last held.
pub(crate) struct NodeMut<B> {
    buf: B,
    arity: usize,
    count: usize,
    capacity: usize,
    leaf: bool,
}

impl<B: AsRef<[u8]> + AsMut<[u8]>> NodeMut<B> {
    /// Validates `buf` exactly as [`NodeView::parse`] does.
    pub fn parse(buf: B, arity: usize) -> Result<NodeMut<B>> {
        let NodeView { count, leaf, .. } = NodeView::parse(buf.as_ref(), arity)?;
        let capacity = capacity(buf.as_ref().len(), arity, leaf);
        Ok(NodeMut { buf, arity, count, capacity, leaf })
    }

    /// Formats `buf` as an empty node of a tree with `arity` key columns:
    /// the header, no high key, and both link slots [`PageId::INVALID`].
    /// Nothing else is written.
    pub fn init(mut buf: B, arity: usize, leaf: bool) -> NodeMut<B> {
        let page = buf.as_mut();
        page[OFF_TYPE] = if leaf { NODE_LEAF } else { NODE_INTERNAL };
        page[OFF_ARITY] = arity as u8;
        put_u16(page, OFF_COUNT, 0);
        page[OFF_VERSION] = FORMAT_VERSION;
        page[OFF_FLAGS] = 0;
        put_u64(page, OFF_LINK, PageId::INVALID.raw());
        put_u64(page, OFF_INTERNAL_NEXT, PageId::INVALID.raw());
        let capacity = capacity(page.len(), arity, leaf);
        NodeMut { buf, arity, count: 0, capacity, leaf }
    }

    /// The read side of the page as edited so far.
    #[inline]
    pub fn view(&self) -> NodeView<'_> {
        NodeView { buf: self.buf.as_ref(), arity: self.arity, count: self.count, leaf: self.leaf }
    }

    /// Number of entries (leaf) or separators (internal).
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The page buffer, written.
    pub fn into_inner(self) -> B {
        self.buf
    }

    /// Byte range of slots `from..end`, checked against the capacity.
    #[inline]
    fn slots(&self, from: usize, end: usize) -> std::ops::Range<usize> {
        assert!(end <= self.capacity, "node overflow: {end} entries");
        let view = self.view();
        view.offset(from)..view.offset(end)
    }

    #[inline]
    fn set_count(&mut self, count: usize) {
        self.count = count;
        put_u16(self.buf.as_mut(), OFF_COUNT, count as u16);
    }

    /// Inserts `e` at its sorted place, ahead of equal entries, shifting
    /// the entries after it one slot right; returns its index.  On an
    /// internal node the child right of it is [`NodeMut::set_child`]'s.
    /// Panics if the node is full.
    pub fn insert(&mut self, e: &Entry) -> usize {
        let pos = self.view().lower_bound(e);
        let (from, to) = (self.slots(pos, self.count), self.slots(pos + 1, self.count + 1));
        self.buf.as_mut().copy_within(from.clone(), to.start);
        write_entry(self.buf.as_mut(), from.start, e);
        self.set_count(self.count + 1);
        pos
    }

    /// Appends `e` after the last entry (the caller keeps the order).
    /// Panics if the node is full.
    #[inline]
    pub fn push(&mut self, e: &Entry) {
        let at = self.slots(self.count, self.count + 1).start;
        write_entry(self.buf.as_mut(), at, e);
        self.set_count(self.count + 1);
    }

    /// Removes entry `i`, shifting the entries after it one slot left.
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.count, "no entry {i} of {}", self.count);
        let (from, to) = (self.slots(i + 1, self.count), self.slots(i, self.count - 1));
        self.buf.as_mut().copy_within(from, to.start);
        self.set_count(self.count - 1);
    }

    /// Replaces the entries with whole entry slots, as
    /// [`NodeView::spliced`] hands them out.  Panics if they do not fit.
    pub fn set_slots(&mut self, slots: &[u8]) {
        let count = slots.len() / slot_size(self.arity, self.leaf);
        let range = self.slots(0, count);
        self.buf.as_mut()[range].copy_from_slice(slots);
        self.set_count(count);
    }

    /// Internal node: sets the child at routing slot `slot` (`0` for
    /// `child0`, `i + 1` for the child right of separator `i`), as
    /// [`NodeView::child_at`] reads it.
    pub fn set_child(&mut self, slot: usize, child: PageId) {
        assert!(!self.leaf && slot <= self.count, "no routing slot {slot}");
        let off = match slot {
            0 => OFF_LINK,
            i => self.view().offset(i - 1) + leaf_entry_size(self.arity),
        };
        put_u64(self.buf.as_mut(), off, child.raw());
    }

    /// Sets the right link.
    pub fn set_next(&mut self, next: PageId) {
        let off = if self.leaf { OFF_LINK } else { OFF_INTERNAL_NEXT };
        put_u64(self.buf.as_mut(), off, next.raw());
    }

    /// Sets the high key; `None` = +∞, the rightmost node of a level.
    pub fn set_high(&mut self, high: Option<&Entry>) {
        let page = self.buf.as_mut();
        page[OFF_FLAGS] = if high.is_some() { FLAG_HIGH_KEY } else { 0 };
        if let Some(h) = high {
            write_entry(page, high_offset(page.len(), self.arity), h);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::BTree;

    /// A node decoded whole through [`NodeView`] — the form tests compare
    /// pages against: every entry with the child right of it (internal;
    /// [`PageId::INVALID`] on a leaf, as is `child0`), the right link and
    /// the high key.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub(crate) struct Decoded {
        pub(crate) leaf: bool,
        pub(crate) child0: PageId,
        pub(crate) entries: Vec<(Entry, PageId)>,
        pub(crate) next: PageId,
        pub(crate) high: Option<Entry>,
    }

    impl Decoded {
        /// A leaf holding `entries`.
        pub(crate) fn leaf(entries: &[Entry], next: PageId, high: Option<Entry>) -> Decoded {
            let entries = entries.iter().map(|&e| (e, PageId::INVALID)).collect();
            Decoded { leaf: true, child0: PageId::INVALID, entries, next, high }
        }

        /// The entries (or separators) alone.
        pub(crate) fn keys(&self) -> Vec<Entry> {
            self.entries.iter().map(|&(e, _)| e).collect()
        }
    }

    pub(crate) fn decode(buf: &[u8], arity: usize) -> Result<Decoded> {
        let view = NodeView::parse(buf, arity)?;
        let child = |slot| if view.is_leaf() { PageId::INVALID } else { view.child_at(slot) };
        Ok(Decoded {
            leaf: view.is_leaf(),
            child0: child(0),
            entries: (0..view.count()).map(|i| (view.entry(i), child(i + 1))).collect(),
            next: view.next(),
            high: view.high(),
        })
    }

    /// [`decode`]s page `page` of `tree`.
    pub(crate) fn node(tree: &BTree, page: PageId) -> Decoded {
        tree.pool().with_page(page, |buf| decode(buf, tree.arity())).unwrap().unwrap()
    }

    /// Formats `buf` as the node `d` describes, through the writer.
    pub(crate) fn encode(buf: &mut [u8], arity: usize, d: &Decoded) {
        let mut node = NodeMut::init(buf, arity, d.leaf);
        for (i, (e, child)) in d.entries.iter().enumerate() {
            node.push(e);
            if !d.leaf {
                node.set_child(i + 1, *child);
            }
        }
        if !d.leaf {
            node.set_child(0, d.child0);
        }
        node.set_next(d.next);
        node.set_high(d.high.as_ref());
    }

    #[test]
    fn leaf_roundtrip() {
        let mut buf = vec![0u8; 512];
        let node = Decoded::leaf(
            &[Entry::new(&[1, -2], 10), Entry::new(&[3, 4], 11)],
            PageId(7),
            Some(Entry::new(&[5, 0], 12)),
        );
        encode(&mut buf, 2, &node);
        assert_eq!(decode(&buf, 2).unwrap(), node);
    }

    #[test]
    fn rightmost_leaf_has_no_high_key() {
        let mut buf = vec![0u8; 512];
        let node = Decoded::leaf(&[Entry::new(&[9], 1)], PageId::INVALID, None);
        encode(&mut buf, 1, &node);
        assert_eq!(decode(&buf, 1).unwrap(), node);
        let view = NodeView::parse(&buf, 1).unwrap();
        assert!(view.covers(&Entry::new(&[i64::MAX], u64::MAX)), "no high key bounds +inf");
    }

    #[test]
    fn internal_roundtrip_routing_and_coverage() {
        let mut buf = vec![0u8; 512];
        let node = Decoded {
            leaf: false,
            child0: PageId(1),
            entries: vec![(Entry::new(&[10], 0), PageId(2)), (Entry::new(&[20], 0), PageId(3))],
            next: PageId(8),
            high: Some(Entry::new(&[30], 0)),
        };
        encode(&mut buf, 1, &node);
        assert_eq!(decode(&buf, 1).unwrap(), node);
        // The in-place view routes and bounds exactly like the decoded node.
        let view = NodeView::parse(&buf, 1).unwrap();
        assert!(!view.is_leaf());
        assert_eq!((view.count(), view.next(), view.high()), (2, node.next, node.high));
        assert_eq!((view.child_at(0), view.child_at(2)), (PageId(1), PageId(3)));
        assert_eq!(view.route(&Entry::new(&[5], 0)), PageId(1));
        assert_eq!(view.route(&Entry::new(&[10], 0)), PageId(2)); // >= separator goes right
        assert_eq!(view.route(&Entry::new(&[15], 99)), PageId(2));
        assert_eq!(view.route(&Entry::new(&[20], 0)), PageId(3));
        assert_eq!(view.route(&Entry::new(&[29], 0)), PageId(3));
        assert!(view.covers(&Entry::new(&[29], u64::MAX)));
        assert!(!view.covers(&Entry::new(&[30], 0)), "at the high key means move right");
    }

    #[test]
    fn leaf_view_searches_in_place() {
        let mut buf = vec![0u8; 512];
        let entries: Vec<Entry> = vec![
            Entry::new(&[i64::MIN, 0], 0),
            Entry::new(&[3, 3], 1),
            Entry::new(&[3, 3], 2), // duplicate key, payload breaks the tie
            Entry::new(&[3, 4], 0),
            Entry::new(&[i64::MAX, i64::MAX], u64::MAX),
        ];
        encode(&mut buf, 2, &Decoded::leaf(&entries, PageId::INVALID, None));
        let view = NodeView::parse(&buf, 2).unwrap();
        assert!(view.is_leaf());
        for probe in entries.iter().copied().chain([
            Entry::new(&[3, 3], 0),
            Entry::new(&[3, 3], 3),
            Entry::new(&[0, 0], 0),
            Entry::new(&[i64::MAX, i64::MAX], 0),
        ]) {
            assert_eq!(view.lower_bound(&probe), entries.partition_point(|e| *e < probe));
            assert_eq!(view.contains(&probe), entries.contains(&probe), "{probe:?}");
            for from in 0..=entries.len() {
                let want = from + entries[from..].partition_point(|e| e.key <= probe.key);
                assert_eq!(view.key_upper_bound(from, &probe.key), want, "{probe:?} from {from}");
            }
        }
        assert_eq!((0..view.count()).map(|i| view.entry(i)).collect::<Vec<_>>(), entries);
    }

    /// The writer's edits against a decoded reference, slot by slot — and
    /// the bytes past the count, which an edit leaves as they were.
    #[test]
    fn in_place_edits_shift_one_slot_and_keep_stale_slots() {
        let e = |k: i64| Entry::new(&[k, -k], k as u64);
        let size = leaf_entry_size(2);
        let mut buf = vec![0u8; 256];
        let mut node = NodeMut::init(&mut buf[..], 2, true);
        for k in [10, 30, 20, 40, 0] {
            node.insert(&e(k));
        }
        assert_eq!(node.insert(&e(20)), 2, "ahead of the equal entry");
        let slots = node.view().leaf_run(0, 6).to_vec();
        node.remove(2);
        node.remove(4);
        assert_eq!(decode(&buf, 2).unwrap().keys(), [0, 10, 20, 30].map(e));
        // Both vacated slots still hold the last entry: the first shift
        // copied it left, and nothing has written either since.
        for slot in [4, 5] {
            assert_eq!(&buf[HEADER_SIZE + slot * size..][..size], &slots[5 * size..]);
        }

        // A full node splices one more entry into a scratch of its slots;
        // keeping the lower half leaves the upper half's bytes in place.
        let (mut full, cap) = (vec![0u8; 256], leaf_capacity(256, 2));
        let mut node = NodeMut::init(&mut full[..], 2, true);
        (0..cap as i64).for_each(|k| node.push(&e(2 * k)));
        let spliced = node.view().spliced(&e(5), PageId::INVALID);
        let mut want: Vec<Entry> = (0..cap as i64).map(|k| e(2 * k)).collect();
        want.insert(3, e(5));
        assert_eq!(spliced.chunks(size).map(|w| read_entry(w, 2)).collect::<Vec<_>>(), want);
        let mid = want.len() / 2; // as a split cuts it
        node.set_slots(&spliced[..mid * size]);
        assert_eq!(decode(&full, 2).unwrap().keys(), want[..mid]);
        let stale = (mid..cap).map(|i| read_entry(&full[HEADER_SIZE + i * size..], 2));
        assert!(stale.eq((mid as i64..cap as i64).map(|k| e(2 * k))));
    }

    #[test]
    fn forged_headers_are_corrupt_not_panics() {
        for leaf in [true, false] {
            let mut page = vec![0u8; 256];
            if leaf {
                encode(&mut page, 2, &Decoded::leaf(&[], PageId::INVALID, None));
            } else {
                let node = Decoded {
                    leaf: false,
                    child0: PageId(1),
                    entries: vec![(Entry::new(&[1, 1], 0), PageId(2))],
                    next: PageId::INVALID,
                    high: None,
                };
                encode(&mut page, 2, &node);
            }
            assert!(decode(&page, 2).is_ok());
            let capacity =
                if leaf { leaf_capacity(256, 2) } else { internal_capacity(256, 2) } as u16;
            // (offset, forged bytes): count past the page, count one past
            // capacity, unknown and reserved tags, wrong arity, wrong version.
            let forgeries: [(usize, &[u8]); 7] = [
                (OFF_COUNT, &[0xFF, 0xFF]),
                (OFF_COUNT, &(capacity + 1).to_le_bytes()),
                (OFF_TYPE, &[0]),
                (OFF_TYPE, &[NODE_FREE]),
                (OFF_ARITY, &[3]),
                (OFF_VERSION, &[1]),
                (OFF_VERSION, &[0xFF]),
            ];
            for (off, bytes) in forgeries {
                let mut forged = page.clone();
                forged[off..off + bytes.len()].copy_from_slice(bytes);
                assert!(matches!(decode(&forged, 2), Err(Error::Corrupt(_))), "{off} {bytes:?}");
                assert!(matches!(NodeView::parse(&forged, 2), Err(Error::Corrupt(_))));
                assert!(matches!(NodeMut::parse(&mut forged[..], 2), Err(Error::Corrupt(_))));
            }
            // A count exactly at capacity is legal.
            let mut full = page.clone();
            full[OFF_COUNT..OFF_COUNT + 2].copy_from_slice(&capacity.to_le_bytes());
            assert!(decode(&full, 2).is_ok());
        }
    }

    #[test]
    fn high_key_comparison_is_exclusive_and_payload_aware() {
        let mut buf = vec![0u8; 256];
        encode(&mut buf, 2, &Decoded::leaf(&[], PageId(4), Some(Entry::new(&[7, 7], 3))));
        let leaf = NodeView::parse(&buf, 2).unwrap();
        assert!(leaf.covers(&Entry::new(&[7, 7], 2)), "payload below the high key's stays");
        assert!(!leaf.covers(&Entry::new(&[7, 7], 3)), "exactly the high key moves right");
        assert!(!leaf.covers(&Entry::new(&[8, 0], 0)));
    }

    #[test]
    fn arity_mismatch_is_corrupt() {
        let mut buf = vec![0u8; 256];
        NodeMut::init(&mut buf[..], 2, true);
        assert!(matches!(decode(&buf, 3), Err(Error::Corrupt(_))));
    }

    #[test]
    fn unknown_format_version_is_corrupt() {
        let mut buf = vec![0u8; 256];
        NodeMut::init(&mut buf[..], 2, true);
        buf[4] = 1; // format 1: pre-B-link
        let err = decode(&buf, 2).unwrap_err();
        assert!(err.to_string().contains("format version 1"), "{err}");
    }

    #[test]
    fn capacities_match_paper_block_size() {
        // 2 KB blocks, arity-2 keys (node, bound) + payload = 24-byte
        // entries; one entry-sized slot per page is the high key's.
        assert_eq!(leaf_capacity(2048, 2), (2048 - 24) / 24 - 1);
        assert!(internal_capacity(2048, 2) >= 60, "healthy fan-out expected");
    }
}

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
//! # Two ways to read a page
//!
//! [`NodeView`] is the read path's: it validates the header once, then
//! compares, binary-searches and reads columns *in place* — no allocation,
//! nothing decoded that is not returned.  [`read_node`] decodes the whole
//! page into an owned [`Node`] on top of the same validation; the write
//! path (which edits the entry vector) and the invariant checker use it.
//! Either way a page is outside input: a header that does not describe a
//! node of this tree is [`Error::Corrupt`], never a panic.

use crate::key::{Entry, Key};
use ri_pagestore::codec::{get_i64, get_u16, get_u64, put_i64, put_u16, put_u64};
use ri_pagestore::{Error, PageId, Result};
use std::cmp::Ordering;

/// Node type tag for leaves.
pub const NODE_LEAF: u8 = 1;
/// Node type tag for internal nodes.
pub const NODE_INTERNAL: u8 = 2;
/// Node type tag reserved for free-list pages.  The tree never frees a
/// page (see `tree`'s module docs), so nothing writes it; [`read_node`]
/// rejects it like any unknown tag.
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
    (page_size - HEADER_SIZE - leaf_entry_size(arity)) / leaf_entry_size(arity)
}

/// Maximum number of separator entries an internal page can hold
/// (an internal page with `k` entries has `k + 1` children; the high-key
/// slot is reserved exactly as on leaves).
#[inline]
pub fn internal_capacity(page_size: usize, arity: usize) -> usize {
    (page_size - HEADER_SIZE - leaf_entry_size(arity)) / internal_entry_size(arity)
}

/// Parsed form of a leaf page.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeafNode {
    /// Sorted entries, all `< high` (when a high key is present).
    pub entries: Vec<Entry>,
    /// Right sibling (= next leaf in key order), or [`PageId::INVALID`].
    pub next: PageId,
    /// Exclusive upper bound of this node's key range; `None` = +∞
    /// (rightmost leaf).
    pub high: Option<Entry>,
}

impl LeafNode {
    /// An empty, unlinked, unbounded leaf.
    pub fn empty() -> LeafNode {
        LeafNode { entries: Vec::new(), next: PageId::INVALID, high: None }
    }
}

/// Parsed form of an internal page.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InternalNode {
    /// Child holding entries strictly below the first separator.
    pub child0: PageId,
    /// `(separator, child)` pairs: `child` holds entries `>= separator`
    /// (and below the following separator, if any).
    pub entries: Vec<(Entry, PageId)>,
    /// Right sibling on the same level, or [`PageId::INVALID`].
    pub next: PageId,
    /// Exclusive upper bound of this subtree's key range; `None` = +∞
    /// (rightmost node of its level).
    pub high: Option<Entry>,
}

/// Parsed form of any node page.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Node {
    /// A leaf page.
    Leaf(LeafNode),
    /// An internal page.
    Internal(InternalNode),
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

fn write_header(buf: &mut [u8], tag: u8, arity: usize, count: usize, high: &Option<Entry>) {
    buf[OFF_TYPE] = tag;
    buf[OFF_ARITY] = arity as u8;
    put_u16(buf, OFF_COUNT, count as u16);
    buf[OFF_VERSION] = FORMAT_VERSION;
    buf[OFF_FLAGS] = if high.is_some() { FLAG_HIGH_KEY } else { 0 };
    if let Some(h) = high {
        debug_assert_eq!(h.key.arity(), arity);
        let off = buf.len() - leaf_entry_size(arity);
        write_entry(buf, off, h);
    }
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
        let (leaf, capacity) = match buf[OFF_TYPE] {
            NODE_LEAF => (true, leaf_capacity(buf.len(), arity)),
            NODE_INTERNAL => (false, internal_capacity(buf.len(), arity)),
            other => return Err(Error::Corrupt(format!("unexpected node tag {other}"))),
        };
        let count = get_u16(buf, OFF_COUNT) as usize;
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
        let stride =
            if self.leaf { leaf_entry_size(self.arity) } else { internal_entry_size(self.arity) };
        HEADER_SIZE + i * stride
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

    /// Offset of the high-key slot; `None` = +∞, the rightmost node of a level.
    #[inline]
    fn high_offset(&self) -> Option<usize> {
        (self.buf[OFF_FLAGS] & FLAG_HIGH_KEY != 0)
            .then(|| self.buf.len() - leaf_entry_size(self.arity))
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

    /// `true` when a leaf stores exactly `target`.
    pub fn contains(&self, target: &Entry) -> bool {
        let i = self.lower_bound(target);
        i < self.count && self.cmp_at(self.offset(i), target) == Ordering::Equal
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
}

/// Decodes a whole node page into an owned [`Node`] (the write path's
/// form).  `arity` must match the tree's arity.
pub fn read_node(buf: &[u8], arity: usize) -> Result<Node> {
    let view = NodeView::parse(buf, arity)?;
    let (next, high) = (view.next(), view.high());
    Ok(if view.is_leaf() {
        Node::Leaf(LeafNode {
            entries: (0..view.count()).map(|i| view.entry(i)).collect(),
            next,
            high,
        })
    } else {
        Node::Internal(InternalNode {
            child0: view.child_at(0),
            entries: (0..view.count()).map(|i| (view.entry(i), view.child_at(i + 1))).collect(),
            next,
            high,
        })
    })
}

/// Encodes a leaf page.
pub fn write_leaf(buf: &mut [u8], node: &LeafNode, arity: usize) {
    let cap = leaf_capacity(buf.len(), arity);
    assert!(node.entries.len() <= cap, "leaf overflow: {} > {cap}", node.entries.len());
    write_header(buf, NODE_LEAF, arity, node.entries.len(), &node.high);
    put_u64(buf, OFF_LINK, node.next.raw());
    put_u64(buf, OFF_INTERNAL_NEXT, PageId::INVALID.raw());
    let esz = leaf_entry_size(arity);
    for (i, e) in node.entries.iter().enumerate() {
        debug_assert_eq!(e.key.arity(), arity);
        write_entry(buf, HEADER_SIZE + i * esz, e);
    }
}

/// Encodes an internal page.
pub fn write_internal(buf: &mut [u8], node: &InternalNode, arity: usize) {
    let cap = internal_capacity(buf.len(), arity);
    assert!(node.entries.len() <= cap, "internal overflow: {} > {cap}", node.entries.len());
    write_header(buf, NODE_INTERNAL, arity, node.entries.len(), &node.high);
    put_u64(buf, OFF_LINK, node.child0.raw());
    put_u64(buf, OFF_INTERNAL_NEXT, node.next.raw());
    let esz = internal_entry_size(arity);
    let sep_sz = leaf_entry_size(arity);
    for (i, (sep, child)) in node.entries.iter().enumerate() {
        let off = HEADER_SIZE + i * esz;
        write_entry(buf, off, sep);
        put_u64(buf, off + sep_sz, child.raw());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let mut buf = vec![0u8; 512];
        let node = LeafNode {
            entries: vec![Entry::new(&[1, -2], 10), Entry::new(&[3, 4], 11)],
            next: PageId(7),
            high: Some(Entry::new(&[5, 0], 12)),
        };
        write_leaf(&mut buf, &node, 2);
        match read_node(&buf, 2).unwrap() {
            Node::Leaf(l) => assert_eq!(l, node),
            _ => panic!("expected leaf"),
        }
    }

    #[test]
    fn rightmost_leaf_has_no_high_key() {
        let mut buf = vec![0u8; 512];
        let node =
            LeafNode { entries: vec![Entry::new(&[9], 1)], next: PageId::INVALID, high: None };
        write_leaf(&mut buf, &node, 1);
        match read_node(&buf, 1).unwrap() {
            Node::Leaf(l) => {
                assert_eq!(l, node);
                let view = NodeView::parse(&buf, 1).unwrap();
                assert!(view.covers(&Entry::new(&[i64::MAX], u64::MAX)), "no high key bounds +inf");
            }
            _ => panic!("expected leaf"),
        }
    }

    #[test]
    fn internal_roundtrip_routing_and_coverage() {
        let mut buf = vec![0u8; 512];
        let node = InternalNode {
            child0: PageId(1),
            entries: vec![(Entry::new(&[10], 0), PageId(2)), (Entry::new(&[20], 0), PageId(3))],
            next: PageId(8),
            high: Some(Entry::new(&[30], 0)),
        };
        write_internal(&mut buf, &node, 1);
        let parsed = match read_node(&buf, 1).unwrap() {
            Node::Internal(n) => n,
            _ => panic!("expected internal"),
        };
        assert_eq!(parsed, node);
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
        write_leaf(&mut buf, &LeafNode { entries: entries.clone(), ..LeafNode::empty() }, 2);
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

    #[test]
    fn forged_headers_are_corrupt_not_panics() {
        for leaf in [true, false] {
            let mut page = vec![0u8; 256];
            if leaf {
                write_leaf(&mut page, &LeafNode::empty(), 2);
            } else {
                let node = InternalNode {
                    child0: PageId(1),
                    entries: vec![(Entry::new(&[1, 1], 0), PageId(2))],
                    next: PageId::INVALID,
                    high: None,
                };
                write_internal(&mut page, &node, 2);
            }
            assert!(read_node(&page, 2).is_ok());
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
                assert!(matches!(read_node(&forged, 2), Err(Error::Corrupt(_))), "{off} {bytes:?}");
                assert!(matches!(NodeView::parse(&forged, 2), Err(Error::Corrupt(_))));
            }
            // A count exactly at capacity is legal.
            let mut full = page.clone();
            full[OFF_COUNT..OFF_COUNT + 2].copy_from_slice(&capacity.to_le_bytes());
            assert!(read_node(&full, 2).is_ok());
        }
    }

    #[test]
    fn high_key_comparison_is_exclusive_and_payload_aware() {
        let mut buf = vec![0u8; 256];
        let node =
            LeafNode { entries: Vec::new(), next: PageId(4), high: Some(Entry::new(&[7, 7], 3)) };
        write_leaf(&mut buf, &node, 2);
        let leaf = NodeView::parse(&buf, 2).unwrap();
        assert!(leaf.covers(&Entry::new(&[7, 7], 2)), "payload below the high key's stays");
        assert!(!leaf.covers(&Entry::new(&[7, 7], 3)), "exactly the high key moves right");
        assert!(!leaf.covers(&Entry::new(&[8, 0], 0)));
    }

    #[test]
    fn arity_mismatch_is_corrupt() {
        let mut buf = vec![0u8; 256];
        write_leaf(&mut buf, &LeafNode::empty(), 2);
        assert!(matches!(read_node(&buf, 3), Err(Error::Corrupt(_))));
    }

    #[test]
    fn unknown_format_version_is_corrupt() {
        let mut buf = vec![0u8; 256];
        write_leaf(&mut buf, &LeafNode::empty(), 2);
        buf[4] = 1; // format 1: pre-B-link
        let err = read_node(&buf, 2).unwrap_err();
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

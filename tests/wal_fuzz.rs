//! Byte-level fuzz of the log's decoders, driven through the public
//! surface: whatever bytes sit on the log device, attaching it
//! (`BufferPool::new_durable_with`) and recovering (`BufferPool::recover`)
//! returns `Ok` with a prefix of the committed history or
//! `Err(Corrupt | InvalidArgument)` — never a panic, a hang, or an
//! allocation beyond the record bound the scan enforces.
//!
//! Two families:
//!
//! * **single-page corruption** of a valid multi-segment log whose data
//!   device was never written back (so the log alone decides the
//!   outcome): any one page — anchor, segment header or payload —
//!   replaced by arbitrary bytes;
//! * **arbitrary bytes into each decoder**: both anchor pages, a mapped
//!   segment's header, and — behind a frame whose LSN and checksum this
//!   file computes itself, so the bytes get past the chain check — the
//!   record body decoder, with arbitrary kinds, lengths and contents.

mod common;

use common::golden::{fnv_bytes, image, FNV_SEED};
use proptest::prelude::*;
use ri_tree::pagestore::{
    BufferPool, BufferPoolConfig, DiskManager, Error, FlushPolicy, MemDisk, PageId, WalConfig,
};
use std::sync::{Arc, OnceLock};

const PS: usize = 256;
const CONFIG: WalConfig = WalConfig { segment_pages: 3, flush_policy: FlushPolicy::Off };
const DATA_PAGES: usize = 8;
const COMMITS: usize = 12;
/// Record framing, as `wal/format.rs` documents it.
const REC_HDR: usize = 21;

type Image = Vec<Vec<u8>>;

fn disk_from(image: &Image) -> Arc<MemDisk> {
    let disk = Arc::new(MemDisk::new(PS));
    for page in image {
        let id = disk.allocate_page().unwrap();
        disk.write_page(id, page).unwrap();
    }
    disk
}

fn open(data: &Arc<MemDisk>, log: &Arc<MemDisk>) -> ri_tree::pagestore::Result<BufferPool> {
    BufferPool::new_durable_with(
        Arc::clone(data),
        BufferPoolConfig::with_capacity(64),
        Arc::clone(log),
        CONFIG,
    )
}

/// A crashed database: the log holds a transaction that fills every data
/// page, then `COMMITS` transactions, over several segments plus an
/// uncommitted tail; the data device holds nothing but zeroed pages.
/// `states[k]` is the data image after the first `k` commits.
struct Fixture {
    log: Image,
    data: Image,
    states: Vec<Image>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (data, log) = (Arc::new(MemDisk::new(PS)), Arc::new(MemDisk::new(PS)));
        let pool = open(&data, &log).unwrap();
        for _ in 0..DATA_PAGES {
            pool.allocate_page().unwrap();
        }
        let blank = image(&*data);
        let mut current = blank.clone();
        let mut states = vec![blank.clone()];
        let touch = |current: &mut Image, page: usize, off: usize, val: u8| {
            pool.with_page_mut(PageId(page as u64), |d| d[off] = val).unwrap();
            current[page][off] = val;
        };
        // A zeroed page's FirstMod logs no pre-image byte, so the pages
        // are filled first: each fill logs a page of run bytes.
        for (page, img) in current.iter_mut().enumerate() {
            let bytes: Vec<u8> = (0..PS).map(|i| (i + page) as u8 | 1).collect();
            pool.with_page_mut(PageId(page as u64), |d| d.copy_from_slice(&bytes)).unwrap();
            *img = bytes;
        }
        states.push(current.clone());
        pool.wal().unwrap().commit().unwrap();
        for c in 0..COMMITS {
            touch(&mut current, c % DATA_PAGES, 3 * c, c as u8 + 1);
            touch(&mut current, (5 * c + 2) % DATA_PAGES, 200 - c, 0x80 | c as u8);
            states.push(current.clone());
            pool.wal().unwrap().commit().unwrap();
        }
        touch(&mut current, 1, 100, 0xEE);
        let wal = pool.wal().unwrap();
        wal.make_durable(wal.end_lsn()).unwrap();
        assert!(wal.stats().segments_created >= 6, "the log must span several segments");
        // The crash: no write-back, no `Drop` flush.
        std::mem::forget(pool);
        assert_eq!(image(&*data), blank, "nothing may have reached the data device");
        Fixture { log: image(&*log), data: blank, states }
    })
}

/// Attach + recover over `log`; on `Ok`, the data image recovery left.
fn recover(log: &Image, data: &Image) -> ri_tree::pagestore::Result<Image> {
    let (data, log) = (disk_from(data), disk_from(log));
    let pool = open(&data, &log)?;
    pool.recover()?;
    std::mem::forget(pool);
    Ok(image(&*data))
}

fn acceptable(e: &Error) -> bool {
    matches!(e, Error::Corrupt(_) | Error::InvalidArgument(_))
}

/// A log whose stream starts (at LSN 0) with one frame carrying `kind`
/// and `body`, correctly positioned and checksummed; `announced_len`
/// overrides the length field when given.  Everything else on the device
/// — anchors, the segment header — is as the engine wrote it.
fn log_with_frame(kind: u8, body: &[u8], announced_len: Option<u32>) -> Image {
    let (data, log) = (Arc::new(MemDisk::new(PS)), Arc::new(MemDisk::new(PS)));
    let pool = open(&data, &log).unwrap();
    let page = pool.allocate_page().unwrap();
    pool.with_page_mut(page, |d| d[0] = 1).unwrap();
    pool.wal().unwrap().commit().unwrap();
    std::mem::forget(pool);
    let mut log = image(&*log);
    assert_eq!(log.len(), 2 + 3, "two anchors and one segment slot");
    let lsn = 0u64.to_le_bytes();
    let mut frame = Vec::with_capacity(REC_HDR + body.len());
    frame.extend_from_slice(&lsn);
    frame.extend_from_slice(&announced_len.unwrap_or(body.len() as u32).to_le_bytes());
    frame.push(kind);
    let checksum = [&lsn[..], &[kind], body].into_iter().fold(FNV_SEED, fnv_bytes);
    frame.extend_from_slice(&checksum.to_le_bytes());
    frame.extend_from_slice(body);
    assert!(frame.len() <= 2 * PS, "the frame must fit segment 0's two payload pages");
    frame.resize(2 * PS, 0);
    // Slot 0: header on page 2, payload on pages 3 and 4.
    log[3].copy_from_slice(&frame[..PS]);
    log[4].copy_from_slice(&frame[PS..]);
    log
}

/// Ways to break an update body — its run table, and a FirstMod's hole —
/// one per rule the decoder enforces; any larger value leaves the body as
/// laid out.
const HOSTILITIES: usize = 14;

/// An update body as `wal/format.rs` lays it out — `page | n |
/// delta_len | [hole_off | hole_len] | n × (off | len) | [before without
/// its hole] | run bytes` — around the run table that `layout`'s `(gap,
/// len)` pairs describe, ascending and disjoint (though it may run off
/// the page), and a FirstMod's hole `hole` (`(off, len)`, taken modulo the
/// page), then broken as `hostile` says.
fn update_body(
    first_mod: bool,
    page: u64,
    hostile: usize,
    layout: &[(u32, u32)],
    hole: (u32, u32),
    fill: &[u8],
) -> (u8, Vec<u8>) {
    let mut table = Vec::new();
    let mut end = 0u32;
    for &(gap, len) in layout {
        table.push((end + gap, len));
        end += gap + len;
    }
    let bytes: u32 = table.iter().map(|&(_, len)| len).sum();
    let (mut n, mut delta_len, mut body_bytes) = (table.len() as u32, bytes, bytes);
    let ps = PS as u32;
    let hole_len = hole.1 % (ps + 1);
    let (mut hole_off, mut hole_len, mut kept) = (hole.0 % (ps - hole_len + 1), hole_len, PS);
    if first_mod {
        kept -= hole_len as usize;
    }
    match hostile {
        0 => table.reverse(),
        1 => table.iter_mut().take(1).for_each(|run| run.1 = 0),
        2 => (1..table.len()).for_each(|i| table[i].0 = table[i - 1].0 + table[i - 1].1 - 1),
        3 => table.iter_mut().last().into_iter().for_each(|run| run.0 = u32::MAX - 1),
        4 => n = 0,
        5 => n = 9,
        6 => n = u32::MAX,
        7 => delta_len += 1,
        8 => delta_len = delta_len.wrapping_sub(1),
        9 => body_bytes += 1,
        10 => body_bytes = body_bytes.saturating_sub(1),
        // The hole ends one byte past the page.
        11 => hole_off = ps - hole_len + 1,
        // The hole is longer than the page.
        12 => (hole_off, hole_len) = (0, ps + 1 + hole_len),
        // The pre-image is logged whole while the head announces a hole.
        13 if first_mod => (hole_len, kept) = (hole_len.max(1), PS),
        _ => {}
    }
    let mut body = Vec::new();
    body.extend_from_slice(&page.to_le_bytes());
    body.extend_from_slice(&n.to_le_bytes());
    body.extend_from_slice(&delta_len.to_le_bytes());
    if first_mod {
        body.extend_from_slice(&hole_off.to_le_bytes());
        body.extend_from_slice(&hole_len.to_le_bytes());
    }
    for (off, len) in table {
        body.extend_from_slice(&off.to_le_bytes());
        body.extend_from_slice(&len.to_le_bytes());
    }
    let rest = if first_mod { kept } else { 0 } + body_bytes as usize;
    body.extend((0..rest).map(|i| fill[i % fill.len()]));
    (if first_mod { 1u8 } else { 2u8 }, body)
}

/// The strategy below only earns its keep while its update bodies are
/// the shape the decoder expects: laid out unbroken they must get past
/// it (the scan counts one record), and each way of breaking them must
/// be the reason they do not (the scan counts none).
#[test]
fn update_bodies_are_decoded_unless_broken() {
    let scanned = |hostile: usize| {
        let layout = [(3, 2), (20, 5), (30, 1)];
        let (kind, body) = update_body(true, 0, hostile, &layout, (40, 100), &[7]);
        let log = log_with_frame(kind, &body, None);
        let pool = open(&disk_from(&vec![vec![0u8; PS]; 1]), &disk_from(&log)).unwrap();
        let report = pool.recover().unwrap();
        std::mem::forget(pool);
        report.map_or(0, |r| r.records_scanned)
    };
    assert_eq!(scanned(HOSTILITIES), 1, "a well-formed FirstMod must reach the decoder's end");
    for hostile in 0..HOSTILITIES {
        assert_eq!(scanned(hostile), 0, "hostility {hostile} was not what the decoder refused");
    }
}

/// Bodies shaped like each record kind — right length, hostile fields —
/// and like the Checkpoint record log format v5 retired, next to wholly
/// arbitrary ones.  Page ids stay small: a checksummed
/// record naming page 2^60 is the engine's own output, not decoder input.
fn body_strategy() -> impl Strategy<Value = (u8, Vec<u8>)> {
    let update = |first_mod: bool| {
        (
            (0u64..16, 0..HOSTILITIES + 1),
            prop_oneof![
                prop::collection::vec((0u32..30, 1u32..9), 0..11),
                prop::collection::vec((0u32..30, 1u32..9), 8..10),
            ],
            prop_oneof![(0u32..1, 0u32..1), (any::<u32>(), any::<u32>())],
            prop::collection::vec(any::<u8>(), 1..40),
        )
            .prop_map(move |((page, hostile), layout, hole, fill)| {
                update_body(first_mod, page, hostile, &layout, hole, &fill)
            })
    };
    // `horizon | n | n × (txn | first LSN)` under kind 4.
    let retired_checkpoint = (any::<u64>(), 0u32..6, 0usize..6).prop_map(|(horizon, n, listed)| {
        let mut body = Vec::new();
        body.extend_from_slice(&horizon.to_le_bytes());
        body.extend_from_slice(&n.to_le_bytes());
        body.extend((0..16 * listed).map(|i| i as u8));
        (4u8, body)
    });
    prop_oneof![
        (any::<u8>(), prop::collection::vec(any::<u8>(), 0..400)),
        (0u8..6, prop::collection::vec(any::<u8>(), 0..40)),
        (0u8..6, prop::collection::vec(any::<u8>(), 8..9)),
        update(true),
        update(false),
        retired_checkpoint,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    #[test]
    fn single_page_corruption_recovers_a_committed_prefix(
        page in 0usize..64,
        bytes in prop::collection::vec(any::<u8>(), PS..PS + 1),
        keep in 0usize..PS,
    ) {
        let fx = fixture();
        let mut log = fx.log.clone();
        let page = page % log.len();
        // Either the whole page is replaced or only its tail (a torn write).
        let from = if keep % 2 == 0 { 0 } else { keep };
        log[page][from..].copy_from_slice(&bytes[from..]);
        match recover(&log, &fx.data) {
            Ok(data) => prop_assert!(
                fx.states.contains(&data),
                "log page {page} corrupted from byte {from}: recovery left a state that is \
                 no prefix of the committed history"
            ),
            Err(e) => prop_assert!(acceptable(&e), "log page {page}: unexpected error {e:?}"),
        }
    }

    #[test]
    fn arbitrary_anchor_pages_are_rejected_cleanly(
        a in prop::collection::vec(any::<u8>(), PS..PS + 1),
        b in prop::collection::vec(any::<u8>(), PS..PS + 1),
        keep_prefix in 0usize..3,
    ) {
        // Arbitrary bytes reach the anchor parser; with `keep_prefix` the
        // engine's magic (and version) survive, so the bytes also reach
        // the field checks behind them.
        let fx = fixture();
        let mut log = fx.log.clone();
        let prefix = [0, 4, 6][keep_prefix];
        for (page, bytes) in [(0, &a), (1, &b)] {
            log[page][prefix..].copy_from_slice(&bytes[prefix..]);
        }
        match recover(&log, &fx.data) {
            Ok(data) => prop_assert!(fx.states.contains(&data)),
            Err(e) => prop_assert!(acceptable(&e), "unexpected error {e:?}"),
        }
    }

    #[test]
    fn arbitrary_segment_headers_end_the_stream(
        slot in 0usize..6,
        bytes in prop::collection::vec(any::<u8>(), PS..PS + 1),
        keep_magic in any::<bool>(),
    ) {
        let fx = fixture();
        let mut log = fx.log.clone();
        let header = 2 + 3 * slot;
        let from = if keep_magic { 4 } else { 0 };
        log[header][from..].copy_from_slice(&bytes[from..]);
        match recover(&log, &fx.data) {
            Ok(data) => prop_assert!(fx.states.contains(&data)),
            Err(e) => prop_assert!(acceptable(&e), "unexpected error {e:?}"),
        }
    }

    #[test]
    fn arbitrary_record_bodies_never_panic_the_decoder(
        (kind, body) in body_strategy(),
        announced in prop_oneof![0u32..1, any::<u32>()],
    ) {
        let announced_len = (announced != 0).then_some(announced);
        let log = log_with_frame(kind, &body, announced_len);
        let data: Image = vec![vec![0u8; PS]; 1];
        if let Err(e) = recover(&log, &data) {
            prop_assert!(acceptable(&e), "kind {kind}, {} body bytes: {e:?}", body.len());
        }
    }
}

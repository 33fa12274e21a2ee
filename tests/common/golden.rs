//! The rig every determinism golden runs on (`pool_determinism`,
//! `read_path_trace`, `wal_trace`, `hot_tier_decisions`).
//!
//! * [`fnv1a`] / [`fnv_bytes`] — FNV-1a from [`FNV_SEED`], folding a word
//!   or a byte at a time; [`fnv_io`] and [`fnv_answer`] fold the two things
//!   the goldens hash most, pool counters and query answers.
//! * [`xorshift`] — the one seeded xorshift64 the scripted streams draw from.
//! * [`RecordingDisk`] — a [`MemDisk`] that folds every page read into one
//!   hash and every write, allocation and sync into a second.
//! * [`image`] / [`image_hash`] — a device's pages, and their hash.
//! * [`Pins`] — print-then-assert: each pinned value is printed as
//!   `GOLDEN-<NAME> <literal>` (`NAME` is its constant's name without
//!   `GOLDEN_`; the literal is Rust that builds the value), and nothing is
//!   asserted until every value has printed.  A table prints one
//!   `GOLDEN-<NAME> <row>,` line per row.
//!
//! Re-capturing a golden — only from a commit whose behaviour is known
//! right, saying why in the change — is one command, whose lines paste
//! back over the constants they name:
//!
//! ```text
//! cargo test --release --test <golden> -- --nocapture 2>&1 | grep GOLDEN-
//! ```

use ri_tree::pagestore::{
    DiskManager, IoSnapshot, MemDisk, PageId, RecoveryReport, Result, WalSnapshot,
};
use std::sync::{Mutex, MutexGuard};

/// FNV-1a's offset basis: where every golden hash starts.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one word into an FNV-1a hash.
pub fn fnv1a(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3)
}

/// Folds `bytes` into an FNV-1a hash one byte at a time — also the log's
/// frame checksum.
pub fn fnv_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| fnv1a(h, u64::from(b)))
}

/// Folds the four pool counters, in declaration order.
pub fn fnv_io(h: u64, s: &IoSnapshot) -> u64 {
    [s.logical_reads, s.logical_writes, s.physical_reads, s.physical_writes]
        .into_iter()
        .fold(h, fnv1a)
}

/// Folds a query's answer: its length, then its ids.
pub fn fnv_answer(h: u64, ids: &[i64]) -> u64 {
    ids.iter().fold(fnv1a(h, ids.len() as u64), |h, &id| fnv1a(h, id as u64))
}

/// xorshift64: advances `x` and returns its new value.
pub fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

// The `op` of a write, an allocation and a sync in the write hash.
const OP_WRITE: u64 = 1;
const OP_ALLOCATE: u64 = 2;
const OP_SYNC: u64 = 3;

/// What a [`RecordingDisk`] has seen since it was made or last reset.
#[derive(Debug)]
pub struct Recording {
    /// FNV-1a over the id of every page read, in order.
    pub read_hash: u64,
    /// Writes + allocations + syncs; reads are not counted.
    pub ops: u64,
    /// FNV-1a over every `(op, page id, FNV of the bytes written)`.
    pub write_hash: u64,
    /// The `(op, page, bytes hash)` triples not yet taken by the test.
    pub recent: Vec<(u64, u64, u64)>,
}

impl Default for Recording {
    fn default() -> Self {
        Recording { read_hash: FNV_SEED, ops: 0, write_hash: FNV_SEED, recent: Vec::new() }
    }
}

/// A [`MemDisk`] that records every operation it is asked to perform.
pub struct RecordingDisk {
    inner: MemDisk,
    recording: Mutex<Recording>,
}

impl RecordingDisk {
    pub fn new(page_size: usize) -> Self {
        RecordingDisk { inner: MemDisk::new(page_size), recording: Mutex::default() }
    }

    /// What the device has seen so far.
    pub fn recording(&self) -> MutexGuard<'_, Recording> {
        self.recording.lock().unwrap()
    }

    /// Forgets everything seen so far (e.g. a fixture's operations).
    pub fn reset(&self) {
        *self.recording() = Recording::default();
    }

    fn record(&self, op: u64, page: u64, bytes: u64) {
        let mut r = self.recording();
        r.ops += 1;
        r.write_hash = [op, page, bytes].into_iter().fold(r.write_hash, fnv1a);
        r.recent.push((op, page, bytes));
    }
}

impl DiskManager for RecordingDisk {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        let mut r = self.recording();
        r.read_hash = fnv1a(r.read_hash, id.raw());
        drop(r);
        self.inner.read_page(id, buf)
    }
    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        self.record(OP_WRITE, id.raw(), fnv_bytes(FNV_SEED, buf));
        self.inner.write_page(id, buf)
    }
    fn allocate_page(&self) -> Result<PageId> {
        let id = self.inner.allocate_page()?;
        self.record(OP_ALLOCATE, id.raw(), 0);
        Ok(id)
    }
    fn sync(&self) -> Result<()> {
        self.record(OP_SYNC, 0, 0);
        self.inner.sync()
    }
}

/// Every page of `disk`, in page order.
pub fn image(disk: &dyn DiskManager) -> Vec<Vec<u8>> {
    (0..disk.num_pages())
        .map(|p| {
            let mut buf = vec![0u8; disk.page_size()];
            disk.read_page(PageId(p), &mut buf).unwrap();
            buf
        })
        .collect()
}

/// FNV-1a over the byte hash of every page of `disk`.
pub fn image_hash(disk: &dyn DiskManager) -> u64 {
    image(disk).iter().fold(FNV_SEED, |h, page| fnv1a(h, fnv_bytes(FNV_SEED, page)))
}

/// A pinned value's paste-ready Rust literal.
pub trait Literal {
    fn literal(&self) -> String;
}

/// A hash prints in the grouped hex its constant is written in.
impl Literal for u64 {
    fn literal(&self) -> String {
        let hex = format!("{self:016x}");
        format!("0x{}_{}_{}_{}", &hex[..4], &hex[4..8], &hex[8..12], &hex[12..])
    }
}

/// For these, `Debug` already prints the literal.
macro_rules! debug_literal {
    ($($t:ty),*) => {$(
        impl Literal for $t {
            fn literal(&self) -> String {
                format!("{self:?}")
            }
        }
    )*};
}
debug_literal!(IoSnapshot, RecoveryReport, WalSnapshot, [u64; 9]);

/// The print-then-assert convention: every `value` / `rows` call prints
/// at once and only remembers a drift; [`Pins::check`] asserts them all.
/// So one failing run prints every line a re-capture needs.
#[derive(Default)]
pub struct Pins {
    drifts: Vec<String>,
}

impl Pins {
    /// Prints `GOLDEN-<name> <got>` and compares `got` with `want`.
    pub fn value<T: Literal + PartialEq>(&mut self, name: &str, got: &T, want: &T) {
        eprintln!("GOLDEN-{name} {}", got.literal());
        if got != want {
            self.drifts.push(format!(
                "GOLDEN_{name}: got {}, want {}",
                got.literal(),
                want.literal()
            ));
        }
    }

    /// Prints `GOLDEN-<name> <row>,` per row and compares the rows with
    /// `want`, row by row and in number.
    pub fn rows<T: Literal + PartialEq>(&mut self, name: &str, got: &[T], want: &[T]) {
        for row in got {
            eprintln!("GOLDEN-{name} {},", row.literal());
        }
        for (i, (g, w)) in got.iter().zip(want).enumerate().filter(|(_, (g, w))| g != w) {
            self.drifts.push(format!(
                "GOLDEN_{name}[{i}]: got {}, want {}",
                g.literal(),
                w.literal()
            ));
        }
        if got.len() != want.len() {
            self.drifts.push(format!("GOLDEN_{name}: {} rows, want {}", got.len(), want.len()));
        }
    }

    /// Fails, listing every drifted value, unless all matched.
    #[track_caller]
    pub fn check(self) {
        assert!(self.drifts.is_empty(), "goldens drifted:\n{}", self.drifts.join("\n"));
    }
}

//! Paged block storage for the RI-tree reproduction.
//!
//! The paper ([Kriegel, Pötke, Seidl; VLDB 2000]) evaluates the Relational
//! Interval Tree on an Oracle 8.1.5 server configured with a **2 KB block
//! size** and a **database block cache of 200 blocks**, and reports *physical
//! disk block accesses* as its primary cost metric.  This crate provides the
//! equivalent substrate:
//!
//! * [`disk`] — a block device abstraction with an in-memory implementation
//!   ([`MemDisk`]) used by the experiments and a file-backed implementation
//!   ([`FileDisk`], positional I/O) used by the persistence tests and the
//!   repo benchmark's `read_cold` workload,
//! * [`buffer`] — a lock-striped buffer pool with per-shard LRU replacement
//!   and write-back caching (the "database block cache"; the default single
//!   shard reproduces the paper's global 200-block cache exactly); its page
//!   tables, and any other map keyed by ids, hash with [`IdHash`],
//! * [`stats`] — shared counters for logical/physical reads and writes plus a
//!   late-1990s disk [`LatencyModel`] that converts physical I/O volume into
//!   a *simulated response time*, making the paper's seconds-scale response
//!   time plots reproducible on modern hardware,
//! * [`wal`] — a page-oriented write-ahead log with group commit, fuzzy
//!   checkpoint truncation (safe under concurrent DML), and redo recovery
//!   ([`BufferPool::new_durable`] pools stamp frames with page LSNs and
//!   enforce WAL-before-data); one submodule per concern — `format`,
//!   `segments`, `flush`, `checkpoint`, `recover`,
//! * [`faulty`] — a fault-injecting disk wrapper used by the failure tests,
//!   including crash-point, crash-at-sync-barrier, and torn-write
//!   (partial-sector) injection on a shared [`FaultClock`] for
//!   kill-anywhere recovery testing.
//!
//! All upper layers (the B+-tree, the relational engine, and every access
//! method compared in the evaluation) perform I/O exclusively through
//! [`BufferPool`], so their physical I/O counts are directly comparable —
//! exactly the methodology of the paper's Section 6.

pub mod buffer;
pub mod codec;
pub mod disk;
pub mod error;
pub mod faulty;
pub mod latch;
pub mod page;
pub mod stats;
pub mod wal;

pub use buffer::{BufferPool, BufferPoolConfig};
pub use disk::{DiskManager, FileDisk, MemDisk};
pub use error::{Error, Result};
pub use faulty::{CrashPlan, FaultClock, FaultPlan, FaultyDisk, ReadHook, SyncHook, WriteHook};
pub use latch::{LatchGuard, LatchManager, LatchSnapshot, LatchStats};
pub use page::{IdHash, PageId, DEFAULT_PAGE_SIZE};
pub use stats::{IoSnapshot, IoStats, LatencyModel, MissSnapshot, PoolStats};
pub use wal::{FlushPolicy, RecoveryReport, Wal, WalConfig, WalSnapshot};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_roundtrip() {
        let pool = BufferPool::with_defaults(MemDisk::new(DEFAULT_PAGE_SIZE));
        let pid = pool.allocate_page().unwrap();
        pool.with_page_mut(pid, |data| {
            data[0] = 0xAB;
            data[DEFAULT_PAGE_SIZE - 1] = 0xCD;
        })
        .unwrap();
        pool.flush_all().unwrap();
        let (a, b) = pool.with_page(pid, |data| (data[0], data[DEFAULT_PAGE_SIZE - 1])).unwrap();
        assert_eq!((a, b), (0xAB, 0xCD));
    }
}

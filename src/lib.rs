//! # ri-tree: the Relational Interval Tree, reproduced in Rust
//!
//! A complete, from-scratch reproduction of **"Managing Intervals
//! Efficiently in Object-Relational Databases"** (Hans-Peter Kriegel,
//! Marco Pötke, Thomas Seidl; VLDB 2000) — the RI-tree — including the
//! relational storage engine it runs on, the competing access methods it
//! was evaluated against, and the full experiment harness regenerating
//! every table and figure of the paper's evaluation.
//!
//! This facade re-exports the public API of all member crates:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `ritree-core` | the RI-tree: [`core::RiTree`], [`core::Interval`], Allen relations, `now`/∞ endpoints |
//! | [`relstore`] | `ri-relstore` | the relational engine: [`relstore::Database`], tables, indexes, plans, EXPLAIN |
//! | [`btree`] | `ri-btree` | the disk-based composite-key B+-tree |
//! | [`pagestore`] | `ri-pagestore` | buffer pool, block devices, I/O statistics, latency model |
//! | [`baselines`] | `ri-baselines` | T-index, IST, MAP21, Window-List |
//! | [`mem`] | `ri-mem` | main-memory structures: naive oracle, interval tree, HINT |
//! | [`workloads`] | `ri-workloads` | the paper's Table 1 data distributions and query generators |
//!
//! ## Quick start
//!
//! ```
//! use ri_tree::prelude::*;
//!
//! // An in-memory database with the paper's server configuration
//! // (2 KB blocks, 200-block cache).
//! let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(DEFAULT_PAGE_SIZE)));
//! let db = Arc::new(Database::create(pool).unwrap());
//!
//! // CREATE TABLE Intervals (node, lower, upper, id) + the two composite
//! // indexes of the paper's Figure 2 — all in one call:
//! let tree = RiTree::create(db, "demo").unwrap();
//!
//! tree.insert(Interval::new(10, 20).unwrap(), 1).unwrap();
//! tree.insert(Interval::new(15, 40).unwrap(), 2).unwrap();
//!
//! // A query answers in plan order; sort for ascending ids.
//! let mut ids = tree.intersection(Interval::new(18, 30).unwrap()).unwrap();
//! ri_tree::mem::sort::sort_ids(&mut ids);
//! assert_eq!(ids, vec![1, 2]);
//! ```
//!
//! ## Concurrency
//!
//! Readers and writers both scale across threads: the buffer pool is
//! lock-striped, the B+-trees are **B-link trees** (readers descend with
//! no latches at all; writers latch one node at a time and splits never
//! exclude anyone), and the RI-tree exposes batch façades over one
//! fan-out scaffold ([`relstore::fan_out`]):
//! [`core::RiTree::intersection_batch`] for reads and
//! [`core::RiTree::insert_batch`] for writes.  Single-threaded use stays
//! deterministic: the page-access sequence is pinned by golden counters,
//! so every figure of the paper is exactly reproducible.  See
//! ARCHITECTURE.md for the B-link protocol.
//!
//! ## Durability
//!
//! Attach a second device as a write-ahead log and the database becomes
//! crash-safe: [`pagestore::BufferPool::new_durable`] enforces
//! WAL-before-data via page LSNs, [`relstore::Database::commit`]
//! group-commits (one log fsync can cover many concurrent committers),
//! [`relstore::Database::checkpoint`] truncates the log *fuzzily* —
//! callers need not be quiescent; the truncation horizon spares every
//! in-flight transaction's rollback before-images — and
//! [`relstore::Database::open`] replays the committed tail after a
//! crash.  Pools built without a WAL behave exactly like the original
//! volatile engine — same goldens, byte for byte.  The contract is
//! enforced by `tests/crash_recovery.rs`, which kills workloads
//! (including checkpoints racing open transactions) at every
//! device-write index and every sync barrier, torn writes included,
//! and verifies recovery each time — through the crash harness in
//! `tests/common/crash.rs` that every durability suite shares.
//!
//! ## Bulk load & beyond-paper scale
//!
//! There is one way to load a tree — [`core::RiTree::create`] (or
//! [`core::RiTree::create_with_options`]) followed by
//! [`core::RiTree::insert_batch`] — and loading a large dataset into a
//! fresh tree does not descend the tree once per row: `insert_batch`
//! routes the first batch into an *empty* tree, whatever its size,
//! through a
//! bottom-up, fill-rate-1.0 builder ([`btree::BTree::bulk_build_into`])
//! that writes each index page exactly once, left to right — `O(pages)`
//! sequential I/O instead of `O(n · height)` descents.  On a durable
//! pool those pages bypass the log: they are synced to the data device,
//! and only the meta writes that publish them are logged, so a
//! million-row load logs well under a kilobyte.
//! [`workloads::WorkloadSpec::stream`] generates the paper's data
//! distributions as `O(1)`-memory iterators, so million-to-ten-million
//! interval datasets (the `fig21_scaleup` figure) never materialize in
//! RAM.  Bulk-built and insert-built trees are observably equivalent
//! (proptest-checked in `tests/bulk_load.rs`).
//!
//! ## The HINT hot tier
//!
//! Skewed read workloads can keep their hot range in memory:
//! [`core::HotTier`] wraps an [`core::RiTree`] with a read-through
//! cache of domain blocks, each resident block a pair of small
//! [`mem::HintIndex`]es — a comparison-free hierarchical interval index
//! (HINT) — under a configurable interval budget
//! ([`core::HotTierConfig`]).  Admission is 2Q with a decaying
//! frequency gate (scans cannot thrash residents), eviction is
//! lowest-frequency-first, and coherence is exact: route DML through
//! [`core::HotTier::insert`] / [`core::HotTier::delete`] and a query
//! through the tier never returns a deleted interval nor misses a
//! committed one (stress-proven in `crates/core/tests/hot_tier.rs`).
//! The `fig23_hot_tier` figure measures ≥5× fewer physical pool reads
//! at Zipf s = 1.0 with a budget of 75% of the stored intervals.
//!
//! See `examples/` for runnable scenarios (temporal reservations with
//! `now`/∞, spatial curve segments, engineering tolerances) and
//! `crates/bench/src/bin/run_all.rs` for the figure experiments' one binary.

pub use ri_baselines as baselines;
pub use ri_btree as btree;
pub use ri_mem as mem;
pub use ri_pagestore as pagestore;
pub use ri_relstore as relstore;
pub use ri_workloads as workloads;
pub use ritree_core as core;

/// Convenient single-import surface for applications.
pub mod prelude {
    pub use ri_pagestore::{BufferPool, BufferPoolConfig, FileDisk, MemDisk, DEFAULT_PAGE_SIZE};
    pub use ri_relstore::{Database, IntervalAccessMethod};
    pub use ritree_core::{
        AllenRelation, HotTier, HotTierConfig, HotTierStats, Interval, OpenEnd, RiTree,
    };
    pub use std::sync::Arc;
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn facade_quickstart() {
        let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(DEFAULT_PAGE_SIZE)));
        let db = Arc::new(Database::create(pool).unwrap());
        let tree = RiTree::create(db, "demo").unwrap();
        tree.insert(Interval::new(1, 2).unwrap(), 7).unwrap();
        assert_eq!(tree.stab(1).unwrap(), vec![7]);
    }
}

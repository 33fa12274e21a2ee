//! Experiment harness for regenerating the paper's evaluation (Section 6).
//!
//! `src/bin/run_all.rs` is the one binary; it runs the tables and figures
//! registered in [`figures::REGISTRY`], all or by name.  This library
//! holds them and the shared machinery: building access methods on the paper's
//! server configuration (2 KB blocks, 200-block cache), running query
//! batches, and reporting the two metrics of the paper — *physical disk
//! block accesses* and *response time* (simulated via the disk latency
//! model plus per-row executor cost, see `ri_pagestore::LatencyModel`).

pub mod commit_latency;
pub mod concurrency;
pub mod figures;
pub mod group_commit;
pub mod harness;
pub mod hot_tier;
pub mod scaleup;
pub mod sim;
pub mod write_concurrency;

pub use harness::*;

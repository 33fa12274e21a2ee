//! # The Relational Interval Tree (RI-tree)
//!
//! A from-scratch Rust reproduction of *Managing Intervals Efficiently in
//! Object-Relational Databases* (Kriegel, Pötke, Seidl; VLDB 2000).
//!
//! The RI-tree manages intervals inside an ordinary relational table
//! `(node, lower, upper, id)` equipped with two composite B+-tree indexes
//! `(node, lower, id)` and `(node, upper, id)` — the DDL of the paper's
//! Figure 2.  The backbone of Edelsbrunner's interval tree is kept
//! **virtual**: four persistent parameters (`offset`, `leftRoot`,
//! `rightRoot`, `minstep`) describe a binary partition of the integer
//! domain that is navigated with pure arithmetic, costing no I/O.
//!
//! Key guarantees reproduced here (Sections 3–4):
//! * O(n/b) disk blocks for n intervals (two index entries per interval,
//!   no redundancy);
//! * O(log_b n) I/Os per insertion or deletion;
//! * O(h·log_b n + r/b) I/Os per intersection query returning r results,
//!   where the backbone height h tracks data-space expansion and
//!   granularity but **not** n;
//! * dynamic expansion of the data space at both ends (Section 3.4);
//! * all 13 Allen topological predicates (Section 4.5);
//! * `now` / `infinity` endpoints for temporal data (Section 4.6).
//!
//! ## Quick start
//!
//! ```
//! use ritree_core::{Interval, RiTree};
//! use ri_relstore::Database;
//! use ri_pagestore::{BufferPool, MemDisk, DEFAULT_PAGE_SIZE};
//! use std::sync::Arc;
//!
//! let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(DEFAULT_PAGE_SIZE)));
//! let db = Arc::new(Database::create(pool).unwrap());
//! let tree = RiTree::create(db, "validity").unwrap();
//!
//! tree.insert(Interval::new(1999, 2004).unwrap(), 100).unwrap();
//! tree.insert(Interval::new(2001, 2009).unwrap(), 200).unwrap();
//!
//! // Which rows were valid during [2002, 2003]?  A query answers in plan
//! // order; sort for ascending ids.
//! let mut ids = tree.intersection(Interval::new(2002, 2003).unwrap()).unwrap();
//! ri_mem::sort::sort_ids(&mut ids);
//! assert_eq!(ids, vec![100, 200]);
//! ```

pub mod allen;
pub mod hot_tier;
pub mod interval;
pub mod skeleton;
pub mod tree;
pub mod vtree;

pub use allen::AllenRelation;
pub use hot_tier::{HotTier, HotTierConfig, HotTierStats};
pub use interval::Interval;
pub use skeleton::SkeletonDirectory;
pub use tree::{OpenEnd, RiOptions, RiStorage, RiTree, FORK_INF, FORK_NOW, UPPER_INF, UPPER_NOW};
pub use vtree::{fork_node_fig4, BackboneParams, QueryNodes};

pub use ri_pagestore::{Error, Result};

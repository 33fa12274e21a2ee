//! Helpers shared by the integration suites: scratch directories, a
//! durable pool over two files, [`sorted`] answers, the crash harness in
//! [`crash`], the determinism-golden rig in [`golden`], the twin check
//! of an RI-tree's two indexes in [`twins`] and the counting allocator in
//! [`alloc`].
//!
//! Each `tests/*.rs` file is its own crate, so anything here is pulled
//! in with `mod common;` and only the items a suite uses are linked —
//! hence the file-wide `dead_code` allowance.
#![allow(dead_code)]

pub mod alloc;
pub mod crash;
pub mod golden;
pub mod twins;

use ri_tree::pagestore::WalConfig;
use ri_tree::prelude::*;
use std::path::{Path, PathBuf};

/// A per-test scratch directory removed when the test ends (pass or
/// fail-with-unwind); earlier revisions leaked one directory per run.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("ri-tree-it-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir { path }
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A durable pool over two file-backed devices (data + WAL) with the
/// given [`WalConfig`] (segment size, flush policy).
pub fn durable_file_pool_with(data: &Path, wal: &Path, config: WalConfig) -> Arc<BufferPool> {
    Arc::new(
        BufferPool::new_durable_with(
            FileDisk::open(data, DEFAULT_PAGE_SIZE).unwrap(),
            BufferPoolConfig::with_capacity(64),
            FileDisk::open(wal, DEFAULT_PAGE_SIZE).unwrap(),
            config,
        )
        .unwrap(),
    )
}

/// A query answer in ascending id order, to compare with an ordered
/// expectation: an RI-tree query returns its ids in plan order.
pub fn sorted(mut ids: Vec<i64>) -> Vec<i64> {
    ri_tree::mem::sort::sort_ids(&mut ids);
    ids
}

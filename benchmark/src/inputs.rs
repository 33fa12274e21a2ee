//! Everything a workload feeds the engine, made from `--seed`.
//!
//! The same seed gives the same inputs; the engine only ever sees what
//! these functions return.  Data is the paper's D1(n, 2000) over
//! `[0, 2^20)`; one user row is an `(interval, id)` pair, 32 bytes in the
//! base table.

use ri_tree::core::Interval;
use ri_tree::workloads::{self, WorkloadSpec};

/// Bytes of user data per stored interval: `(node, lower, upper, id)`.
pub const ROW_BYTES: u64 = 32;
/// Mean interval length parameter of D1(n, d).
pub const MEAN_DURATION: i64 = 2000;
/// Selectivity of the range queries: 0.5 % of the stored intervals.
pub const RANGE_SELECTIVITY: f64 = 0.005;
/// Skew of the `read_zipf_tier` query stream.
pub const ZIPF_S: f64 = 1.0;

/// A stored interval with its id.
pub type Item = (Interval, i64);

/// Problem sizes.  [`Scale::full`] is what `BENCHMARK.json` measures;
/// [`Scale::smoke`] runs the same code in well under a second per
/// workload, for the tests and `run.sh --smoke`.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Rows bulk-loaded by the `read_*` workloads.
    pub read_rows: usize,
    /// Pool frames of `read_hot`: enough to hold the whole database.
    pub hot_frames: usize,
    /// Rows preloaded by the write workloads.
    pub write_rows: usize,
    /// Distinct stab/range query pairs of a read workload's stream: enough
    /// that no query repeats within a run (a stream that cycles freezes
    /// which hot-tier blocks sit at the admission margin, and with them a
    /// seed's throughput).
    pub query_pairs: usize,
    /// Query pairs run through the tier before `read_zipf_tier` measures.
    pub tier_warm_pairs: usize,
    /// Operations of the *counted prefix*: exact counts are taken over
    /// exactly this many operations, however fast the machine is.
    pub counted_ops: usize,
    /// `write_commit` checkpoints after every this many transactions.
    pub checkpoint_every: usize,
    /// Transactions per `ingest_recover` cycle, and inserts per transaction.
    pub cycle_txns: usize,
    pub txn_rows: usize,
    /// Stabbing queries that verify a write workload's final state.
    pub verify_stabs: usize,
    /// Times the set-up runs; `setup_s` is their median.
    pub setup_repeats: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            read_rows: 1_000_000,
            hot_frames: 65_536,
            write_rows: 200_000,
            query_pairs: 16384,
            tier_warm_pairs: 1000,
            counted_ops: 1000,
            checkpoint_every: 4000,
            cycle_txns: 100,
            txn_rows: 256,
            verify_stabs: 1000,
            setup_repeats: 3,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            read_rows: 20_000,
            hot_frames: 2048,
            write_rows: 5_000,
            query_pairs: 64,
            tier_warm_pairs: 100,
            counted_ops: 200,
            checkpoint_every: 100,
            cycle_txns: 6,
            txn_rows: 64,
            verify_stabs: 100,
            setup_repeats: 1,
        }
    }
}

/// The splitmix64 finalizer: a bijection on `u64` that spreads nearby
/// inputs far apart.
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Independent sub-seeds of one `--seed`, one per input stream.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Input streams of one run; the number picks the sub-seed.
pub mod stream {
    pub const BASE: u64 = 1;
    pub const STABS: u64 = 2;
    pub const RANGES: u64 = 3;
    pub const EXTRAS: u64 = 4;
    pub const VERIFY_STABS: u64 = 5;
    pub const DURABILITY: u64 = 6;

    /// The rows `ingest_recover` inserts in cycle `c`.
    pub fn cycle(c: usize) -> u64 {
        100 + c as u64
    }
}

/// `n` D1 intervals with ids `first_id..first_id + n`, from input stream
/// `stream` of `seed`.
pub fn items(n: usize, seed: u64, stream: u64, first_id: i64) -> Vec<Item> {
    workloads::d1(n, MEAN_DURATION)
        .generate(sub_seed(seed, stream))
        .into_iter()
        .zip(first_id..)
        .map(|((lower, upper), id)| {
            (Interval::new(lower, upper).expect("D1 bounds are ordered"), id)
        })
        .collect()
}

/// The query pairs a read workload cycles through: pair `i` is a stab at
/// `stabs[i]` followed by an intersection with `ranges[i]`.
#[derive(Clone, Debug)]
pub struct QuerySet {
    pub stabs: Vec<i64>,
    pub ranges: Vec<Interval>,
}

impl QuerySet {
    /// Query starts follow `spec`'s start distribution (uniform for D1,
    /// Zipf-skewed for `workloads::zipf`); ranges are sized for
    /// [`RANGE_SELECTIVITY`] against `spec`.
    pub fn generate(spec: &WorkloadSpec, pairs: usize, seed: u64) -> QuerySet {
        let stabs =
            workloads::queries_for_selectivity(spec, 0.0, pairs, sub_seed(seed, stream::STABS));
        let ranges = workloads::queries_for_selectivity(
            spec,
            RANGE_SELECTIVITY,
            pairs,
            sub_seed(seed, stream::RANGES),
        );
        QuerySet {
            stabs: stabs.into_iter().map(|(start, _)| start).collect(),
            ranges: ranges
                .into_iter()
                .map(|(l, u)| Interval::new(l, u).expect("query bounds are ordered"))
                .collect(),
        }
    }

    pub fn pairs(&self) -> usize {
        self.stabs.len()
    }

    /// Query `i` of the endless stream stab, range, stab, range, …
    pub fn query(&self, i: usize) -> Interval {
        let pair = (i / 2) % self.pairs();
        if i % 2 == 0 {
            Interval::point(self.stabs[pair])
        } else {
            self.ranges[pair]
        }
    }
}

/// Stab positions for verifying a write workload's final state.
pub fn verify_stabs(count: usize, seed: u64) -> Vec<i64> {
    workloads::queries_for_selectivity(
        &workloads::d1(1, MEAN_DURATION),
        0.0,
        count,
        sub_seed(seed, stream::VERIFY_STABS),
    )
    .into_iter()
    .map(|(start, _)| start)
    .collect()
}

/// FNV-1a over a word stream: a digest of a run's inputs, so tests can
/// tell "same op stream" from "different op stream".
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn items(&mut self, items: &[Item]) {
        for &(iv, id) in items {
            self.word(iv.lower as u64);
            self.word(iv.upper as u64);
            self.word(id as u64);
        }
    }

    pub fn queries(&mut self, queries: &QuerySet) {
        for (&stab, range) in queries.stabs.iter().zip(&queries.ranges) {
            self.word(stab as u64);
            self.word(range.lower as u64);
            self.word(range.upper as u64);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let digest = |seed| {
            let mut d = Digest::default();
            d.items(&items(500, seed, stream::BASE, 0));
            d.queries(&QuerySet::generate(&workloads::d1(500, MEAN_DURATION), 32, seed));
            d.finish()
        };
        assert_eq!(digest(1), digest(1));
        assert_ne!(digest(1), digest(2));
    }

    #[test]
    fn streams_of_one_seed_differ() {
        let a = items(100, 7, stream::BASE, 0);
        let b = items(100, 7, stream::EXTRAS, 0);
        assert_ne!(a, b);
        assert_eq!(a[0].1, 0);
        assert_eq!(items(3, 7, stream::EXTRAS, 40)[2].1, 42);
    }

    #[test]
    fn query_stream_alternates_stab_and_range_and_cycles() {
        let qs = QuerySet::generate(&workloads::d1(1000, MEAN_DURATION), 4, 3);
        assert_eq!(qs.query(0), Interval::point(qs.stabs[0]));
        assert_eq!(qs.query(1), qs.ranges[0]);
        assert_eq!(qs.query(8), qs.query(0));
        assert!(qs.ranges.iter().all(|r| r.length() > 0));
    }
}

//! I/O statistics and the disk latency model.
//!
//! The paper reports two cost metrics per experiment: *physical disk block
//! accesses* (what the buffer pool actually fetched from / wrote to the
//! device) and *response time* in seconds on a Pentium Pro/180 with a U-SCSI
//! drive.  Physical accesses are deterministic and portable, so they are the
//! primary metric here too.  To also reproduce the *shape* of the response
//! time plots, [`LatencyModel`] charges a fixed cost per physical block
//! access, calibrated to a late-1990s SCSI disk.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, thread-safe I/O counters.
///
/// One instance is owned by each [`crate::BufferPool`]; higher layers obtain
/// a handle via [`crate::BufferPool::stats`] and diff [`IoSnapshot`]s around
/// the operation they want to measure — the same methodology as reading
/// Oracle's `physical reads` session statistic before and after a query.
#[derive(Debug, Default)]
pub struct IoStats {
    logical_reads: AtomicU64,
    logical_writes: AtomicU64,
    physical_reads: AtomicU64,
    physical_writes: AtomicU64,
    coalesced_faults: AtomicU64,
}

impl IoStats {
    /// Creates a zeroed counter set behind an [`Arc`].
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records a buffer-pool hit or miss read request.
    #[inline]
    pub fn record_logical_read(&self) {
        self.logical_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a page modification request.
    #[inline]
    pub fn record_logical_write(&self) {
        self.logical_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a block fetched from the device.
    #[inline]
    pub fn record_physical_read(&self) {
        self.physical_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a block written back to the device.
    #[inline]
    pub fn record_physical_write(&self) {
        self.physical_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a fault that found its page already being fetched by
    /// another thread and blocked on that in-flight read instead of
    /// issuing a duplicate device read (single-flight coalescing).
    #[inline]
    pub fn record_coalesced_fault(&self) {
        self.coalesced_faults.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of the four classic I/O counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            logical_reads: self.logical_reads.load(Ordering::Relaxed),
            logical_writes: self.logical_writes.load(Ordering::Relaxed),
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
            physical_writes: self.physical_writes.load(Ordering::Relaxed),
        }
    }

    /// Takes a point-in-time copy of the miss-promotion counters.
    ///
    /// These live beside (not inside) [`IoSnapshot`] because
    /// `tests/pool_determinism.rs` compares whole `IoSnapshot` literals:
    /// a field added there would have to be added to every golden.
    pub fn miss_snapshot(&self) -> MissSnapshot {
        MissSnapshot { coalesced_faults: self.coalesced_faults.load(Ordering::Relaxed) }
    }
}

/// Aggregating handle over a sharded pool's per-shard [`IoStats`].
///
/// The buffer pool keeps one counter set *per shard* so that concurrent
/// accesses to different shards never contend on a shared cache line.
/// This handle sums them on demand: every event is recorded in exactly one
/// shard's counters, so the aggregate is lossless — in a quiesced pool,
/// [`PoolStats::snapshot`] equals the counters a single global [`IoStats`]
/// would have accumulated.
///
/// Cloning is cheap and shares the underlying counters, so a handle taken
/// before a workload observes everything the pool does afterwards.
#[derive(Clone, Debug)]
pub struct PoolStats {
    shards: Arc<[Arc<IoStats>]>,
}

impl PoolStats {
    /// Wraps one counter set per shard.
    pub fn new(shards: Vec<Arc<IoStats>>) -> Self {
        assert!(!shards.is_empty(), "a pool has at least one shard");
        PoolStats { shards: shards.into() }
    }

    /// Lossless aggregate of all shards' counters.
    pub fn snapshot(&self) -> IoSnapshot {
        let mut total = IoSnapshot::default();
        for s in self.shards.iter() {
            total.accumulate(&s.snapshot());
        }
        total
    }

    /// Point-in-time copy of each shard's own counters, in shard order.
    ///
    /// This is what the concurrency benchmark feeds its contention model:
    /// accesses counted against one shard serialize behind that shard's
    /// lock, accesses in different shards proceed in parallel.
    pub fn per_shard(&self) -> Vec<IoSnapshot> {
        self.shards.iter().map(|s| s.snapshot()).collect()
    }

    /// Lossless aggregate of all shards' miss-promotion counters.
    pub fn miss_snapshot(&self) -> MissSnapshot {
        let mut total = MissSnapshot::default();
        for s in self.shards.iter() {
            total.accumulate(&s.miss_snapshot());
        }
        total
    }
}

/// Point-in-time copy of the miss-promotion counters (see
/// [`IoStats::miss_snapshot`] for why these are not part of
/// [`IoSnapshot`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MissSnapshot {
    /// Faults that coalesced onto another thread's in-flight device read
    /// instead of issuing their own (single-flight).
    pub coalesced_faults: u64,
}

impl MissSnapshot {
    /// Counter-wise accumulation `self += other`.
    pub fn accumulate(&mut self, other: &MissSnapshot) {
        self.coalesced_faults += other.coalesced_faults;
    }

    /// Counter-wise difference `self - earlier`; saturates at zero.
    pub fn since(&self, earlier: &MissSnapshot) -> MissSnapshot {
        MissSnapshot {
            coalesced_faults: self.coalesced_faults.saturating_sub(earlier.coalesced_faults),
        }
    }
}

/// Point-in-time copy of [`IoStats`], with arithmetic for diffing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Page read requests served by the pool (hits + misses).
    pub logical_reads: u64,
    /// Page write requests served by the pool.
    pub logical_writes: u64,
    /// Blocks fetched from the device (cache misses).
    pub physical_reads: u64,
    /// Blocks written back to the device (evictions + flushes).
    pub physical_writes: u64,
}

impl IoSnapshot {
    /// Counter-wise accumulation `self += other` — the one place that
    /// knows how to sum snapshots, shared by every aggregation site.
    pub fn accumulate(&mut self, other: &IoSnapshot) {
        self.logical_reads += other.logical_reads;
        self.logical_writes += other.logical_writes;
        self.physical_reads += other.physical_reads;
        self.physical_writes += other.physical_writes;
    }

    /// Counter-wise difference `self - earlier`; saturates at zero.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            logical_reads: self.logical_reads.saturating_sub(earlier.logical_reads),
            logical_writes: self.logical_writes.saturating_sub(earlier.logical_writes),
            physical_reads: self.physical_reads.saturating_sub(earlier.physical_reads),
            physical_writes: self.physical_writes.saturating_sub(earlier.physical_writes),
        }
    }

    /// Total physical block accesses — the paper's "disk accesses" metric.
    pub fn physical_total(&self) -> u64 {
        self.physical_reads + self.physical_writes
    }

    /// Buffer-cache hit ratio over the covered period (reads only).
    pub fn hit_ratio(&self) -> f64 {
        if self.logical_reads == 0 {
            return 1.0;
        }
        1.0 - (self.physical_reads as f64 / self.logical_reads as f64)
    }
}

/// Charges a fixed latency per physical block access.
///
/// The defaults approximate the paper's U-SCSI disk on a Pentium Pro/180:
/// roughly 8 ms average seek + 4 ms rotational delay + transfer for a 2 KB
/// block, i.e. ≈ 12.5 ms per *random* physical read, and a slightly cheaper
/// write (writes cluster at eviction time).  CPU cost per examined row is
/// folded in by callers that measure their own row counts.
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    /// Seconds charged per physical block read.
    pub seconds_per_read: f64,
    /// Seconds charged per physical block write.
    pub seconds_per_write: f64,
    /// Seconds charged per row touched by the query executor, emulating the
    /// interpretation overhead of a late-1990s SQL engine.
    pub seconds_per_row: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel { seconds_per_read: 0.0125, seconds_per_write: 0.010, seconds_per_row: 4.0e-6 }
    }
}

impl LatencyModel {
    /// Simulated elapsed seconds for the I/O volume in `snap`, plus
    /// `rows_touched` rows of executor CPU work.
    pub fn simulate(&self, snap: &IoSnapshot, rows_touched: u64) -> f64 {
        snap.physical_reads as f64 * self.seconds_per_read
            + snap.physical_writes as f64 * self.seconds_per_write
            + rows_touched as f64 * self.seconds_per_row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diffing() {
        let s = IoStats::default();
        s.record_logical_read();
        s.record_physical_read();
        let a = s.snapshot();
        s.record_logical_read();
        s.record_logical_read();
        s.record_physical_write();
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.logical_reads, 2);
        assert_eq!(d.physical_reads, 0);
        assert_eq!(d.physical_writes, 1);
        assert_eq!(d.physical_total(), 1);
    }

    #[test]
    fn hit_ratio_bounds() {
        let empty = IoSnapshot::default();
        assert_eq!(empty.hit_ratio(), 1.0);
        let all_miss = IoSnapshot { logical_reads: 10, physical_reads: 10, ..Default::default() };
        assert_eq!(all_miss.hit_ratio(), 0.0);
        let half = IoSnapshot { logical_reads: 10, physical_reads: 5, ..Default::default() };
        assert!((half.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn latency_model_is_linear_in_io() {
        let m = LatencyModel::default();
        let one = IoSnapshot { physical_reads: 1, ..Default::default() };
        let ten = IoSnapshot { physical_reads: 10, ..Default::default() };
        assert!((m.simulate(&ten, 0) - 10.0 * m.simulate(&one, 0)).abs() < 1e-12);
    }

    #[test]
    fn miss_counters_live_beside_the_classic_four() {
        let s = IoStats::default();
        s.record_coalesced_fault();
        s.record_coalesced_fault();
        // The classic snapshot is untouched by miss-promotion events…
        assert_eq!(s.snapshot(), IoSnapshot::default());
        // …and the miss snapshot diffs like the classic one.
        let a = s.miss_snapshot();
        assert_eq!(a.coalesced_faults, 2);
        s.record_coalesced_fault();
        assert_eq!(s.miss_snapshot().since(&a).coalesced_faults, 1);
    }
}

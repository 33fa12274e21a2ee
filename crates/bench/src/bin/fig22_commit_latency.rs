//! Mean commit latency vs committing writer threads: inline first-flush
//! against the background WAL flusher, over small and large transactions
//! (our durability experiment; see `ri_bench::commit_latency` for the
//! deterministic flush-policy model).
//!
//! Usage: `fig22_commit_latency [--quick]`.  The deterministic snapshot
//! (`BENCH_commit_latency.json`) is written by `run_all --snapshots DIR`.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    ri_bench::commit_latency::run(quick, None);
}

//! Mean commit latency vs committing writer threads: inline first-flush
//! against the background WAL flusher, over small and large transactions
//! (our durability experiment; see `ri_bench::commit_latency` for the
//! deterministic flush-policy model).
//!
//! Usage: `fig22_commit_latency [--quick]`.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    ri_bench::commit_latency::run(quick);
}

//! Query throughput vs reader threads for 1/4/16 buffer-pool shards
//! (our concurrency experiment; see `ri_bench::concurrency` for the
//! deterministic contention model).
//!
//! Usage: `fig18_concurrency [--quick]`.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    ri_bench::concurrency::run(quick);
}

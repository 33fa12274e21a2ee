//! Modelled insert throughput vs writer threads: B-link writers
//! against the pre-PR 3 global-writer baseline (our write-concurrency
//! experiment; see `ri_bench::write_concurrency` for the deterministic
//! contention model).
//!
//! Usage: `fig19_write_concurrency [--quick]`.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    ri_bench::write_concurrency::run(quick);
}

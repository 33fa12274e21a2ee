//! The HINT hot tier: simulated comparison counts for naive scan vs
//! interval tree vs HINT, then physical buffer-pool reads saved by a
//! read-through tier over the RI-tree under Zipf skew × interval budget
//! (our main-memory experiment; see `ri_bench::hot_tier` for the model).
//!
//! Usage: `fig23_hot_tier [--quick]`.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    ri_bench::hot_tier::run(quick);
}

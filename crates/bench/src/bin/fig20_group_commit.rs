//! Log fsyncs per committed insert vs committing writer threads: the
//! WAL's leader/follower group commit against the one-fsync-per-commit
//! baseline (our durability experiment; see `ri_bench::group_commit`
//! for the deterministic commit-policy model).
//!
//! Usage: `fig20_group_commit [--quick]`.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    ri_bench::group_commit::run(quick);
}

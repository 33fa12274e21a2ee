//! Beyond-paper scale-up: building 1–10 million intervals, bottom-up
//! bulk load vs the repeated-descent build (our experiment; see
//! `ri_bench::scaleup` for the measured-anchor + verified-model
//! methodology).
//!
//! Usage: `fig21_scaleup [--quick]`.  The deterministic snapshot
//! (`BENCH_scaleup.json`) is written by `run_all --snapshots DIR`.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    ri_bench::scaleup::run(quick, None);
}

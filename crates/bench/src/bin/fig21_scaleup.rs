//! Beyond-paper scale-up: building 1–10 million intervals, bottom-up
//! bulk load vs the repeated-descent build (our experiment; see
//! `ri_bench::scaleup` for the measured-anchor + verified-model
//! methodology).
//!
//! Usage: `fig21_scaleup [--quick]`.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    ri_bench::scaleup::run(quick);
}

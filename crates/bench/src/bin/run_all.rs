//! Runs every table/figure experiment in sequence, driven by
//! `ri_bench::figures::REGISTRY` — one table lists all figures, so a new
//! figure registered there is automatically part of this regeneration.
//!
//! Usage: `run_all [--quick]`
//!
//! Default is full (paper-sized) mode; pass `--quick` for a 10x smaller
//! smoke run.  Every line that does not start with `#` is deterministic:
//! `run_all --quick | grep -v '^#'` is the snapshot of a commit, and CI
//! diffs that text from two runs.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    eprintln!(
        "regenerating all {} tables and figures ({} mode)...",
        ri_bench::figures::REGISTRY.len(),
        if quick { "quick" } else { "full" }
    );
    println!("# runner_cores: {}", ri_bench::runner_cores());
    for figure in ri_bench::figures::REGISTRY {
        eprintln!("--- {} ---", figure.name);
        (figure.run)(quick);
    }
}

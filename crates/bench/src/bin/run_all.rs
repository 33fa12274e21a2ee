//! The figure suite's one binary: runs the table/figure experiments of
//! `ri_bench::figures::REGISTRY`, all of them or the ones named.
//!
//! Usage: `run_all [--quick] [NAME…]`
//!
//! Default is full (paper-sized) mode; pass `--quick` for a 10x smaller
//! smoke run.  Any other argument that is not a registered name is
//! refused (exit 2) before anything reaches stdout.  Every line that does
//! not start with `#` is deterministic: `run_all --quick | grep -v '^#'`
//! is the snapshot of a commit, and CI diffs that text from two runs.

fn main() {
    let (flags, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a == "--quick");
    let quick = !flags.is_empty();
    let figures = ri_bench::figures::select(&names).unwrap_or_else(|err| {
        eprintln!("run_all: {err}\nusage: run_all [--quick] [NAME…]");
        std::process::exit(2);
    });
    eprintln!(
        "regenerating {} tables and figures ({} mode)...",
        figures.len(),
        if quick { "quick" } else { "full" }
    );
    println!("# runner_cores: {}", ri_bench::runner_cores());
    for figure in figures {
        eprintln!("--- {} ---", figure.name);
        (figure.run)(quick);
    }
}

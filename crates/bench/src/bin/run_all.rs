//! Runs every table/figure experiment in sequence, driven by
//! `ri_bench::figures::REGISTRY` — one table lists all figures, so a new
//! figure registered there is automatically part of this regeneration.
//!
//! Usage: `run_all [--quick] [--snapshots DIR]`
//!
//! Default is full (paper-sized) mode; pass `--quick` for a 10x smaller
//! smoke run.  `--snapshots DIR` additionally writes every registered
//! deterministic snapshot (`BENCH_*.json`) into `DIR` — the files CI
//! double-runs and diffs.

use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let snapshots = args.iter().position(|a| a == "--snapshots").map(|i| {
        let dir = PathBuf::from(args.get(i + 1).expect("--snapshots needs a directory"));
        std::fs::create_dir_all(&dir).expect("create the snapshot directory");
        dir
    });
    eprintln!(
        "regenerating all {} tables and figures ({} mode)...",
        ri_bench::figures::REGISTRY.len(),
        if quick { "quick" } else { "full" }
    );
    for figure in ri_bench::figures::REGISTRY {
        eprintln!("--- {} ---", figure.name);
        let json = snapshots.as_ref().zip(figure.snapshot).map(|(dir, file)| dir.join(file));
        (figure.run)(quick, json.as_deref());
    }
}

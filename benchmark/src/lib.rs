//! The repo benchmark: five workloads over the `ri-tree` storage engine,
//! wall-clock end-to-end metrics, and per-layer probes and spans taken
//! from outside the library.  `BENCHMARK.json` (one directory up) is the
//! contract; `README.md` explains every workload and metric.

pub mod cli;
pub mod disk;
pub mod inputs;
pub mod json;
pub mod metrics;
mod oracle;
mod probes;
mod sets;
mod stats;
mod trace;
pub mod workloads;

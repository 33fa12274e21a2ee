//! The whole benchmark at smoke size: every workload runs, answers
//! correctly, repeats its inputs and exact counts for a seed, changes
//! them with the seed, and is the workload it says it is.

use ri_benchmark::cli::result_line;
use ri_benchmark::inputs::Scale;
use ri_benchmark::json::{self, Value};
use ri_benchmark::metrics::Spec;
use ri_benchmark::workloads::{run, Outcome, RunConfig, Workload};
use std::path::PathBuf;

/// Each test gets its own directory: tests run on parallel threads, and a
/// workload's scratch files are named after the workload and the process.
fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

/// A run of the counted prefix only (`--seconds 0`).
fn run_smoke(test: &str, workload: Workload, seed: u64, trace: bool) -> Outcome {
    run_smoke_for(test, workload, seed, trace, 0.0)
}

fn run_smoke_for(test: &str, workload: Workload, seed: u64, trace: bool, seconds: f64) -> Outcome {
    let cfg =
        RunConfig { workload, seed, seconds, trace, scale: Scale::smoke(), out_dir: out_dir(test) };
    run(&cfg).unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()))
}

fn metric(outcome: &Outcome, name: &str) -> f64 {
    outcome.metrics.get(name).unwrap_or_else(|| panic!("{name} was not measured"))
}

/// Counts that must repeat exactly for a seed.
const EXACT_END_TO_END: [&str; 2] = ["space_bytes_per_user_byte", "written_bytes_per_user_byte"];

#[test]
fn same_seed_repeats_inputs_and_exact_counts_untraced() {
    for workload in Workload::ALL {
        let a = run_smoke("repeat-untraced", workload, 1, false);
        let b = run_smoke("repeat-untraced", workload, 1, false);
        assert_eq!(a.digest, b.digest, "{}: op stream differs", workload.name());
        for name in EXACT_END_TO_END {
            assert_eq!(metric(&a, name), metric(&b, name), "{}: {name}", workload.name());
        }
    }
}

#[test]
fn same_seed_repeats_exact_counts_traced() {
    let exact: [(Workload, &[&str]); 5] = [
        (Workload::ReadCold, &["phys_reads_per_op", "core.scans_per_op", "btree.entries_per_op"]),
        (Workload::ReadHot, &["phys_reads_per_op", "relstore.rows_examined_per_op"]),
        (
            Workload::ReadZipfTier,
            &["phys_reads_per_op", "core.tier_hit_ratio", "core.tier_admissions"],
        ),
        (
            Workload::WriteCommit,
            &["wal_bytes_per_user_byte", "wal.records_per_txn", "btree.splits"],
        ),
        // Not `wal.records_scanned`: how much of the uncommitted tail the
        // background flusher got to the log before the power cut is a race.
        (Workload::IngestRecover, &["wal_bytes_per_user_byte", "wal.records_per_txn"]),
    ];
    for (workload, names) in exact {
        let a = run_smoke("repeat-traced", workload, 1, true);
        let b = run_smoke("repeat-traced", workload, 1, true);
        // Measuring for longer, on a faster or slower machine, runs more or
        // fewer operations after the counted prefix; its counts stay put.
        let longer = run_smoke_for("repeat-traced", workload, 1, true, 0.3);
        for name in names {
            assert_eq!(metric(&a, name), metric(&b, name), "{}: {name}", workload.name());
            assert_eq!(metric(&a, name), metric(&longer, name), "{}: {name}", workload.name());
        }
    }
}

#[test]
fn another_seed_gives_another_stream() {
    for workload in Workload::ALL {
        let a = run_smoke("other-seed", workload, 1, false);
        let b = run_smoke("other-seed", workload, 2, false);
        assert_ne!(a.digest, b.digest, "{}: seeds 1 and 2 share a stream", workload.name());
    }
}

#[test]
fn every_answer_checks_out_on_two_seeds() {
    for seed in [1, 2] {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let outcome = run_smoke("answers", workload, seed, trace);
                assert!(outcome.attempted >= 20, "{}: nothing attempted", workload.name());
                assert_eq!(outcome.failed, 0, "{} seed {seed} trace {trace}", workload.name());
            }
        }
    }
}

#[test]
fn result_lines_carry_exactly_the_declared_metrics() {
    let spec = Spec::load().unwrap();
    for trace in [false, true] {
        for workload in Workload::ALL {
            let outcome = run_smoke("result-line", workload, 1, trace);
            let line = result_line(&outcome, &spec, trace).unwrap();
            let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
            let reported: Vec<&str> = line
                .get("metrics")
                .unwrap()
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let declared: Vec<&str> =
                spec.reported(trace).iter().map(|d| d.name.as_str()).collect();
            assert_eq!(reported, declared);
            if !trace {
                // An end-to-end metric is never 0: bounds are shares of it.
                for (name, value) in line.get("metrics").unwrap().as_obj().unwrap() {
                    let v = value.get("value").and_then(Value::as_f64).unwrap();
                    assert!(v > 0.0, "{}: {name} = {v}", workload.name());
                }
            }
        }
    }
}

#[test]
fn traced_runs_write_span_trees_whose_self_times_add_up() {
    for workload in Workload::ALL {
        let outcome = run_smoke("trace-file", workload, 1, true);
        assert!(outcome.metrics.get("trace.overhead_pct").is_some());
        let path = out_dir("trace-file").join(format!("trace-{}.json", workload.name()));
        let trace = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        // The layers' self times cover the op spans but for the harness's glue.
        let share = trace.get("layer_self_share_of_op").and_then(Value::as_f64).unwrap();
        assert!((0.9..=1.0).contains(&share), "{}: share {share}", workload.name());
        let ops = trace.get("ops").and_then(Value::as_arr).unwrap();
        assert!(!ops.is_empty() && ops.len() <= 256);
        let first = ops[0].as_arr().unwrap();
        assert_eq!(first[0].get("parent"), Some(&Value::Null));
        assert!(first.iter().skip(1).all(|s| s.get("parent") != Some(&Value::Null)));
    }
}

#[test]
fn the_workloads_are_what_they_say() {
    let hot = run_smoke("claims", Workload::ReadHot, 1, true);
    assert_eq!(metric(&hot, "phys_reads_per_op"), 0.0);
    assert_eq!(metric(&hot, "pool.hit_ratio"), 1.0);
    let cold = run_smoke("claims", Workload::ReadCold, 1, true);
    assert!(metric(&cold, "phys_reads_per_op") > 1.0);
    assert!(metric(&cold, "disk.data_reads") > 0.0);
    let tier = run_smoke("claims", Workload::ReadZipfTier, 1, true);
    assert!(metric(&tier, "core.tier_hit_ratio") > 0.5);
    // At this size the traced half may draw no miss at all (0 us).
    let (hit_us, miss_us) = (metric(&tier, "core.tier_hit_us"), metric(&tier, "core.tier_miss_us"));
    assert!(hit_us > 0.0 && (miss_us == 0.0 || hit_us < miss_us), "{hit_us} vs {miss_us}");
    let commit = run_smoke("claims", Workload::WriteCommit, 1, true);
    // One sync per commit, plus the checkpoints' own.
    assert!((1.0..1.05).contains(&metric(&commit, "wal.syncs_per_txn")));
    assert!(metric(&commit, "disk.log_syncs") >= 200.0);
    let ingest = run_smoke("claims", Workload::IngestRecover, 1, true);
    assert!(metric(&ingest, "wal.records_scanned") > 0.0);
    assert!(metric(&ingest, "recover_s") > 0.0);
    assert!(metric(&ingest, "wal.flusher_bytes_share") > 0.0);
}

//! Sets of runs, and comparing two of them.
//!
//! `bench set` runs every workload `--passes` times, interleaved
//! (A B C D E, A B C D E, …), each run in its own process so that
//! `peak_rss_mb` belongs to one workload, pass `p` with seed `--seed + p`;
//! then one traced pass.  It writes every value with median, min, max and
//! quartile spread to a set file, and prints the stability table: each
//! end-to-end metric's spread against a third of its bound.
//!
//! `bench compare BASELINE CHANGE` applies the bounds of `BENCHMARK.json`
//! to two set files.  Per workload and end-to-end metric it reports
//!
//! * `ok` — the change's median is no worse than the baseline's by more
//!   than the bound, and neither side's range is wider than the bound;
//! * `BREACH` — worse by more than the bound even comparing the change's
//!   best run with the baseline's worst;
//! * `unresolved` — anything else: the runs are too spread out, against
//!   this bound, to call the metric changed or unchanged.
//!
//! It exits non-zero only on a breach.

use crate::cli::Args;
use crate::json::{self, obj, Value};
use crate::metrics::{MetricDef, Spec};
use crate::stats::{iqr_share, median};
use crate::workloads::Workload;
use std::process::{Command, ExitCode, Stdio};

/// Runs one workload once in a child process and returns its result object.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::null());
    if smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("no result line")?;
    json::parse(last)
}

fn number(value: &Value, key: &str) -> Result<f64, String> {
    value.get(key).and_then(Value::as_f64).ok_or_else(|| format!("no number {key:?} in {value}"))
}

/// `{unit, median, min, max, iqr_share, values}` of one metric's runs.
fn summarize(unit: &str, values: &[f64]) -> Value {
    let fold = |f: fn(f64, f64) -> f64| values.iter().copied().reduce(f).unwrap_or(f64::NAN);
    obj([
        ("unit", Value::Str(unit.to_string())),
        ("median", Value::Num(median(values).unwrap_or(f64::NAN))),
        ("min", Value::Num(fold(f64::min))),
        ("max", Value::Num(fold(f64::max))),
        ("iqr_share", iqr_share(values).map_or(Value::Null, Value::Num)),
        ("values", Value::Arr(values.iter().copied().map(Value::Num).collect())),
    ])
}

/// Collects `metrics[name].value` of each result into one summary per
/// declared metric.
fn summarize_all(defs: &[MetricDef], results: &[Value]) -> Result<Value, String> {
    let members = defs
        .iter()
        .map(|def| {
            let values = results
                .iter()
                .map(|r| {
                    r.get("metrics")
                        .and_then(|m| m.get(&def.name))
                        .ok_or_else(|| format!("result lacks metric {:?}", def.name))
                        .and_then(|m| number(m, "value"))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            Ok((def.name.clone(), summarize(&def.unit, &values)))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Value::Obj(members))
}

pub fn run_set(args: &Args) -> Result<(), String> {
    args.only(&["out", "passes", "seed", "seconds", "smoke", "meta"])?;
    let spec = Spec::load()?;
    let out = args.get("out").ok_or("set: --out FILE is required")?;
    let passes: u64 = args.parsed("passes")?.unwrap_or(3);
    let seed: u64 = args.parsed("seed")?.unwrap_or(1);
    let seconds: f64 = args.parsed("seconds")?.unwrap_or(spec.run_seconds);
    let smoke = args.get("smoke").is_some();
    if passes == 0 {
        return Err("set: --passes must be at least 1".into());
    }

    let mut untraced: Vec<Vec<Value>> = vec![Vec::new(); Workload::ALL.len()];
    for pass in 0..passes {
        for (slot, workload) in Workload::ALL.into_iter().enumerate() {
            eprintln!("# pass {}/{passes}: {}", pass + 1, workload.name());
            untraced[slot].push(run_child(workload, seed + pass, seconds, false, smoke)?);
        }
    }
    let mut workloads = Vec::new();
    for (workload, results) in Workload::ALL.into_iter().zip(&untraced) {
        eprintln!("# traced pass: {}", workload.name());
        let traced = run_child(workload, seed, seconds, true, smoke)?;
        let sum = |key: &str| -> Result<f64, String> {
            results.iter().chain([&traced]).map(|r| number(r, key)).sum()
        };
        let summary = obj([
            ("attempted", Value::Num(sum("attempted")?)),
            ("failed", Value::Num(sum("failed")?)),
            ("end_to_end", summarize_all(&spec.end_to_end, results)?),
            ("per_layer", summarize_all(&spec.per_layer, std::slice::from_ref(&traced))?),
        ]);
        workloads.push((workload.name(), summary));
    }

    let mut meta = vec![
        // A set records what was measured; a gain is claimed elsewhere.
        ("claim".to_string(), Value::Null),
        ("seed".to_string(), Value::Num(seed as f64)),
        ("passes".to_string(), Value::Num(passes as f64)),
        ("seconds".to_string(), Value::Num(seconds)),
        ("scale".to_string(), Value::Str(if smoke { "smoke" } else { "full" }.to_string())),
        (
            "runner_cores".to_string(),
            Value::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
    ];
    for pair in args.all("meta") {
        let (key, value) =
            pair.split_once('=').ok_or_else(|| format!("--meta {pair:?}: want KEY=VALUE"))?;
        meta.push((key.to_string(), Value::Str(value.to_string())));
    }
    let set = obj([("meta", Value::Obj(meta)), ("workloads", obj(workloads))]);
    std::fs::write(out, set.pretty()).map_err(|e| format!("{out}: {e}"))?;
    print_stability(&spec, &set);
    let failed: f64 =
        set_workloads(&set)?.iter().map(|(_, w)| number(w, "failed").unwrap_or(0.0)).sum();
    if failed > 0.0 {
        return Err(format!("set: {failed} operations failed or answered wrongly"));
    }
    Ok(())
}

fn set_workloads(set: &Value) -> Result<&[(String, Value)], String> {
    set.get("workloads").and_then(Value::as_obj).ok_or_else(|| "set file has no workloads".into())
}

/// The stability table: every end-to-end metric's quartile spread against
/// a third of its bound (the spread of `setup_s` is not held to it).
fn print_stability(spec: &Spec, set: &Value) {
    println!(
        "{:<16} {:<28} {:>14} {:>14} {:>14} {:>8} {:>8}",
        "workload", "metric", "median", "min", "max", "iqr%", "bound/3%"
    );
    for (workload, summary) in set_workloads(set).unwrap_or_default() {
        for def in &spec.end_to_end {
            let Some(s) = summary.get("end_to_end").and_then(|e| e.get(&def.name)) else {
                continue;
            };
            let field = |key: &str| s.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
            let limit = def.bound.unwrap_or(f64::NAN) / 3.0;
            let spread = field("iqr_share");
            let flag = if def.name != "setup_s" && spread > limit { "  <-- unsteady" } else { "" };
            println!(
                "{workload:<16} {:<28} {:>14.4} {:>14.4} {:>14.4} {:>8.2} {:>8.2}{flag}",
                def.name,
                field("median"),
                field("min"),
                field("max"),
                spread * 100.0,
                limit * 100.0
            );
        }
    }
}

/// How one metric of one workload compares between two sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Breach,
}

/// Median, min and max of one metric in one set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Range {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

/// By what share of `base` is `value` worse?  Negative when better.
fn worse_by(def: &MetricDef, base: f64, value: f64) -> f64 {
    let delta = if def.higher_is_better { base - value } else { value - base };
    delta / base.abs()
}

/// Applies `def.bound` to a baseline and a change; returns the verdict
/// and the share by which the change's median is worse.
pub fn judge(def: &MetricDef, baseline: Range, change: Range) -> (Verdict, f64) {
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let worse = worse_by(def, baseline.median, change.median);
    // (baseline's worst run, its best run) and the same for the change.
    let ends = |r: Range| if def.higher_is_better { (r.min, r.max) } else { (r.max, r.min) };
    let ((base_worst, base_best), (change_worst, change_best)) = (ends(baseline), ends(change));
    let spread = |r: Range| (r.max - r.min) / r.median.abs();
    let verdict = if worse > bound {
        // Still a breach with the change's best run against the baseline's worst?
        if worse_by(def, base_worst, change_best) > bound {
            Verdict::Breach
        } else {
            Verdict::Unresolved
        }
    } else if spread(baseline).max(spread(change)) > bound
        && worse_by(def, base_best, change_worst) >= 0.0
    {
        // Too spread out to call unchanged — unless every run of the
        // change beats every run of the baseline.
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

fn range_of(summary: &Value, metric: &str) -> Option<Range> {
    let s = summary.get("end_to_end")?.get(metric)?;
    let field = |key: &str| s.get(key).and_then(Value::as_f64);
    Some(Range { median: field("median")?, min: field("min")?, max: field("max")? })
}

pub fn run_compare(args: &Args) -> Result<ExitCode, String> {
    args.only(&[])?;
    let [_, baseline_path, change_path] = args.positional.as_slice() else {
        return Err("usage: bench compare BASELINE.json CHANGE.json".into());
    };
    let spec = Spec::load()?;
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (baseline, change) = (load(baseline_path)?, load(change_path)?);
    let (mut breaches, mut unresolved) = (0, 0);
    println!(
        "{:<16} {:<28} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "baseline", "change", "worse%", "bound%"
    );
    for (workload, base_summary) in set_workloads(&baseline)? {
        let change_summary = change
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or_else(|| format!("{change_path}: no workload {workload:?}"))?;
        for def in &spec.end_to_end {
            let (Some(a), Some(b)) =
                (range_of(base_summary, &def.name), range_of(change_summary, &def.name))
            else {
                return Err(format!("{workload}: metric {:?} missing from a set", def.name));
            };
            let (verdict, worse) = judge(def, a, b);
            let label = match verdict {
                Verdict::Ok => "ok",
                Verdict::Unresolved => {
                    unresolved += 1;
                    "unresolved"
                }
                Verdict::Breach => {
                    breaches += 1;
                    "BREACH"
                }
            };
            println!(
                "{workload:<16} {:<28} {:>14.4} {:>14.4} {:>9.2} {:>7.2}  {label}",
                def.name,
                a.median,
                b.median,
                worse * 100.0,
                def.bound.unwrap_or(f64::NAN) * 100.0
            );
        }
    }
    println!("{breaches} breached, {unresolved} unresolved");
    Ok(if breaches > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher_is_better: bool, bound: f64) -> MetricDef {
        MetricDef { name: "m".into(), unit: "u".into(), higher_is_better, bound: Some(bound) }
    }

    fn tight(median: f64) -> Range {
        Range { median, min: median * 0.99, max: median * 1.01 }
    }

    #[test]
    fn lower_is_better_verdicts() {
        let d = def(false, 0.10);
        assert_eq!(judge(&d, tight(100.0), tight(105.0)).0, Verdict::Ok);
        assert_eq!(judge(&d, tight(100.0), tight(80.0)).0, Verdict::Ok);
        assert_eq!(judge(&d, tight(100.0), tight(120.0)).0, Verdict::Breach);
        let (_, worse) = judge(&d, tight(100.0), tight(120.0));
        assert!((worse - 0.20).abs() < 1e-12);
        // Worse by the median, but the ranges reach within the bound.
        let wide = Range { median: 120.0, min: 100.0, max: 140.0 };
        assert_eq!(judge(&d, tight(100.0), wide).0, Verdict::Unresolved);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let d = def(true, 0.10);
        assert_eq!(judge(&d, tight(1000.0), tight(950.0)).0, Verdict::Ok);
        assert_eq!(judge(&d, tight(1000.0), tight(1300.0)).0, Verdict::Ok);
        assert_eq!(judge(&d, tight(1000.0), tight(800.0)).0, Verdict::Breach);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let d = def(false, 0.05);
        let noisy = Range { median: 100.0, min: 90.0, max: 110.0 };
        assert_eq!(judge(&d, noisy, tight(101.0)).0, Verdict::Unresolved);
        // …unless every run of the change beats every run of the baseline.
        assert_eq!(judge(&d, noisy, tight(80.0)).0, Verdict::Ok);
    }

    #[test]
    fn summaries_carry_median_range_and_spread() {
        let s = summarize("ms", &[3.0, 1.0, 2.0, 4.0]);
        assert_eq!(s.get("median").and_then(Value::as_f64), Some(2.5));
        assert_eq!(s.get("min").and_then(Value::as_f64), Some(1.0));
        assert_eq!(s.get("max").and_then(Value::as_f64), Some(4.0));
        assert!(s.get("iqr_share").and_then(Value::as_f64).is_some());
        assert_eq!(summarize("ms", &[5.0]).get("iqr_share"), Some(&Value::Null));
    }
}

//! The command line.
//!
//! ```text
//! bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! bench set --out FILE [--passes N] [--seed N] [--seconds S] [--smoke] [--meta KEY=VALUE]...
//! bench compare BASELINE.json CHANGE.json
//! ```
//!
//! The first form is the one `BENCHMARK.json` names: one workload, one
//! run.  Its last line on standard output is the result object; what a
//! person wants to read goes to standard error.

use crate::inputs::Scale;
use crate::json::{obj, Value};
use crate::metrics::Spec;
use crate::sets;
use crate::workloads::{self, Outcome, RunConfig, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

/// Where scratch devices and trace files go: `out/` beside the manifest,
/// inside the checkout wherever the command is run from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Flags as `--name value` pairs (and bare `--smoke`), plus positionals.
#[derive(Debug, Default)]
pub struct Args {
    pub positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => out.flags.push(("smoke".into(), String::new())),
                Some(name) => {
                    let value = args.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    out.flags.push((name.to_string(), value));
                }
                None => out.positional.push(arg),
            }
        }
        Ok(out)
    }

    /// The last value given for `--name`.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Every value given for `--name`, in order.
    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.flags.iter().filter(move |(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| v.parse().map_err(|_| format!("--{name}: cannot parse {v:?}")))
            .transpose()
    }

    pub fn scale(&self) -> Scale {
        if self.get("smoke").is_some() {
            Scale::smoke()
        } else {
            Scale::full()
        }
    }

    /// Rejects flags outside `known`, so a typo is not silently ignored.
    pub fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.flags.iter().find(|(n, _)| !known.contains(&n.as_str())) {
            Some((name, _)) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }
}

/// The result object of one run: exactly the keys the driver reads.
pub fn result_line(outcome: &Outcome, spec: &Spec, trace: bool) -> Result<Value, String> {
    Ok(obj([
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", outcome.metrics.render(spec, trace)?),
    ]))
}

fn run_one(args: &Args) -> Result<(), String> {
    args.only(&["workload", "seed", "seconds", "trace", "smoke"])?;
    let spec = Spec::load()?;
    let name = args.get("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let trace = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds = args.parsed::<f64>("seconds")?.unwrap_or(spec.run_seconds);
    if !(0.0..=3600.0).contains(&seconds) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    let cfg = RunConfig {
        workload,
        seed: args.parsed("seed")?.unwrap_or(1),
        seconds,
        trace,
        scale: args.scale(),
        out_dir: out_dir(),
    };
    let outcome = workloads::run(&cfg).map_err(|e| format!("{name}: {e}"))?;
    let line = result_line(&outcome, &spec, trace)?;
    eprintln!(
        "# {name} seed {} {}s trace {}: attempted {} failed {}",
        cfg.seed, cfg.seconds, trace as u8, outcome.attempted, outcome.failed
    );
    for (metric, value) in line.get("metrics").and_then(Value::as_obj).unwrap_or_default() {
        let number = value.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let unit = value.get("unit").and_then(Value::as_str).unwrap_or("");
        eprintln!("#   {metric:<34} {number:>16.4} {unit}");
    }
    println!("{line}");
    Ok(())
}

pub fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.positional.first().map(String::as_str) {
        None => run_one(&args).map(|()| ExitCode::SUCCESS),
        Some("set") => sets::run_set(&args).map(|()| ExitCode::SUCCESS),
        Some("compare") => sets::run_compare(&args),
        Some(other) => Err(format!("unknown subcommand {other:?}")),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("bench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_flags_positionals_and_repeats() {
        let a =
            args(&["set", "--out", "x.json", "--smoke", "--meta", "a=1", "--meta", "b=2"]).unwrap();
        assert_eq!(a.positional, ["set"]);
        assert_eq!(a.get("out"), Some("x.json"));
        assert!(a.get("smoke").is_some());
        assert_eq!(a.all("meta").collect::<Vec<_>>(), ["a=1", "b=2"]);
        assert_eq!(a.parsed::<u64>("passes"), Ok(None));
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed", "x"]).unwrap().parsed::<u64>("seed").is_err());
        assert!(a.only(&["out", "smoke"]).is_err());
        assert!(a.only(&["out", "smoke", "meta"]).is_ok());
    }
}

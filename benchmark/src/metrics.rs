//! Metric declarations (read from `BENCHMARK.json`) and measured values.
//!
//! `BENCHMARK.json` is the single place that names the workloads and the
//! metrics, with their units, directions and bounds.  The benchmark reads
//! it at start-up: a run reports exactly the metrics declared there, and
//! setting a metric it does not declare is an error, so the code and the
//! contract cannot drift apart.

use crate::json::{self, obj, Value};
use std::collections::BTreeMap;

/// Where `BENCHMARK.json` sits: beside the benchmark's directory.
pub const SPEC_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may get worse;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string(SPEC_PATH).map_err(|e| format!("{SPEC_PATH}: {e}"))?;
        Spec::parse(&text).map_err(|e| format!("{SPEC_PATH}: {e}"))
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| {
            doc.get(key).and_then(Value::as_arr).ok_or_else(|| format!("missing list {key:?}"))
        };
        let text_of = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing {key:?} in {v}"))
        };
        let defs = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: match text_of(m, "better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("better must be higher|lower: {other:?}")),
                        },
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("missing run_seconds")?,
            end_to_end: defs("end_to_end")?,
            per_layer: defs("per_layer")?,
        })
    }

    /// The metrics one run reports: per-layer when traced, else end-to-end.
    pub fn reported(&self, trace: bool) -> &[MetricDef] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Values measured by one run, by metric name.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `metrics` object of a result line: every metric of `defs`, in
    /// declaration order, with its unit.
    ///
    /// An end-to-end metric must have been measured.  A per-layer metric
    /// the workload does not exercise (WAL time on a read-only workload)
    /// reads 0.  A measured value that `spec` declares nowhere, or that is
    /// not a finite number, is an error.
    pub fn render(&self, spec: &Spec, trace: bool) -> Result<Value, String> {
        for (name, value) in &self.values {
            if !spec.end_to_end.iter().chain(&spec.per_layer).any(|d| d.name == *name) {
                return Err(format!("metric {name:?} is not declared in BENCHMARK.json"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name:?} is not finite: {value}"));
            }
        }
        let members = spec
            .reported(trace)
            .iter()
            .map(|def| {
                let value = match self.get(&def.name) {
                    Some(v) => v,
                    None if trace => 0.0,
                    None => {
                        return Err(format!("end-to-end metric {:?} was not measured", def.name))
                    }
                };
                let fields = [("value", Value::Num(value)), ("unit", Value::Str(def.unit.clone()))];
                Ok((def.name.clone(), obj(fields)))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Value::Obj(members))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "command": ["x"], "paths": ["benchmark"], "run_seconds": 8,
        "workloads": [{"name": "a", "why": "w"}, {"name": "b", "why": "w"}],
        "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                       {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
        "per_layer": [{"name": "pool.hit_ns", "unit": "ns", "better": "lower"}]
    }"#;

    #[test]
    fn parses_the_contract_keys() {
        let spec = Spec::parse(SPEC).unwrap();
        assert_eq!(spec.workloads, ["a", "b"]);
        assert_eq!(spec.run_seconds, 8.0);
        assert_eq!(spec.end_to_end[1].name, "ops_per_s");
        assert!(spec.end_to_end[1].higher_is_better);
        assert_eq!(spec.end_to_end[0].bound, Some(0.25));
        assert_eq!(spec.per_layer[0].bound, None);
    }

    #[test]
    fn render_reports_exactly_the_declared_metrics() {
        let spec = Spec::parse(SPEC).unwrap();
        let mut m = Metrics::default();
        m.set("setup_s", 1.5);
        assert!(m.render(&spec, false).is_err(), "ops_per_s missing");
        m.set("ops_per_s", 100.0);
        assert_eq!(
            m.render(&spec, false).unwrap().to_string(),
            r#"{"setup_s":{"value":1.5,"unit":"s"},"ops_per_s":{"value":100,"unit":"1/s"}}"#
        );
        // Traced: only per-layer metrics, unexercised ones read 0.
        assert_eq!(
            m.render(&spec, true).unwrap().to_string(),
            r#"{"pool.hit_ns":{"value":0,"unit":"ns"}}"#
        );
        m.set("no.such_metric", 1.0);
        assert!(m.render(&spec, true).is_err());
    }

    /// `layers.json` is the part of the issue's `BENCHMARK.json` the
    /// contract's fixed keys leave no room for: each per-layer metric's
    /// layer, and the `metric@workload` pairs it should move.
    #[test]
    fn the_layer_map_covers_every_per_layer_metric() {
        let spec = Spec::load().unwrap();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/layers.json");
        let map = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let entries = map.as_obj().unwrap();
        let mapped: Vec<&str> = entries.iter().map(|(name, _)| name.as_str()).collect();
        let declared: Vec<&str> = spec.per_layer.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(mapped, declared);
        for (name, entry) in entries {
            assert!(entry.get("layer").and_then(Value::as_str).is_some(), "{name}: no layer");
            for target in entry.get("moves").and_then(Value::as_arr).unwrap() {
                let (metric, workload) = target.as_str().unwrap().split_once('@').unwrap();
                let known = spec.end_to_end.iter().chain(&spec.per_layer);
                assert!(known.into_iter().any(|d| d.name == metric), "{name} -> {metric}");
                assert!(spec.workloads.iter().any(|w| w == workload), "{name} -> {workload}");
            }
        }
    }

    #[test]
    fn the_committed_spec_parses() {
        let spec = Spec::load().unwrap();
        assert_eq!(spec.workloads, crate::workloads::Workload::ALL.map(|w| w.name()));
        assert!(spec.end_to_end.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(spec.end_to_end.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }
}

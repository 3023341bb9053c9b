//! The metric catalogue and the result line.
//!
//! Every workload prints every metric of the list its mode selects: the
//! end-to-end list untraced, the per-layer list traced. A per-layer
//! metric a workload does not exercise reads 0 and says so.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Ratio;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Metrics a user of the simulator, the sweep supervisor or the daemon
/// sees, measured with tracing off.
pub const END_TO_END: &[Spec] = &[
    e2e("sweep_serial_s", "s", "lower", 0.25),
    e2e("sim_events_per_s", "1/s", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

/// Metrics of single layers, measured by the traced run. The all-core
/// figures (`sweep_s`, `cells_per_s`) and the open-loop service figures
/// are here too: the first spreads too widely between runs on a
/// two-vCPU host to carry a bound, and the second exist only for
/// `serve`, while every end-to-end metric must hold for every workload.
pub const PER_LAYER: &[Spec] = &[
    layer("sweep_s", "s", "lower"),
    layer("cells_per_s", "1/s", "higher"),
    layer("workloads.ops", "count", "lower"),
    layer("workloads.self_s", "s", "lower"),
    layer("workloads.build_s", "s", "lower"),
    layer("cpu.events", "count", "lower"),
    layer("cpu.self_s", "s", "lower"),
    layer("cpu.ns_per_event", "ns", "lower"),
    layer("mem.accesses", "count", "lower"),
    layer("mem.self_s", "s", "lower"),
    layer("mem.build_s", "s", "lower"),
    layer("mem.read_hit_ratio", "ratio", "higher"),
    layer("mem.write_hit_ratio", "ratio", "higher"),
    layer("mem.prefetch_useful_ratio", "ratio", "higher"),
    layer("mem.invalidations", "count", "lower"),
    layer("mem.queue_delay_cycles", "cycles", "lower"),
    layer("core.cell_s", "s", "lower"),
    layer("core.memo.hit_ratio", "ratio", "higher"),
    layer("core.pool.idle_s", "s", "lower"),
    layer("core.isolate.overhead_ms_per_cell", "ms", "lower"),
    layer("sim.journal.append_ms_p50", "ms", "lower"),
    layer("sim.journal.append_ms_p90", "ms", "lower"),
    layer("job_p50_s", "s", "lower"),
    layer("job_p90_s", "s", "lower"),
    layer("submit_p50_ms", "ms", "lower"),
    layer("submit_p90_ms", "ms", "lower"),
    layer("max_rate_jobs_per_s", "1/s", "higher"),
    layer("serve.get_job_ms_p50", "ms", "lower"),
    layer("serve.get_job_ms_p90", "ms", "lower"),
    layer("serve.queue_wait_s_p50", "s", "lower"),
    layer("serve.run_s_p50", "s", "lower"),
    layer("serve.cache.hit_ratio", "ratio", "higher"),
    layer("serve.shed", "count", "lower"),
    layer("serve.breaker_trips", "count", "lower"),
    layer("loadgen.lag_p90_ms", "ms", "lower"),
    layer("loadgen.backlog", "count", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
    layer("failed_ratio", "ratio", "lower"),
];

/// Measurements of one run, and whether its outputs checked out.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    notes: BTreeMap<&'static str, String>,
    /// Cells or jobs attempted.
    pub attempted: u64,
    /// Cells or jobs that failed or were refused.
    pub failed: u64,
    errors: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a ratio metric together with its base.
    pub fn ratio(&mut self, name: &'static str, r: Ratio) {
        self.set(name, r.value());
        self.note(name, format!("base {}/{}", r.num, r.den));
    }

    /// Attaches a remark to a metric's report line.
    pub fn note(&mut self, name: &'static str, text: String) {
        self.notes.insert(name, text);
    }

    /// Records a correctness failure: the run prints no metric as valid.
    pub fn fail(&mut self, msg: String) {
        eprintln!("perfbench: CHECK FAILED: {msg}");
        self.errors.push(msg);
    }

    /// Prints one report line per metric of the selected list, then the
    /// result line. Returns whether every check passed.
    pub fn emit(mut self, trace: bool) -> bool {
        let failed = Ratio::new(self.failed as f64, self.attempted as f64);
        if trace {
            self.ratio("failed_ratio", failed);
        } else {
            println!("# failed_ratio = {}", failed.describe());
        }
        let list = if trace { PER_LAYER } else { END_TO_END };
        for name in self.values.keys() {
            assert!(
                PER_LAYER.iter().chain(END_TO_END).any(|s| s.name == *name),
                "metric {name} is not in the catalogue"
            );
        }
        let mut metrics = String::new();
        for spec in list {
            let value = match self.values.get(spec.name) {
                Some(&v) => v,
                None if trace => {
                    self.notes
                        .entry(spec.name)
                        .or_insert_with(|| "not exercised by this workload".to_owned());
                    0.0
                }
                None => {
                    self.fail(format!("end-to-end metric {} was not measured", spec.name));
                    continue;
                }
            };
            if !value.is_finite() {
                self.fail(format!("{} is not a finite number", spec.name));
                continue;
            }
            let note = self
                .notes
                .get(spec.name)
                .map(|n| format!("  ({n})"))
                .unwrap_or_default();
            let gate = spec
                .bound
                .map(|b| format!(", bound {b}"))
                .unwrap_or_default();
            println!(
                "# {} = {value} {}  [{} is better{gate}]{note}",
                spec.name, spec.unit, spec.better
            );
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                spec.name, spec.unit
            );
        }
        let correct = self.errors.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        );
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dashlat_sim::json::Value;

    /// `BENCHMARK.json` and this catalogue must declare the same metrics.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = doc.get(key).and_then(Value::as_arr).expect("metric list");
            assert_eq!(declared.len(), list.len(), "{key} length");
            for (d, spec) in declared.iter().zip(list) {
                assert_eq!(d.get("name").and_then(Value::as_str), Some(spec.name));
                assert_eq!(d.get("unit").and_then(Value::as_str), Some(spec.unit));
                assert_eq!(d.get("better").and_then(Value::as_str), Some(spec.better));
                let bound = d.get("bound").and_then(Value::as_f64);
                assert_eq!(bound, spec.bound, "{} bound", spec.name);
            }
        }
    }
}

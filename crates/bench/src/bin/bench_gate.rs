//! CI bench-gate: fails the build on a >10% events/sec regression.
//!
//! The committed baseline (`BENCH_8.json`, produced by `perf --out`) was
//! recorded on one particular machine; CI runners are differently sized
//! and differently noisy, so the gate never compares absolute numbers
//! directly. Instead:
//!
//! 1. **Calibrate.** Run the fixed calibration simulation
//!    ([`dashlat_bench::calibrate`]) several times. The best score
//!    rescales the baseline to this runner (`scale = here / recorded`);
//!    the spread between best and worst detects a noisy runner. If the
//!    spread exceeds `--noise` (default 12%), the gate prints a loud
//!    banner and **skips** (exit 0): a flaky failure teaches people to
//!    ignore the gate, which is worse than an occasional skipped check.
//! 2. **Sweep the pinned subset.** Figures `--figures` (default `2,3`)
//!    are swept exactly the way `perf`'s parallel pass does (same memo
//!    discipline), and per-figure events/sec is compared against the
//!    rescaled baseline.
//! 3. **Gate.** Any figure slower than `rescaled × (1 − tolerance)`
//!    (default tolerance 10%) fails with exit 1. Being *faster* than the
//!    baseline never fails — it prints a reminder to refresh the
//!    baseline (procedure in `EXPERIMENTS.md`).
//!
//! Usage: `bench_gate [--baseline PATH] [--figures 2,3] [--tolerance
//! 0.10] [--noise 0.12]`

use std::process::ExitCode;
use std::time::Instant;

use dashlat::apps::App;
use dashlat::cellcache::CellMemo;
use dashlat::experiments::figure_configs;
use dashlat::{effective_jobs, run_matrix_jobs_memo, ExperimentConfig};
use dashlat_bench::calibrate;
use dashlat_sim::json::Value;

/// The recorded calibration score of a `perf --out` baseline.
fn baseline_calibration(baseline: &Value) -> Option<f64> {
    baseline.get("calibration_events_per_sec")?.as_f64()
}

/// Baseline events/sec for one figure: the `events_per_sec` of the
/// `figures[]` entry whose `figure` is `figure`.
fn baseline_events_per_sec(baseline: &Value, figure: u8) -> Option<f64> {
    baseline
        .get("figures")?
        .as_arr()?
        .iter()
        .find(|f| f.get("figure").and_then(Value::as_u64) == Some(u64::from(figure)))?
        .get("events_per_sec")?
        .as_f64()
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let baseline_path = arg_value(&args, "--baseline").unwrap_or_else(|| "BENCH_8.json".into());
    let tolerance: f64 = arg_value(&args, "--tolerance").map_or(0.10, |v| {
        v.parse().expect("--tolerance wants a fraction like 0.10")
    });
    let noise: f64 = arg_value(&args, "--noise").map_or(0.12, |v| {
        v.parse().expect("--noise wants a fraction like 0.12")
    });
    let figures: Vec<u8> = arg_value(&args, "--figures").map_or_else(
        || vec![2, 3],
        |list| {
            list.split(',')
                .map(|s| s.trim().parse().expect("--figures wants numbers in 2..=6"))
                .collect()
        },
    );

    let baseline = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let baseline = Value::parse(&baseline)
        .unwrap_or_else(|e| panic!("baseline {baseline_path} is not valid JSON: {e}"));
    let recorded_calibration = baseline_calibration(&baseline)
        .expect("baseline has no calibration_events_per_sec; regenerate it with `perf --out`");

    println!(
        "# bench-gate — baseline {baseline_path}, tolerance {:.0}%\n",
        tolerance * 1e2
    );

    // Step 1: calibrate this runner.
    let (calibration, spread) = calibrate(5);
    let scale = calibration / recorded_calibration;
    println!(
        "calibration: {:.2} Mevents/s here vs {:.2} recorded (scale {scale:.3}, spread {:.1}%)",
        calibration / 1e6,
        recorded_calibration / 1e6,
        spread * 1e2,
    );
    if spread > noise {
        println!(
            "\n{line}\n!! BENCH-GATE SKIPPED: runner too noisy ({:.1}% calibration spread, \
             limit {:.1}%)\n!! Throughput numbers from this host would be meaningless; nothing \
             was gated.\n{line}",
            spread * 1e2,
            noise * 1e2,
            line = "!".repeat(78),
        );
        return ExitCode::SUCCESS;
    }

    // Step 2: sweep the pinned subset the way perf's parallel pass does.
    let base = ExperimentConfig::base();
    let jobs = effective_jobs(None);
    let memo = CellMemo::new();
    let mut failed = false;
    let mut faster = false;
    for &figure in &figures {
        let configs = figure_configs(figure, &base);
        let start = Instant::now();
        let mut sim_events = 0u64;
        let mut failures = 0usize;
        for &app in &App::ALL {
            let report = run_matrix_jobs_memo(app, &configs, Some(jobs), Some(&memo));
            failures += report.failures().len();
            for e in report.successes() {
                sim_events += e.result.sim_events;
            }
        }
        let measured = sim_events as f64 / start.elapsed().as_secs_f64();
        let recorded = baseline_events_per_sec(&baseline, figure)
            .unwrap_or_else(|| panic!("baseline {baseline_path} has no figure {figure}"));
        let expected = recorded * scale;
        let ratio = measured / expected;
        let verdict = if failures > 0 {
            failed = true;
            "FAIL (cells failed)"
        } else if ratio < 1.0 - tolerance {
            failed = true;
            "FAIL"
        } else {
            if ratio > 1.0 + tolerance {
                faster = true;
            }
            "ok"
        };
        println!(
            "figure {figure}: {:.2} Mevents/s measured vs {:.2} expected ({:+.1}%) — {verdict}",
            measured / 1e6,
            expected / 1e6,
            (ratio - 1.0) * 1e2,
        );
    }

    // Step 3: verdict.
    if failed {
        eprintln!(
            "\nbench-gate: events/sec regressed more than {:.0}% against {baseline_path}.\n\
             If the slowdown is intentional, update the baseline (see EXPERIMENTS.md).",
            tolerance * 1e2,
        );
        return ExitCode::FAILURE;
    }
    if faster {
        println!(
            "\nbench-gate: faster than the baseline by more than the tolerance — consider \
             refreshing {baseline_path} (see EXPERIMENTS.md) so future regressions are caught \
             from the new level."
        );
    }
    println!("\nbench-gate: ok");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_committed_baseline() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_8.json"))
                .expect("BENCH_8.json");
        let baseline = Value::parse(&text).expect("valid JSON");
        assert_eq!(baseline_calibration(&baseline), Some(16_498_510.0));
        assert_eq!(baseline_events_per_sec(&baseline, 2), Some(19_508_467.0));
        assert_eq!(baseline_events_per_sec(&baseline, 3), Some(34_928_440.0));
        assert_eq!(baseline_events_per_sec(&baseline, 7), None);
        assert_eq!(baseline_calibration(&Value::parse("{}").unwrap()), None);
    }
}

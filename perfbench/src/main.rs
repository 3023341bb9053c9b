//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <kernel|figures|serve> --seed <n> --seconds <s> --trace <0|1>
//!           --work-dir <dir> [--dashlat <path>] [--write-golden]
//! ```
//!
//! Untraced (`--trace 0`) it prints every end-to-end metric; traced
//! (`--trace 1`) every per-layer metric. The last stdout line is the JSON
//! result. Any output check that fails makes the exit status 1.

mod kernel;
mod report;
mod serve;
mod stats;
mod sweeps;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Report;

/// The seed the golden files were written for.
pub const DEFAULT_SEED: u64 = 1;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
    work_dir: PathBuf,
    dashlat: Option<PathBuf>,
    write_golden: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: Duration::from_secs(10),
        trace: false,
        work_dir: PathBuf::from("perfbench-work"),
        dashlat: None,
        write_golden: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-golden" {
            args.write_golden = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = Duration::from_secs_f64(value.parse().map_err(|e| bad(&e))?);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(value),
            "--dashlat" => args.dashlat = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Peak resident memory in MB of `pid`, or of this process.
///
/// # Errors
///
/// When `/proc/<pid>/status` cannot be read or has no `VmHWM` line.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = pid.map_or_else(
        || "/proc/self/status".to_owned(),
        |p| format!("/proc/{p}/status"),
    );
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path} has no VmHWM line"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Args, &mut Report) -> Result<(), String> = match args.workload.as_str() {
        "kernel" => sweeps::kernel,
        "figures" => sweeps::figures,
        "serve" => serve::serve,
        other => {
            eprintln!("perfbench: unknown workload {other:?} (kernel, figures or serve)");
            return ExitCode::from(2);
        }
    };
    // `<work-dir>/<workload>` holds only this run's scratch state.
    let scratch = args.work_dir.join(&args.workload);
    if scratch.exists() {
        if let Err(e) = std::fs::remove_dir_all(&scratch) {
            eprintln!("perfbench: clearing {}: {e}", scratch.display());
            return ExitCode::FAILURE;
        }
    }
    let mut rep = Report::default();
    let outcome = run(&args, &mut rep);
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    if rep.emit(args.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

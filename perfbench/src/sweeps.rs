//! The two batch workloads.
//!
//! * `kernel` — every distinct cell of figures 2–6 at paper scale, with
//!   seeded MP3D particles and PTHOR circuits, no memo: untraced, serial
//!   passes that must agree; traced, a serial pass and a pass on every
//!   core that must agree bit for bit. Nearly all host time is in `sim`,
//!   `cpu`, `mem` and `workloads`.
//! * `figures` — the test-scale figure 2–6 plans through the supervised
//!   sweep with its journal and one shared memo per pass. Cells take
//!   milliseconds, so the supervisor, pool, memo and journal fsyncs carry
//!   a large share of the time.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use dashlat::sweep::{CellFailure, SweepOptions, SweepPlan};
use dashlat::{hardware_cores, par_indexed_map, run_supervised, CellMemo, ExperimentConfig};
use dashlat_sim::journal::Journal;

use crate::kernel::{self, Cell, CellResult, Split};
use crate::report::Report;
use crate::stats::{median, percentile, quartiles, Ratio, SplitMix};
use crate::Args;

/// Set-up is repeated at least this often, and for at least
/// [`SETUP_MIN_S`]; `setup_s` is the median repetition.
const SETUP_REPS: usize = 7;
const SETUP_MIN_S: f64 = 0.25;

/// Serial passes per untraced `kernel` run, at least; `sweep_serial_s`
/// is their median.
const MIN_SERIAL_PASSES: usize = 2;

/// Golden per-cell results of `kernel` for the default seed.
const KERNEL_GOLDEN: &str = include_str!("../golden/kernel.txt");

/// Golden published logs of the `figures` plans (every seed).
const FIGURES_GOLDEN: [(u8, &str); 5] = [
    (2, include_str!("../golden/figure2.json")),
    (3, include_str!("../golden/figure3.json")),
    (4, include_str!("../golden/figure4.json")),
    (5, include_str!("../golden/figure5.json")),
    (6, include_str!("../golden/figure6.json")),
];

fn setup_s(cells: &[Cell]) -> f64 {
    let mut reps = Vec::new();
    while reps.len() < SETUP_REPS || reps.iter().sum::<f64>() < SETUP_MIN_S {
        reps.push(kernel::build_all_s(cells));
    }
    median(&reps)
}

fn golden_lines(cells: &[Cell], results: &[CellResult]) -> String {
    cells
        .iter()
        .zip(results)
        .map(|(c, r)| format!("{} {} {}\n", c.id(), r.sim_cycles, r.sim_events))
        .collect()
}

/// Fails the run unless `got` reproduces `want` bit for bit.
fn check_same(
    rep: &mut Report,
    cells: &[Cell],
    want: &[CellResult],
    got: &[CellResult],
    what: &str,
) {
    for ((cell, w), g) in cells.iter().zip(want).zip(got) {
        if w != g {
            rep.fail(format!(
                "{}: {what} differs from the first serial pass: {w:?} vs {g:?}",
                cell.id()
            ));
        }
    }
}

/// For the default seed, fails the run unless `serial` matches the
/// golden file.
fn check_golden(rep: &mut Report, args: &Args, cells: &[Cell], serial: &[CellResult]) {
    if args.seed == crate::DEFAULT_SEED
        && !args.write_golden
        && golden_lines(cells, serial) != KERNEL_GOLDEN
    {
        rep.fail("the serial pass differs from golden/kernel.txt".to_owned());
    }
}

fn fingerprint(results: &[CellResult]) -> u64 {
    results.iter().fold(crate::stats::FNV_BASIS, |h, r| {
        crate::stats::fnv(&r.fingerprint.to_le_bytes(), h)
    })
}

/// Runs `cells` on `jobs` workers; returns the results, the pass's wall
/// time and each cell's host seconds.
fn kernel_pass(cells: &[Cell], jobs: usize) -> Result<(Vec<CellResult>, f64, Vec<f64>), String> {
    let start = Instant::now();
    let out = par_indexed_map(jobs, cells, |_, cell| {
        let t = Instant::now();
        kernel::run_cell(cell).map(|(r, _, _)| (r, t.elapsed().as_secs_f64()))
    });
    let wall = start.elapsed().as_secs_f64();
    let mut results = Vec::with_capacity(cells.len());
    let mut times = Vec::with_capacity(cells.len());
    for r in out {
        let (res, t) = r?;
        results.push(res);
        times.push(t);
    }
    Ok((results, wall, times))
}

/// The `kernel` workload.
pub fn kernel(args: &Args, rep: &mut Report) -> Result<(), String> {
    let cells = kernel::figure_cells(&ExperimentConfig::base(), Some(args.seed));
    let cores = hardware_cores();
    if args.trace {
        // The split's untraced runs are this run's serial pass.
        let split = kernel::split(&cells)?;
        let (par, wall, times) = kernel_pass(&cells, cores)?;
        report_parallel(rep, wall, cells.len(), cores);
        rep.attempted += 2 * cells.len() as u64;
        check_golden(rep, args, &cells, &split.results);
        check_same(rep, &cells, &split.results, &par, "the all-core pass");
        report_split(rep, &split);
        let cell_s: f64 = times.iter().sum();
        rep.set("core.cell_s", cell_s);
        rep.set("core.pool.idle_s", cores as f64 * wall - cell_s);
        rep.ratio("core.memo.hit_ratio", Ratio::new(0.0, 0.0));
        rep.note("core.memo.hit_ratio", "memo off: no lookups".to_owned());
        return Ok(());
    }

    // Untraced runs spend their time on serial passes, the measured path;
    // the all-core pass and its bit-for-bit check run in the traced run.
    rep.set("setup_s", setup_s(&cells));
    let deadline = Instant::now() + args.seconds;
    let mut serial_s = Vec::new();
    let mut first: Option<Vec<CellResult>> = None;
    let mut rss = None;
    loop {
        let (serial, wall, _) = kernel_pass(&cells, 1)?;
        if rss.is_none() {
            rss = Some(crate::peak_rss_mb(None)?);
        }
        rep.attempted += cells.len() as u64;
        serial_s.push(wall);
        println!(
            "# serial pass {wall:.3} s, result fingerprint {:016x}",
            fingerprint(&serial)
        );
        match &first {
            None => {
                if args.write_golden {
                    write_golden("kernel.txt", &golden_lines(&cells, &serial))?;
                }
                check_golden(rep, args, &cells, &serial);
                first = Some(serial);
            }
            Some(want) => check_same(rep, &cells, want, &serial, "a later serial pass"),
        }
        if serial_s.len() >= MIN_SERIAL_PASSES && Instant::now() >= deadline {
            break;
        }
    }
    let events: u64 = first
        .expect("at least one serial pass")
        .iter()
        .map(|r| r.sim_events)
        .sum();
    let serial = median(&serial_s);
    rep.set("sweep_serial_s", serial);
    rep.set("sim_events_per_s", events as f64 / serial);
    note_serial(rep, &serial_s, cells.len());
    rep.set("peak_rss_mb", rss.expect("at least one serial pass"));
    rep.note("peak_rss_mb", "set-up and the first serial pass".to_owned());
    Ok(())
}

/// Says what the serial median rests on.
fn note_serial(rep: &mut Report, serial_s: &[f64], cells: usize) {
    let spread = if serial_s.len() < 2 {
        String::new()
    } else {
        let [q1, _, q3] = quartiles(serial_s);
        format!(", quartiles {q1:.4}..{q3:.4}")
    };
    rep.note(
        "sweep_serial_s",
        format!(
            "median of {} passes of {cells} cells{spread}",
            serial_s.len()
        ),
    );
}

/// Records the all-core pass: wall time and cells per second.
fn report_parallel(rep: &mut Report, wall_s: f64, cells: usize, workers: usize) {
    rep.set("sweep_s", wall_s);
    rep.set("cells_per_s", cells as f64 / wall_s);
    rep.note("sweep_s", format!("{workers} workers, {cells} cells"));
}

/// Records the kernel-layer split of a set of cells.
pub fn report_split(rep: &mut Report, s: &Split) {
    rep.set("workloads.ops", s.ops as f64);
    rep.set("workloads.self_s", s.workloads_self_s);
    rep.set("workloads.build_s", s.workloads_build_s);
    rep.set("cpu.events", s.events as f64);
    rep.set("cpu.self_s", s.cpu_self_s());
    rep.set(
        "cpu.ns_per_event",
        s.cpu_self_s() * 1e9 / s.events.max(1) as f64,
    );
    rep.set("mem.accesses", s.accesses as f64);
    rep.set("mem.self_s", s.mem_self_s);
    rep.set("mem.build_s", s.mem_build_s);
    rep.ratio("mem.read_hit_ratio", s.read_hits);
    rep.ratio("mem.write_hit_ratio", s.write_hits);
    rep.ratio("mem.prefetch_useful_ratio", s.prefetch_useful);
    rep.set("mem.invalidations", s.invalidations as f64);
    rep.set("mem.queue_delay_cycles", s.queue_delay_cycles as f64);
    rep.ratio("trace.overhead_ratio", Ratio::new(s.traced_run_s, s.run_s));
    for name in ["workloads.self_s", "cpu.self_s", "mem.self_s"] {
        rep.note(
            name,
            format!(
                "of {:.4} s untraced Machine::run over {} cells",
                s.run_s, s.cells
            ),
        );
    }
}

fn write_golden(name: &str, contents: &str) -> Result<(), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name);
    std::fs::write(&path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The figure plans in a seeded order: the seed moves which plan meets a
/// warm memo first, never what any plan computes.
fn figure_plans(seed: u64) -> Vec<(u8, SweepPlan)> {
    let base = ExperimentConfig::base_test();
    let mut plans: Vec<(u8, SweepPlan)> =
        (2..=6).map(|n| (n, SweepPlan::figure(n, &base))).collect();
    let mut rng = SplitMix(crate::stats::derive_seed(seed, 3));
    for i in (1..plans.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        plans.swap(i, j);
    }
    plans
}

/// One supervised pass over `plans` with a fresh memo and journals.
struct FiguresPass {
    wall_s: f64,
    /// Host seconds inside the cell runner, summed.
    cell_s: f64,
    memo_hits: u64,
    memo_misses: u64,
    /// Events of the cells actually simulated (memo misses).
    sim_events: u64,
    cells: u64,
    failed: u64,
    /// `(figure, published log bytes)`.
    logs: Vec<(u8, String)>,
    /// Every committed journal line, in plan order.
    journal_lines: Vec<String>,
}

fn figures_pass(plans: &[(u8, SweepPlan)], jobs: usize, dir: &Path) -> Result<FiguresPass, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let memo = CellMemo::new();
    let opts = SweepOptions {
        jobs: Some(jobs),
        ..SweepOptions::default()
    };
    let cell_s = Mutex::new(0.0f64);
    let simulated: Mutex<HashMap<u64, u64>> = Mutex::new(HashMap::new());
    let (mut cells, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    for (n, plan) in plans {
        let journal = dir.join(format!("figure{n}.journal"));
        let out = dir.join(format!("figure{n}.json"));
        let report = run_supervised(plan, &journal, &out, false, &opts, |_, cell, _| {
            let t = Instant::now();
            let outcome = memo.run(cell.app, &cell.config);
            *cell_s.lock().expect("timer lock") += t.elapsed().as_secs_f64();
            match outcome {
                Ok(e) => {
                    simulated
                        .lock()
                        .expect("events lock")
                        .insert(dashlat::cell_fingerprint(cell), e.result.sim_events);
                    Ok(e.result.elapsed.as_u64())
                }
                Err(f) => Err(CellFailure::classify(&f, false)),
            }
        })
        .map_err(|e| format!("figure{n}: {e}"))?;
        cells += plan.cells.len() as u64;
        failed += report.failures.len() as u64 + report.skipped as u64;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let mut logs = Vec::new();
    let mut journal_lines = Vec::new();
    for (n, _) in plans {
        let out = dir.join(format!("figure{n}.json"));
        logs.push((
            *n,
            std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?,
        ));
        let journal = dir.join(format!("figure{n}.journal"));
        journal_lines.extend(
            Journal::read_committed_lines(&journal)
                .map_err(|e| format!("{}: {e}", journal.display()))?,
        );
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    let sim_events = simulated.into_inner().expect("events lock").values().sum();
    Ok(FiguresPass {
        wall_s,
        cell_s: cell_s.into_inner().expect("timer lock"),
        memo_hits: memo.hits(),
        memo_misses: memo.misses(),
        sim_events,
        cells,
        failed,
        logs,
        journal_lines,
    })
}

/// The published log each figure plan must produce.
pub fn golden_log(figure: u8) -> &'static str {
    FIGURES_GOLDEN
        .iter()
        .find(|(n, _)| *n == figure)
        .map(|(_, g)| *g)
        .expect("figures 2..=6 have golden logs")
}

fn check_figures(rep: &mut Report, args: &Args, pass: &FiguresPass) -> Result<(), String> {
    rep.attempted += pass.cells;
    rep.failed += pass.failed;
    for (n, log) in &pass.logs {
        if args.write_golden {
            write_golden(&format!("figure{n}.json"), log)?;
        } else if log != golden_log(*n) {
            rep.fail(format!(
                "figure{n}: published log differs from golden/figure{n}.json"
            ));
        }
    }
    Ok(())
}

/// Times each journal line appended to a fresh journal, in ms.
fn journal_append_ms(lines: &[String], dir: &Path) -> Result<Vec<f64>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join("replay.journal");
    let mut journal = Journal::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut ms = Vec::with_capacity(lines.len());
    for line in lines {
        let t = Instant::now();
        journal
            .append(line)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(journal);
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    Ok(ms)
}

/// The `figures` workload.
pub fn figures(args: &Args, rep: &mut Report) -> Result<(), String> {
    let plans = figure_plans(args.seed);
    let cores = hardware_cores();
    let work = args.work_dir.join("figures");
    if args.trace {
        let cells = kernel::figure_cells(&ExperimentConfig::base_test(), None);
        let split = kernel::split(&cells)?;
        report_split(rep, &split);
        // Passes repeat for the run's length; every pass's journal lines
        // are replayed, and the pool figures are medians over passes.
        let deadline = Instant::now() + args.seconds;
        let (mut lines, mut walls, mut cell_s, mut idle_s) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut memo;
        loop {
            let serial = figures_pass(&plans, 1, &work)?;
            let par = figures_pass(&plans, cores, &work)?;
            check_figures(rep, args, &serial)?;
            check_figures(rep, args, &par)?;
            walls.push(par.wall_s);
            cell_s.push(par.cell_s);
            idle_s.push(cores as f64 * par.wall_s - par.cell_s);
            memo = Ratio::new(
                par.memo_hits as f64,
                (par.memo_hits + par.memo_misses) as f64,
            );
            lines.extend(serial.journal_lines);
            lines.extend(par.journal_lines);
            if Instant::now() >= deadline {
                break;
            }
        }
        let total_cells: usize = plans.iter().map(|(_, p)| p.cells.len()).sum();
        report_parallel(rep, median(&walls), total_cells, cores);
        rep.set("core.cell_s", median(&cell_s));
        rep.set("core.pool.idle_s", median(&idle_s));
        rep.ratio("core.memo.hit_ratio", memo);
        let ms = journal_append_ms(&lines, &work)?;
        rep.set("sim.journal.append_ms_p50", percentile(&ms, 0.5)?);
        rep.set("sim.journal.append_ms_p90", percentile(&ms, 0.9)?);
        rep.note("sim.journal.append_ms_p90", format!("{} appends", ms.len()));
        return Ok(());
    }

    let cells = kernel::figure_cells(&ExperimentConfig::base_test(), None);
    rep.set("setup_s", setup_s(&cells));
    let deadline = Instant::now() + args.seconds;
    let (mut serial_s, mut events) = (Vec::new(), Vec::new());
    let mut rss = None;
    loop {
        let serial = figures_pass(&plans, 1, &work)?;
        if rss.is_none() {
            rss = Some(crate::peak_rss_mb(None)?);
        }
        let par = figures_pass(&plans, cores, &work)?;
        check_figures(rep, args, &serial)?;
        check_figures(rep, args, &par)?;
        for pass in [&serial, &par] {
            if pass.memo_misses != cells.len() as u64 {
                rep.fail(format!(
                    "memo simulated {} cells; the plans hold {} distinct ones",
                    pass.memo_misses,
                    cells.len()
                ));
            }
        }
        events.push(serial.sim_events as f64 / serial.wall_s);
        serial_s.push(serial.wall_s);
        if Instant::now() >= deadline || args.write_golden {
            break;
        }
    }
    let total_cells: usize = plans.iter().map(|(_, p)| p.cells.len()).sum();
    rep.set("sweep_serial_s", median(&serial_s));
    rep.set("sim_events_per_s", median(&events));
    note_serial(rep, &serial_s, total_cells);
    rep.set("peak_rss_mb", rss.expect("at least one serial pass"));
    rep.note("peak_rss_mb", "set-up and the first serial pass".to_owned());
    Ok(())
}

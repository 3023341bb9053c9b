//! The `serve` workload: a child `dashlat serve --isolate` daemon with a
//! fresh data directory per phase, so its content-addressed cache starts
//! cold, driven over HTTP with seeded test-scale sweep jobs drawn from
//! figures 2–6 × three machine variants. Overlapping figures share cells,
//! so the cache sees hits as well as misses, and every miss is a
//! `dashlat cell` subprocess.
//!
//! Untraced, each round submits the whole job set at once to a daemon
//! with a worker per core (checked, and its peak memory read) and to one
//! with a single worker, whose time until the last job is seen complete
//! is `sweep_serial_s`. Traced, one all-core burst gives `sweep_s`, and
//! an open-loop generator sends jobs on a fixed schedule up a ladder of
//! rates, polling `GET /jobs/<id>` beside the submissions, and times
//! each job from its scheduled send.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dashlat::sweep::{run_cell_in_process, CellFailure, SweepCell, SweepOptions, SweepPlan};
use dashlat::{cell_fingerprint, hardware_cores, run_supervised, CellMemo};
use dashlat_serve::{client, JobSpec};
use dashlat_sim::json::Value;

use crate::kernel::{self, Cell};
use crate::report::Report;
use crate::stats::{derive_seed, median, percentile, Ratio, SplitMix};
use crate::sweeps::{golden_log, report_split};
use crate::Args;

/// Machine variants jobs are drawn from. The first is the `figures`
/// workload's test-scale machine, so its logs must also match the golden
/// `figures` logs.
const VARIANTS: [&[&str]; 3] = [
    &["--test-scale", "--processors", "8"],
    &["--test-scale", "--processors", "8", "--mesh"],
    &["--test-scale", "--processors", "8", "--dir-pointers", "2"],
];

/// Jobs in one burst: two blocks of [`job_mix`], every plan once cold
/// and once cached.
const BURST_JOBS: usize = 30;

/// Jobs per open-loop rung: enough for a p90 with ten samples beyond it.
const RUNG_JOBS: usize = 100;

/// Open-loop rates, in jobs per second. The first rung gives the
/// `job_*` and `submit_*` figures.
const LADDER: [f64; 4] = [4.0, 8.0, 16.0, 32.0];

/// A rung meets its target when `job_p90_s` is at most this.
const P90_LIMIT_S: f64 = 2.0;

/// Daemon boots timed for `setup_s`.
const SETUP_BOOTS: usize = 7;

/// Cells whose isolation overhead is measured.
const ISOLATE_SAMPLE: usize = 24;

/// Longest wait for the daemon to start or stop; a phase gives up on its
/// jobs after twice this, well inside the three minutes a run may take.
const PATIENCE: Duration = Duration::from_secs(60);

/// The seeded job mix: `n` sweep jobs, one sweep worker each, made of
/// back-to-back seeded permutations of every (figure 2–6, variant) plan.
/// Each block of fifteen holds every plan once, so a burst of thirty
/// does the same work for every seed — each plan once cold and once
/// cached — and the seed moves only the order.
pub fn job_mix(seed: u64, n: usize) -> Vec<JobSpec> {
    let mut rng = SplitMix(derive_seed(seed, 4));
    let plans: Vec<(u8, &[&str])> = (2..=6)
        .flat_map(|figure| VARIANTS.iter().map(move |v| (figure, *v)))
        .collect();
    let mut jobs = Vec::with_capacity(n);
    while jobs.len() < n {
        let mut block = plans.clone();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for (figure, variant) in block.into_iter().take(n - jobs.len()) {
            let mut spec =
                JobSpec::sweep(figure, variant.iter().map(|s| (*s).to_owned()).collect());
            spec.sweep_jobs = Some(1);
            jobs.push(spec);
        }
    }
    jobs
}

/// In-process reference results for a job set.
struct Reference {
    /// Published log bytes per distinct job spec.
    logs: HashMap<String, String>,
    /// Every distinct cell the daemon has to simulate, in fingerprint
    /// order.
    cells: Vec<SweepCell>,
    /// Their simulation events, summed.
    sim_events: u64,
}

fn plan_of(spec: &JobSpec) -> Result<SweepPlan, String> {
    let dashlat_serve::JobKind::Sweep { figure } = spec.kind else {
        return Err("the job mix holds sweep jobs only".to_owned());
    };
    Ok(SweepPlan::figure(figure, &spec.machine_config()?))
}

/// Runs each distinct plan of `jobs` in-process through the supervised
/// sweep, as the daemon does, and keeps the published logs.
fn reference(jobs: &[JobSpec], dir: &Path) -> Result<Reference, String> {
    let memo = CellMemo::new();
    let mut logs = HashMap::new();
    let mut cells: BTreeMap<u64, SweepCell> = BTreeMap::new();
    let events: Mutex<HashMap<u64, u64>> = Mutex::new(HashMap::new());
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for spec in jobs {
        let key = spec.to_json();
        if logs.contains_key(&key) {
            continue;
        }
        let plan = plan_of(spec)?;
        let journal = dir.join("ref.journal");
        let out = dir.join("ref.json");
        let opts = SweepOptions {
            jobs: Some(1),
            ..SweepOptions::default()
        };
        run_supervised(&plan, &journal, &out, false, &opts, |_, cell, _| match memo
            .run(cell.app, &cell.config)
        {
            Ok(e) => {
                events
                    .lock()
                    .expect("events lock")
                    .insert(cell_fingerprint(cell), e.result.sim_events);
                Ok(e.result.elapsed.as_u64())
            }
            Err(f) => Err(CellFailure::classify(&f, false)),
        })
        .map_err(|e| format!("reference {}: {e}", plan.name))?;
        let log = std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        if spec.machine == VARIANTS[0] {
            let n: u8 = plan
                .name
                .trim_start_matches("figure")
                .parse()
                .expect("figure plan name");
            if log != golden_log(n) {
                return Err(format!(
                    "in-process {} differs from its golden log",
                    plan.name
                ));
            }
        }
        for c in &plan.cells {
            cells
                .entry(cell_fingerprint(c))
                .or_insert_with(|| c.clone());
        }
        std::fs::remove_file(&journal).map_err(|e| format!("{}: {e}", journal.display()))?;
        std::fs::remove_file(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        logs.insert(key, log);
    }
    let sim_events = events.into_inner().expect("events lock").values().sum();
    Ok(Reference {
        logs,
        cells: cells.into_values().collect(),
        sim_events,
    })
}

/// A running daemon, stopped (and waited for) on drop.
struct Daemon {
    child: Child,
    addr: String,
    dir: PathBuf,
    boot_s: f64,
}

impl Daemon {
    fn boot(dashlat: &Path, dir: &Path, workers: usize) -> Result<Self, String> {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let start = Instant::now();
        let child = Command::new(dashlat)
            .args(["serve", "--isolate", "--addr", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string())
            .args([
                "--queue-depth",
                "512",
                "--cell-timeout-secs",
                "60",
                "--data-dir",
            ])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", dashlat.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            dir: dir.to_path_buf(),
            boot_s: 0.0,
        };
        loop {
            if start.elapsed() > PATIENCE {
                return Err("the daemon never became ready".to_owned());
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("the daemon exited during start-up: {status}"));
            }
            if daemon.addr.is_empty() {
                if let Ok(addr) = client::read_addr_file(dir) {
                    daemon.addr = addr;
                }
            }
            if !daemon.addr.is_empty()
                && client::request(&daemon.addr, "GET", "/readyz", None)
                    .is_ok_and(|r| r.status == 200)
            {
                daemon.boot_s = start.elapsed().as_secs_f64();
                return Ok(daemon);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn get(&self, path: &str) -> Result<Value, String> {
        let r = client::request(&self.addr, "GET", path, None)
            .map_err(|e| format!("GET {path}: {e}"))?;
        if r.status != 200 {
            return Err(format!("GET {path}: HTTP {}", r.status));
        }
        Value::parse(&r.body).map_err(|e| format!("GET {path}: {e}"))
    }

    /// Peak resident memory of the daemon process itself (cell
    /// subprocesses are not counted).
    fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::peak_rss_mb(Some(self.child.id()))
    }

    /// Asks the daemon to shut down and waits for it.
    fn stop(mut self) -> Result<(), String> {
        let _ = client::request(&self.addr, "POST", "/shutdown", None);
        let start = Instant::now();
        while start.elapsed() < PATIENCE {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("the daemon exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("the daemon did not shut down".to_owned())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What the client saw of one job.
#[derive(Debug, Clone, Default)]
struct Seen {
    spec_key: String,
    /// When the job was due to be sent, from the phase start.
    due_s: f64,
    /// How late the generator sent it.
    lag_s: f64,
    submit_ms: f64,
    /// Daemon job id, or `None` when the submission was refused or lost.
    id: Option<u64>,
    submitted_s: f64,
    /// Last poll that still saw the job queued.
    queued_s: Option<f64>,
    running_s: Option<f64>,
    terminal_s: Option<f64>,
    status: String,
    cells_total: u64,
    cache_hits: u64,
}

/// Everything one phase against one daemon measured.
#[derive(Debug, Default)]
struct Phase {
    jobs: Vec<Seen>,
    get_ms: Vec<f64>,
    /// Jobs sent but not yet terminal, at the middle and at the end of
    /// the sending schedule.
    backlog_mid: usize,
    backlog_end: usize,
    refused: u64,
    /// Status polls that failed (transport error or non-200); each is
    /// retried.
    poll_errors: u64,
    /// From the phase start until the last job was first seen terminal.
    makespan_s: f64,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.jobs
            .iter()
            .map(|j| match (&j.terminal_s, j.status.as_str()) {
                (Some(t), "complete") => t - j.due_s,
                // A refused, lost or failed job misses any limit.
                _ => f64::INFINITY,
            })
            .collect()
    }
}

fn submit(addr: &str, spec: &JobSpec) -> (Option<u64>, f64) {
    let t = Instant::now();
    let r = client::request(addr, "POST", "/jobs", Some(&spec.to_json()));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let id = r
        .ok()
        .filter(|r| r.status == 202)
        .and_then(|r| Value::parse(&r.body).ok()?.get("id")?.as_u64());
    (id, ms)
}

/// Sends `jobs` to `daemon` on a schedule — all at once when `rate` is
/// `None`, else `rate` per second — while a second thread polls every
/// outstanding job until all are terminal.
fn drive(daemon: &Daemon, jobs: &[JobSpec], rate: Option<f64>) -> Result<Phase, String> {
    let start = Instant::now();
    let seen: Mutex<Vec<Seen>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let sending = std::sync::atomic::AtomicBool::new(true);
    let backlog = |seen: &[Seen]| {
        seen.iter()
            .filter(|j| j.id.is_some() && j.terminal_s.is_none())
            .count()
    };
    let mut phase = Phase::default();
    let (get_ms, poll_errors) = std::thread::scope(|scope| -> Result<(Vec<f64>, u64), String> {
        let poller = scope.spawn(|| -> Result<(Vec<f64>, u64), String> {
            let mut get_ms = Vec::new();
            let mut poll_errors = 0u64;
            let mut cursor = 0usize;
            loop {
                let target = {
                    let seen = seen.lock().expect("seen lock");
                    let open: Vec<(usize, u64)> = seen
                        .iter()
                        .enumerate()
                        .filter(|(_, j)| j.terminal_s.is_none())
                        .filter_map(|(i, j)| j.id.map(|id| (i, id)))
                        .collect();
                    if open.is_empty() {
                        if !sending.load(std::sync::atomic::Ordering::SeqCst) {
                            return Ok((get_ms, poll_errors));
                        }
                        None
                    } else {
                        cursor = (cursor + 1) % open.len();
                        Some(open[cursor])
                    }
                };
                let Some((i, id)) = target else {
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                };
                if start.elapsed() > PATIENCE * 2 {
                    return Err(format!("job #{id} never finished"));
                }
                let t = Instant::now();
                let Ok(status) = daemon.get(&format!("/jobs/{id}")) else {
                    poll_errors += 1;
                    continue;
                };
                get_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let now = start.elapsed().as_secs_f64();
                let state = status
                    .get("status")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_owned();
                let mut seen = seen.lock().expect("seen lock");
                let job = &mut seen[i];
                match state.as_str() {
                    "queued" => job.queued_s = Some(now),
                    "running" => {
                        job.running_s.get_or_insert(now);
                    }
                    _ => {
                        job.terminal_s = Some(now);
                        job.cells_total = status
                            .get("cells_total")
                            .and_then(Value::as_u64)
                            .unwrap_or(0);
                        job.cache_hits = status
                            .get("cache_hits")
                            .and_then(Value::as_u64)
                            .unwrap_or(0);
                    }
                }
                job.status = state;
            }
        });
        for (i, spec) in jobs.iter().enumerate() {
            let due_s = rate.map_or(0.0, |r| i as f64 / r);
            let now = start.elapsed().as_secs_f64();
            if due_s > now {
                std::thread::sleep(Duration::from_secs_f64(due_s - now));
            }
            let lag_s = start.elapsed().as_secs_f64() - due_s;
            let (id, submit_ms) = submit(&daemon.addr, spec);
            let submitted_s = start.elapsed().as_secs_f64();
            let mut seen = seen.lock().expect("seen lock");
            seen.push(Seen {
                spec_key: spec.to_json(),
                due_s,
                lag_s,
                submit_ms,
                id,
                submitted_s,
                status: if id.is_some() { "queued" } else { "refused" }.to_owned(),
                ..Seen::default()
            });
            if i + 1 == jobs.len() / 2 {
                phase.backlog_mid = backlog(&seen);
            }
        }
        phase.backlog_end = backlog(&seen.lock().expect("seen lock"));
        sending.store(false, std::sync::atomic::Ordering::SeqCst);
        poller.join().expect("poller thread panicked")
    })?;
    phase.jobs = seen.into_inner().expect("seen lock");
    phase.get_ms = get_ms;
    phase.poll_errors = poll_errors;
    phase.refused = phase.jobs.iter().filter(|j| j.id.is_none()).count() as u64;
    phase.makespan_s = phase
        .jobs
        .iter()
        .filter_map(|j| j.terminal_s)
        .fold(0.0, f64::max);
    Ok(phase)
}

/// Counts the phase's jobs into the report — a refused, lost or failed
/// job and a failed status poll each count as a failure — and checks
/// every completed job's published log against the in-process reference.
fn check(
    rep: &mut Report,
    daemon: &Daemon,
    phase: &Phase,
    reference: &Reference,
) -> Result<(), String> {
    rep.failed += phase.poll_errors;
    for job in &phase.jobs {
        rep.attempted += 1;
        if job.status != "complete" {
            rep.failed += 1;
            continue;
        }
        let id = job.id.expect("a complete job was admitted");
        let r = client::request(&daemon.addr, "GET", &format!("/jobs/{id}/log"), None)
            .map_err(|e| format!("GET /jobs/{id}/log: {e}"))?;
        let want = reference
            .logs
            .get(&job.spec_key)
            .expect("reference for every spec");
        if r.status != 200 || r.body != *want {
            rep.fail(format!(
                "job #{id}: published log differs from the in-process reference"
            ));
        }
    }
    Ok(())
}

/// The `serve` workload.
pub fn serve(args: &Args, rep: &mut Report) -> Result<(), String> {
    let dashlat = args
        .dashlat
        .clone()
        .ok_or("the serve workload needs --dashlat <path to the dashlat binary>")?;
    let cores = hardware_cores();
    let work = args.work_dir.join("serve");
    if args.trace {
        return traced(args, rep, &dashlat, &work, cores);
    }
    let jobs = job_mix(args.seed, BURST_JOBS);
    let reference = reference(&jobs, &work.join("reference"))?;
    let deadline = Instant::now() + args.seconds;
    let mut boot = Vec::with_capacity(SETUP_BOOTS);
    for _ in 0..SETUP_BOOTS {
        let daemon = Daemon::boot(&dashlat, &work.join("daemon"), cores)?;
        boot.push(daemon.boot_s);
        daemon.stop()?;
    }
    let (mut serial, mut rss) = (Vec::new(), Vec::new());
    let cells: u64 = jobs
        .iter()
        .map(|s| plan_of(s).map(|p| p.cells.len() as u64))
        .sum::<Result<u64, String>>()?;
    loop {
        // The all-core daemon is checked and its memory measured; the
        // one-worker daemon gives the serial sweep time.
        for workers in [cores, 1] {
            let daemon = Daemon::boot(&dashlat, &work.join("daemon"), workers)?;
            let phase = drive(&daemon, &jobs, None)?;
            check(rep, &daemon, &phase, &reference)?;
            if workers == cores {
                rss.push(daemon.peak_rss_mb()?);
            } else {
                serial.push(phase.makespan_s);
            }
            daemon.stop()?;
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let sweep_serial_s = median(&serial);
    rep.set("setup_s", median(&boot));
    rep.set("sweep_serial_s", sweep_serial_s);
    rep.set(
        "sim_events_per_s",
        reference.sim_events as f64 / sweep_serial_s,
    );
    rep.set("peak_rss_mb", median(&rss));
    rep.note(
        "sweep_serial_s",
        format!(
            "{BURST_JOBS} jobs, {cells} cells, one daemon worker, median of {} bursts",
            serial.len()
        ),
    );
    rep.note(
        "sim_events_per_s",
        format!(
            "{} distinct cells simulated by the daemon",
            reference.cells.len()
        ),
    );
    Ok(())
}

fn traced(
    args: &Args,
    rep: &mut Report,
    dashlat: &Path,
    work: &Path,
    cores: usize,
) -> Result<(), String> {
    let jobs = job_mix(args.seed, RUNG_JOBS);
    let reference = reference(&jobs, &work.join("reference"))?;

    // Kernel layers of the cells the daemon simulates, replayed in-process.
    let cells: Vec<Cell> = reference
        .cells
        .iter()
        .map(|c| Cell {
            app: c.app,
            config: c.config.clone(),
            seed: None,
        })
        .collect();
    report_split(rep, &kernel::split(&cells)?);

    // Isolation cost: the same cells as subprocesses and in-process.
    std::env::set_var(dashlat::isolate::CELL_BIN_ENV, dashlat);
    let sample = &reference.cells[..ISOLATE_SAMPLE.min(reference.cells.len())];
    let mut overhead_ms = 0.0;
    for cell in sample {
        let t = Instant::now();
        let isolated = dashlat::isolate::run_cell_subprocess(cell, Duration::from_secs(60));
        let sub = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let direct = run_cell_in_process(cell);
        let inproc = t.elapsed().as_secs_f64();
        if isolated != direct {
            rep.fail(format!(
                "{}: subprocess and in-process results differ",
                cell.sweep
            ));
        }
        overhead_ms += (sub - inproc) * 1e3;
    }
    rep.set(
        "core.isolate.overhead_ms_per_cell",
        overhead_ms / sample.len() as f64,
    );
    rep.note(
        "core.isolate.overhead_ms_per_cell",
        format!("{} cells", sample.len()),
    );

    // One burst on a worker per core: the daemon's all-core sweep time.
    let burst = &jobs[..BURST_JOBS];
    let daemon = Daemon::boot(dashlat, &work.join("daemon"), cores)?;
    let phase = drive(&daemon, burst, None)?;
    check(rep, &daemon, &phase, &reference)?;
    daemon.stop()?;
    let cells = burst
        .iter()
        .map(|s| plan_of(s).map(|p| p.cells.len()))
        .sum::<Result<usize, String>>()?;
    rep.set("sweep_s", phase.makespan_s);
    rep.set("cells_per_s", cells as f64 / phase.makespan_s);
    rep.note(
        "sweep_s",
        format!("{BURST_JOBS} jobs, {cells} cells, {cores} daemon workers"),
    );

    // The open-loop ladder; its first rung gives the latency figures.
    let mut max_rate = 0.0;
    for (rung, &rate) in LADDER.iter().enumerate() {
        let daemon = Daemon::boot(dashlat, &work.join("daemon"), cores)?;
        let phase = drive(&daemon, &jobs, Some(rate))?;
        check(rep, &daemon, &phase, &reference)?;
        let p90 = percentile(&phase.latencies(), 0.9)?;
        let growing = phase.backlog_end > phase.backlog_mid + cores;
        let health = daemon.get("/healthz")?;
        if rung == 0 {
            report_rung(rep, &phase, &health)?;
        }
        daemon.stop()?;
        println!(
            "# rung {rate} jobs/s: p90 {p90:.3} s, backlog {} -> {}, refused {}",
            phase.backlog_mid, phase.backlog_end, phase.refused
        );
        if p90 > P90_LIMIT_S || growing || phase.refused > 0 {
            break;
        }
        max_rate = rate;
    }
    rep.set("max_rate_jobs_per_s", max_rate);
    rep.note(
        "max_rate_jobs_per_s",
        format!("ladder {LADDER:?}, limit job_p90_s <= {P90_LIMIT_S} s, {RUNG_JOBS} jobs per rung"),
    );
    Ok(())
}

fn report_rung(rep: &mut Report, phase: &Phase, health: &Value) -> Result<(), String> {
    let lat = phase.latencies();
    rep.set("job_p50_s", percentile(&lat, 0.5)?);
    rep.set("job_p90_s", percentile(&lat, 0.9)?);
    rep.note(
        "job_p90_s",
        format!("{} jobs at {} jobs/s", lat.len(), LADDER[0]),
    );
    let submit: Vec<f64> = phase.jobs.iter().map(|j| j.submit_ms).collect();
    rep.set("submit_p50_ms", percentile(&submit, 0.5)?);
    rep.set("submit_p90_ms", percentile(&submit, 0.9)?);
    rep.set("serve.get_job_ms_p50", percentile(&phase.get_ms, 0.5)?);
    rep.set("serve.get_job_ms_p90", percentile(&phase.get_ms, 0.9)?);
    rep.note(
        "serve.get_job_ms_p90",
        format!("{} polls", phase.get_ms.len()),
    );
    let waits: Vec<f64> = phase
        .jobs
        .iter()
        .filter_map(|j| Some(j.running_s.or(j.terminal_s)? - j.submitted_s))
        .collect();
    rep.set("serve.queue_wait_s_p50", percentile(&waits, 0.5)?);
    // A job that finished between two polls was never seen running: its
    // run is bounded by the last poll that saw it queued.
    let runs: Vec<f64> = phase
        .jobs
        .iter()
        .filter_map(|j| Some(j.terminal_s? - j.running_s.or(j.queued_s).unwrap_or(j.submitted_s)))
        .collect();
    rep.set("serve.run_s_p50", percentile(&runs, 0.5)?);
    rep.note(
        "serve.run_s_p50",
        format!(
            "{} of {} jobs seen running; the rest from their last queued poll",
            phase.jobs.iter().filter(|j| j.running_s.is_some()).count(),
            runs.len()
        ),
    );
    let (hits, cells) = phase
        .jobs
        .iter()
        .fold((0, 0), |(h, c), j| (h + j.cache_hits, c + j.cells_total));
    rep.ratio(
        "serve.cache.hit_ratio",
        Ratio::new(hits as f64, cells as f64),
    );
    let counter = |k: &str| health.get(k).and_then(Value::as_u64).unwrap_or(0) as f64;
    rep.set(
        "serve.shed",
        phase.refused as f64 + counter("connections_shed"),
    );
    rep.set("serve.breaker_trips", counter("breaker_trips"));
    let lag_ms: Vec<f64> = phase.jobs.iter().map(|j| j.lag_s * 1e3).collect();
    rep.set("loadgen.lag_p90_ms", percentile(&lag_ms, 0.9)?);
    rep.set("loadgen.backlog", phase.backlog_end as f64);
    rep.note(
        "loadgen.backlog",
        format!("{} at mid-schedule", phase.backlog_mid),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_mix_is_deterministic_and_holds_every_plan_per_block() {
        let render =
            |seed, n| -> Vec<String> { job_mix(seed, n).iter().map(JobSpec::to_json).collect() };
        let a = render(5, 100);
        assert_eq!(a, render(5, 100));
        assert_ne!(a, render(6, 100));
        // A shorter mix is a prefix of a longer one.
        assert_eq!(render(5, BURST_JOBS), a[..BURST_JOBS]);
        let plans = 5 * VARIANTS.len();
        for block in a.chunks(plans).filter(|b| b.len() == plans) {
            let mut sorted = block.to_vec();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), plans, "a block repeats a plan");
        }
        for spec in job_mix(5, plans) {
            assert_eq!(spec.sweep_jobs, Some(1));
            spec.machine_config().expect("every variant parses");
        }
    }
}

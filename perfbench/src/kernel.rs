//! Simulation cells measured from outside the kernel: seeded builds, the
//! untraced run, and the traced run whose op stream and access trace are
//! replayed through fresh instances to split host time by layer.

use std::collections::HashSet;
use std::time::Instant;

use dashlat::config::AppScale;
use dashlat::experiments::figure_configs;
use dashlat::{work_fingerprint, App, ExperimentConfig};
use dashlat_cpu::machine::{Machine, RunResult};
use dashlat_cpu::ops::{Op, ProcId, SyncConfig, Workload};
use dashlat_mem::layout::{AddressSpaceBuilder, PageMap};
use dashlat_mem::system::MemorySystem;
use dashlat_sim::Cycle;
use dashlat_workloads::circuit::CircuitParams;
use dashlat_workloads::lu::{Lu, LuParams};
use dashlat_workloads::mp3d::{Mp3d, Mp3dParams};
use dashlat_workloads::pthor::{Pthor, PthorParams};

use crate::stats::{derive_seed, fnv, Ratio, FNV_BASIS};

/// Cycle budget of the library runner (`dashlat::runner::run`).
const MAX_CYCLES: Cycle = Cycle(50_000_000_000);

/// One simulation cell: an application on a machine configuration.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The application.
    pub app: App,
    /// The machine.
    pub config: ExperimentConfig,
    /// `Some(seed)` builds MP3D and PTHOR from seeded parameters;
    /// `None` builds exactly what `App::build` builds.
    pub seed: Option<u64>,
}

impl Cell {
    /// `APP/label`.
    pub fn id(&self) -> String {
        format!("{}/{}", self.app, self.config.label())
    }
}

/// Every distinct (app, config) cell of figures 2–6 over `base`, in
/// app-major figure order.
pub fn figure_cells(base: &ExperimentConfig, seed: Option<u64>) -> Vec<Cell> {
    let mut seen = HashSet::new();
    let mut cells = Vec::new();
    for app in App::ALL {
        for figure in 2..=6 {
            for config in figure_configs(figure, base) {
                if seen.insert(work_fingerprint(app, &config)) {
                    cells.push(Cell { app, config, seed });
                }
            }
        }
    }
    cells
}

/// A built cell, ready to run: the workload generator and the page map
/// its shared data was laid out in.
pub struct Built {
    /// The op generator.
    pub workload: Box<dyn Workload>,
    /// Shared-data layout for the memory system.
    pub page_map: PageMap,
    /// Host seconds spent building the workload.
    pub workload_s: f64,
}

/// Builds the workload of `cell` (timed) and returns its page map.
pub fn build_workload(cell: &Cell) -> Built {
    let cfg = &cell.config;
    let topo = cfg.topology();
    let start = Instant::now();
    let mut space = AddressSpaceBuilder::new(cfg.processors);
    let workload: Box<dyn Workload> = match (cell.seed, cell.app) {
        (None, app) => app.build(cfg.scale, topo, &mut space, cfg.prefetching),
        (Some(seed), App::Mp3d) => {
            let p = Mp3dParams {
                seed: derive_seed(seed, 1),
                ..scaled(cfg.scale, Mp3dParams::paper, Mp3dParams::test_scale)
            };
            Box::new(Mp3d::new(p, topo, &mut space, cfg.prefetching))
        }
        (Some(seed), App::Pthor) => {
            let base = scaled(cfg.scale, PthorParams::paper, PthorParams::test_scale);
            let p = PthorParams {
                circuit: CircuitParams {
                    seed: derive_seed(seed, 2),
                    ..base.circuit.clone()
                },
                ..base
            };
            Box::new(Pthor::new(p, topo, &mut space, cfg.prefetching))
        }
        (Some(_), App::Lu) => {
            let p = scaled(cfg.scale, LuParams::paper, LuParams::test_scale);
            Box::new(Lu::new(p, topo, &mut space, cfg.prefetching))
        }
    };
    let workload_s = start.elapsed().as_secs_f64();
    let page_map = space.build();
    Built {
        workload,
        page_map,
        workload_s,
    }
}

fn scaled<T>(scale: AppScale, paper: fn() -> T, test: fn() -> T) -> T {
    match scale {
        AppScale::Paper => paper(),
        AppScale::Test => test(),
    }
}

/// Builds the memory system for `cell` over `page_map`, timed.
pub fn build_mem(cell: &Cell, page_map: PageMap) -> (MemorySystem, f64) {
    let start = Instant::now();
    let mem = MemorySystem::new(cell.config.mem_config(), page_map);
    (mem, start.elapsed().as_secs_f64())
}

/// Host seconds to build the workload and memory system of every cell,
/// one at a time (the set-up that sits in front of each simulation).
pub fn build_all_s(cells: &[Cell]) -> f64 {
    let start = Instant::now();
    for cell in cells {
        let built = build_workload(cell);
        let (mem, _) = build_mem(cell, built.page_map);
        std::hint::black_box((&built.workload, &mem));
    }
    start.elapsed().as_secs_f64()
}

/// What one untraced cell run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// Simulated cycles (`RunResult::elapsed`).
    pub sim_cycles: u64,
    /// Simulation events processed.
    pub sim_events: u64,
    /// FNV-1a of the whole `RunResult` debug rendering: serial and
    /// parallel passes must agree on every statistic, not just the two
    /// headline counts.
    pub fingerprint: u64,
}

impl CellResult {
    fn of(r: &RunResult) -> Self {
        Self {
            sim_cycles: r.elapsed.as_u64(),
            sim_events: r.sim_events,
            fingerprint: fnv(format!("{r:?}").as_bytes(), FNV_BASIS),
        }
    }
}

/// Builds and runs `cell` untraced. Returns the result, the run itself
/// (`Machine::run` only) in host seconds, and the full `RunResult`.
///
/// # Errors
///
/// The machine's error, rendered.
pub fn run_cell(cell: &Cell) -> Result<(CellResult, f64, RunResult), String> {
    let built = build_workload(cell);
    let (mem, _) = build_mem(cell, built.page_map);
    let topo = cell.config.topology();
    let machine = Machine::new(cell.config.proc_config(), topo, mem, built.workload)
        .with_max_cycles(MAX_CYCLES);
    let start = Instant::now();
    let result = machine.run().map_err(|e| format!("{}: {e}", cell.id()))?;
    let run_s = start.elapsed().as_secs_f64();
    Ok((CellResult::of(&result), run_s, result))
}

/// Records the op stream a machine draws from its workload.
struct Recorder<W> {
    inner: W,
    pids: Vec<u32>,
    ops: Vec<Op>,
}

impl<W: Workload> Workload for Recorder<W> {
    fn processes(&self) -> usize {
        self.inner.processes()
    }
    fn next_op(&mut self, pid: ProcId) -> Op {
        let op = self.inner.next_op(pid);
        self.pids
            .push(u32::try_from(pid.0).expect("process ids fit in u32"));
        self.ops.push(op);
        op
    }
    fn sync_config(&self) -> SyncConfig {
        self.inner.sync_config()
    }
    fn shared_bytes(&self) -> u64 {
        self.inner.shared_bytes()
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Host-time split of a set of cells by layer, plus the simulated counts
/// a host-only change must leave identical.
#[derive(Debug, Clone, Default)]
pub struct Split {
    /// Cells traced.
    pub cells: u64,
    /// Results of the untraced runs, in cell order.
    pub results: Vec<CellResult>,
    /// Ops drawn from workloads.
    pub ops: u64,
    /// Host seconds of the timed op replay.
    pub workloads_self_s: f64,
    /// Accesses serviced by memory systems.
    pub accesses: u64,
    /// Host seconds of the timed access replay.
    pub mem_self_s: f64,
    /// Host seconds of untraced `Machine::run` calls.
    pub run_s: f64,
    /// Host seconds of the traced (recording) runs.
    pub traced_run_s: f64,
    /// Simulation events.
    pub events: u64,
    /// Host seconds building workloads.
    pub workloads_build_s: f64,
    /// Host seconds building memory systems.
    pub mem_build_s: f64,
    /// Shared-read hits over reads.
    pub read_hits: Ratio,
    /// Shared-write hits over writes.
    pub write_hits: Ratio,
    /// Useful prefetches (not discarded) over prefetches.
    pub prefetch_useful: Ratio,
    /// Invalidation messages sent.
    pub invalidations: u64,
    /// Queueing delay over all accesses, in cycles.
    pub queue_delay_cycles: u64,
}

impl Split {
    /// Untraced run time not spent in the workload or the memory system:
    /// processor dispatch plus the event queue.
    pub fn cpu_self_s(&self) -> f64 {
        self.run_s - self.workloads_self_s - self.mem_self_s
    }
}

/// Traces every cell: an untraced run for the reference time and
/// statistics, a recording run, and the two replays, each through fresh
/// instances built from the same inputs.
///
/// # Errors
///
/// A failed run, or a replay that diverges from its recording: the split
/// is only meaningful when the replay redoes exactly the recorded work.
pub fn split(cells: &[Cell]) -> Result<Split, String> {
    let mut s = Split::default();
    let (mut reads, mut read_hits, mut writes, mut write_hits) = (0u64, 0u64, 0u64, 0u64);
    let (mut prefetches, mut discards) = (0u64, 0u64);
    for cell in cells {
        let (plain, run_s, result) = run_cell(cell)?;
        s.cells += 1;
        s.run_s += run_s;
        s.events += plain.sim_events;
        s.results.push(plain.clone());
        let m = &result.mem;
        reads += m.read_hits.total();
        read_hits += m.read_hits.hits();
        writes += m.write_hits.total();
        write_hits += m.write_hits.hits();
        prefetches += m.prefetches;
        discards += m.prefetch_discards;
        s.invalidations += m.invalidations_sent;
        s.queue_delay_cycles += m.queue_delay.as_u64();
        drop(result);

        // Recording run.
        let topo = cell.config.topology();
        let built = build_workload(cell);
        let (mem, _) = build_mem(cell, built.page_map);
        let mut rec = Recorder {
            inner: built.workload,
            pids: Vec::new(),
            ops: Vec::new(),
        };
        let start = Instant::now();
        let mut traced = Machine::new(cell.config.proc_config(), topo, mem, &mut rec)
            .with_max_cycles(MAX_CYCLES)
            .with_access_trace()
            .run()
            .map_err(|e| format!("{}: traced run: {e}", cell.id()))?;
        s.traced_run_s += start.elapsed().as_secs_f64();
        let trace = traced.accesses.take().unwrap_or_default();
        if CellResult::of(&traced) != plain {
            return Err(format!(
                "{}: the traced run diverged from the untraced one",
                cell.id()
            ));
        }
        drop(traced);

        // Fresh instances for both replays.
        let fresh = build_workload(cell);
        s.workloads_build_s += fresh.workload_s;
        let (mut mem, mem_build_s) = build_mem(cell, fresh.page_map);
        s.mem_build_s += mem_build_s;
        let mut workload = fresh.workload;

        let start = Instant::now();
        for (i, (&pid, &want)) in rec.pids.iter().zip(&rec.ops).enumerate() {
            let got = workload.next_op(ProcId(pid as usize));
            if std::hint::black_box(got) != want {
                return Err(format!(
                    "{}: op replay diverged at op {i} (P{pid}): recorded {want:?}, replayed {got:?}",
                    cell.id()
                ));
            }
        }
        s.workloads_self_s += start.elapsed().as_secs_f64();
        s.ops += rec.ops.len() as u64;
        drop(rec);

        let start = Instant::now();
        for (i, r) in trace.iter().enumerate() {
            let got = mem.access(r.at, r.node, r.addr, r.kind);
            if got.done_at != r.done_at || got.class != r.class {
                return Err(format!(
                    "{}: access replay diverged at access {i}: recorded {:?}/{:?}, replayed {:?}/{:?}",
                    cell.id(),
                    r.done_at,
                    r.class,
                    got.done_at,
                    got.class
                ));
            }
        }
        s.mem_self_s += start.elapsed().as_secs_f64();
        s.accesses += trace.len() as u64;
    }
    s.read_hits = Ratio::new(read_hits as f64, reads as f64);
    s.write_hits = Ratio::new(write_hits as f64, writes as f64);
    s.prefetch_useful = Ratio::new((prefetches - discards) as f64, prefetches as f64);
    if s.cpu_self_s() < 0.0 {
        return Err(format!(
            "cpu.self_s is negative ({:.4} s): the replays took longer than the runs they replay",
            s.cpu_self_s()
        ));
    }
    Ok(s)
}

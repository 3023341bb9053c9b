//! Subprocess isolation for supervised sweep cells.
//!
//! `dashlat sweep --isolate` — and, since the service-hardening work,
//! `dashlat serve --isolate` — run every cell as `dashlat cell --app …
//! <machine flags>` in a child process, so a cell that aborts, is killed,
//! or wedges past its wall-clock deadline takes down only itself. The
//! child prints exactly one JSON record on its last stdout line
//! (`{"ok":N}` or `{"err":{…}}`); everything else about the outcome is
//! derived from that line plus the exit status.
//!
//! # Supervision
//!
//! The supervisor wakes on events, not on a timer. A reader thread
//! drains the child's stdout to EOF, waits for the child to exit, and
//! hands the output over a channel; the supervisor blocks on that
//! channel until the message arrives, an injected kill falls due, or the
//! wall-clock deadline passes, whichever is first. On the deadline it
//! SIGKILLs and reaps the child. A cell is therefore noticed the moment
//! it exits, and a child that closes stdout but keeps running still
//! meets its deadline.
//!
//! # Worker-kill injection
//!
//! The service torture harness needs to SIGKILL workers on a seeded
//! schedule to prove the daemon survives. [`arm_kills`] arms a
//! process-global plan: while armed, each spawned cell draws once and,
//! if selected, is killed after a seeded delay while the supervisor
//! waits.
//! The parent observes an ordinary signal death — indistinguishable from
//! the OOM killer — and applies its normal transient-retry policy.

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::sweep::{CellFailure, FailureClass, SweepCell};
use dashlat_sim::json::Value;
use dashlat_sim::Xorshift;

/// Environment variable overriding the binary used to spawn cell
/// subprocesses. By default the current executable is re-invoked (it is
/// the `dashlat` binary when running `dashlat sweep`/`serve`/`chaos`);
/// tests and drivers hosted in other binaries point this at a built
/// `dashlat`.
pub const CELL_BIN_ENV: &str = "DASHLAT_CELL_BIN";

/// A seeded plan for killing cell subprocesses, for the torture harness.
#[derive(Debug, Clone, PartialEq)]
pub struct KillPlan {
    /// Seed for the deterministic draw stream.
    pub seed: u64,
    /// Probability each spawned cell is selected for a SIGKILL.
    pub kill_prob: f64,
    /// A selected cell is killed after a uniform delay in
    /// `[0, max_delay_ms]`, so kills land at different points of the
    /// cell's run.
    pub max_delay_ms: u64,
}

struct ArmedKills {
    plan: KillPlan,
    rng: Xorshift,
    kills: u64,
}

static KILLS: Mutex<Option<ArmedKills>> = Mutex::new(None);

fn kills_lock() -> std::sync::MutexGuard<'static, Option<ArmedKills>> {
    match KILLS.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Arms the process-global worker-kill plan, replacing any previous one
/// and resetting the draw stream.
pub fn arm_kills(plan: KillPlan) {
    let rng = Xorshift::new(plan.seed);
    *kills_lock() = Some(ArmedKills {
        plan,
        rng,
        kills: 0,
    });
}

/// Disarms worker-kill injection and returns how many cells were killed
/// since [`arm_kills`]. Safe to call when nothing is armed.
pub fn disarm_kills() -> u64 {
    kills_lock().take().map_or(0, |a| a.kills)
}

/// Draws the kill decision for one spawned cell: `None` (spare it) or
/// the delay to wait before killing.
fn draw_kill() -> Option<Duration> {
    let mut guard = kills_lock();
    let armed = guard.as_mut()?;
    if !armed.rng.chance(armed.plan.kill_prob) {
        return None;
    }
    let delay = if armed.plan.max_delay_ms == 0 {
        0
    } else {
        armed.rng.below(armed.plan.max_delay_ms + 1)
    };
    Some(Duration::from_millis(delay))
}

fn record_kill() {
    if let Some(armed) = kills_lock().as_mut() {
        armed.kills += 1;
    }
}

/// True when `failure` describes the *worker* dying (timeout, signal,
/// spawn failure, crash before reporting) rather than the simulation
/// inside it failing. The serve daemon's crash-loop circuit breaker
/// counts only these: a cell that runs to completion and reports a
/// deadlock is a result, not a crash.
pub fn is_worker_crash(failure: &CellFailure) -> bool {
    let e = failure.error.as_str();
    e.contains("wall-clock timeout")
        || e.contains("killed by a signal")
        || e.contains("without an ok record")
        || e.contains("without a record")
        || e.contains("cannot spawn cell subprocess")
        || e.contains("cannot locate the dashlat binary")
}

/// Runs one cell in a child `dashlat cell` process with a wall-clock
/// deadline. Timeouts and signal kills are transient (the machine may
/// just be overloaded — and fault-heavy schedules legitimately run
/// long); a child that exits nonzero *with* a record reports that
/// record's classification; a child that dies without a record is a
/// permanent failure (it crashed before the runner could even classify).
pub fn run_cell_subprocess(cell: &SweepCell, timeout: Duration) -> Result<u64, CellFailure> {
    let exe = match std::env::var(CELL_BIN_ENV) {
        Ok(bin) => std::path::PathBuf::from(bin),
        Err(_) => std::env::current_exe().map_err(|e| {
            CellFailure::transient(format!("cannot locate the dashlat binary: {e}"))
        })?,
    };
    let mut cmd = Command::new(exe);
    cmd.arg("cell")
        .arg("--app")
        .arg(cell.app.name().to_ascii_lowercase())
        .args(cell.config.to_cli_args())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let child = cmd
        .spawn()
        .map_err(|e| CellFailure::transient(format!("cannot spawn cell subprocess: {e}")))?;
    supervise(child, timeout)
}

/// Waits for a spawned cell (stdout piped) to finish, enforcing the
/// wall-clock `timeout` and any armed worker kill, then classifies its
/// record and exit status. See the module docs for how it waits.
fn supervise(mut child: Child, timeout: Duration) -> Result<u64, CellFailure> {
    let start = Instant::now();
    let deadline = start + timeout;
    let mut kill_at = draw_kill().map(|delay| start + delay);
    let rx = spawn_reader(&mut child);

    let stdout = loop {
        let wake = kill_at.map_or(deadline, |k| k.min(deadline));
        match rx.recv_timeout(wake.saturating_duration_since(Instant::now())) {
            Ok(stdout) => break stdout,
            Err(RecvTimeoutError::Timeout) => {
                let now = Instant::now();
                if kill_at.is_some_and(|k| now >= k) {
                    // Injected worker kill: a real SIGKILL, so the child
                    // dies exactly like an OOM-killed worker and the
                    // normal signal-death path below runs.
                    kill_at = None;
                    let _ = child.kill();
                    record_kill();
                }
                if now >= deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(CellFailure::transient(format!(
                        "cell exceeded its {}s wall-clock timeout and was killed",
                        timeout.as_secs()
                    )));
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(CellFailure::transient(
                    "cell output reader stopped before the cell exited",
                ));
            }
        }
    };
    let status = child
        .wait()
        .map_err(|e| CellFailure::transient(format!("waiting for cell subprocess: {e}")))?;
    let record = stdout.lines().rev().find(|l| !l.trim().is_empty());

    if status.success() {
        return record
            .and_then(parse_ok)
            .ok_or_else(|| CellFailure::transient("cell exited 0 without an ok record"));
    }
    if let Some(failure) = record.and_then(parse_err) {
        return Err(failure);
    }
    match status.code() {
        // No exit code means a signal (SIGKILL from the OOM killer, a
        // stray SIGTERM, or an injected worker kill): re-runnable, same
        // policy as a timeout.
        None => Err(CellFailure::transient(format!(
            "cell was killed by a signal ({status})"
        ))),
        Some(code) => Err(CellFailure {
            error: format!("cell exited {code} without a record (crashed before reporting)"),
            code: 1,
            class: FailureClass::Permanent,
        }),
    }
}

/// Starts the thread that drains `child`'s stdout and, once the child
/// has also exited, sends what it read. EOF alone is not enough: a child
/// may close stdout and keep running. The thread is detached rather than
/// joined, since after a deadline kill a grandchild may still hold the
/// pipe open; a panic in it reaches the supervisor as a disconnected
/// channel.
fn spawn_reader(child: &mut Child) -> Receiver<String> {
    let (tx, rx) = mpsc::channel();
    let stdout = child.stdout.take();
    let pid = child.id();
    std::thread::spawn(move || {
        let mut out = String::new();
        if let Some(mut s) = stdout {
            let _ = s.read_to_string(&mut out);
        }
        await_exit(pid);
        let _ = tx.send(out);
    });
    rx
}

/// Blocks until child `pid` has exited, leaving it unreaped: the pid
/// stays the supervisor's to kill and `wait` on, so neither can hit a
/// recycled pid.
#[cfg(target_os = "linux")]
fn await_exit(pid: u32) {
    const P_PID: i32 = 1;
    const WEXITED: i32 = 4;
    const WNOWAIT: i32 = 0x0100_0000;
    extern "C" {
        /// `waitid(2)`; `std` links libc, so no crate dependency is
        /// needed for this one symbol.
        fn waitid(idtype: i32, id: u32, infop: *mut u8, options: i32) -> i32;
    }
    // `siginfo_t` is 128 bytes on every Linux ABI.
    let mut info = [0u64; 16];
    loop {
        // SAFETY: `info` is a writable buffer the size of `siginfo_t`;
        // WNOWAIT leaves the child's state untouched.
        let rc = unsafe { waitid(P_PID, pid, info.as_mut_ptr().cast(), WEXITED | WNOWAIT) };
        if rc == 0 || std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            return;
        }
    }
}

/// Without a non-reaping wait, EOF on stdout stands in for exit; the
/// final reap then blocks until the child really exits.
#[cfg(not(target_os = "linux"))]
fn await_exit(_pid: u32) {}

fn parse_ok(line: &str) -> Option<u64> {
    Value::parse(line).ok()?.get("ok")?.as_u64()
}

fn parse_err(line: &str) -> Option<CellFailure> {
    let v = Value::parse(line).ok()?;
    let err = v.get("err")?;
    Some(CellFailure {
        error: err.get("error")?.as_str()?.to_owned(),
        code: err.get("code")?.as_u64()? as u8,
        class: err.get("class")?.as_str()?.parse().ok()?,
    })
}

/// Renders the record line `dashlat cell` prints — kept next to the
/// parsers above so the two sides of the pipe stay in sync.
pub fn render_record(outcome: &Result<u64, CellFailure>) -> String {
    match outcome {
        Ok(elapsed) => format!("{{\"ok\":{elapsed}}}"),
        Err(f) => format!(
            "{{\"err\":{{\"error\":{},\"code\":{},\"class\":{}}}}}",
            dashlat_sim::json::quote(&f.error),
            f.code,
            dashlat_sim::json::quote(&f.class.to_string())
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises the tests that arm the process-global kill plan or
    /// supervise a child (which draws from it).
    static KILL_PLAN_LOCK: Mutex<()> = Mutex::new(());

    fn kill_plan_lock() -> std::sync::MutexGuard<'static, ()> {
        KILL_PLAN_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[cfg(unix)]
    fn sh(script: &str) -> Child {
        Command::new("/bin/sh")
            .arg("-c")
            .arg(script)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn /bin/sh")
    }

    /// Supervises `script` under `timeout` and returns the outcome with
    /// the wall time it took.
    #[cfg(unix)]
    fn supervise_sh(script: &str, timeout: Duration) -> (Result<u64, CellFailure>, Duration) {
        let start = Instant::now();
        let outcome = supervise(sh(script), timeout);
        (outcome, start.elapsed())
    }

    /// Headroom over a timeout for a loaded host to kill and reap.
    #[cfg(unix)]
    const SLACK: Duration = Duration::from_secs(3);

    #[cfg(unix)]
    #[test]
    fn supervisor_returns_the_record_of_a_child_that_exits() {
        let _guard = kill_plan_lock();
        let (outcome, _) = supervise_sh("echo noise; echo '{\"ok\":42}'", Duration::from_secs(30));
        assert_eq!(outcome, Ok(42));
        let (outcome, _) = supervise_sh(
            "echo '{\"err\":{\"error\":\"deadlock\",\"code\":2,\"class\":\"permanent\"}}'; exit 2",
            Duration::from_secs(30),
        );
        let failure = outcome.expect_err("err record");
        assert_eq!((failure.error.as_str(), failure.code), ("deadlock", 2));
        assert!(!is_worker_crash(&failure));
    }

    #[cfg(unix)]
    #[test]
    fn supervisor_kills_a_child_that_outlives_its_timeout() {
        let _guard = kill_plan_lock();
        let timeout = Duration::from_millis(300);
        let (outcome, took) = supervise_sh("exec sleep 30", timeout);
        let failure = outcome.expect_err("timeout");
        assert!(failure.error.contains("wall-clock timeout"), "{failure:?}");
        assert_eq!(failure.class, FailureClass::Transient);
        assert!(took >= timeout && took < timeout + SLACK, "took {took:?}");
    }

    #[cfg(unix)]
    #[test]
    fn supervisor_deadline_holds_after_the_child_closes_stdout() {
        let _guard = kill_plan_lock();
        let timeout = Duration::from_millis(300);
        let (outcome, took) = supervise_sh("exec >&-; exec sleep 30", timeout);
        let failure = outcome.expect_err("timeout");
        assert!(failure.error.contains("wall-clock timeout"), "{failure:?}");
        assert!(took >= timeout && took < timeout + SLACK, "took {took:?}");
    }

    #[cfg(unix)]
    #[test]
    fn armed_kill_plan_kills_every_cell_by_signal() {
        let _guard = kill_plan_lock();
        arm_kills(KillPlan {
            seed: 7,
            kill_prob: 1.0,
            max_delay_ms: 0,
        });
        let cells = 3;
        for _ in 0..cells {
            let (outcome, _) = supervise_sh("exec sleep 30", Duration::from_secs(30));
            let failure = outcome.expect_err("killed");
            assert!(failure.error.contains("killed by a signal"), "{failure:?}");
            assert!(is_worker_crash(&failure));
        }
        assert_eq!(disarm_kills(), cells);
    }

    #[test]
    fn record_lines_round_trip() {
        assert_eq!(parse_ok(&render_record(&Ok(42))), Some(42));
        let f = CellFailure {
            error: "invariant \"x\"\nbroken".into(),
            code: 4,
            class: FailureClass::Permanent,
        };
        let rendered = render_record(&Err(f.clone()));
        assert!(!rendered.contains('\n'), "record must be one line");
        assert_eq!(parse_err(&rendered), Some(f));
        assert_eq!(parse_ok("garbage"), None);
        assert_eq!(parse_err("{\"ok\":1}"), None);
    }

    #[test]
    fn kill_plan_draws_are_deterministic_and_disarm_is_safe() {
        let _guard = kill_plan_lock();
        // Drawing directly (not spawning) keeps this test hermetic.
        let draw_all = |seed: u64| -> Vec<Option<Duration>> {
            arm_kills(KillPlan {
                seed,
                kill_prob: 0.5,
                max_delay_ms: 40,
            });
            let draws = (0..64).map(|_| draw_kill()).collect();
            disarm_kills();
            draws
        };
        let a = draw_all(5);
        let b = draw_all(5);
        assert_eq!(a, b, "same seed, same kill schedule");
        assert!(a.iter().any(Option::is_some) && a.iter().any(Option::is_none));
        assert!(a.iter().flatten().all(|d| *d <= Duration::from_millis(40)));
        assert_eq!(disarm_kills(), 0, "disarm when disarmed is a no-op");
        assert_eq!(draw_kill(), None, "disarmed draws never kill");
    }

    #[test]
    fn worker_crash_classification() {
        let crash = |msg: &str| is_worker_crash(&CellFailure::transient(msg.to_string()));
        assert!(crash(
            "cell exceeded its 5s wall-clock timeout and was killed"
        ));
        assert!(crash("cell was killed by a signal (signal: 9 (SIGKILL))"));
        assert!(crash(
            "cell exited 134 without a record (crashed before reporting)"
        ));
        assert!(crash("cannot spawn cell subprocess: No such file"));
        assert!(!crash("deadlock: all processors stalled at cycle 1810"));
    }
}

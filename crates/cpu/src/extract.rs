//! Static program extraction: turning a live [`Workload`] into a
//! [`Trace`] without simulating a single machine cycle.
//!
//! The workloads are execution-driven op *generators* (§2.3): they produce
//! operations only as the machine unblocks each process. To analyze a
//! workload's program statically we drive the generator ourselves with a
//! sync-respecting logical scheduler — deterministic round-robin, one
//! operation per runnable process per round, honouring lock mutual
//! exclusion (FIFO grants) and barrier rendezvous but charging **no
//! timing**. For statically scheduled programs (LU, MP3D, the litmus
//! corpus) the extracted streams are exactly the streams any real
//! execution issues; for timing-dependent programs (PTHOR's task
//! stealing and spin loops) they are one representative fair schedule,
//! which is what a whole-program lint needs.
//!
//! The scheduler is the one [`crate::events::events_from_trace`] replays
//! traces with, so a workload and its extracted trace are ordered, and
//! forced, identically. It is fault-tolerant rather than strict: a
//! workload whose sync skeleton cannot make progress (a dropped
//! `Release`, a diverged barrier) is force-resolved so extraction always
//! terminates, and every forced transition is recorded as a [`SyncNote`]
//! — the static passes turn those into findings instead of hanging. A
//! fixed operation budget, far above any test-scale program, stops a
//! non-terminating generator; the cut-short processes are reported as
//! truncated.

use crate::logical::{self, OpSource, SyncNote, MAX_TOTAL_OPS};
use crate::ops::{Op, ProcId, Workload};
use crate::trace::Trace;

/// The result of extracting a workload's program.
#[derive(Debug, Clone)]
pub struct Extraction {
    /// The extracted program: per-process op streams (each ending in
    /// `Done` unless truncated) plus the workload's sync declarations.
    pub trace: Trace,
    /// Forced scheduler transitions (empty for a well-synchronized
    /// workload).
    pub notes: Vec<SyncNote>,
    /// Processes whose streams were cut short by the op budget.
    pub truncated: Vec<ProcId>,
}

impl Extraction {
    /// True when extraction completed every stream without forcing any
    /// sync transition.
    pub fn is_clean(&self) -> bool {
        self.notes.is_empty() && self.truncated.is_empty()
    }
}

/// Extraction failure: the workload cannot be driven statically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractError(pub String);

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "program extraction failed: {}", self.0)
    }
}

impl std::error::Error for ExtractError {}

/// Drives a forked copy of `workload` to completion under the logical
/// scheduler and returns its per-process op streams as a [`Trace`].
///
/// The workload itself is not consumed: extraction runs on
/// [`Workload::fork`]'s independent copy, so the same workload instance
/// can afterwards be simulated normally.
///
/// # Errors
///
/// Returns [`ExtractError`] when the workload cannot be forked
/// (`fork()` returns `None`).
pub fn extract_program<W: Workload + ?Sized>(workload: &W) -> Result<Extraction, ExtractError> {
    let workload = workload
        .fork()
        .ok_or_else(|| ExtractError(format!("workload {:?} cannot fork", workload.name())))?;
    let nprocs = workload.processes();
    if nprocs == 0 {
        return Err(ExtractError("workload declares zero processes".into()));
    }
    let sync = workload.sync_config();
    let mut source = Recorder {
        workload,
        streams: vec![Vec::new(); nprocs],
    };
    let schedule = logical::run(nprocs, &mut source, MAX_TOTAL_OPS);
    Ok(Extraction {
        trace: Trace {
            streams: source.streams,
            sync,
            page_homes: None,
        },
        notes: schedule.notes,
        truncated: schedule.truncated,
    })
}

/// [`extract_program`]'s op source: pulls from the forked workload and
/// records every op it hands out.
struct Recorder {
    workload: Box<dyn Workload>,
    streams: Vec<Vec<Op>>,
}

impl OpSource for Recorder {
    fn next_op(&mut self, pid: ProcId, _index: u64) -> Option<Op> {
        let op = self.workload.next_op(pid);
        self.streams[pid.0].push(op);
        Some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{BarrierId, LockId};
    use crate::script::ScriptWorkload;
    use dashlat_mem::addr::Addr;

    fn script(streams: Vec<Vec<Op>>) -> ScriptWorkload {
        ScriptWorkload::new(streams)
            .with_locks(vec![Addr(0x1000), Addr(0x1010)])
            .with_barriers(vec![Addr(0x2000)])
    }

    #[test]
    fn extracts_scripted_streams_verbatim() {
        let s0 = vec![
            Op::Acquire(LockId(0)),
            Op::Write(Addr(0x40)),
            Op::Release(LockId(0)),
            Op::Barrier(BarrierId(0)),
            Op::Done,
        ];
        let s1 = vec![
            Op::Acquire(LockId(0)),
            Op::Read(Addr(0x40)),
            Op::Release(LockId(0)),
            Op::Barrier(BarrierId(0)),
            Op::Done,
        ];
        let ext = extract_program(&script(vec![s0.clone(), s1.clone()])).expect("extracts");
        assert!(ext.is_clean(), "notes: {:?}", ext.notes);
        assert_eq!(ext.trace.streams, vec![s0, s1]);
        assert_eq!(ext.trace.sync.lock_addrs.len(), 2);
    }

    #[test]
    fn extraction_does_not_consume_the_workload() {
        let mut w = script(vec![vec![Op::Read(Addr(0x40)), Op::Done]]);
        let _ = extract_program(&w).expect("extracts");
        // The original cursor is untouched.
        assert_eq!(w.next_op(ProcId(0)), Op::Read(Addr(0x40)));
    }

    #[test]
    fn contended_lock_blocks_until_release() {
        // P1's post-acquire write must not be emitted before P0 releases —
        // verified indirectly: extraction completes with no forced notes,
        // which requires the blocking bookkeeping to grant FIFO.
        let ext = extract_program(&script(vec![
            vec![
                Op::Acquire(LockId(0)),
                Op::Compute(5),
                Op::Release(LockId(0)),
                Op::Done,
            ],
            vec![Op::Acquire(LockId(0)), Op::Release(LockId(0)), Op::Done],
        ]))
        .expect("extracts");
        assert!(ext.is_clean());
    }

    #[test]
    fn dropped_release_is_forced_and_noted() {
        let ext = extract_program(&script(vec![
            vec![Op::Acquire(LockId(0)), Op::Done],
            vec![Op::Acquire(LockId(0)), Op::Release(LockId(0)), Op::Done],
        ]))
        .expect("extracts");
        assert!(ext.notes.iter().any(|n| matches!(
            n,
            SyncNote::ForcedGrant {
                lock: LockId(0),
                pid: ProcId(1),
                holder: Some(ProcId(0)),
            }
        )));
        // Both streams still complete.
        assert_eq!(ext.trace.streams[1].last(), Some(&Op::Done));
    }

    #[test]
    fn diverged_barrier_is_forced_and_noted() {
        let ext = extract_program(&script(vec![
            vec![Op::Barrier(BarrierId(0)), Op::Done],
            vec![Op::Done],
        ]))
        .expect("extracts");
        assert!(ext.notes.iter().any(|n| matches!(
            n,
            SyncNote::ForcedBarrier {
                barrier: BarrierId(0),
                arrived: 1,
                expected: 2,
            }
        )));
    }

    #[test]
    fn unforkable_workload_is_an_error() {
        struct NoFork;
        impl Workload for NoFork {
            fn processes(&self) -> usize {
                1
            }
            fn next_op(&mut self, _pid: ProcId) -> Op {
                Op::Done
            }
            fn sync_config(&self) -> crate::ops::SyncConfig {
                crate::ops::SyncConfig::default()
            }
        }
        assert!(extract_program(&NoFork).is_err());
    }
}

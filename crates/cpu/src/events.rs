//! Analysis events: the stream the race detector and its sibling passes
//! consume.
//!
//! Two producers emit the same event vocabulary:
//!
//! * the live [`crate::machine::Machine`], when built with
//!   `with_event_log()` — every shared access and sync operation is
//!   recorded at its *commit point* (writes when they enter the write
//!   buffer, acquires when the lock is actually granted), so the event
//!   order is exactly the order the memory system observed;
//! * [`events_from_trace`], a fault-tolerant logical replayer that turns a
//!   serialized [`Trace`] into the same stream without simulating timing.
//!   It runs the trace under the same logical scheduler that program
//!   extraction ([`crate::extract`]) uses, so a program and its extracted
//!   trace are ordered, and forced, identically. The scheduler is
//!   deliberately forgiving: a trace with a *dropped Release* (the
//!   labeling bug the analyzer exists to find) would deadlock a strict
//!   replayer, so stuck locks are force-granted and diverged barriers
//!   force-released, each recorded as a [`SyncNote`] — with the crucial
//!   property that forced transitions contribute **no happens-before
//!   edge**, letting the detector report the race instead of hanging.

use dashlat_mem::addr::Addr;
use dashlat_sim::Cycle;

use crate::logical::{self, OpSource, SyncNote};
use crate::ops::{BarrierId, LockId, Op, ProcId, SyncConfig};
use crate::trace::Trace;

/// What happened, from the analysis passes' point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Shared read committed.
    Read(Addr),
    /// Shared write committed (entered the write buffer / gained
    /// ownership).
    Write(Addr),
    /// Non-binding prefetch issued.
    Prefetch {
        /// Prefetched address.
        addr: Addr,
        /// Read-exclusive prefetch.
        exclusive: bool,
    },
    /// Lock granted to the process (an acquire access).
    Acquire(LockId),
    /// Lock release committed (a release access).
    Release(LockId),
    /// Process arrived at a barrier.
    BarrierArrive(BarrierId),
    /// A stuck barrier episode was force-released by the replayer without
    /// completing: analysis passes must discard the pending episode and
    /// create **no** ordering edges from it.
    BarrierForced(BarrierId),
    /// Process finished.
    Done,
}

/// One analysis event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisEvent {
    /// Issuing process.
    pub pid: ProcId,
    /// Index of the originating operation within `pid`'s stream (0-based).
    pub op_index: u64,
    /// Commit time: simulated cycles for machine-produced logs, a global
    /// logical sequence number for replayed traces. Monotone across the
    /// whole log either way.
    pub cycle: Cycle,
    /// What happened.
    pub kind: EventKind,
}

/// An ordered stream of analysis events plus the context the passes need.
#[derive(Debug, Clone)]
pub struct EventLog {
    /// Number of processes.
    pub nprocs: usize,
    /// Sync declarations (lock/barrier addresses, labeled ranges).
    pub sync: SyncConfig,
    /// The events, in commit order.
    pub events: Vec<AnalysisEvent>,
    /// Replay diagnostics (always empty for machine-produced logs).
    pub notes: Vec<SyncNote>,
}

impl EventLog {
    /// An empty log for `nprocs` processes with the given declarations.
    pub fn new(nprocs: usize, sync: SyncConfig) -> Self {
        EventLog {
            nprocs,
            sync,
            events: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Replays a [`Trace`] logically (no timing model) into an [`EventLog`].
///
/// Scheduling is the logical scheduler program extraction also uses:
/// deterministic round-robin, one operation per runnable process per
/// round, FIFO lock grants; each event's `cycle` stamp is its position in
/// the log. When no process can make progress the replayer resolves the
/// stall instead of hanging:
///
/// 1. the barrier with the most arrivals is force-released
///    ([`EventKind::BarrierForced`], [`SyncNote::ForcedBarrier`]) — its
///    episode produces no ordering edges; otherwise
/// 2. the lowest-numbered process stuck on a lock is force-granted it
///    ([`SyncNote::ForcedGrant`]); the grant joins whatever clock the
///    lock last published, which for a dropped Release is *stale* — so the
///    detector still sees the missing edge.
///
/// Releases of unheld locks are recorded ([`SyncNote::BadRelease`]) and
/// otherwise ignored. A clean trace replays with an empty `notes` list.
pub fn events_from_trace(trace: &Trace) -> EventLog {
    let nprocs = trace.streams.len();
    let mut replay = Replay {
        streams: &trace.streams,
        log: EventLog::new(nprocs, trace.sync.clone()),
    };
    replay.log.notes = logical::run(nprocs, &mut replay, usize::MAX).notes;
    replay.log
}

/// [`events_from_trace`]'s op source: reads the trace's streams and
/// records every operation that takes effect as an event.
struct Replay<'a> {
    streams: &'a [Vec<Op>],
    log: EventLog,
}

impl Replay<'_> {
    fn emit(&mut self, pid: ProcId, op_index: u64, kind: EventKind) {
        let cycle = Cycle(self.log.events.len() as u64);
        self.log.events.push(AnalysisEvent {
            pid,
            op_index,
            cycle,
            kind,
        });
    }
}

impl OpSource for Replay<'_> {
    fn next_op(&mut self, pid: ProcId, index: u64) -> Option<Op> {
        self.streams[pid.0].get(index as usize).copied()
    }

    fn issued(&mut self, pid: ProcId, index: u64, op: Op) {
        let kind = match op {
            Op::Compute(_) => return,
            Op::Read(a) => EventKind::Read(a),
            // An RMW reads and writes the location atomically; for
            // happens-before purposes the write side dominates.
            Op::Write(a) | Op::Rmw(a) => EventKind::Write(a),
            Op::Prefetch { addr, exclusive } => EventKind::Prefetch { addr, exclusive },
            Op::Acquire(l) => EventKind::Acquire(l),
            Op::Release(l) => EventKind::Release(l),
            Op::Barrier(b) => EventKind::BarrierArrive(b),
            Op::Done => EventKind::Done,
        };
        self.emit(pid, index, kind);
    }

    fn granted(&mut self, pid: ProcId, index: u64, lock: LockId) {
        self.emit(pid, index, EventKind::Acquire(lock));
    }

    fn barrier_forced(&mut self, pid: ProcId, index: u64, barrier: BarrierId) {
        self.emit(pid, index, EventKind::BarrierForced(barrier));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::SyncConfig;

    fn trace(streams: Vec<Vec<Op>>) -> Trace {
        Trace {
            streams,
            sync: SyncConfig {
                lock_addrs: vec![Addr(0x1000), Addr(0x1010)],
                barrier_addrs: vec![Addr(0x2000)],
                labeled_ranges: Vec::new(),
            },
            page_homes: None,
        }
    }

    fn kinds(log: &EventLog, pid: usize) -> Vec<EventKind> {
        log.events
            .iter()
            .filter(|e| e.pid.0 == pid)
            .map(|e| e.kind)
            .collect()
    }

    #[test]
    fn clean_trace_replays_without_notes() {
        let t = trace(vec![
            vec![
                Op::Acquire(LockId(0)),
                Op::Write(Addr(0x40)),
                Op::Release(LockId(0)),
                Op::Done,
            ],
            vec![
                Op::Acquire(LockId(0)),
                Op::Read(Addr(0x40)),
                Op::Release(LockId(0)),
                Op::Done,
            ],
        ]);
        let log = events_from_trace(&t);
        assert!(log.notes.is_empty(), "unexpected notes: {:?}", log.notes);
        assert_eq!(
            kinds(&log, 0),
            vec![
                EventKind::Acquire(LockId(0)),
                EventKind::Write(Addr(0x40)),
                EventKind::Release(LockId(0)),
                EventKind::Done,
            ]
        );
        // Monotone stamps.
        for w in log.events.windows(2) {
            assert!(w[0].cycle < w[1].cycle);
        }
    }

    #[test]
    fn contended_lock_grants_fifo_at_release() {
        let t = trace(vec![
            vec![
                Op::Acquire(LockId(0)),
                Op::Compute(5),
                Op::Release(LockId(0)),
                Op::Done,
            ],
            vec![Op::Acquire(LockId(0)), Op::Release(LockId(0)), Op::Done],
        ]);
        let log = events_from_trace(&t);
        assert!(log.notes.is_empty());
        // P1's grant must come after P0's release in the stream.
        let rel0 = log
            .events
            .iter()
            .position(|e| e.pid.0 == 0 && e.kind == EventKind::Release(LockId(0)))
            .unwrap();
        let acq1 = log
            .events
            .iter()
            .position(|e| e.pid.0 == 1 && e.kind == EventKind::Acquire(LockId(0)))
            .unwrap();
        assert!(acq1 > rel0);
    }

    #[test]
    fn dropped_release_forces_grant_with_note() {
        // P0 never releases; P1 would deadlock under strict replay.
        let t = trace(vec![
            vec![Op::Acquire(LockId(0)), Op::Write(Addr(0x40)), Op::Done],
            vec![
                Op::Acquire(LockId(0)),
                Op::Write(Addr(0x40)),
                Op::Release(LockId(0)),
                Op::Done,
            ],
        ]);
        let log = events_from_trace(&t);
        assert!(log.notes.iter().any(|n| matches!(
            n,
            SyncNote::ForcedGrant {
                lock: LockId(0),
                pid: ProcId(1),
                ..
            }
        )));
        // P1 still completed its whole stream.
        assert_eq!(kinds(&log, 1).last(), Some(&EventKind::Done));
    }

    #[test]
    fn diverged_barrier_is_forced() {
        let t = trace(vec![
            vec![Op::Barrier(BarrierId(0)), Op::Read(Addr(0x40)), Op::Done],
            vec![Op::Done], // never arrives
        ]);
        let log = events_from_trace(&t);
        assert!(log.notes.iter().any(|n| matches!(
            n,
            SyncNote::ForcedBarrier {
                barrier: BarrierId(0),
                arrived: 1,
                expected: 2,
            }
        )));
        assert!(log
            .events
            .iter()
            .any(|e| e.kind == EventKind::BarrierForced(BarrierId(0))));
        assert_eq!(kinds(&log, 0).last(), Some(&EventKind::Done));
    }

    #[test]
    fn bad_release_is_noted_not_fatal() {
        let t = trace(vec![vec![Op::Release(LockId(1)), Op::Done]]);
        let log = events_from_trace(&t);
        assert!(log.notes.iter().any(|n| matches!(
            n,
            SyncNote::BadRelease {
                lock: LockId(1),
                pid: ProcId(0),
                holder: None,
            }
        )));
    }

    #[test]
    fn replay_is_deterministic() {
        let t = trace(vec![
            vec![
                Op::Acquire(LockId(0)),
                Op::Write(Addr(0x40)),
                Op::Release(LockId(0)),
                Op::Barrier(BarrierId(0)),
                Op::Done,
            ],
            vec![
                Op::Acquire(LockId(0)),
                Op::Read(Addr(0x40)),
                Op::Release(LockId(0)),
                Op::Barrier(BarrierId(0)),
                Op::Done,
            ],
        ]);
        let a = events_from_trace(&t);
        let b = events_from_trace(&t);
        assert_eq!(a.events, b.events);
        assert_eq!(a.notes, b.notes);
    }
}

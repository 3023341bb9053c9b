//! The logical sync scheduler behind program extraction and trace replay.
//!
//! [`crate::extract::extract_program`] drives a live workload and
//! [`crate::events::events_from_trace`] replays a recorded trace, and both
//! must order the processes' operations the same way without simulating
//! any timing. This module is that one order:
//!
//! * deterministic round-robin, one operation per runnable process per
//!   round;
//! * lock mutual exclusion with FIFO grants at the matching `Release`;
//! * barrier rendezvous once every process has arrived;
//! * when every unfinished process is blocked, a forced transition instead
//!   of a hang: first the barrier with the most arrivals is force-released,
//!   otherwise the lowest-numbered process stuck on a lock is
//!   force-granted it. Each forced transition, and each release of a lock
//!   the releaser did not hold, is recorded as a [`SyncNote`];
//! * an operation budget, a backstop against non-terminating generators.
//!
//! The scheduler pulls operations from an [`OpSource`] and reports back
//! through its callbacks; the sources decide what to record.

use std::collections::VecDeque;

use crate::ops::{BarrierId, LockId, Op, ProcId};

/// Operation budget for program extraction: far above any test-scale
/// program, so only a non-terminating generator reaches it.
pub(crate) const MAX_TOTAL_OPS: usize = 8_000_000;

/// A sync transition the logical scheduler had to force, or an invalid
/// one it skipped, because the program's own sync skeleton could not
/// progress. A well-synchronized program produces none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncNote {
    /// A process was stuck acquiring a lock nobody was going to release;
    /// the scheduler granted it anyway (with no ordering edge).
    ForcedGrant {
        /// The lock involved.
        lock: LockId,
        /// The process that received the forced grant.
        pid: ProcId,
        /// Who held the lock at that point, if anyone.
        holder: Option<ProcId>,
    },
    /// A barrier episode could never complete (some process was stuck or
    /// finished); the arrived processes were released without an episode.
    ForcedBarrier {
        /// The barrier involved.
        barrier: BarrierId,
        /// How many processes had arrived.
        arrived: usize,
        /// How many were expected.
        expected: usize,
    },
    /// A process released a lock it did not hold.
    BadRelease {
        /// The lock involved.
        lock: LockId,
        /// The releasing process.
        pid: ProcId,
        /// The actual holder, if any.
        holder: Option<ProcId>,
    },
}

impl std::fmt::Display for SyncNote {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncNote::ForcedGrant { lock, pid, holder } => match holder {
                Some(h) => write!(
                    f,
                    "lock {} force-granted to {pid} while held by {h} (missing Release?)",
                    lock.0
                ),
                None => write!(f, "lock {} force-granted to {pid}", lock.0),
            },
            SyncNote::ForcedBarrier {
                barrier,
                arrived,
                expected,
            } => write!(
                f,
                "barrier {} force-released with {arrived}/{expected} arrivals",
                barrier.0
            ),
            SyncNote::BadRelease { lock, pid, holder } => match holder {
                Some(h) => write!(f, "{pid} released lock {} held by {h}", lock.0),
                None => write!(f, "{pid} released lock {} that nobody held", lock.0),
            },
        }
    }
}

/// Where the scheduler's operations come from, and what it tells the
/// source about them. Every `index` is the operation's 0-based position
/// in `pid`'s stream.
pub(crate) trait OpSource {
    /// The operation at `index` of `pid`'s stream, or `None` once the
    /// stream is exhausted.
    fn next_op(&mut self, pid: ProcId, index: u64) -> Option<Op>;

    /// `op` took effect: every operation except an `Acquire` that had to
    /// wait, which is reported by [`OpSource::granted`] instead.
    fn issued(&mut self, _pid: ProcId, _index: u64, _op: Op) {}

    /// `pid`'s waiting `Acquire` of `lock` was granted, at a `Release`
    /// (FIFO) or forced.
    fn granted(&mut self, _pid: ProcId, _index: u64, _lock: LockId) {}

    /// A stuck episode of `barrier` was force-released. `pid` is its first
    /// arrival and `index` the position of that process's next operation.
    fn barrier_forced(&mut self, _pid: ProcId, _index: u64, _barrier: BarrierId) {}
}

/// What a scheduling run reports besides what the source recorded.
pub(crate) struct Schedule {
    /// Forced and invalid transitions, in the order they happened.
    pub(crate) notes: Vec<SyncNote>,
    /// Processes left unfinished when the op budget ran out.
    pub(crate) truncated: Vec<ProcId>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Blocked {
    OnLock(LockId),
    OnBarrier(BarrierId),
}

/// Per-process scheduling state.
struct Proc {
    /// Operations pulled so far (the index of the next one).
    next: u64,
    blocked: Option<Blocked>,
    finished: bool,
}

/// Grows a per-lock or per-barrier table on demand (programs may use ids
/// beyond their declared addresses).
fn slot<T: Default + Clone>(v: &mut Vec<T>, i: usize) -> &mut T {
    if i >= v.len() {
        v.resize(i + 1, T::default());
    }
    &mut v[i]
}

/// Runs `nprocs` processes from `source` to completion (or until `budget`
/// operations have been pulled) under the logical scheduler.
pub(crate) fn run<S: OpSource>(nprocs: usize, source: &mut S, budget: usize) -> Schedule {
    let mut procs: Vec<Proc> = (0..nprocs)
        .map(|_| Proc {
            next: 0,
            blocked: None,
            finished: false,
        })
        .collect();
    let mut holder: Vec<Option<ProcId>> = Vec::new();
    let mut waiters: Vec<VecDeque<ProcId>> = Vec::new();
    let mut arrived: Vec<Vec<ProcId>> = Vec::new();
    let mut notes = Vec::new();
    let mut truncated = Vec::new();
    let mut total = 0usize;

    'run: loop {
        let mut progressed = false;
        for p in 0..nprocs {
            if procs[p].finished || procs[p].blocked.is_some() {
                continue;
            }
            if total >= budget {
                truncated = (0..nprocs)
                    .filter(|&q| !procs[q].finished)
                    .map(ProcId)
                    .collect();
                break 'run;
            }
            let pid = ProcId(p);
            let index = procs[p].next;
            let Some(op) = source.next_op(pid, index) else {
                procs[p].finished = true;
                continue;
            };
            procs[p].next += 1;
            total += 1;
            progressed = true;
            if let Op::Acquire(l) = op {
                let held = slot(&mut holder, l.0).is_some();
                let queued = !slot(&mut waiters, l.0).is_empty();
                if held || queued {
                    // The grant (and its callback) happens at the matching
                    // Release, FIFO.
                    waiters[l.0].push_back(pid);
                    procs[p].blocked = Some(Blocked::OnLock(l));
                    continue;
                }
            }
            source.issued(pid, index, op);
            match op {
                Op::Acquire(l) => holder[l.0] = Some(pid),
                Op::Release(l) => {
                    let held_by = *slot(&mut holder, l.0);
                    if held_by == Some(pid) {
                        let next = slot(&mut waiters, l.0).pop_front();
                        holder[l.0] = next;
                        if let Some(next) = next {
                            procs[next.0].blocked = None;
                            source.granted(next, procs[next.0].next - 1, l);
                        }
                    } else {
                        notes.push(SyncNote::BadRelease {
                            lock: l,
                            pid,
                            holder: held_by,
                        });
                    }
                }
                Op::Barrier(b) => {
                    let here = slot(&mut arrived, b.0);
                    here.push(pid);
                    if here.len() == nprocs {
                        for q in here.drain(..) {
                            procs[q.0].blocked = None;
                        }
                    } else {
                        procs[p].blocked = Some(Blocked::OnBarrier(b));
                    }
                }
                Op::Done => procs[p].finished = true,
                Op::Compute(_) | Op::Read(_) | Op::Write(_) | Op::Rmw(_) | Op::Prefetch { .. } => {}
            }
        }
        if procs.iter().all(|pr| pr.finished) {
            break;
        }
        if progressed {
            continue;
        }
        // Global stall: every unfinished process is blocked. Force the
        // barrier with the most arrivals (lowest id on a tie) first, then
        // the lowest-numbered lock waiter.
        let best_barrier = arrived
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .max_by_key(|(i, v)| (v.len(), usize::MAX - i));
        if let Some((b, _)) = best_barrier {
            let b = BarrierId(b);
            let stuck: Vec<ProcId> = arrived[b.0].drain(..).collect();
            notes.push(SyncNote::ForcedBarrier {
                barrier: b,
                arrived: stuck.len(),
                expected: nprocs,
            });
            source.barrier_forced(stuck[0], procs[stuck[0].0].next, b);
            for q in stuck {
                if procs[q.0].blocked == Some(Blocked::OnBarrier(b)) {
                    procs[q.0].blocked = None;
                }
            }
            continue;
        }
        let stuck_on_lock = (0..nprocs).find_map(|p| match procs[p].blocked {
            Some(Blocked::OnLock(l)) => Some((ProcId(p), l)),
            _ => None,
        });
        let Some((pid, l)) = stuck_on_lock else {
            break; // nothing left to force (unreachable, but never hang)
        };
        notes.push(SyncNote::ForcedGrant {
            lock: l,
            pid,
            holder: holder[l.0],
        });
        holder[l.0] = Some(pid);
        waiters[l.0].retain(|&w| w != pid);
        procs[pid.0].blocked = None;
        source.granted(pid, procs[pid.0].next - 1, l);
    }
    Schedule { notes, truncated }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dashlat_mem::addr::Addr;

    /// A generator that never finishes; counts the ops pulled from it.
    struct Spinner(u64);

    impl OpSource for Spinner {
        fn next_op(&mut self, _pid: ProcId, _index: u64) -> Option<Op> {
            self.0 += 1;
            Some(Op::Read(Addr(0x40)))
        }
    }

    #[test]
    fn op_budget_truncates_instead_of_hanging() {
        let mut spinner = Spinner(0);
        let schedule = run(1, &mut spinner, 100);
        assert_eq!(schedule.truncated, vec![ProcId(0)]);
        assert_eq!(spinner.0, 100);
        assert!(schedule.notes.is_empty());
    }
}

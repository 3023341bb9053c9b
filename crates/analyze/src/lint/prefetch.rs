//! Static prefetch placement lints (all advisory).
//!
//! The paper's software-controlled prefetching hides latency only when a
//! prefetch lands early enough and is actually consumed. Walking each
//! process's stream in program order:
//!
//! * **dead** — no demand access (read/write/rmw) touches the
//!   prefetched line before the next synchronization op. Sync ops bound
//!   the useful lifetime: a prefetched line may be invalidated by
//!   whatever the sync ordered, so a prefetch that does not feed a
//!   demand access in its own sync interval bought nothing.
//! * **late** — the static distance to the first demand access of the
//!   line (Σ compute cycles + 1 issue cycle per intervening op) is
//!   below the configured miss latency: the demand access still stalls
//!   for the remainder.
//! * **duplicate** — the line was already prefetched in this sync
//!   interval with no intervening demand access to it.

use std::collections::HashMap;

use dashlat_cpu::ops::{Op, ProcId};
use dashlat_cpu::trace::Trace;
use dashlat_mem::addr::LineAddr;

use super::report::PrefetchLints;
use super::LintOptions;

/// Witness sites kept per category.
const SITE_CAP: usize = 64;

/// Runs the prefetch pass directly over the extracted streams.
pub fn run(trace: &Trace, opts: &LintOptions) -> PrefetchLints {
    let mut out = PrefetchLints::default();
    for (p, stream) in trace.streams.iter().enumerate() {
        let pid = ProcId(p);
        // Open prefetches in the current sync interval:
        // line -> (issue index, exclusive, cycles accumulated since).
        let mut open: HashMap<LineAddr, (usize, bool, u64)> = HashMap::new();
        for (i, &op) in stream.iter().enumerate() {
            match op {
                Op::Prefetch { addr, exclusive } => {
                    out.total += 1;
                    let line = addr.line();
                    if open.contains_key(&line) && out.duplicate.len() < SITE_CAP {
                        out.duplicate.push((pid, i, line));
                    }
                    open.insert(line, (i, exclusive, 0));
                    bump(&mut open, 1);
                }
                Op::Compute(c) => bump(&mut open, c.max(1)),
                Op::Read(a) | Op::Write(a) | Op::Rmw(a) => {
                    let line = a.line();
                    if let Some((at, exclusive, dist)) = open.remove(&line) {
                        let needed = if exclusive || !matches!(op, Op::Read(_)) {
                            opts.write_miss_cycles
                        } else {
                            opts.read_miss_cycles
                        };
                        if dist < needed && out.late.len() < SITE_CAP {
                            out.late.push(((pid, at, line), dist, needed));
                        }
                    }
                    bump(&mut open, 1);
                }
                Op::Acquire(_) | Op::Release(_) | Op::Barrier(_) | Op::Done => {
                    // Interval ends: whatever is still open never fed a
                    // demand access.
                    let mut stale: Vec<(usize, LineAddr)> =
                        open.drain().map(|(l, (at, _, _))| (at, l)).collect();
                    stale.sort_unstable();
                    for (at, l) in stale {
                        if out.dead.len() < SITE_CAP {
                            out.dead.push((pid, at, l));
                        }
                    }
                }
            }
        }
    }
    out
}

fn bump(open: &mut HashMap<LineAddr, (usize, bool, u64)>, cycles: u64) {
    for (_, _, d) in open.values_mut() {
        *d += cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dashlat_cpu::ops::{LockId, SyncConfig};
    use dashlat_mem::addr::Addr;

    fn lints(stream: Vec<Op>) -> PrefetchLints {
        let trace = Trace {
            streams: vec![stream],
            sync: SyncConfig {
                lock_addrs: vec![Addr(0x1000)],
                barrier_addrs: Vec::new(),
                labeled_ranges: Vec::new(),
            },
            page_homes: None,
        };
        run(
            &trace,
            &LintOptions {
                read_miss_cycles: 90,
                write_miss_cycles: 82,
            },
        )
    }

    fn pf(a: u64) -> Op {
        Op::Prefetch {
            addr: Addr(a),
            exclusive: false,
        }
    }

    #[test]
    fn timely_prefetch_is_clean() {
        let f = lints(vec![
            pf(0x40),
            Op::Compute(200),
            Op::Read(Addr(0x40)),
            Op::Done,
        ]);
        assert_eq!(f.total, 1);
        assert!(f.dead.is_empty() && f.late.is_empty() && f.duplicate.is_empty());
    }

    #[test]
    fn late_prefetch_reports_distance() {
        let f = lints(vec![
            pf(0x40),
            Op::Compute(10),
            Op::Read(Addr(0x40)),
            Op::Done,
        ]);
        assert_eq!(f.late.len(), 1);
        let ((_, at, _), dist, needed) = f.late[0];
        assert_eq!(at, 0);
        assert_eq!(dist, 11); // 1 issue cycle + 10 compute
        assert_eq!(needed, 90);
    }

    #[test]
    fn sync_kills_open_prefetch() {
        let f = lints(vec![
            pf(0x40),
            Op::Compute(200),
            Op::Acquire(LockId(0)),
            Op::Read(Addr(0x40)),
            Op::Release(LockId(0)),
            Op::Done,
        ]);
        assert_eq!(f.dead.len(), 1, "{f:?}");
    }

    #[test]
    fn duplicate_prefetch_flagged_but_access_between_resets() {
        let f = lints(vec![
            pf(0x40),
            pf(0x40),
            Op::Compute(200),
            Op::Read(Addr(0x40)),
            pf(0x40),
            Op::Compute(200),
            Op::Read(Addr(0x40)),
            Op::Done,
        ]);
        assert_eq!(f.duplicate.len(), 1);
        assert_eq!(f.total, 3);
    }

    #[test]
    fn exclusive_prefetch_uses_write_threshold() {
        let f = lints(vec![
            Op::Prefetch {
                addr: Addr(0x40),
                exclusive: true,
            },
            Op::Compute(85),
            Op::Write(Addr(0x40)),
            Op::Done,
        ]);
        // 86 cycles covered >= 82 write-miss threshold: not late.
        assert!(f.late.is_empty(), "{f:?}");
    }

    #[test]
    fn same_line_different_byte_still_matches() {
        let f = lints(vec![
            pf(0x40),
            Op::Compute(200),
            Op::Read(Addr(0x48)),
            Op::Done,
        ]);
        assert!(f.dead.is_empty());
    }
}

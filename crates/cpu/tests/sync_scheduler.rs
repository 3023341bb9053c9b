//! Program extraction and trace replay share one logical scheduler.
//!
//! Extracting a scripted program and replaying the extracted trace must
//! make the same scheduling decisions — the same forced grants, forced
//! barriers and bad releases, in the same order — and the replayed events
//! must account for every operation of the extracted streams. Programs
//! are random op mixes, so dropped releases, releases of unheld locks,
//! self-deadlocks and diverged barriers all occur.

use dashlat_cpu::events::{events_from_trace, EventKind, EventLog};
use dashlat_cpu::extract::{extract_program, Extraction};
use dashlat_cpu::ops::{BarrierId, LockId, Op};
use dashlat_cpu::script::ScriptWorkload;
use dashlat_cpu::SyncNote;
use dashlat_mem::addr::Addr;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn op((kind, id, slot): (u8, usize, u64)) -> Op {
    let addr = Addr(0x40 + slot * 0x10);
    match kind {
        0 | 1 => Op::Compute(1 + slot),
        2 => Op::Read(addr),
        3 => Op::Write(addr),
        4 => Op::Rmw(addr),
        5 => Op::Prefetch {
            addr,
            exclusive: id == 1,
        },
        6 | 7 => Op::Acquire(LockId(id)),
        8 => Op::Release(LockId(id)),
        _ => Op::Barrier(BarrierId(id)),
    }
}

fn program() -> impl Strategy<Value = Vec<Vec<Op>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u8..10, 0usize..2, 0u64..4), 0..12),
        1..5,
    )
    .prop_map(|procs| {
        procs
            .into_iter()
            .map(|ops| ops.into_iter().map(op).chain([Op::Done]).collect())
            .collect()
    })
}

fn extract(streams: Vec<Vec<Op>>) -> Extraction {
    let w = ScriptWorkload::new(streams)
        .with_locks(vec![Addr(0x1000), Addr(0x1010)])
        .with_barriers(vec![Addr(0x2000), Addr(0x2010)]);
    extract_program(&w).expect("scripted workloads fork")
}

/// Checks that `log` replays `ext`'s trace: the same notes, and per
/// process one event for each non-`Compute` op, in program order, of the
/// matching kind (forced-barrier markers aside). Returns a failure
/// message, if any.
fn check_replay(ext: &Extraction, log: &EventLog) -> Result<(), String> {
    if log.notes != ext.notes {
        return Err(format!(
            "notes differ: extraction {:?}, replay {:?}",
            ext.notes, log.notes
        ));
    }
    for (i, e) in log.events.iter().enumerate() {
        if e.cycle.as_u64() != i as u64 {
            return Err(format!("event {i} stamped {:?}", e.cycle));
        }
    }
    for (p, stream) in ext.trace.streams.iter().enumerate() {
        let events: Vec<(u64, EventKind)> = log
            .events
            .iter()
            .filter(|e| e.pid.0 == p && !matches!(e.kind, EventKind::BarrierForced(_)))
            .map(|e| (e.op_index, e.kind))
            .collect();
        let expected: Vec<(u64, EventKind)> = stream
            .iter()
            .enumerate()
            .filter_map(|(i, &op)| {
                let kind = match op {
                    Op::Compute(_) => return None,
                    Op::Read(a) => EventKind::Read(a),
                    Op::Write(a) | Op::Rmw(a) => EventKind::Write(a),
                    Op::Prefetch { addr, exclusive } => EventKind::Prefetch { addr, exclusive },
                    Op::Acquire(l) => EventKind::Acquire(l),
                    Op::Release(l) => EventKind::Release(l),
                    Op::Barrier(b) => EventKind::BarrierArrive(b),
                    Op::Done => EventKind::Done,
                };
                Some((i as u64, kind))
            })
            .collect();
        if events != expected {
            return Err(format!(
                "P{p}: events {events:?} do not cover stream {stream:?}"
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Replaying an extracted program reproduces the extraction's
    /// scheduling decisions and accounts for every op it extracted.
    #[test]
    fn replay_of_an_extraction_makes_the_same_decisions(streams in program()) {
        let ext = extract(streams.clone());
        prop_assert!(ext.truncated.is_empty());
        prop_assert_eq!(&ext.trace.streams, &streams);
        let log = events_from_trace(&ext.trace);
        check_replay(&ext, &log).map_err(TestCaseError::fail)?;
    }
}

#[test]
fn every_note_kind_agrees_between_extraction_and_replay() {
    // P0 keeps lock 0 and waits at a barrier P1 never reaches; P1
    // releases a lock nobody holds, then waits on lock 0 forever.
    let ext = extract(vec![
        vec![Op::Acquire(LockId(0)), Op::Barrier(BarrierId(0)), Op::Done],
        vec![Op::Release(LockId(1)), Op::Acquire(LockId(0)), Op::Done],
    ]);
    assert!(matches!(
        ext.notes.as_slice(),
        [
            SyncNote::BadRelease { holder: None, .. },
            SyncNote::ForcedBarrier { arrived: 1, .. },
            SyncNote::ForcedGrant {
                holder: Some(_),
                ..
            },
        ]
    ));
    check_replay(&ext, &events_from_trace(&ext.trace)).unwrap();
}

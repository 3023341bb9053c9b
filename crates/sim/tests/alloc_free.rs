//! Steady-state dispatch must not allocate.
//!
//! The calendar wheel's buckets are pre-sized from [`QueueHints`] and the
//! batch-drain path recycles the drained bucket's allocation (the scratch
//! vector and the bucket swap storage back and forth), so once the queue
//! has warmed up — every touched bucket grown to its working capacity,
//! the overflow heap at its high-water mark — a schedule/drain cycle is
//! pure pointer work. This test proves it with a counting global
//! allocator: after a warm-up phase, thousands of schedule/drain rounds
//! perform **zero** heap allocations.
//!
//! The guarantee matters because the dispatch loop runs tens of millions
//! of times per simulated second; an accidental allocation (a bucket
//! rebuilt instead of recycled, a scratch vector dropped instead of
//! reused) is invisible in unit tests but dominates a profile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dashlat_sim::{Cycle, EventQueue, QueueHints};

/// Counts every allocation (and every growing reallocation) made through
/// the global allocator by a thread while it is armed. Frees are not
/// counted: recycling is allowed to *return* memory, it just must not
/// *acquire* any.
///
/// The flag and the count are per thread, so the test harness's threads
/// and a concurrently running test cannot add to a measurement. Both are
/// const-initialised `Cell`s without destructors: touching them from
/// inside the allocator never allocates.
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    if ARMED.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            count_allocation();
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many allocations this thread made during it.
fn allocations_during(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCATIONS.with(Cell::get)
}

/// One simulated workload round: a handful of events in the current
/// cycle, follow-ups one and two cycles out, and an occasional
/// far-future event that must take the overflow-heap path. Mirrors the
/// machine's shape: same-cycle fan-in bounded by the "process count",
/// short reschedules dominating, far-future events rare. Each round
/// drains the queue dry, so populations (bucket occupancy, heap size)
/// are bounded by the round's own fan-out and the workload really is
/// steady-state round over round. Event values are always non-zero,
/// which guarantees the `ev / 5` reschedule chains terminate.
fn round(q: &mut EventQueue<u64>, batch: &mut Vec<u64>, r: u64) {
    for i in 0..6 {
        q.schedule(q.now() + Cycle(i % 3), r * 64 + i + 1);
    }
    if r.is_multiple_of(7) {
        // Beyond the wheel window: exercises the overflow heap.
        q.schedule(q.now() + Cycle(5000), r + 1);
    }
    while let Some(_t) = q.drain_next_into(batch) {
        for &ev in batch.iter() {
            // `ev` is never 0, so the chain ev -> ev/5 strictly shrinks
            // and the drain terminates.
            if ev % 5 == 0 {
                let at = q.now() + Cycle(1 + ev % 2);
                q.schedule(at, ev / 5);
            }
        }
        batch.clear();
    }
}

#[test]
fn steady_state_dispatch_is_allocation_free() {
    let mut q: EventQueue<u64> = EventQueue::with_hints(QueueHints {
        bucket_capacity: 16,
        overflow_capacity: 64,
    });
    let mut batch: Vec<u64> = Vec::with_capacity(64);

    // Warm-up: run enough rounds that every touched bucket has grown to
    // its working size and the overflow heap has hit its high-water mark.
    for r in 0..200 {
        round(&mut q, &mut batch, r);
    }
    // Drain whatever warm-up left behind so measurement starts clean.
    while q.drain_next_into(&mut batch).is_some() {
        batch.clear();
    }

    let during = allocations_during(|| {
        for r in 200..2200 {
            round(&mut q, &mut batch, r);
        }
    });
    assert_eq!(
        during, 0,
        "steady-state schedule/drain performed {during} allocation(s); \
         a bucket or scratch buffer is being rebuilt instead of recycled"
    );
}

#[test]
fn pre_sizing_makes_even_the_first_cycles_allocation_free() {
    // With honest hints, not even the *first* events allocate: buckets
    // and the heap are pre-sized at construction.
    let mut q: EventQueue<u64> = EventQueue::with_hints(QueueHints {
        bucket_capacity: 8,
        overflow_capacity: 8,
    });
    let mut batch: Vec<u64> = Vec::with_capacity(8);
    let during = allocations_during(|| {
        for i in 0..8 {
            q.schedule(Cycle(i % 4), i);
        }
        while q.drain_next_into(&mut batch).is_some() {
            batch.clear();
        }
    });
    assert_eq!(
        during, 0,
        "pre-sized queue allocated {during} time(s) within its hinted capacity"
    );
}

//! Allocation-regression guard for the steady-state simulation loop.
//!
//! The raw-speed work (SoA lease/cache tables, reused scratch buffers)
//! got the per-event heap-allocation count to zero; this test keeps it
//! there. A counting `#[global_allocator]` measures the allocations of
//! a short replay and a 4x-longer replay over the *same universe*:
//! table growth and track vectors scale with the universe (and are
//! amortized doubling), so the difference between the two runs must
//! stay far below the difference in event counts. One allocation per
//! event would blow the bound by an order of magnitude.
//!
//! This lives in its own integration-test binary because a global
//! allocator is process-wide, and holds a single `#[test]` so the
//! harness cannot interleave counts from concurrent tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use vl_bench::secs;
use vl_core::{ProtocolKind, SimulationBuilder};
use vl_workload::{Trace, TraceGenerator, WorkloadConfig};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers to `System` for every operation; the counter is a
// plain relaxed atomic with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let value = f();
    (value, ALLOC_CALLS.load(Ordering::Relaxed) - before)
}

fn kinds() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::Poll {
            timeout: secs(1_000),
        },
        ProtocolKind::Callback,
        ProtocolKind::Lease {
            timeout: secs(1_000),
        },
        ProtocolKind::VolumeLease {
            volume_timeout: secs(10),
            object_timeout: secs(1_000),
        },
        ProtocolKind::DelayedInvalidation {
            volume_timeout: secs(10),
            object_timeout: secs(1_000),
            inactive_discard: secs(3_600),
        },
    ]
}

fn trace_with_reads(target_reads: u64) -> Trace {
    let mut cfg = WorkloadConfig::smoke();
    cfg.target_reads = target_reads;
    TraceGenerator::new(cfg).generate()
}

#[test]
fn sim_loop_makes_zero_per_event_allocations() {
    // Same clients/servers/objects — only the event count differs, so
    // every universe-proportional allocation appears in both runs.
    let short = trace_with_reads(2_000);
    let long = trace_with_reads(8_000);

    for kind in kinds() {
        let (short_report, short_allocs) =
            allocs_during(|| SimulationBuilder::new(kind).run(&short));
        let (long_report, long_allocs) = allocs_during(|| SimulationBuilder::new(kind).run(&long));

        let extra_events = long_report
            .events_processed
            .saturating_sub(short_report.events_processed);
        assert!(
            extra_events > 4_000,
            "{kind:?}: the long trace must replay substantially more events \
             (short {}, long {})",
            short_report.events_processed,
            long_report.events_processed
        );

        // Amortized growth (doubling tables, scratch buffers
        // reaching steady capacity) is allowed; anything close
        // to one allocation per extra event is a regression.
        let extra_allocs = long_allocs.saturating_sub(short_allocs);
        let budget = extra_events / 8;
        assert!(
            extra_allocs < budget,
            "{kind:?}: {extra_allocs} extra allocations for {extra_events} extra events \
             (budget {budget}) — the steady-state loop is allocating per event"
        );
    }
}

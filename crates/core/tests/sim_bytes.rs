//! What the trace-driven simulator keeps in memory.
//!
//! Every figure replays a trace through one protocol's server and client
//! state (§4.1); the heap the replay needs is the trace's events plus the
//! protocol's tables. This binary counts it: the bytes a generated trace
//! keeps per event, the peak of a `Delay(t_v, t, ∞)` run next to a
//! `Volume(t_v, t)` run on the same trace, and what a cache slot costs
//! when no protocol reads its validation stamp. It holds one test, so
//! nothing else allocates beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use vl_core::{ClientCaches, ProtocolKind, SimulationBuilder};
use vl_types::{ClientId, Duration, Version};
use vl_workload::{Op, Trace, TraceEvent, TraceGenerator, WorkloadConfig};

/// The system allocator, counting the bytes it has handed out and not
/// been given back, and the most that ever were at once.
struct Counting;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

fn grew(by: i64) {
    let live = LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller was promised; the counters are
// statistics and publish nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as i64);
        // SAFETY: the caller's `layout`, as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size as i64 - layout.size() as i64);
        // SAFETY: as `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Heap at its highest above the bytes live on entry while `f` runs.
fn peak_above<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let before = live_bytes();
    PEAK_BYTES.store(before, Ordering::Relaxed);
    let r = f();
    (r, PEAK_BYTES.load(Ordering::Relaxed) - before)
}

/// Heap a generated smoke trace keeps per event, its universe's share
/// included: the 16-byte event and the vector's slack. A vector that
/// regrew past its events would read 30 or more.
const TRACE_BOUND: f64 = 23.0;
/// How far above `Volume(10 s, t)`'s peak heap `Delay(10 s, t, ∞)`'s may
/// go on the same trace, at `t = 10⁵ s`.
const DELAY_OVER_VOLUME_BOUND: f64 = 0.10;
/// Heap a Lease run's caches keep per slot: an 8-byte key, a 4-byte
/// volume and an 8-byte version, plus each client's table header. A
/// validation stamp would add 8.
const CACHE_SLOT_BOUND: f64 = 22.0;

fn smoke() -> Trace {
    TraceGenerator::new(WorkloadConfig::smoke()).generate()
}

fn trace_bytes_per_event() -> f64 {
    let before = live_bytes();
    let trace = smoke();
    let kept = live_bytes() - before;
    kept as f64 / trace.events().len() as f64
}

/// `Delay(10 s, t, ∞)`'s peak heap over `Volume(10 s, t)`'s, less one.
fn delay_over_volume(trace: &Trace) -> f64 {
    let (volume_timeout, object_timeout) = (Duration::from_secs(10), Duration::from_secs(100_000));
    let (volume, volume_peak) = peak_above(|| {
        SimulationBuilder::new(ProtocolKind::VolumeLease {
            volume_timeout,
            object_timeout,
        })
        .run(trace)
    });
    let (delay, delay_peak) = peak_above(|| {
        SimulationBuilder::new(ProtocolKind::DelayedInvalidation {
            volume_timeout,
            object_timeout,
            inactive_discard: Duration::MAX,
        })
        .run(trace)
    });
    assert_eq!(volume.summary.stale_reads + delay.summary.stale_reads, 0);
    println!("peak heap: Volume {volume_peak} B, Delay(∞) {delay_peak} B");
    delay_peak as f64 / volume_peak as f64 - 1.0
}

/// Heap per slot of the caches a Lease run fills on the smoke trace:
/// each read refreshes the reader's copy, each write drops every
/// client's copy of its object.
fn lease_cache_bytes_per_slot(trace: &Trace) -> f64 {
    let universe = trace.universe();
    let before = live_bytes();
    let mut caches = ClientCaches::new();
    for e in trace.events() {
        let (object, volume) = (e.object(), universe.volume_of(e.object()));
        match e.op() {
            Op::Read { client, .. } => caches.put(client, object, volume, Version::FIRST),
            Op::Write { .. } => {
                for c in 0..WorkloadConfig::smoke().clients {
                    caches.drop_copy(ClientId(c), object, volume);
                }
            }
        }
    }
    let kept = live_bytes() - before;
    kept as f64 / caches.slots() as f64
}

#[test]
fn the_simulator_keeps_only_what_it_reads() {
    assert_eq!(std::mem::size_of::<TraceEvent>(), 16);
    let per_event = trace_bytes_per_event();
    let trace = smoke();
    let delay_over = delay_over_volume(&trace);
    let per_slot = lease_cache_bytes_per_slot(&trace);
    println!(
        "trace: {per_event:.1} B per event; Delay(∞) peak {:+.1} % of Volume's; \
         Lease cache: {per_slot:.2} B per slot",
        delay_over * 100.0
    );
    assert!(
        per_event <= TRACE_BOUND,
        "a generated trace keeps {per_event:.1} B per event (bound {TRACE_BOUND})"
    );
    assert!(
        delay_over <= DELAY_OVER_VOLUME_BOUND,
        "Delay(10 s, 10⁵ s, ∞) peaks {:.1} % above Volume(10 s, 10⁵ s) (bound {:.0} %)",
        delay_over * 100.0,
        DELAY_OVER_VOLUME_BOUND * 100.0
    );
    assert!(
        per_slot <= CACHE_SLOT_BOUND,
        "a Lease run's cache keeps {per_slot:.2} B per slot (bound {CACHE_SLOT_BOUND})"
    );
}

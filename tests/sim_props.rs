//! Randomized (seeded, deterministic) tests over random small traces:
//! the invariants the paper's algorithms promise, checked on arbitrary
//! interleavings of reads and writes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vl_core::{ProtocolKind, SimulationBuilder};
use vl_types::{ClientId, Duration, ObjectId, ServerId, Timestamp};
use vl_workload::{Trace, TraceEvent, UniverseBuilder};

/// A compact generated workload: topology sizes plus event list.
#[derive(Clone, Debug)]
struct RandomTrace {
    volumes: u32,
    objects_per_volume: u64,
    events: Vec<TraceEvent>,
}

fn arb_trace(rng: &mut StdRng) -> RandomTrace {
    let volumes = rng.gen_range(2u32..5);
    let objects_per_volume = rng.gen_range(1u64..4);
    let n_objects = u64::from(volumes) * objects_per_volume;
    let mut events: Vec<TraceEvent> = (0..rng.gen_range(1usize..200))
        .map(|_| {
            let at = Timestamp::from_millis(rng.gen_range(0u64..50_000) * 100);
            let object = ObjectId(rng.gen_range(0..n_objects));
            if rng.gen_bool(0.5) {
                TraceEvent::read(at, ClientId(rng.gen_range(0u32..4)), object)
            } else {
                TraceEvent::write(at, object)
            }
        })
        .collect();
    events.sort_by_key(|e| e.at());
    RandomTrace {
        volumes,
        objects_per_volume,
        events,
    }
}

fn build(rt: &RandomTrace) -> Trace {
    let mut b = UniverseBuilder::new();
    for v in 0..rt.volumes {
        let vol = b.add_volume(ServerId(v));
        for _ in 0..rt.objects_per_volume {
            b.add_object(vol, 500);
        }
    }
    Trace::new(b.build(), rt.events.clone())
}

fn strong_kinds() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::PollEachRead,
        ProtocolKind::Callback,
        ProtocolKind::Lease {
            timeout: Duration::from_secs(120),
        },
        ProtocolKind::WaitingLease {
            timeout: Duration::from_secs(120),
        },
        ProtocolKind::VolumeLease {
            volume_timeout: Duration::from_secs(15),
            object_timeout: Duration::from_secs(500),
        },
        ProtocolKind::DelayedInvalidation {
            volume_timeout: Duration::from_secs(15),
            object_timeout: Duration::from_secs(500),
            inactive_discard: Duration::MAX,
        },
        ProtocolKind::DelayedInvalidation {
            volume_timeout: Duration::from_secs(15),
            object_timeout: Duration::from_secs(500),
            inactive_discard: Duration::from_secs(60),
        },
    ]
}

/// No strongly consistent algorithm ever serves a stale read, on any
/// interleaving of reads and writes. (The engine also asserts this
/// internally; the randomized test drives it across random traces.)
#[test]
fn strong_protocols_never_stale() {
    let mut rng = StdRng::seed_from_u64(0x57a1e);
    for case in 0..64 {
        let trace = build(&arb_trace(&mut rng));
        for kind in strong_kinds() {
            let report = SimulationBuilder::new(kind).run(&trace);
            assert_eq!(report.summary.stale_reads, 0, "case {case}: {kind}");
            assert_eq!(report.summary.reads, trace.read_count(), "case {case}");
        }
    }
}

/// Delayed invalidations never send more messages than basic volume
/// leases at identical parameters (§3.2's construction: messages are
/// only removed, deferred, or batched).
#[test]
fn delay_never_beats_volume_on_messages() {
    let mut rng = StdRng::seed_from_u64(0xde1a);
    for case in 0..64 {
        let trace = build(&arb_trace(&mut rng));
        let tv = Duration::from_secs(15);
        let t = Duration::from_secs(500);
        let volume = SimulationBuilder::new(ProtocolKind::VolumeLease {
            volume_timeout: tv,
            object_timeout: t,
        })
        .run(&trace);
        let delay = SimulationBuilder::new(ProtocolKind::DelayedInvalidation {
            volume_timeout: tv,
            object_timeout: t,
            inactive_discard: Duration::MAX,
        })
        .run(&trace);
        assert!(
            delay.summary.messages <= volume.summary.messages,
            "case {case}"
        );
    }
}

/// Simulations are pure functions of the trace.
#[test]
fn simulation_is_deterministic() {
    let mut rng = StdRng::seed_from_u64(0xd37);
    for case in 0..64 {
        let trace = build(&arb_trace(&mut rng));
        let kind = ProtocolKind::DelayedInvalidation {
            volume_timeout: Duration::from_secs(15),
            object_timeout: Duration::from_secs(500),
            inactive_discard: Duration::from_secs(60),
        };
        let a = SimulationBuilder::new(kind).run(&trace);
        let b = SimulationBuilder::new(kind).run(&trace);
        assert_eq!(a.summary, b.summary, "case {case}");
        assert_eq!(
            a.metrics.total_bytes(),
            b.metrics.total_bytes(),
            "case {case}"
        );
    }
}

/// Poll(0) is PollEachRead (the paper's degenerate case), and
/// Poll's staleness is bounded: stale reads only happen within the
/// trust window after a write.
#[test]
fn poll_degenerates_and_bounds() {
    let mut rng = StdRng::seed_from_u64(0x9011);
    for case in 0..64 {
        let trace = build(&arb_trace(&mut rng));
        let per = SimulationBuilder::new(ProtocolKind::PollEachRead).run(&trace);
        let p0 = SimulationBuilder::new(ProtocolKind::Poll {
            timeout: Duration::ZERO,
        })
        .run(&trace);
        assert_eq!(per.summary.messages, p0.summary.messages, "case {case}");
        assert_eq!(p0.summary.stale_reads, 0, "case {case}");
    }
}

/// Waiting leases never send more messages than invalidating leases
/// at equal t (they only remove invalidation traffic), and they are
/// the only strong algorithm whose writes block without failures.
#[test]
fn waiting_lease_only_removes_messages() {
    let mut rng = StdRng::seed_from_u64(0x1417);
    for case in 0..64 {
        let trace = build(&arb_trace(&mut rng));
        let t = Duration::from_secs(120);
        let lease = SimulationBuilder::new(ProtocolKind::Lease { timeout: t }).run(&trace);
        let wait = SimulationBuilder::new(ProtocolKind::WaitingLease { timeout: t }).run(&trace);
        assert!(
            wait.summary.messages <= lease.summary.messages,
            "case {case}"
        );
        assert_eq!(lease.summary.max_write_delay_secs, 0.0, "case {case}");
        assert!(
            wait.summary.max_write_delay_secs <= t.as_secs_f64(),
            "case {case}"
        );
    }
}

/// Lease(∞-ish) has the same steady-state message behaviour as
/// Callback: with leases outlasting the trace nothing ever expires.
#[test]
fn infinite_lease_is_callback() {
    let mut rng = StdRng::seed_from_u64(0x1ca);
    for case in 0..64 {
        let trace = build(&arb_trace(&mut rng));
        let lease = SimulationBuilder::new(ProtocolKind::Lease {
            timeout: Duration::from_secs(1_000_000_000),
        })
        .run(&trace);
        let callback = SimulationBuilder::new(ProtocolKind::Callback).run(&trace);
        assert_eq!(
            lease.summary.messages, callback.summary.messages,
            "case {case}"
        );
    }
}

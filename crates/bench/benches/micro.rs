//! Microbenchmarks for the hot-path data structures and the dense
//! per-event protocol state (`Poll::on_read`, `DelayedInvalidation::on_read`).

use vl_bench::stopwatch::{bench_fn, black_box};
use vl_core::{Ctx, DelayedInvalidation, LeaseTrack, Poll, Protocol, VolumeLeaseTable};
use vl_metrics::Metrics;
use vl_types::{ClientId, Duration, LeaseSet, ObjectId, ServerId, Timestamp, Version, VolumeId};
use vl_workload::dist::Zipf;
use vl_workload::{Universe, UniverseBuilder};

/// A small dense universe: 4 servers × 4 volumes × 16 objects.
fn dense_universe() -> Universe {
    let mut b = UniverseBuilder::new();
    for s in 0..4u32 {
        for _ in 0..4 {
            let v = b.add_volume(ServerId(s));
            for _ in 0..16 {
                b.add_object(v, 1_000);
            }
        }
    }
    b.build()
}

/// A deterministic dense read stream: every (client, object) pair in a
/// strided order, with timestamps advancing one second per event. This
/// exercises slot growth, the hit path, and the renewal path.
fn dense_reads(clients: u32, objects: u64, events: usize) -> Vec<(Timestamp, ClientId, ObjectId)> {
    (0..events)
        .map(|i| {
            let i = i as u32;
            (
                Timestamp::from_secs(u64::from(i)),
                ClientId(i * 7 % clients),
                ObjectId(u64::from(i) * 13 % objects),
            )
        })
        .collect()
}

fn main() {
    let now = Timestamp::from_secs(100);
    bench_fn("micro/lease_set_grant_check_revoke", 20, || {
        let mut set = LeaseSet::new();
        for i in 0..64u32 {
            set.grant(ClientId(i), now + Duration::from_secs(u64::from(i)));
        }
        let valid = set.valid_count(now + Duration::from_secs(32));
        for i in 0..64u32 {
            set.revoke(ClientId(i));
        }
        black_box(valid)
    });

    bench_fn("micro/zipf_sample_68k_ranks_x1000", 20, || {
        use rand::SeedableRng;
        let zipf = Zipf::new(68_665, 0.986);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut sum = 0usize;
        for _ in 0..1000 {
            sum += zipf.sample(&mut rng);
        }
        black_box(sum)
    });

    bench_fn("micro/event_queue_schedule_pop_1k", 20, || {
        use vl_sim::EventQueue;
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.schedule(Timestamp::from_millis(i * 7919 % 1000), i);
        }
        let mut sum = 0u64;
        while let Some((_, e)) = q.pop() {
            sum += e;
        }
        black_box(sum)
    });

    // The queue at depth: a million pending events scattered over ~70
    // simulated minutes, then drained back in timestamp order.
    bench_fn("micro/event_queue_schedule_pop_1m_pending", 5, || {
        use vl_sim::EventQueue;
        let mut q = EventQueue::new();
        for i in 0..1_000_000u64 {
            q.schedule(
                Timestamp::from_millis(i.wrapping_mul(2_654_435_761) % (1 << 22)),
                i,
            );
        }
        let mut sum = 0u64;
        while let Some((_, e)) = q.pop() {
            sum += e;
        }
        black_box(sum)
    });

    // The volume-lease probe both ways: the sorted-array LeaseTrack
    // (spilled to its heap vector by the 33-client holder set, binary
    // searched per probe) against the dense SoA VolumeLeaseTable
    // (multiply + load). Same grants, same probe stream, ~half the
    // probes landing on valid leases so the branch is unpredictable.
    let probe_now = Timestamp::from_secs(50);
    let mut setup_metrics = Metrics::new();
    let mut tracks: Vec<LeaseTrack> = (0..16).map(|_| LeaseTrack::new(ServerId(0))).collect();
    let mut table = VolumeLeaseTable::new(vec![ServerId(0); 16]);
    for c in 0..33u32 {
        for v in 0..16u32 {
            let exp = Timestamp::from_secs(40 + u64::from((c * 7 + v) % 30));
            tracks[v as usize].grant(ClientId(c), Timestamp::ZERO, exp, &mut setup_metrics);
            table.grant(
                ClientId(c),
                VolumeId(v),
                Timestamp::ZERO,
                exp,
                &mut setup_metrics,
            );
        }
    }
    bench_fn("micro/volume_lease_track_reads_64k", 20, || {
        let mut hits = 0u32;
        for i in 0..65_536u32 {
            let c = ClientId(i * 7 % 33);
            let v = (i * 13 % 16) as usize;
            hits += u32::from(tracks[v].is_valid(c, probe_now));
        }
        black_box(hits)
    });
    bench_fn("micro/volume_lease_table_reads_64k", 20, || {
        let mut hits = 0u32;
        for i in 0..65_536u32 {
            let c = ClientId(i * 7 % 33);
            let v = VolumeId(i * 13 % 16);
            hits += u32::from(table.is_valid(c, v, probe_now));
        }
        black_box(hits)
    });

    // The dense-state hot paths: drive on_read directly, no engine.
    let universe = dense_universe();
    let objects = universe.objects().len() as u64;
    let versions = vec![Version::FIRST; objects as usize];
    let reads = dense_reads(32, objects, 4_096);

    bench_fn("micro/poll_on_read_dense_4k_events", 20, || {
        let mut proto = Poll::new(Duration::from_secs(50), &universe);
        let mut metrics = Metrics::new();
        let mut ctx = Ctx {
            universe: &universe,
            versions: &versions,
            metrics: &mut metrics,
        };
        for &(at, client, object) in &reads {
            proto.on_read(at, client, object, &mut ctx);
        }
        black_box(metrics.total_messages())
    });

    bench_fn("micro/delay_on_read_dense_4k_events", 20, || {
        let mut proto = DelayedInvalidation::new(
            Duration::from_secs(10),
            Duration::from_secs(100_000),
            Duration::MAX,
            &universe,
        );
        let mut metrics = Metrics::new();
        let mut ctx = Ctx {
            universe: &universe,
            versions: &versions,
            metrics: &mut metrics,
        };
        for &(at, client, object) in &reads {
            proto.on_read(at, client, object, &mut ctx);
        }
        black_box(metrics.total_messages())
    });
}

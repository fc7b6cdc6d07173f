//! Randomized (seeded, deterministic) tests for the trace generator and
//! write model: structural invariants under randomized configurations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vl_workload::{TraceGenerator, WorkloadConfig};

fn arb_config(rng: &mut StdRng) -> WorkloadConfig {
    WorkloadConfig {
        seed: rng.gen(),
        clients: rng.gen_range(1u32..6),
        servers: rng.gen_range(1u32..12),
        volumes_per_server: rng.gen_range(1u32..4),
        objects: rng.gen_range(1u64..400),
        target_reads: rng.gen_range(10u64..2_000),
        days: 2.0,
        server_zipf_theta: rng.gen_range(0.0..1.4),
        revisit_prob: rng.gen_range(0.0..1.0),
        ..WorkloadConfig::smoke()
    }
}

/// Every generated trace is structurally sound: time-ordered events,
/// all object references valid, counts self-consistent, every volume
/// non-empty, span within the configured days.
#[test]
fn generated_traces_are_well_formed() {
    let mut rng = StdRng::seed_from_u64(0x9e4);
    for case in 0..48 {
        let cfg = arb_config(&mut rng);
        let trace = TraceGenerator::new(cfg.clone()).generate();
        let u = trace.universe();
        assert_eq!(u.object_count() as u64, cfg.objects, "case {case}");
        assert_eq!(
            u.volume_count() as u64,
            u64::from(cfg.servers) * u64::from(cfg.volumes_per_server),
            "case {case}"
        );
        assert!(
            trace.events().windows(2).all(|w| w[0].at() <= w[1].at()),
            "case {case}"
        );
        for e in trace.events() {
            assert!(
                (e.object().raw() as usize) < u.object_count(),
                "case {case}"
            );
        }
        assert_eq!(
            trace.read_count() + trace.write_count(),
            trace.events().len() as u64,
            "case {case}"
        );
        // Every volume is seeded whenever objects suffice; with scarcer
        // objects, empty shards are legal and the generator skips them.
        if cfg.objects >= u64::from(cfg.servers) * u64::from(cfg.volumes_per_server) {
            for v in u.volumes() {
                assert!(!v.objects.is_empty(), "case {case}: volume {} empty", v.id);
            }
        }
        assert!(
            trace.span().as_secs_f64() <= cfg.days * 86_400.0 + 1.0,
            "case {case}"
        );
    }
}

/// Generation is a pure function of the config.
#[test]
fn generation_is_deterministic() {
    let mut rng = StdRng::seed_from_u64(0xde7);
    for _ in 0..16 {
        let cfg = arb_config(&mut rng);
        let a = TraceGenerator::new(cfg.clone()).generate();
        let b = TraceGenerator::new(cfg).generate();
        assert_eq!(a.events(), b.events());
    }
}

/// Resharding preserves everything except the volume partition, and
/// the resharded trace is still well-formed.
#[test]
fn reshard_preserves_structure() {
    let mut rng = StdRng::seed_from_u64(0x5a4d);
    for case in 0..32 {
        let cfg = arb_config(&mut rng);
        let k = rng.gen_range(1u32..6);
        let trace = TraceGenerator::new(cfg).generate();
        let sharded = trace.with_resharded_volumes(k);
        assert_eq!(sharded.read_count(), trace.read_count(), "case {case}");
        assert_eq!(sharded.write_count(), trace.write_count(), "case {case}");
        assert_eq!(
            sharded.universe().object_count(),
            trace.universe().object_count(),
            "case {case}"
        );
        assert_eq!(
            sharded.universe().server_count(),
            trace.universe().server_count(),
            "case {case}"
        );
        for (a, b) in trace.universe().objects().zip(sharded.universe().objects()) {
            assert_eq!(a.server, b.server, "case {case}");
            assert_eq!(a.size_bytes, b.size_bytes, "case {case}");
            // The shard's volume must live on the same server.
            assert_eq!(
                sharded.universe().volume(b.volume).server,
                a.server,
                "case {case}"
            );
        }
    }
}

/// Per-server read counts are invariant under resharding (volume
/// structure changed, placement did not).
#[test]
fn reshard_preserves_server_popularity() {
    let mut rng = StdRng::seed_from_u64(0x707);
    for case in 0..16 {
        let cfg = arb_config(&mut rng);
        let k = rng.gen_range(1u32..6);
        let trace = TraceGenerator::new(cfg).generate();
        let sharded = trace.with_resharded_volumes(k);
        assert_eq!(
            trace.reads_per_server(),
            sharded.reads_per_server(),
            "case {case}"
        );
    }
}

//! Deterministic fault-schedule simulation of the sans-io machines.
//!
//! N client machines run against one server machine under a virtual
//! clock while a seeded fault model drops messages, partitions clients,
//! crashes clients (cache loss), and crashes the server (epoch
//! recovery). The harness continuously asserts the paper's two safety
//! properties — no stale read under valid leases, no write completing
//! before every non-acked holder's min(object, volume) lease expired —
//! and its event log must be byte-identical across reruns of a seed.

use vl_core::machine::harness::{run, FaultConfig};
use vl_types::Duration;

type Mix = fn(u64) -> FaultConfig;

/// The four mixes `vl sim --chaos-profile` ships, by name.
const MIXES: [(&str, Mix); 4] = [
    ("havoc", FaultConfig::havoc),
    ("drops", FaultConfig::drops),
    ("delays", FaultConfig::delays),
    ("partitions", FaultConfig::partitions),
];

#[test]
fn seeded_fault_schedule_is_safe_and_reproducible() {
    let cfg = FaultConfig::havoc(0xC0FFEE);
    assert!(cfg.steps >= 1000, "acceptance floor: >= 1000 steps");
    let first = run(&cfg);
    let second = run(&cfg);

    // Bit-reproducible: the full event log matches byte for byte.
    assert_eq!(first.log, second.log, "same seed must replay identically");
    assert_eq!(first.steps, cfg.steps);

    // The schedule actually exercised every fault class.
    assert!(first.server_crashes >= 1, "no server crash: {first:?}");
    assert!(first.client_crashes >= 1, "no client crash: {first:?}");
    assert!(first.partitions >= 1, "no partition: {first:?}");
    assert!(first.messages_dropped >= 1, "no drops: {first:?}");
    assert!(first.reconnections >= 1, "epoch recovery never exercised");

    // Work got done despite the faults.
    assert!(first.reads_delivered > 100, "too few reads: {first:?}");
    assert!(first.local_reads > 0);
    assert!(first.writes_completed > 50, "too few writes: {first:?}");

    // Both safety invariants were checked many times and never failed.
    assert!(
        first.invariant_checks as usize > cfg.steps,
        "invariants under-sampled: {} checks",
        first.invariant_checks
    );
    assert!(
        first.violations.is_empty(),
        "safety violations:\n{}",
        first.violations.join("\n")
    );

    // Commit delay never exceeded min(t, t_v) plus the recovery gate
    // (server_down_for shifts enqueue-to-commit while writes are gated).
    let bound = cfg.object_lease.min(cfg.volume_lease) + cfg.server_down_for + cfg.step_gap;
    assert!(
        first.max_write_delay <= bound,
        "write delay {} exceeds bound {}",
        first.max_write_delay,
        bound
    );
}

#[test]
fn distinct_seeds_explore_distinct_schedules() {
    let a = run(&FaultConfig::havoc(1));
    let b = run(&FaultConfig::havoc(2));
    assert_ne!(a.log, b.log, "different seeds should diverge");
    assert!(a.violations.is_empty(), "{:?}", a.violations);
    assert!(b.violations.is_empty(), "{:?}", b.violations);
}

#[test]
fn many_seeds_uphold_both_invariants() {
    for seed in 0..24 {
        let mut cfg = FaultConfig::havoc(seed);
        cfg.steps = 400;
        let r = run(&cfg);
        assert!(
            r.violations.is_empty(),
            "seed {seed} violated safety:\n{}",
            r.violations.join("\n")
        );
    }
}

#[test]
fn heavier_loss_still_safe() {
    let mut cfg = FaultConfig::havoc(42);
    cfg.steps = 1000;
    cfg.drop_prob = 0.20;
    cfg.partition_prob = 0.06;
    cfg.volume_lease = Duration::from_millis(250);
    let r = run(&cfg);
    assert!(
        r.violations.is_empty(),
        "safety must hold under 20% loss:\n{}",
        r.violations.join("\n")
    );
    assert!(r.writes_completed > 0 && r.reads_delivered > 0);
}

/// Many clients sharing few objects, writes common and faults rare:
/// most writes find several lease holders, so the server's
/// invalidation fan-out is wide.
fn fan_out(seed: u64) -> FaultConfig {
    FaultConfig {
        clients: 12,
        objects: 3,
        steps: 1500,
        write_fraction: 0.30,
        drop_prob: 0.01,
        client_crash_prob: 0.0005,
        server_crash_prob: 0.0005,
        partition_prob: 0.001,
        ..FaultConfig::havoc(seed)
    }
}

#[test]
fn every_shipped_mix_upholds_both_invariants() {
    let mut failures = Vec::new();
    let mut check = |name: &str, cfg: FaultConfig| {
        let r = run(&cfg);
        assert!(r.writes_completed > 100, "{name}: too few writes: {r:?}");
        if let Some(first) = r.violations.first() {
            let (seed, n) = (cfg.seed, r.violations.len());
            failures.push(format!("{name} seed {seed}: {n} violations, first {first}"));
        }
    };
    for (name, mix) in MIXES {
        for seed in 1..=40 {
            check(name, mix(seed));
        }
    }
    check("fan-out", fan_out(7));
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The schedules are pinned: FNV-1a-64 of the event log of seeds 1–20
/// of every shipped mix, with the violation count. A refactor of the
/// machines or the harness must reproduce the file unchanged; a
/// behaviour change re-blesses it (replace the file with the text this
/// test prints) and says in CHANGES.md which seeds moved and why.
#[test]
fn harness_schedules_match_the_pinned_digests() {
    let pinned = include_str!("golden/harness_digests.txt");
    let comments = pinned.lines().filter(|l| l.starts_with('#'));
    let mut actual: String = comments.map(|l| format!("{l}\n")).collect();
    for (name, mix) in MIXES {
        for seed in 1..=20 {
            let r = run(&mix(seed));
            let digest = r.log.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            actual.push_str(&format!("{name} {seed} {digest:016x}"));
            if !r.violations.is_empty() {
                actual.push_str(&format!("!{}", r.violations.len()));
            }
            actual.push('\n');
        }
    }
    let moved: Vec<String> = pinned
        .lines()
        .zip(actual.lines())
        .filter(|(was, is)| was != is)
        .map(|(was, is)| format!("  pinned {was}\n  actual {is}"))
        .collect();
    assert!(
        pinned == actual,
        "{} schedule(s) moved:\n{}\n--- crates/core/tests/golden/harness_digests.txt should read ---\n{actual}",
        moved.len(),
        moved.join("\n")
    );
}

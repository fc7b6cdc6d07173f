//! Multi-origin client integration: one browser-like cache against three
//! independent lease servers, including the paper's failure-isolation
//! property — a partition to one origin only affects that origin's
//! objects — and the sharded-service extension: live volume handoffs
//! under chaos, with redirects re-aiming the client and the ordinary
//! `MUST_RENEW_ALL` path re-syncing it.

use bytes::Bytes;
use std::time::{Duration as StdDuration, Instant};
use vl_client::{CacheClient, ClientConfig, ObjectLocation, ReadError};
use vl_metrics::trace::TraceLine;
use vl_metrics::EventKind;
use vl_net::chaos::{ChaosNet, ChaosProfile};
use vl_net::{InMemoryNetwork, NodeId};
use vl_server::{rebalance, LeaseServer, ServerConfig, ServerHandle, WallClock};
use vl_types::{ClientId, Duration, Epoch, ObjectId, ServerId, VolumeId};

const ORIGINS: u32 = 3;
const ME: ClientId = ClientId(1);

/// Objects get globally unique ids: origin s hosts 10·s … 10·s+2.
fn obj(server: u32, i: u64) -> ObjectId {
    ObjectId(u64::from(server) * 10 + i)
}

fn setup() -> (InMemoryNetwork, WallClock, Vec<ServerHandle>, CacheClient) {
    let net = InMemoryNetwork::new();
    let clock = WallClock::new();
    let servers: Vec<ServerHandle> = (0..ORIGINS)
        .map(|s| {
            let handle = LeaseServer::spawn(
                ServerConfig {
                    volume_lease: StdDuration::from_millis(400),
                    ..ServerConfig::new(ServerId(s))
                },
                net.endpoint(NodeId::Server(ServerId(s))),
                clock,
            );
            for i in 0..3 {
                handle.create_object(obj(s, i), Bytes::from(format!("s{s}o{i}v1")));
            }
            handle
        })
        .collect();
    let cache = CacheClient::spawn(
        ClientConfig::new(ME, ServerId(0)),
        net.endpoint(NodeId::Client(ME)),
        clock,
    );
    (net, clock, servers, cache)
}

#[test]
fn reads_across_origins_with_independent_leases() {
    let (_net, _clock, servers, cache) = setup();
    for s in 0..ORIGINS {
        for i in 0..3 {
            let data = cache
                .read_at(ObjectLocation::origin(ServerId(s)), obj(s, i))
                .unwrap();
            assert_eq!(&data[..], format!("s{s}o{i}v1").as_bytes());
        }
    }
    assert_eq!(cache.live_volumes(), ORIGINS as usize);
    // Second pass is all cache hits.
    let before = cache.stats();
    for s in 0..ORIGINS {
        for i in 0..3 {
            cache
                .read_at(ObjectLocation::origin(ServerId(s)), obj(s, i))
                .unwrap();
        }
    }
    let after = cache.stats();
    assert_eq!(after.local_reads - before.local_reads, 9);
    assert_eq!(after.remote_reads, before.remote_reads);
    cache.shutdown();
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn invalidations_route_per_origin() {
    let (_net, _clock, servers, cache) = setup();
    for s in 0..ORIGINS {
        cache
            .read_at(ObjectLocation::origin(ServerId(s)), obj(s, 0))
            .unwrap();
    }
    // Write at origin 1 only.
    let out = servers[1].write(obj(1, 0), Bytes::from_static(b"s1o0v2"));
    assert_eq!(out.invalidations_sent, 1);
    assert_eq!(
        &cache
            .read_at(ObjectLocation::origin(ServerId(1)), obj(1, 0))
            .unwrap()[..],
        b"s1o0v2"
    );
    // The other origins' copies are untouched cache hits.
    let before = cache.stats().local_reads;
    cache
        .read_at(ObjectLocation::origin(ServerId(0)), obj(0, 0))
        .unwrap();
    cache
        .read_at(ObjectLocation::origin(ServerId(2)), obj(2, 0))
        .unwrap();
    assert_eq!(cache.stats().local_reads - before, 2);
    cache.shutdown();
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn partition_isolates_failures_to_one_origin() {
    let (net, _clock, servers, cache) = setup();
    for s in 0..ORIGINS {
        cache
            .read_at(ObjectLocation::origin(ServerId(s)), obj(s, 0))
            .unwrap();
    }
    // Cut origin 0; wait out its short volume lease.
    net.partition(NodeId::Client(ME), NodeId::Server(ServerId(0)));
    std::thread::sleep(StdDuration::from_millis(500));

    // Origin 0's object is now unavailable (never silently stale)…
    assert!(matches!(
        cache.read_at(ObjectLocation::origin(ServerId(0)), obj(0, 0)),
        Err(ReadError::Unavailable { .. })
    ));
    // …while the other origins keep serving with strong consistency.
    servers[2].write(obj(2, 0), Bytes::from_static(b"s2o0v2"));
    assert_eq!(
        &cache
            .read_at(ObjectLocation::origin(ServerId(2)), obj(2, 0))
            .unwrap()[..],
        b"s2o0v2"
    );
    assert_eq!(
        &cache
            .read_at(ObjectLocation::origin(ServerId(1)), obj(1, 0))
            .unwrap()[..],
        b"s1o0v1"
    );

    // Heal: origin 0 recovers through its volume renewal.
    net.heal(NodeId::Client(ME), NodeId::Server(ServerId(0)));
    assert_eq!(
        &cache
            .read_at(ObjectLocation::origin(ServerId(0)), obj(0, 0))
            .unwrap()[..],
        b"s0o0v1"
    );
    cache.shutdown();
    for s in servers {
        s.shutdown();
    }
}

/// The write bound is per volume: with volumes A = 0 and B = 1 on one
/// server and A's only holder partitioned, a write to B returns at once
/// while A's waits its t_v out.
#[test]
fn a_stalled_write_stalls_its_volume_not_the_server() {
    let t_v = StdDuration::from_secs(2);
    let net = InMemoryNetwork::new();
    let clock = WallClock::new();
    let servers: Vec<ServerHandle> = (0..2)
        .map(|s| {
            let handle = LeaseServer::spawn(
                ServerConfig {
                    volume_lease: t_v,
                    ..ServerConfig::new(ServerId(s))
                },
                net.endpoint(NodeId::Server(ServerId(s))),
                clock,
            );
            handle.create_object(obj(s, 0), Bytes::from(format!("s{s}o0v1")));
            handle
        })
        .collect();
    // Nobody ever held a lease in B, so its adoption gate is open.
    let coord = net.endpoint(NodeId::Server(ServerId(1000)));
    let (from, to) = (ServerId(1), ServerId(0));
    rebalance(&coord, from, &coord, to, VolumeId(1), t_v).expect("handoff completes");
    let cache = CacheClient::spawn(
        ClientConfig::new(ME, ServerId(0)),
        net.endpoint(NodeId::Client(ME)),
        clock,
    );
    cache
        .read_at(ObjectLocation::origin(ServerId(0)), obj(0, 0))
        .unwrap();
    net.partition(NodeId::Client(ME), NodeId::Server(ServerId(0)));

    let server = &servers[0];
    let sent = server.stats().msgs_out;
    std::thread::scope(|scope| {
        let (done, a_done) = std::sync::mpsc::channel();
        scope.spawn(move || {
            let out = server.write(obj(0, 0), Bytes::from_static(b"s0o0v2"));
            done.send(out).unwrap();
        });
        // A's write is in the machine once its INVALIDATE has gone out.
        assert!(eventually(1_000, || server.stats().msgs_out > sent));
        let asked = Instant::now();
        let b = server.write(obj(1, 0), Bytes::from_static(b"s1o0v2"));
        let took = asked.elapsed();
        assert!(a_done.try_recv().is_err(), "A's write is still blocked");
        assert_eq!((b.object, b.moved_to), (obj(1, 0), None));
        assert_eq!(b.version, vl_types::Version(2));
        assert!(took < t_v / 4, "B's write waited {took:?} behind A's");
        let a = a_done.recv_timeout(2 * t_v).expect("A's write commits");
        assert_eq!((a.object, a.waited_out), (obj(0, 0), 1));
        let waited = StdDuration::from_millis(a.delay.as_millis());
        assert!(waited > t_v / 2 && waited <= t_v, "A waited {waited:?}");
    });
    cache.shutdown();
    for s in servers {
        s.shutdown();
    }
}

/// The CI chaos matrix sets `VL_CHAOS_PROFILE`; locally the test runs
/// the `drops` profile by default.
fn chaos_profile() -> ChaosProfile {
    std::env::var("VL_CHAOS_PROFILE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(ChaosProfile::Drops)
}

/// Payloads are `s<server>o<object>v<version>`; the version suffix lets
/// reads prove freshness.
fn version_of(data: &[u8]) -> u64 {
    let s = std::str::from_utf8(data).expect("utf8 payload");
    s.rsplit('v').next().unwrap().parse().expect("v<N> suffix")
}

/// A JSONL trace sink writing to `path`.
fn jsonl(path: &std::path::Path) -> Box<dyn vl_metrics::TraceSink> {
    Box::new(vl_metrics::JsonlSink::new(
        std::fs::File::create(path).unwrap(),
    ))
}

/// Polls `cond` until it holds or `for_ms` elapses.
fn eventually(for_ms: u64, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + StdDuration::from_millis(for_ms);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(StdDuration::from_millis(10));
    }
    cond()
}

/// Writes `data` at whichever server currently owns the object's
/// volume, following `moved_to` forwarding across an in-flight handoff.
/// Returns the final outcome and the owner that committed it.
fn write_at_owner(
    servers: &[ServerHandle],
    mut owner: usize,
    object: ObjectId,
    data: &Bytes,
) -> (vl_server::WriteOutcome, usize) {
    for _ in 0..servers.len() + 1 {
        let out = servers[owner].write(object, data.clone());
        match out.moved_to {
            None => return (out, owner),
            Some(next) => owner = next.raw() as usize,
        }
    }
    panic!("write chased moved_to in a cycle");
}

/// The tentpole acceptance test: a 3-server fleet serving one client
/// through a chaos-wrapped endpoint (profile from `VL_CHAOS_PROFILE`)
/// while volume 0 migrates 0 → 1 → 2 mid-run, live. Every server
/// writes a JSONL trace to `target/chaos/` — the CI matrix uploads
/// them when the test fails, together with the client's trace, whose
/// events name the server the volume was routed to at the time — and
/// the run must show:
///
/// * zero stale reads (versions never go backwards, and post-quiesce
///   reads converge on the last committed version);
/// * write delay bounded by t_v plus slack even across the migration
///   (the gainer's write gate is the loser's max lease expiry);
/// * the client re-syncing through WRONG_SHARD redirects and the
///   ordinary MUST_RENEW_ALL reconnection — no new client states;
/// * one `write_committed` per write in the servers' traces: the first
///   write after each handoff goes to the old owner, which answers
///   `moved_to` and must not trace a commit it did not make.
#[test]
fn handoff_under_chaos_keeps_reads_fresh_and_writes_bounded() {
    let profile = chaos_profile();
    let seed: u64 = std::env::var("VL_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    let t_v = StdDuration::from_millis(400);
    let chaos = ChaosNet::new(profile.config(seed));
    let net = InMemoryNetwork::new();
    let clock = WallClock::new();

    let trace_dir = std::path::Path::new("target/chaos");
    std::fs::create_dir_all(trace_dir).unwrap();
    let servers: Vec<ServerHandle> = (0..ORIGINS)
        .map(|s| {
            let sink = jsonl(&trace_dir.join(format!("{profile}-s{s}.jsonl")));
            let handle = LeaseServer::spawn_traced(
                ServerConfig {
                    volume_lease: t_v,
                    object_lease: StdDuration::from_secs(10),
                    ..ServerConfig::new(ServerId(s))
                },
                net.endpoint(NodeId::Server(ServerId(s))),
                clock,
                sink,
            );
            for i in 0..3 {
                handle.create_object(obj(s, i), Bytes::from(format!("s{s}o{i}v1")));
            }
            handle
        })
        .collect();

    // Only the client's endpoint goes through the fault injector: the
    // data plane is hostile, the coordinator's control plane reliable
    // (the loser ships its manifest exactly once).
    let cache = CacheClient::spawn_traced(
        ClientConfig {
            request_timeout: StdDuration::from_millis(150),
            max_retries: 40,
            ..ClientConfig::new(ME, ServerId(0))
        },
        chaos.wrap(net.endpoint(NodeId::Client(ME))),
        clock,
        jsonl(&trace_dir.join(format!("{profile}-client.jsonl"))),
    );
    let coord = net.endpoint(NodeId::Server(ServerId(1000)));

    // Warm every volume so the client holds leases that the handoffs
    // will force through resync.
    for s in 0..ORIGINS {
        assert!(
            eventually(10_000, || cache
                .read_at(ObjectLocation::origin(ServerId(s)), obj(s, 0))
                .is_ok()),
            "warm-up read of origin {s} never succeeded under {profile}"
        );
    }

    let target = obj(0, 0);
    let at = ObjectLocation::origin(ServerId(0));
    let mut version = 1u64;
    let mut last_seen = 1u64;
    let mut owner = 0usize;
    let mut successes = 0u32;
    let delay_bound = Duration::from_millis(t_v.as_millis() as u64 + 2_000);
    for round in 0..12u32 {
        // Two live migrations of volume 0 mid-run: 0 → 1, then 1 → 2.
        if round == 4 || round == 8 {
            let to = ServerId(if round == 4 { 1 } else { 2 });
            let out = rebalance(
                &coord,
                ServerId(owner as u32),
                &coord,
                to,
                VolumeId(0),
                StdDuration::from_secs(5),
            )
            .expect("handoff completes");
            assert_eq!(out.epoch, Epoch(u64::from(round) / 4), "epoch per handoff");
            assert_eq!(out.objects, 3, "manifest ships the whole volume");
        }
        version += 1;
        // After a handoff `owner` is stale; `moved_to` corrects it.
        let (out, now_at) = write_at_owner(
            &servers,
            owner,
            target,
            &Bytes::from(format!("s0o0v{version}")),
        );
        owner = now_at;
        assert!(
            out.delay <= delay_bound,
            "round {round}: write delayed {} — exceeds t_v + slack across the migration",
            out.delay
        );
        for _ in 0..3 {
            if let Ok(data) = cache.read_at(at, target) {
                let v = version_of(&data);
                assert!(v >= last_seen, "stale read: v{v} after v{last_seen}");
                last_seen = v;
                successes += 1;
            }
        }
    }
    assert!(successes > 0, "chaos never let a single read through");
    assert_eq!(owner, 2, "volume 0 should have ended on server 2");

    // Faults stop; the client must converge on the latest version at
    // the final owner, purely via redirects + reconnection.
    chaos.stop();
    version += 1;
    let (_, owner) = write_at_owner(
        &servers,
        owner,
        target,
        &Bytes::from(format!("s0o0v{version}")),
    );
    assert!(
        eventually(10_000, || cache
            .read_at(at, target)
            .is_ok_and(|d| version_of(&d) == version)),
        "client never converged on v{version} after chaos stopped"
    );
    let stats = cache.stats();
    assert!(
        stats.redirects >= 1,
        "the moved volume never redirected the client: {stats:?}"
    );
    assert!(
        stats.reconnections >= 1,
        "epoch bumps never forced a MUST_RENEW_ALL resync: {stats:?}"
    );
    assert!(
        stats.epoch_changes >= 1,
        "handoffs bump the epoch and the next VOL_LEASE shows it: {stats:?}"
    );
    assert!(
        servers[owner].stats().handoffs_in >= 1,
        "final owner never recorded the handoff"
    );

    cache.shutdown();
    for s in servers {
        s.shutdown();
    }
    let committed: usize = (0..ORIGINS)
        .map(|s| {
            let trace = trace_dir.join(format!("{profile}-s{s}.jsonl"));
            let trace = std::fs::read_to_string(trace).unwrap();
            let commit = |line| match vl_metrics::trace::parse_line(line) {
                Some(TraceLine::Event(e)) => e.kind == EventKind::WriteCommitted,
                _ => false,
            };
            trace.lines().filter(|&line| commit(line)).count()
        })
        .sum();
    assert_eq!(committed as u64, version - 1, "one commit per write");
}

/// Nightly soak: volume 0 orbits the fleet 0 → 1 → 2 → 0 → … while a
/// writer and a reader keep load on it; every round must preserve
/// monotone versions and end converged. Rounds default to 30 and scale
/// via `VL_SOAK_ROUNDS` (the nightly workflow raises it).
#[test]
#[ignore = "long soak — run via --include-ignored or the nightly workflow"]
fn rebalance_loop_soak() {
    let rounds: u64 = std::env::var("VL_SOAK_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30);
    let t_v = StdDuration::from_millis(300);
    let net = InMemoryNetwork::new();
    let clock = WallClock::new();
    let trace_dir = std::path::Path::new("target/soak");
    std::fs::create_dir_all(trace_dir).unwrap();
    let servers: Vec<ServerHandle> = (0..ORIGINS)
        .map(|s| {
            let sink = jsonl(&trace_dir.join(format!("multi-s{s}.jsonl")));
            let handle = LeaseServer::spawn_traced(
                ServerConfig {
                    volume_lease: t_v,
                    object_lease: StdDuration::from_secs(10),
                    ..ServerConfig::new(ServerId(s))
                },
                net.endpoint(NodeId::Server(ServerId(s))),
                clock,
                sink,
            );
            if s == 0 {
                for i in 0..3 {
                    handle.create_object(obj(0, i), Bytes::from(format!("s0o{i}v1")));
                }
            }
            handle
        })
        .collect();
    let cache = CacheClient::spawn_traced(
        ClientConfig {
            request_timeout: StdDuration::from_millis(200),
            max_retries: 20,
            ..ClientConfig::new(ME, ServerId(0))
        },
        net.endpoint(NodeId::Client(ME)),
        clock,
        jsonl(&trace_dir.join("multi-client.jsonl")),
    );
    let coord = net.endpoint(NodeId::Server(ServerId(1000)));
    let at = ObjectLocation::origin(ServerId(0));
    let target = obj(0, 0);
    assert!(cache.read_at(at, target).is_ok(), "warm-up");

    let mut owner = 0u32;
    let mut version = 1u64;
    let mut last_seen = 1u64;
    let delay_bound = Duration::from_millis(t_v.as_millis() as u64 + 2_000);
    for round in 0..rounds {
        let to = (owner + 1) % ORIGINS;
        let out = rebalance(
            &coord,
            ServerId(owner),
            &coord,
            ServerId(to),
            VolumeId(0),
            StdDuration::from_secs(5),
        )
        .unwrap_or_else(|e| panic!("round {round}: handoff failed: {e}"));
        assert_eq!(out.epoch, Epoch(round + 1));
        owner = to;
        version += 1;
        let (out, now_at) = write_at_owner(
            &servers,
            owner as usize,
            target,
            &Bytes::from(format!("s0o0v{version}")),
        );
        owner = now_at as u32;
        assert!(
            out.delay <= delay_bound,
            "round {round}: write delayed {}",
            out.delay
        );
        let data = cache
            .read_at(at, target)
            .unwrap_or_else(|e| panic!("round {round}: read failed after handoff to {to}: {e:?}"));
        let v = version_of(&data);
        assert!(v >= last_seen, "round {round}: v{v} after v{last_seen}");
        last_seen = v;
    }
    assert!(
        eventually(5_000, || cache
            .read_at(at, target)
            .is_ok_and(|d| version_of(&d) == version)),
        "soak never converged on v{version}"
    );
    let stats = cache.stats();
    assert!(
        stats.redirects >= rounds / 2,
        "too few redirects: {stats:?}"
    );
    assert!(stats.reconnections >= 1, "no resyncs recorded: {stats:?}");
    assert!(stats.epoch_changes >= 1, "no epoch bump seen: {stats:?}");
    cache.shutdown();
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn unreachable_origin_resyncs_via_must_renew_all() {
    let (net, _clock, servers, cache) = setup();
    cache
        .read_at(ObjectLocation::origin(ServerId(0)), obj(0, 0))
        .unwrap();
    cache
        .read_at(ObjectLocation::origin(ServerId(0)), obj(0, 1))
        .unwrap();

    // Partition, then write both objects: the origin waits the client
    // out (obj(0,0) holder) and joins it to the Unreachable set.
    net.partition(NodeId::Client(ME), NodeId::Server(ServerId(0)));
    servers[0].write(obj(0, 0), Bytes::from_static(b"s0o0v2"));
    net.heal(NodeId::Client(ME), NodeId::Server(ServerId(0)));

    // The next read triggers MUST_RENEW_ALL; the stale copy is dropped
    // and refetched, the fresh one renewed in place.
    assert_eq!(
        &cache
            .read_at(ObjectLocation::origin(ServerId(0)), obj(0, 0))
            .unwrap()[..],
        b"s0o0v2"
    );
    assert_eq!(
        &cache
            .read_at(ObjectLocation::origin(ServerId(0)), obj(0, 1))
            .unwrap()[..],
        b"s0o1v1"
    );
    assert!(cache.stats().reconnections >= 1);
    cache.shutdown();
    for s in servers {
        s.shutdown();
    }
}

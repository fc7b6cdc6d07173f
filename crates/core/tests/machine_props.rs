//! Seeded property tests for the write-blocking bound of the server
//! machine: a write never completes before every non-acked holder's
//! min(object, volume) lease expired, its delay never exceeds
//! min(t, t_v), and that bound is exactly the `ack_wait` entry of the
//! paper's Table 1 as computed by `vl-analytic`.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vl_analytic::{Algorithm, CostParams};
use vl_core::machine::{MachineConfig, ServerAction, ServerInput, ServerMachine, WriteOutcome};
use vl_proto::{ClientMsg, ServerMsg};
use vl_types::{ClientId, Duration, Epoch, ObjectId, ServerId, Timestamp, Version};

const TICK: Duration = Duration::from_millis(10);
const OBJECT: ObjectId = ObjectId(1);

fn cost_params(t: Duration, tv: Duration) -> CostParams {
    CostParams {
        object_timeout_secs: t.as_secs_f64(),
        volume_timeout_secs: tv.as_secs_f64(),
        inactive_discard_secs: 0.0,
        object_read_rate: 1.0,
        volume_read_rate: 1.0,
        clients_caching: 6,
        clients_with_object_lease: 6,
        clients_with_volume_lease: 6,
        clients_recently_inactive: 0,
        clock_skew_bound_secs: 0.0,
    }
}

/// Drives one randomized write through a `ServerMachine` and checks the
/// commit time against the exact per-holder bound.
fn run_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = Duration::from_millis(rng.gen_range(800..3000u64));
    let tv = Duration::from_millis(rng.gen_range(100..900u64));
    let mut cfg = MachineConfig::new(ServerId(0));
    cfg.object_lease = t;
    cfg.volume_lease = tv;
    let (mut server, _boot) = ServerMachine::new(cfg, None);

    let mut now = Timestamp::ZERO;
    server.handle(
        now,
        ServerInput::CreateObject {
            object: OBJECT,
            data: Bytes::from_static(b"v1"),
            version: Version::FIRST,
        },
    );

    // Grant a random lease mix to six clients at staggered times,
    // recording the expiries the server hands out.
    let clients: Vec<ClientId> = (0..6).map(ClientId).collect();
    let mut vol_exp = std::collections::BTreeMap::new();
    let mut obj_exp = std::collections::BTreeMap::new();
    for &c in &clients {
        now = now.saturating_add(Duration::from_millis(rng.gen_range(0..80u64)));
        let mut grants = Vec::new();
        if rng.gen_bool(0.7) {
            grants.push(ClientMsg::ReqVolLease {
                volume: cfg.volume,
                epoch: Epoch(0),
            });
        }
        if rng.gen_bool(0.7) {
            grants.push(ClientMsg::ReqObjLease {
                object: OBJECT,
                version: Version::NONE,
            });
        }
        for msg in grants {
            for action in server.handle(now, ServerInput::Msg { from: c, msg }) {
                match action {
                    ServerAction::Send {
                        to,
                        msg: ServerMsg::VolLease { expire, .. },
                    } => {
                        vol_exp.insert(to, expire);
                    }
                    ServerAction::Send {
                        to,
                        msg: ServerMsg::ObjLease { expire, .. },
                    } => {
                        obj_exp.insert(to, expire);
                    }
                    _ => {}
                }
            }
        }
    }

    // Enqueue the write and note which holders the machine contacted.
    let enqueued = now;
    let mut outstanding = Vec::new();
    let mut outcome: Option<(Timestamp, WriteOutcome)> = None;
    for action in server.handle(
        now,
        ServerInput::Write {
            object: OBJECT,
            data: Bytes::from_static(b"v2"),
        },
    ) {
        match action {
            ServerAction::Send {
                to,
                msg: ServerMsg::Invalidate { .. },
            } => outstanding.push(to),
            ServerAction::CompleteWrite { outcome: o } => outcome = Some((now, o)),
            _ => {}
        }
    }

    // Half the contacted holders ack at a random point inside t_v; the
    // rest stay silent and must be waited out.
    let mut acks: Vec<(Timestamp, ClientId)> = Vec::new();
    for &c in &outstanding {
        if rng.gen_bool(0.5) {
            let at =
                enqueued.saturating_add(Duration::from_millis(rng.gen_range(1..tv.as_millis())));
            acks.push((at, c));
        }
    }
    acks.sort();
    let ack_time: std::collections::BTreeMap<ClientId, Timestamp> =
        acks.iter().map(|&(at, c)| (c, at)).collect();

    // Tick the machine forward, delivering due acks, until it commits.
    let deadline = enqueued
        .saturating_add(t)
        .saturating_add(tv)
        .saturating_add(Duration::from_secs(1));
    let mut pending = acks.into_iter().peekable();
    while outcome.is_none() && now < deadline {
        now = now.saturating_add(TICK);
        let mut inputs = Vec::new();
        while pending.peek().is_some_and(|&(at, _)| at <= now) {
            let (_, c) = pending.next().expect("peeked above");
            inputs.push(ServerInput::Msg {
                from: c,
                msg: ClientMsg::AckInvalidate { object: OBJECT },
            });
        }
        inputs.push(ServerInput::Tick);
        for input in inputs {
            for action in server.handle(now, input) {
                if let ServerAction::CompleteWrite { outcome: o } = action {
                    outcome = Some((now, o));
                }
            }
        }
    }
    let (commit_now, outcome) = outcome.expect("write must commit before the lease horizon");
    assert_eq!(outcome.version, Version::FIRST.next());
    assert_eq!(outcome.invalidations_sent, outstanding.len());

    // Lower bound, per holder: the machine may not pass a contacted
    // holder before its ack arrived or min(object, volume) expired.
    let required = outstanding
        .iter()
        .map(|c| {
            let exp = obj_exp
                .get(c)
                .copied()
                .expect("contacted holders hold an object lease")
                .min(vol_exp.get(c).copied().expect("contacted => volume-valid"));
            ack_time.get(c).map_or(exp, |&at| at.min(exp))
        })
        .max()
        .unwrap_or(enqueued);
    assert!(
        commit_now >= required,
        "seed {seed}: write committed at {commit_now} before bound {required}"
    );

    // Upper bound: the paper's headline property. Every lease involved
    // was granted before the write, so the wait is below min(t, t_v)
    // (plus our tick granularity).
    let bound = Duration::from_millis(t.min(tv).as_millis() + TICK.as_millis());
    assert!(
        outcome.delay <= bound,
        "seed {seed}: delay {} exceeds min(t, t_v) bound {bound}",
        outcome.delay
    );

    // And that bound is exactly what vl-analytic's Table 1 row predicts.
    for algo in [Algorithm::VolumeLease, Algorithm::DelayedInvalidation] {
        let costs = algo.costs(&cost_params(t, tv));
        assert_eq!(costs.ack_wait_secs, t.min(tv).as_secs_f64());
        assert!(
            outcome.delay.as_secs_f64() <= costs.ack_wait_secs + TICK.as_secs_f64(),
            "seed {seed}: measured delay exceeds the analytic ack-wait bound"
        );
    }
}

#[test]
fn write_never_commits_early_and_delay_matches_analytic_bound() {
    for seed in 0..40 {
        run_case(seed);
    }
}

/// A silent holder with both leases granted at the instant of the write
/// pins the delay to exactly min(t, t_v) — the analytic row, equality.
#[test]
fn silent_holder_is_waited_out_at_exactly_min_t_tv() {
    let t = Duration::from_secs(60);
    let tv = Duration::from_secs(2);
    let mut cfg = MachineConfig::new(ServerId(0));
    cfg.object_lease = t;
    cfg.volume_lease = tv;
    let (mut server, _boot) = ServerMachine::new(cfg, None);

    let now = Timestamp::ZERO;
    server.handle(
        now,
        ServerInput::CreateObject {
            object: OBJECT,
            data: Bytes::from_static(b"v1"),
            version: Version::FIRST,
        },
    );
    let holder = ClientId(7);
    for msg in [
        ClientMsg::ReqVolLease {
            volume: cfg.volume,
            epoch: Epoch(0),
        },
        ClientMsg::ReqObjLease {
            object: OBJECT,
            version: Version::NONE,
        },
    ] {
        server.handle(now, ServerInput::Msg { from: holder, msg });
    }
    let actions = server.handle(
        now,
        ServerInput::Write {
            object: OBJECT,
            data: Bytes::from_static(b"v2"),
        },
    );
    assert!(
        !actions
            .iter()
            .any(|a| matches!(a, ServerAction::CompleteWrite { .. })),
        "write must block on the live holder"
    );

    // One tick short of the volume expiry: still blocked.
    let just_before = Timestamp::from_millis(tv.as_millis() - 1);
    assert!(!server
        .handle(just_before, ServerInput::Tick)
        .iter()
        .any(|a| matches!(a, ServerAction::CompleteWrite { .. })));

    // At the expiry instant the holder is waited out and the write
    // commits with delay exactly min(t, t_v) = t_v.
    let at_expiry = now.saturating_add(tv);
    let outcome = server
        .handle(at_expiry, ServerInput::Tick)
        .into_iter()
        .find_map(|a| match a {
            ServerAction::CompleteWrite { outcome } => Some(outcome),
            _ => None,
        })
        .expect("expired holder unblocks the write");
    assert_eq!(outcome.waited_out, 1);
    assert_eq!(outcome.delay, t.min(tv));
    let costs = Algorithm::VolumeLease.costs(&cost_params(t, tv));
    assert_eq!(outcome.delay.as_secs_f64(), costs.ack_wait_secs);
}

/// Self-invalidation, same construction: a holder granted a
/// drop-deadline at the instant of the write pins the delay to exactly
/// `t + ε` — the `vl-analytic` SelfInval row, equality — and the write
/// sends not a single message.
#[test]
fn self_inval_silent_holder_pins_delay_to_t_plus_epsilon() {
    let t = Duration::from_secs(60);
    let eps = Duration::from_secs(3);
    let mut cfg = MachineConfig::new(ServerId(0));
    cfg.object_lease = t;
    cfg.self_inval = Some(eps);
    let (mut server, _boot) = ServerMachine::new(cfg, None);

    let now = Timestamp::ZERO;
    server.handle(
        now,
        ServerInput::CreateObject {
            object: OBJECT,
            data: Bytes::from_static(b"v1"),
            version: Version::FIRST,
        },
    );
    let holder = ClientId(7);
    // The client-visible deadline is now + t; the server conservatively
    // records now + t + ε.
    let grant = server.handle(
        now,
        ServerInput::Msg {
            from: holder,
            msg: ClientMsg::ReqObjLease {
                object: OBJECT,
                version: Version::NONE,
            },
        },
    );
    let expire = grant
        .iter()
        .find_map(|a| match a {
            ServerAction::Send {
                msg: ServerMsg::ObjLease { expire, .. },
                ..
            } => Some(*expire),
            _ => None,
        })
        .expect("read grants a deadline");
    assert_eq!(
        expire,
        now.saturating_add(t),
        "client sees the raw deadline"
    );

    let actions = server.handle(
        now,
        ServerInput::Write {
            object: OBJECT,
            data: Bytes::from_static(b"v2"),
        },
    );
    assert!(
        !actions
            .iter()
            .any(|a| matches!(a, ServerAction::Send { .. } | ServerAction::SendPeer { .. })),
        "self-invalidation writes send nothing"
    );
    assert!(
        !actions
            .iter()
            .any(|a| matches!(a, ServerAction::CompleteWrite { .. })),
        "write must wait out the outstanding deadline"
    );

    // One tick short of the padded deadline: still blocked.
    let just_before = Timestamp::from_millis(t.as_millis() + eps.as_millis() - 1);
    assert!(!server
        .handle(just_before, ServerInput::Tick)
        .iter()
        .any(|a| matches!(a, ServerAction::CompleteWrite { .. })));

    // At t + ε the holder's padded record lapses and the write commits.
    let at_deadline = now.saturating_add(t).saturating_add(eps);
    let outcome = server
        .handle(at_deadline, ServerInput::Tick)
        .into_iter()
        .find_map(|a| match a {
            ServerAction::CompleteWrite { outcome } => Some(outcome),
            _ => None,
        })
        .expect("padded deadline unblocks the write");
    assert_eq!(outcome.invalidations_sent, 0);
    assert_eq!(outcome.queued, 0);
    assert_eq!(outcome.delay, t.saturating_add(eps));

    // Exactly the analytic Table 1 row, in both directions.
    let mut params = cost_params(t, Duration::from_secs(2));
    params.clock_skew_bound_secs = eps.as_secs_f64();
    let costs = Algorithm::SelfInval.costs(&params);
    assert_eq!(costs.write_cost_messages, 0.0);
    assert_eq!(outcome.delay.as_secs_f64(), costs.ack_wait_secs);
}

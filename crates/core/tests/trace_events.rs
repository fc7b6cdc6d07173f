//! End-to-end check of the observability layer at the machine level: a
//! server machine run with a silent lease holder is traced through
//! [`vl_core::machine::events`] into a JSONL sink, parsed back, and the
//! recovered write-delay histogram must respect the paper's bound — the
//! maximum commit delay never exceeds `min(t, t_v)`, which is exactly
//! the `ack_wait` entry `vl-analytic` computes for the volume-lease
//! rows of Table 1. (The full-trace simulator commits writes at virtual
//! instants, so its delays are all zero; only a machine-driven run
//! exercises non-trivial delays.)

use bytes::Bytes;
use vl_analytic::{Algorithm, CostParams};
use vl_core::machine::{events, MachineConfig, ServerAction, ServerInput, ServerMachine};
use vl_metrics::trace::{parse_line, TraceLine};
use vl_metrics::{Event, EventKind, Histogram, JsonlSink, MessageKind, TraceSink};
use vl_proto::{ClientMsg, PeerMsg};
use vl_types::{ClientId, Duration, Epoch, ObjectId, ServerId, Timestamp, Version, VolumeId};

const OBJECT: ObjectId = ObjectId(1);
const TICK: Duration = Duration::from_millis(10);

/// Drives one write against a holder that acks nothing, forwarding every
/// server action through the event mapper into `sink`.
fn run_silent_holder(t: Duration, tv: Duration, sink: &mut dyn TraceSink) {
    let mut cfg = MachineConfig::new(ServerId(0));
    cfg.object_lease = t;
    cfg.volume_lease = tv;
    let (mut server, _boot) = ServerMachine::new(cfg, None);
    let mut now = Timestamp::ZERO;
    let apply = |server: &mut ServerMachine,
                 sink: &mut dyn TraceSink,
                 now: Timestamp,
                 input: ServerInput|
     -> bool {
        let mut committed = false;
        let actions = server.handle(now, input);
        for action in actions {
            for ev in events::server_action_events(now, server, &action) {
                sink.record(&ev);
            }
            committed |= matches!(action, ServerAction::CompleteWrite { .. });
        }
        committed
    };

    apply(
        &mut server,
        sink,
        now,
        ServerInput::CreateObject {
            object: OBJECT,
            data: Bytes::from_static(b"v1"),
            version: Version::FIRST,
        },
    );
    let holder = ClientId(3);
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
        apply(
            &mut server,
            sink,
            now,
            ServerInput::Msg { from: holder, msg },
        );
    }
    // The holder never acks: the write must wait the full min(t, t_v).
    let mut committed = apply(
        &mut server,
        sink,
        now,
        ServerInput::Write {
            object: OBJECT,
            data: Bytes::from_static(b"v2"),
        },
    );
    let deadline = now + t + tv;
    while !committed && now < deadline {
        now += TICK;
        committed = apply(&mut server, sink, now, ServerInput::Tick);
    }
    assert!(committed, "write must commit by lease expiry");
}

#[test]
fn traced_write_delays_respect_the_analytic_ack_wait_bound() {
    let t = Duration::from_secs(60);
    let tv = Duration::from_secs(2);
    let mut sink = JsonlSink::new(Vec::new());
    sink.begin_run("machine: silent holder");
    run_silent_holder(t, tv, &mut sink);
    let jsonl = String::from_utf8(sink.into_inner().expect("flushes cleanly")).expect("utf8 jsonl");

    // Parse the trace back and fold the write-delay histogram exactly as
    // `vl report` does.
    let mut delays = Histogram::new();
    let mut saw_run_label = false;
    let mut messages = 0u64;
    for line in jsonl.lines() {
        match parse_line(line) {
            Some(TraceLine::Run(label)) => {
                saw_run_label = true;
                assert_eq!(label, "machine: silent holder");
            }
            Some(TraceLine::Event(ev)) => match ev.kind {
                EventKind::WriteCommitted => delays.record(ev.value),
                EventKind::Message => messages += 1,
                _ => {}
            },
            None => panic!("unparseable trace line: {line}"),
        }
    }
    assert!(saw_run_label);
    assert!(messages > 0, "lease grants and invalidations were traced");
    assert_eq!(delays.count(), 1, "exactly one write committed");
    assert!(
        delays.max() > 0,
        "a silent holder must force a non-zero delay"
    );

    // Cross-check against vl-analytic: the Table 1 ack-wait entry for
    // both volume-lease rows is min(t, t_v), and the traced maximum must
    // sit at or below it (plus one tick of polling granularity).
    let params = CostParams {
        object_timeout_secs: t.as_secs_f64(),
        volume_timeout_secs: tv.as_secs_f64(),
        inactive_discard_secs: 0.0,
        object_read_rate: 1.0,
        volume_read_rate: 1.0,
        clients_caching: 1,
        clients_with_object_lease: 1,
        clients_with_volume_lease: 1,
        clients_recently_inactive: 0,
        clock_skew_bound_secs: 0.0,
    };
    for algo in [Algorithm::VolumeLease, Algorithm::DelayedInvalidation] {
        let bound = algo.costs(&params).ack_wait_secs;
        assert_eq!(bound, t.min(tv).as_secs_f64());
        let max_secs = delays.max() as f64 / 1000.0;
        assert!(
            max_secs <= bound + TICK.as_secs_f64(),
            "traced max write delay {max_secs}s exceeds analytic bound {bound}s"
        );
    }
}

/// After a handoff the gainer serves two volumes; every event must be
/// labelled with the volume it concerns, not the server's home volume.
#[test]
fn events_of_an_adopted_volume_carry_that_volume() {
    const HOME: VolumeId = VolumeId(0);
    const ADOPTED: VolumeId = VolumeId(7);
    const THEIRS: ObjectId = ObjectId(70);
    let (mut server, _boot) = ServerMachine::new(MachineConfig::new(ServerId(0)), None);
    let now = Timestamp::from_secs(1);
    let client = ClientId(3);
    // The driver's loop; a completion names the object written.
    let mut step = |input: ServerInput| -> Vec<Event> {
        let actions = server.handle(now, input);
        let events = |a| events::server_action_events(now, &server, a);
        actions.iter().flat_map(events).collect()
    };
    let msg = |msg| ServerInput::Msg { from: client, msg };

    let data = Bytes::from_static(b"v1");
    let version = Version::FIRST;
    step(ServerInput::CreateObject {
        object: OBJECT,
        data: data.clone(),
        version,
    });
    let manifest = PeerMsg::Handoff {
        volume: ADOPTED,
        epoch: Epoch(1),
        max_vol_expiry: Timestamp::ZERO,
        objects: vec![(THEIRS, version, data)],
    };
    let from = ServerId(99);
    step(ServerInput::Peer {
        from,
        msg: manifest,
    });

    for (volume, epoch, object) in [(HOME, Epoch(0), OBJECT), (ADOPTED, Epoch(1), THEIRS)] {
        let evs = step(msg(ClientMsg::ReqVolLease { volume, epoch }));
        let kinds: Vec<EventKind> = evs.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [EventKind::Message, EventKind::VolumeLeaseGranted],
            "VOL_LEASE for {volume:?}"
        );
        assert!(evs.iter().all(|e| e.volume == Some(volume)), "{evs:?}");
        let version = Version::NONE;
        let evs = step(msg(ClientMsg::ReqObjLease { object, version }));
        let kinds: Vec<EventKind> = evs.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [EventKind::Message, EventKind::LeaseGranted],
            "OBJ_LEASE for {object:?}"
        );
        assert!(evs.iter().all(|e| e.volume == Some(volume)), "{evs:?}");
    }

    // A write in the adopted volume: INVALIDATE, then the commit.
    let data = Bytes::from_static(b"v2");
    let evs = step(ServerInput::Write {
        object: THEIRS,
        data,
    });
    assert!(evs.iter().any(|e| e.kind == EventKind::InvalidationSent));
    assert!(evs.iter().all(|e| e.volume == Some(ADOPTED)), "{evs:?}");
    let evs = step(msg(ClientMsg::AckInvalidate { object: THEIRS }));
    assert!(evs.iter().any(|e| e.kind == EventKind::WriteCommitted));
    assert!(evs.iter().all(|e| e.volume == Some(ADOPTED)), "{evs:?}");

    // A stale epoch in the adopted volume: the reconnection exchange.
    let stale = ClientMsg::ReqVolLease {
        volume: ADOPTED,
        epoch: Epoch(0),
    };
    let evs = step(msg(stale));
    assert_eq!(evs[0].msg, Some(MessageKind::MustRenewAll));
    let leases = Vec::new();
    let volume = ADOPTED;
    let verdict = step(msg(ClientMsg::RenewObjLeases { volume, leases }));
    assert!(verdict.iter().any(|e| e.kind == EventKind::Reconnected));
    for e in evs.iter().chain(&verdict) {
        assert_eq!(e.volume, Some(ADOPTED), "{e:?}");
    }
}

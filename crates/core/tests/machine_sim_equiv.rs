//! Equivalence of the trace-driven simulator and the sans-io machines.
//!
//! The same smoke-scale trace is run through the simulator's
//! `DelayedInvalidation` protocol and replayed message-by-message
//! through `ServerMachine`/`ClientMachine` pairs (one server machine per
//! volume, one client machine per client×volume, synchronous lossless
//! delivery). Both worlds must agree on every wire-message count and
//! serve zero stale reads.
//!
//! The two implementations differ in one *modelling* choice the counts
//! must be normalized for: the simulator piggybacks an object-lease
//! renewal onto a volume-lease grant (one message pair covers both),
//! while the wire protocol sends a separate `REQ_OBJ_LEASE`/`OBJ_LEASE`
//! pair. Each read that combines a volume renewal with an object fetch
//! therefore costs the machines exactly one extra request/grant pair:
//!
//! - a read that opens with both `REQ_VOL_LEASE` and `REQ_OBJ_LEASE`
//!   (no reconnection) — the simulator folds the object into the grant;
//! - a read whose volume-renewal batch invalidates the very object
//!   being read, forcing a separate re-fetch the simulator folds in;
//! - a reconnection read that separately requests an object it still
//!   has cached — the simulator handles that copy entirely inside the
//!   batched invalidate/renew exchange.
//!
//! Everything else maps one-to-one (the reconnection batch ack and the
//! volume-batch ack are both counted as `ACK_INVALIDATE` by the
//! simulator).

use bytes::Bytes;
use std::collections::{BTreeMap, VecDeque};
use vl_core::machine::{
    ClientAction, ClientInput, ClientMachine, ClientMachineConfig, MachineConfig, ServerAction,
    ServerInput, ServerMachine, WriteMode, WriteOutcome,
};
use vl_core::{ProtocolKind, SimulationBuilder};
use vl_metrics::MessageKind;
use vl_proto::{ClientMsg, ServerMsg};
use vl_types::{ClientId, Duration, ObjectId, Timestamp, Version, VolumeId};
use vl_workload::{Op, Trace, TraceGenerator, Universe, WorkloadConfig};

// Scaled to the smoke trace's sparse, 10-day arrival pattern so every
// protocol path fires: volume renewals, immediate invalidations,
// queued batches, demotions, and reconnections.
const VOLUME_TIMEOUT: Duration = Duration::from_secs(3_600);
const OBJECT_TIMEOUT: Duration = Duration::from_secs(50_000);

/// Machine-side wire-message totals, by protocol message.
#[derive(Debug, Default)]
struct Counts {
    req_obj: u64,
    obj_grant: u64,
    req_vol: u64,
    vol_grant: u64,
    invalidate: u64,
    ack_invalidate: u64,
    must_renew: u64,
    renew_obj: u64,
    inval_renew: u64,
    ack_batch: u64,
}

enum Env {
    ToServer {
        volume: VolumeId,
        from: ClientId,
        msg: ClientMsg,
    },
    ToClient {
        volume: VolumeId,
        to: ClientId,
        msg: ServerMsg,
    },
}

struct Replay<'a> {
    universe: &'a Universe,
    servers: Vec<ServerMachine>,
    clients: BTreeMap<(ClientId, VolumeId), ClientMachine>,
    committed: Vec<Bytes>,
    queue: VecDeque<Env>,
    completed: Vec<WriteOutcome>,
    counts: Counts,
    /// Reads where the machines spent one REQ_OBJ_LEASE/OBJ_LEASE pair
    /// the simulator folds into a volume grant (see module docs).
    extra_obj_pairs: u64,
    stale_reads: u64,
    reads: u64,
    write_seq: u64,
}

impl<'a> Replay<'a> {
    fn new(universe: &'a Universe, inactive_discard: Option<Duration>) -> Replay<'a> {
        let servers = (0..universe.volume_count())
            .map(|vi| {
                let volume = VolumeId(vi as u32);
                let cfg = MachineConfig {
                    server: universe.volume(volume).server,
                    volume,
                    object_lease: OBJECT_TIMEOUT,
                    volume_lease: VOLUME_TIMEOUT,
                    inactive_discard,
                    write_mode: WriteMode::Blocking,
                    self_inval: None,
                };
                ServerMachine::new(cfg, None).0
            })
            .collect();
        let mut replay = Replay {
            universe,
            servers,
            clients: BTreeMap::new(),
            committed: Vec::new(),
            queue: VecDeque::new(),
            completed: Vec::new(),
            counts: Counts::default(),
            extra_obj_pairs: 0,
            stale_reads: 0,
            reads: 0,
            write_seq: 0,
        };
        for i in 0..universe.object_count() {
            let object = ObjectId(i as u64);
            let volume = universe.volume_of(object);
            let data = Bytes::from(format!("{i}#0"));
            replay.servers[volume.raw() as usize].handle(
                Timestamp::ZERO,
                ServerInput::CreateObject {
                    object,
                    data: data.clone(),
                    version: Version::FIRST,
                },
            );
            replay.committed.push(data);
        }
        replay
    }

    fn client(&mut self, client: ClientId, volume: VolumeId) -> &mut ClientMachine {
        let server = self.universe.volume(volume).server;
        self.clients.entry((client, volume)).or_insert_with(|| {
            ClientMachine::new(ClientMachineConfig {
                client,
                server,
                volume,
                self_inval: false,
            })
        })
    }

    fn route_server_actions(&mut self, volume: VolumeId, actions: Vec<ServerAction>) {
        for action in actions {
            match action {
                ServerAction::Send { to, msg } => {
                    self.queue.push_back(Env::ToClient { volume, to, msg })
                }
                ServerAction::CompleteWrite { outcome } => self.completed.push(outcome),
                ServerAction::SendPeer { .. }
                | ServerAction::SetTimer { .. }
                | ServerAction::Persist { .. } => {}
            }
        }
    }

    /// Lets the volume's server machine observe `now` before the next
    /// event — demotions fire on the clock, exactly as the simulator
    /// demotes before handling the event that observes them.
    fn tick_server(&mut self, now: Timestamp, volume: VolumeId) {
        let actions = self.servers[volume.raw() as usize].handle(now, ServerInput::Tick);
        self.route_server_actions(volume, actions);
        self.pump(now, None);
    }

    /// Drains the network synchronously. Returns whether a
    /// `MUST_RENEW_ALL` was delivered to `watch` (a reconnection).
    fn pump(&mut self, now: Timestamp, watch: Option<(ClientId, VolumeId)>) -> bool {
        let mut recon = false;
        while let Some(env) = self.queue.pop_front() {
            match env {
                Env::ToServer { volume, from, msg } => {
                    match &msg {
                        ClientMsg::ReqObjLease { .. } => self.counts.req_obj += 1,
                        ClientMsg::ReqVolLease { .. } => self.counts.req_vol += 1,
                        ClientMsg::RenewObjLeases { .. } => self.counts.renew_obj += 1,
                        ClientMsg::AckInvalidate { .. } => self.counts.ack_invalidate += 1,
                        ClientMsg::AckVolBatch { .. } => self.counts.ack_batch += 1,
                    }
                    let actions = self.servers[volume.raw() as usize]
                        .handle(now, ServerInput::Msg { from, msg });
                    self.route_server_actions(volume, actions);
                }
                Env::ToClient { volume, to, msg } => {
                    match &msg {
                        ServerMsg::ObjLease { .. } => self.counts.obj_grant += 1,
                        ServerMsg::VolLease { .. } => self.counts.vol_grant += 1,
                        ServerMsg::Invalidate { .. } => self.counts.invalidate += 1,
                        ServerMsg::MustRenewAll { .. } => {
                            self.counts.must_renew += 1;
                            if watch == Some((to, volume)) {
                                recon = true;
                            }
                        }
                        ServerMsg::InvalRenew { .. } => self.counts.inval_renew += 1,
                        ServerMsg::WrongShard { .. } => {}
                    }
                    let cm = self.clients.get_mut(&(to, volume)).expect("known client");
                    for action in cm.handle(now, ClientInput::Msg(msg)) {
                        if let ClientAction::Send(m) = action {
                            self.queue.push_back(Env::ToServer {
                                volume,
                                from: to,
                                msg: m,
                            });
                        }
                    }
                }
            }
        }
        recon
    }

    fn on_read(&mut self, now: Timestamp, client: ClientId, object: ObjectId) {
        let volume = self.universe.volume_of(object);
        self.reads += 1;
        self.tick_server(now, volume);
        let actions = self
            .client(client, volume)
            .handle(now, ClientInput::Read { object });
        let mut delivered = None;
        let (mut initial_vol, mut initial_obj, mut initial_obj_cached) = (false, false, false);
        for action in actions {
            match action {
                ClientAction::DeliverRead { data, .. } => delivered = Some(data),
                ClientAction::Send(msg) => {
                    match &msg {
                        ClientMsg::ReqVolLease { .. } => initial_vol = true,
                        ClientMsg::ReqObjLease { version, .. } => {
                            initial_obj = true;
                            initial_obj_cached = *version != Version::NONE;
                        }
                        _ => {}
                    }
                    self.queue.push_back(Env::ToServer {
                        volume,
                        from: client,
                        msg,
                    });
                }
            }
        }
        let recon = self.pump(now, Some((client, volume)));
        // Like the live driver, re-issue the read until the leases are
        // whole — e.g. after a volume batch invalidated the very object
        // being read, one retry fetches it back.
        let mut retry_obj = false;
        let mut attempts = 0;
        while delivered.is_none() {
            assert!(attempts < 4, "read did not settle: c{client:?} {object}");
            attempts += 1;
            let cm = self
                .clients
                .get_mut(&(client, volume))
                .expect("known client");
            if let Some(data) = cm.complete_read(now, object) {
                delivered = Some(data);
                break;
            }
            for action in cm.handle(now, ClientInput::Read { object }) {
                match action {
                    ClientAction::DeliverRead { data, .. } => delivered = Some(data),
                    ClientAction::Send(msg) => {
                        if matches!(msg, ClientMsg::ReqObjLease { .. }) {
                            retry_obj = true;
                        }
                        self.queue.push_back(Env::ToServer {
                            volume,
                            from: client,
                            msg,
                        });
                    }
                }
            }
            self.pump(now, None);
        }
        let data = delivered.expect("loop exits with data");
        if data != self.committed[object.raw() as usize] {
            self.stale_reads += 1;
        }
        if recon {
            if initial_obj && initial_obj_cached {
                self.extra_obj_pairs += 1;
            }
        } else {
            if initial_vol && initial_obj {
                self.extra_obj_pairs += 1;
            }
            if retry_obj {
                self.extra_obj_pairs += 1;
            }
        }
    }

    fn on_write(&mut self, now: Timestamp, object: ObjectId) {
        let volume = self.universe.volume_of(object);
        self.tick_server(now, volume);
        self.write_seq += 1;
        let data = Bytes::from(format!("{}#{}", object.raw(), self.write_seq));
        let actions = self.servers[volume.raw() as usize].handle(
            now,
            ServerInput::Write {
                object,
                data: data.clone(),
            },
        );
        self.route_server_actions(volume, actions);
        self.pump(now, None);
        let outcome = self.completed.pop().expect("write commits synchronously");
        // With every ack delivered in-event, writes never block — the
        // same zero delay the simulator records.
        assert_eq!(outcome.delay, Duration::ZERO);
        self.committed[object.raw() as usize] = data;
    }

    fn run(&mut self, trace: &Trace) {
        for event in trace.events() {
            match event.op() {
                Op::Read { at, client, object } => self.on_read(at, client, object),
                Op::Write { at, object } => self.on_write(at, object),
            }
        }
    }
}

fn check_equivalence(inactive_discard: Duration) -> Counts {
    let trace = TraceGenerator::new(WorkloadConfig::smoke()).generate();

    let report = SimulationBuilder::new(ProtocolKind::DelayedInvalidation {
        volume_timeout: VOLUME_TIMEOUT,
        object_timeout: OBJECT_TIMEOUT,
        inactive_discard,
    })
    .run(&trace);

    let machine_discard = (!inactive_discard.is_infinite()).then_some(inactive_discard);
    let mut replay = Replay::new(trace.universe(), machine_discard);
    replay.run(&trace);

    // Strong consistency on both sides.
    assert_eq!(report.summary.stale_reads, 0);
    assert_eq!(replay.stale_reads, 0, "machines served stale data");
    assert_eq!(replay.reads, report.summary.reads);

    // Every wire-message count matches after normalizing the simulator's
    // piggybacked object renewals (see module docs).
    let mc = report.metrics.message_counters();
    let c = &replay.counts;
    assert_eq!(c.req_vol, mc.count(MessageKind::VolLeaseRequest));
    assert_eq!(c.vol_grant, mc.count(MessageKind::VolLeaseGrant));
    assert_eq!(c.must_renew, mc.count(MessageKind::MustRenewAll));
    assert_eq!(c.renew_obj, mc.count(MessageKind::RenewObjLeases));
    assert_eq!(c.inval_renew, mc.count(MessageKind::BatchedInvalRenew));
    assert_eq!(c.invalidate, mc.count(MessageKind::Invalidate));
    assert_eq!(
        c.ack_invalidate + c.ack_batch,
        mc.count(MessageKind::AckInvalidate),
        "batch acks and immediate acks together must match"
    );
    assert_eq!(
        c.req_obj,
        mc.count(MessageKind::ObjLeaseRequest) + replay.extra_obj_pairs
    );
    assert_eq!(
        c.obj_grant,
        mc.count(MessageKind::ObjLeaseGrant) + replay.extra_obj_pairs
    );
    replay.counts
}

#[test]
fn machines_match_simulator_with_delayed_invalidations() {
    // Finite d: demotions and the §3.1.1 reconnection protocol run.
    let c = check_equivalence(Duration::from_secs(20_000));
    // The trace must actually exercise the interesting paths, or the
    // equivalence above is vacuous.
    assert!(c.must_renew > 0, "no reconnections happened");
    assert!(c.renew_obj > 0 && c.inval_renew > 0, "no §3.1.1 exchanges");
    assert!(c.invalidate > 0, "no invalidations happened");
    assert!(c.ack_batch > 0, "no delayed-invalidation batches delivered");
}

#[test]
fn machines_match_simulator_with_infinite_discard() {
    // d = ∞: pending lists are kept forever, nobody reconnects.
    let c = check_equivalence(Duration::MAX);
    assert_eq!(c.must_renew, 0, "reconnection without demotion");
    assert!(c.ack_batch > 0, "no delayed-invalidation batches delivered");
}

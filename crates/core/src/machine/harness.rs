//! Deterministic fault-injection harness for the sans-io machines.
//!
//! A `World` holds N [`ClientMachine`]s, one [`ServerMachine`], the
//! messages in flight between them and an agenda of timers, and it
//! moves only by applying one `Choice` at a time: deliver, drop or
//! duplicate the head message of a client↔server channel; advance to
//! the next instant a guard can change; a read; a write; a client crash
//! (cache loss); a server crash with epoch recovery from the last
//! [`ServerAction::Persist`]; a partition, which heals by itself.
//!
//! Two choosers drive that one transition function:
//!
//! - [`run`] draws every choice from one seeded RNG: each message's loss
//!   at the moment it is sent, its arrival one `latency` later, and one
//!   workload step (read, write or fault) every `step_gap`. A run is a
//!   function of its [`FaultConfig`] alone — the produced
//!   [`FaultReport::log`] is byte-identical across reruns with the same
//!   seed. The four mixes the CLI ships (`vl sim --chaos-profile`) are
//!   constructors here — [`FaultConfig::havoc`],
//!   [`drops`](FaultConfig::drops), [`delays`](FaultConfig::delays),
//!   [`partitions`](FaultConfig::partitions) — so the test suite runs
//!   exactly what the CLI does.
//! - A test-only explorer searches every choice sequence up to a bound
//!   at small scope (2 clients × 2 objects × 1 volume), breadth first,
//!   so a violation it finds comes with a shortest sequence.
//!
//! Neither needs a clock or an event queue: `now` is a plain
//! [`Timestamp`] that never runs backwards, and timers wait in one
//! agenda ordered by `(at, schedule order)`.
//!
//! Two safety invariants from the paper are checked at every transition:
//!
//! 1. **No stale read**: every read delivered by a client machine (which
//!    only happens under valid object *and* volume leases) must return
//!    the latest committed write of that object.
//! 2. **No early write**: at the instant a write commits, no client may
//!    still hold valid leases on the previous version — i.e. the server
//!    waited for every non-acked holder's `min(object, volume)` lease to
//!    expire (Figure 3).
//!
//! and one of precision, whenever nothing is in flight and no server
//! timer is armed:
//!
//! 3. **Writes settle**: every enqueued write has committed or was lost
//!    to a crash.
//!
//! Violations are collected in [`FaultReport::violations`] rather than
//! panicking, so a failing property surfaces with its full event log.

use super::{
    ClientAction, ClientInput, ClientMachine, ClientMachineConfig, MachineConfig, ServerAction,
    ServerInput, ServerMachine, StableState,
};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use vl_proto::{ClientMsg, ServerMsg};
use vl_types::{ClientId, Duration, ObjectId, ServerId, Timestamp, Version};

/// Parameters of one seeded fault run.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Seed for every random draw (workload and faults).
    pub seed: u64,
    /// Number of client machines.
    pub clients: usize,
    /// Number of objects, all in the one volume.
    pub objects: usize,
    /// Workload steps (reads/writes/faults) to schedule.
    pub steps: usize,
    /// Virtual time between workload steps.
    pub step_gap: Duration,
    /// Object lease length `t`.
    pub object_lease: Duration,
    /// Volume lease length `t_v`.
    pub volume_lease: Duration,
    /// Delayed-invalidation discard parameter `d`.
    pub inactive_discard: Option<Duration>,
    /// One-way message latency (constant, so delivery is in-order).
    pub latency: Duration,
    /// How long a client waits before resending read requests.
    pub retry_timeout: Duration,
    /// Resend attempts before a read is abandoned.
    pub max_retries: u32,
    /// Probability an individual message is dropped.
    pub drop_prob: f64,
    /// Fraction of workload steps that are writes.
    pub write_fraction: f64,
    /// Probability a step crashes a random client (cache loss).
    pub client_crash_prob: f64,
    /// Probability a step crashes the server.
    pub server_crash_prob: f64,
    /// How long the server stays down after a crash.
    pub server_down_for: Duration,
    /// Probability a step partitions a random client.
    pub partition_prob: f64,
    /// How long a partition lasts.
    pub partition_for: Duration,
    /// `Some(ε)` runs the machines in self-invalidation mode: grants
    /// carry drop-deadlines, writes send no invalidations and wait the
    /// latest deadline out padded by the skew bound `ε`.
    pub self_inval: Option<Duration>,
    /// Maximum absolute clock error injected per client: each client's
    /// local clock runs at a fixed signed offset drawn uniformly from
    /// `[-clock_skew, +clock_skew]`. Zero (the default) keeps every
    /// clock exact — and keeps the RNG stream identical to runs that
    /// predate the knob. Self-invalidation is safe while the *actual*
    /// skew stays within the configured bound `ε`; pushing
    /// `clock_skew` beyond `ε` is how the harness demonstrates the
    /// protocol's hazard.
    pub clock_skew: Duration,
}

impl FaultConfig {
    /// The shipped `havoc` mix, a fairly hostile default: 5% message
    /// loss, periodic client and server crashes, short partitions,
    /// leases short enough to lapse between steps.
    pub fn havoc(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            clients: 4,
            objects: 6,
            steps: 1200,
            step_gap: Duration::from_millis(50),
            object_lease: Duration::from_secs(5),
            volume_lease: Duration::from_millis(500),
            inactive_discard: Some(Duration::from_secs(10)),
            latency: Duration::from_millis(5),
            retry_timeout: Duration::from_millis(300),
            max_retries: 3,
            drop_prob: 0.05,
            write_fraction: 0.25,
            client_crash_prob: 0.02,
            server_crash_prob: 0.01,
            server_down_for: Duration::from_secs(2),
            partition_prob: 0.03,
            partition_for: Duration::from_secs(1),
            self_inval: None,
            clock_skew: Duration::ZERO,
        }
    }

    /// `havoc`'s workload with every fault switched off; the base of
    /// the single-fault mixes below.
    fn quiet(seed: u64) -> FaultConfig {
        FaultConfig {
            drop_prob: 0.0,
            client_crash_prob: 0.0,
            server_crash_prob: 0.0,
            partition_prob: 0.0,
            ..FaultConfig::havoc(seed)
        }
    }

    /// The shipped `drops` mix: 10% message loss, nothing else.
    pub fn drops(seed: u64) -> FaultConfig {
        FaultConfig {
            drop_prob: 0.10,
            ..FaultConfig::quiet(seed)
        }
    }

    /// The shipped `delays` mix: 30 ms one-way latency, so requests,
    /// grants and acks of neighbouring exchanges overlap; nothing lost.
    pub fn delays(seed: u64) -> FaultConfig {
        FaultConfig {
            latency: Duration::from_millis(30),
            ..FaultConfig::quiet(seed)
        }
    }

    /// The shipped `partitions` mix: every tenth step cuts a client off
    /// for 150 ms, with 2% background loss.
    pub fn partitions(seed: u64) -> FaultConfig {
        FaultConfig {
            drop_prob: 0.02,
            partition_prob: 0.10,
            partition_for: Duration::from_millis(150),
            ..FaultConfig::quiet(seed)
        }
    }
}

/// What a fault run did and observed.
#[derive(Clone, Debug, Default)]
pub struct FaultReport {
    /// Workload steps executed.
    pub steps: usize,
    /// Reads that returned data (local or after server exchanges).
    pub reads_delivered: u64,
    /// Of those, reads served purely from cache.
    pub local_reads: u64,
    /// Reads abandoned after the retry budget.
    pub reads_timed_out: u64,
    /// Reads aborted because their client crashed.
    pub reads_aborted: u64,
    /// Writes handed to the server.
    pub writes_enqueued: u64,
    /// Writes that committed.
    pub writes_completed: u64,
    /// Writes lost to a server crash (or issued while it was down).
    pub writes_lost: u64,
    /// Largest commit delay over all completed writes.
    pub max_write_delay: Duration,
    /// Server crash/recovery cycles.
    pub server_crashes: u64,
    /// Client crashes (cache loss, identity kept).
    pub client_crashes: u64,
    /// Client partitions.
    pub partitions: u64,
    /// Messages dropped by the fault model (loss, partition, dead node).
    pub messages_dropped: u64,
    /// Individual invariant assertions evaluated.
    pub invariant_checks: u64,
    /// Reconnection exchanges completed by the server.
    pub reconnections: u64,
    /// Invalidation messages sent across all completed writes — the
    /// self-invalidation acceptance check is that this stays zero.
    pub invalidations_sent: u64,
    /// Invariant violations (empty on a correct protocol).
    pub violations: Vec<String>,
    /// The full deterministic event log.
    pub log: String,
}

/// One direction of one client's link to the server. Messages on a
/// channel arrive in the order they were sent, or not at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Channel {
    ToServer(ClientId),
    ToClient(ClientId),
}

/// One transition of a [`World`], as a chooser picks it from
/// [`World::enabled`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Choice {
    /// The channel's head message arrives.
    Deliver(Channel),
    /// The channel's head message is lost.
    Drop(Channel),
    /// A copy of the channel's head message arrives; the head stays.
    Duplicate(Channel),
    /// Time moves to the next instant a guard can change — the earliest
    /// timer, lease expiry seen on the wire, or latest arrival of a
    /// message in flight — and the timer due then, if any, fires.
    Advance,
    /// A client reads an object.
    Read(ClientId, ObjectId),
    /// An object is written at the server.
    Write(ObjectId),
    /// A client loses its cache, keeping its identity.
    CrashClient(ClientId),
    /// The server crashes; it reboots from its stable record
    /// `server_down_for` later.
    CrashServer,
    /// A client is cut off; it heals `partition_for` later.
    Partition(ClientId),
}

/// What the agenda holds: what happens at a set instant.
#[derive(Clone, Debug)]
enum Due {
    /// The seeded chooser's next workload step.
    Step,
    /// The channel's head message arrives (seeded runs; a search
    /// delivers by [`Choice`]).
    Arrive(Channel),
    /// A pending read — client, object, read id, attempt — resends its
    /// requests, or gives up.
    ReadRetry(ClientId, ObjectId, u64, u32),
    /// A server timer.
    Tick,
    /// The crashed server reboots.
    ServerUp,
    /// A partition heals.
    Heal(ClientId),
}

/// The machines, what is in flight between them, the timers, and the
/// bookkeeping the invariants are checked against.
#[cfg_attr(test, derive(Clone))]
struct World {
    cfg: FaultConfig,
    /// Virtual time; it never runs backwards.
    now: Timestamp,
    /// Timers by `(at, schedule order)`: ties fire in the order they
    /// were scheduled.
    agenda: BTreeMap<(Timestamp, u64), Due>,
    scheduled: u64,
    /// The seeded chooser: it decides each message's loss as it is sent
    /// and delivers it `latency` later. `None` when a search decides
    /// both by [`Choice`].
    rng: Option<StdRng>,
    server_cfg: MachineConfig,
    server: Option<ServerMachine>,
    stable: Option<StableState>,
    /// Authoritative committed state (the server's "disk"): what every
    /// read must observe once leases validate it.
    committed: BTreeMap<ObjectId, (Version, Bytes)>,
    clients: Vec<ClientMachine>,
    /// Per-client signed clock error, milliseconds. A client machine is
    /// always driven with its *local* time `true + offset`; the server
    /// and the agenda stay on true time.
    offsets: Vec<i64>,
    partitioned: BTreeSet<ClientId>,
    /// Messages in flight per client, each with the instant it was sent.
    to_server: Vec<VecDeque<(Timestamp, ClientMsg)>>,
    to_client: Vec<VecDeque<(Timestamp, ServerMsg)>>,
    /// Lease expiries granted on the wire that have not passed yet.
    expiries: BTreeSet<Timestamp>,
    /// In-flight reads: (client, object) -> read id (stale retries of a
    /// finished or superseded read are ignored by id mismatch).
    pending_reads: BTreeMap<(ClientId, ObjectId), u64>,
    next_read_id: u64,
    /// FIFO mirror of the one hosted volume's write queue; CompleteWrite
    /// actions resolve these oldest-first and must name the same object.
    pending_writes: VecDeque<(ObjectId, Bytes)>,
    write_seq: u64,
    /// Reconnections completed by the server incarnations that crashed.
    crashed_reconnections: u64,
    report: FaultReport,
    log: Vec<String>,
}

/// Runs one seeded fault schedule to completion and reports.
pub fn run(cfg: &FaultConfig) -> FaultReport {
    assert!(cfg.clients > 0 && cfg.objects > 0 && cfg.steps > 0);
    let mut w = World::new(cfg, Some(StdRng::seed_from_u64(cfg.seed)));
    w.schedule(Timestamp::ZERO, Due::Step);
    while !w.agenda.is_empty() {
        w.apply(Choice::Advance);
    }
    w.check();
    w.note(format!(
        "done: {} reads ({} local), {} writes committed, {} violations",
        w.report.reads_delivered,
        w.report.local_reads,
        w.report.writes_completed,
        w.report.violations.len()
    ));
    let mut report = w.report;
    report.log = w.log.join("\n");
    report
}

impl World {
    /// The world at time zero: every object at its first version and the
    /// server booted. `rng` is the seeded chooser, if one chooses.
    fn new(cfg: &FaultConfig, mut rng: Option<StdRng>) -> World {
        let mut server_cfg = MachineConfig::new(ServerId(0));
        server_cfg.object_lease = cfg.object_lease;
        server_cfg.volume_lease = cfg.volume_lease;
        server_cfg.inactive_discard = cfg.inactive_discard;
        server_cfg.self_inval = cfg.self_inval;
        // Draw clock errors only when the knob is on, so zero-skew runs
        // keep byte-identical RNG streams (and logs) with older seeds.
        let offsets: Vec<i64> = if cfg.clock_skew.is_zero() {
            vec![0; cfg.clients]
        } else {
            let rng = rng.as_mut().expect("the seeded chooser draws clock errors");
            let s = cfg.clock_skew.as_millis() as i64;
            (0..cfg.clients)
                .map(|_| rng.gen_range(0..=(2 * s) as u64) as i64 - s)
                .collect()
        };
        let committed = (0..cfg.objects as u64).map(|o| {
            let init = Bytes::from(format!("init-o{o}"));
            (ObjectId(o), (Version::FIRST, init))
        });
        let mut w = World {
            cfg: cfg.clone(),
            now: Timestamp::ZERO,
            agenda: BTreeMap::new(),
            scheduled: 0,
            rng,
            server_cfg,
            server: None,
            stable: None,
            committed: committed.collect(),
            clients: (0..cfg.clients)
                .map(|i| {
                    let mut mc = ClientMachineConfig::new(ClientId(i as u32), ServerId(0));
                    mc.self_inval = cfg.self_inval.is_some();
                    ClientMachine::new(mc)
                })
                .collect(),
            offsets,
            partitioned: BTreeSet::new(),
            to_server: vec![VecDeque::new(); cfg.clients],
            to_client: vec![VecDeque::new(); cfg.clients],
            expiries: BTreeSet::new(),
            pending_reads: BTreeMap::new(),
            next_read_id: 0,
            pending_writes: VecDeque::new(),
            write_seq: 0,
            crashed_reconnections: 0,
            report: FaultReport::default(),
            log: Vec::new(),
        };
        w.boot_server();
        w
    }

    /// Takes one transition; nothing else moves the machines.
    fn apply(&mut self, choice: Choice) {
        match choice {
            Choice::Deliver(ch) | Choice::Drop(ch) | Choice::Duplicate(ch) => {
                let (copy, lost) = (choice == Choice::Duplicate(ch), choice == Choice::Drop(ch));
                match ch {
                    Channel::ToServer(c) => match head(&mut self.to_server[c.0 as usize], copy) {
                        msg if lost => self.lose(format!("drop {c}->server {msg:?}")),
                        msg => self.server_receives(c, msg),
                    },
                    Channel::ToClient(c) => match head(&mut self.to_client[c.0 as usize], copy) {
                        msg if lost => self.lose(format!("drop server->{c} {msg:?}")),
                        msg => self.client_receives(c, msg),
                    },
                }
            }
            Choice::Advance => self.advance(),
            Choice::Read(client, object) => self.start_read(client, object),
            Choice::Write(object) => self.start_write(object),
            Choice::CrashClient(victim) => self.crash_client(victim),
            Choice::CrashServer => self.crash_server(),
            Choice::Partition(victim) => {
                if self.partitioned.insert(victim) {
                    self.report.partitions += 1;
                    let heal = self.now + self.cfg.partition_for;
                    self.schedule(heal, Due::Heal(victim));
                    self.note(format!("{victim} partitioned until {heal}"));
                }
            }
        }
    }

    /// The precision invariant, checked whenever nothing is in flight and
    /// no server timer is armed, so that nothing can move the server
    /// again: every enqueued write has committed or was lost to a crash.
    fn check(&mut self) {
        let quiet = self.to_server.iter().all(VecDeque::is_empty)
            && self.to_client.iter().all(VecDeque::is_empty)
            && !self.agenda.values().any(|due| matches!(due, Due::Tick));
        let r = &self.report;
        if quiet && r.writes_enqueued != r.writes_completed + r.writes_lost {
            let v = format!(
                "[{}] UNSETTLED WRITE: {} enqueued, {} committed, {} lost, and nothing can move the server",
                self.now, r.writes_enqueued, r.writes_completed, r.writes_lost
            );
            self.violate(v);
        }
    }

    fn schedule(&mut self, at: Timestamp, due: Due) {
        self.agenda.insert((at, self.scheduled), due);
        self.scheduled += 1;
    }

    /// When each channel's head must have arrived by.
    fn arrivals(&self) -> impl Iterator<Item = Timestamp> + '_ {
        let up = self.to_server.iter().map(|q| q.front().map(|m| m.0));
        let down = self.to_client.iter().map(|q| q.front().map(|m| m.0));
        up.chain(down).flatten().map(|at| at + self.cfg.latency)
    }

    fn advance(&mut self) {
        let now = self.now;
        let guards = self
            .expiries
            .first()
            .copied()
            .into_iter()
            .chain(self.arrivals());
        let guard = guards.filter(|&at| at > now).min();
        let timer = self.agenda.first_key_value().map(|(&(at, _), _)| at);
        if let Some(at) = guard.filter(|&at| timer.is_none_or(|t| at < t)) {
            return self.set_now(at);
        }
        if let Some(((at, _), due)) = self.agenda.pop_first() {
            self.set_now(at);
            self.fire(due);
        }
    }

    fn set_now(&mut self, to: Timestamp) {
        assert!(to >= self.now, "time moved backwards to {to}");
        self.now = to;
        self.expiries.retain(|&at| at > to);
    }

    fn fire(&mut self, due: Due) {
        match due {
            Due::Step => {
                self.report.steps += 1;
                if self.report.steps < self.cfg.steps {
                    self.schedule(self.now + self.cfg.step_gap, Due::Step);
                }
                let choice = self.draw();
                self.apply(choice);
            }
            Due::Arrive(ch) => self.apply(Choice::Deliver(ch)),
            Due::ReadRetry(client, object, id, attempt) => {
                self.on_read_retry(client, object, id, attempt)
            }
            Due::Tick => {
                if let Some(server) = self.server.as_mut() {
                    let actions = server.handle(self.now, ServerInput::Tick);
                    self.apply_server_actions(actions);
                }
            }
            Due::ServerUp => self.boot_server(),
            Due::Heal(client) => {
                self.partitioned.remove(&client);
                self.note(format!("{client} healed"));
            }
        }
    }

    /// The seeded chooser's workload step: one roll picks a fault or an
    /// operation, further draws its target.
    fn draw(&mut self) -> Choice {
        let c = &self.cfg;
        let rng = self.rng.as_mut().expect("steps are seeded");
        let roll: f64 = rng.gen();
        if roll < c.server_crash_prob {
            Choice::CrashServer
        } else if roll < c.server_crash_prob + c.client_crash_prob {
            Choice::CrashClient(ClientId(rng.gen_range(0..c.clients) as u32))
        } else if roll < c.server_crash_prob + c.client_crash_prob + c.partition_prob {
            Choice::Partition(ClientId(rng.gen_range(0..c.clients) as u32))
        } else if roll
            < c.server_crash_prob + c.client_crash_prob + c.partition_prob + c.write_fraction
        {
            Choice::Write(ObjectId(rng.gen_range(0..c.objects) as u64))
        } else {
            let client = ClientId(rng.gen_range(0..c.clients) as u32);
            Choice::Read(client, ObjectId(rng.gen_range(0..c.objects) as u64))
        }
    }

    fn note(&mut self, line: String) {
        self.log.push(format!("[{}] {}", self.now, line));
    }

    fn violate(&mut self, v: String) {
        self.log.push(v.clone());
        self.report.violations.push(v);
    }

    /// What `client`'s own (possibly wrong) clock reads right now. All
    /// client-machine transitions are driven with this value: a fast
    /// clock drops deadlines early (safe), a slow one holds copies past
    /// their true deadline (the self-invalidation hazard).
    fn local_now(&self, client: ClientId) -> Timestamp {
        match self.offsets[client.0 as usize] {
            o if o >= 0 => self.now.saturating_add(Duration::from_millis(o as u64)),
            o => Timestamp::from_millis(self.now.as_millis().saturating_sub(o.unsigned_abs())),
        }
    }

    /// (Re)creates the server machine, recovering from the last
    /// persisted record and restoring committed objects at their
    /// committed versions (the driver's durable store).
    fn boot_server(&mut self) {
        let (mut server, mut actions) = ServerMachine::new(self.server_cfg, self.stable);
        for (object, (version, data)) in self.committed.clone() {
            let input = ServerInput::CreateObject {
                object,
                data,
                version,
            };
            actions.extend(server.handle(self.now, input));
        }
        let (epoch, gate) = (server.epoch(), server.recovery_until());
        self.server = Some(server);
        self.apply_server_actions(actions);
        self.note(format!(
            "server up: epoch {epoch:?}, writes gated until {gate}"
        ));
    }

    fn server_receives(&mut self, from: ClientId, msg: ClientMsg) {
        let Some(server) = self.server.as_mut() else {
            return self.lose(format!("drop {msg:?} from {from}: server down"));
        };
        let actions = server.handle(self.now, ServerInput::Msg { from, msg });
        self.apply_server_actions(actions);
    }

    fn client_receives(&mut self, to: ClientId, msg: ServerMsg) {
        let now = self.local_now(to);
        let actions = self.clients[to.0 as usize].handle(now, ClientInput::Msg(msg));
        self.apply_client_actions(to, actions);
        self.try_complete_reads(to);
    }

    fn crash_server(&mut self) {
        let Some(server) = self.server.take() else {
            return self.note("server crash: already down".to_string());
        };
        self.crashed_reconnections += server.stats().reconnections;
        self.report.server_crashes += 1;
        self.report.writes_lost += self.pending_writes.len() as u64;
        self.pending_writes.clear();
        let up = self.now + self.cfg.server_down_for;
        self.schedule(up, Due::ServerUp);
        self.note(format!("server CRASH, back at {up}"));
    }

    fn crash_client(&mut self, victim: ClientId) {
        self.report.client_crashes += 1;
        // Keep the victim's config (notably the self_inval flag) — a
        // crash loses the cache, not the protocol mode.
        let mc = *self.clients[victim.0 as usize].config();
        self.clients[victim.0 as usize] = ClientMachine::new(mc);
        let pending = self.pending_reads.len();
        self.pending_reads.retain(|&(c, _), _| c != victim);
        self.report.reads_aborted += (pending - self.pending_reads.len()) as u64;
        self.note(format!("{victim} CRASH (cache lost)"));
    }

    fn start_write(&mut self, object: ObjectId) {
        self.report.writes_enqueued += 1;
        self.write_seq += 1;
        let data = Bytes::from(format!("w{}-{}", self.write_seq, object));
        let Some(server) = self.server.as_mut() else {
            self.report.writes_lost += 1;
            return self.note(format!("write {object} lost: server down"));
        };
        let actions = server.handle(
            self.now,
            ServerInput::Write {
                object,
                data: data.clone(),
            },
        );
        self.pending_writes.push_back((object, data));
        self.note(format!("write {object} = w{}", self.write_seq));
        self.apply_server_actions(actions);
    }

    fn start_read(&mut self, client: ClientId, object: ObjectId) {
        if self.pending_reads.contains_key(&(client, object)) {
            self.note(format!("read {client} {object}: coalesced with pending"));
            return;
        }
        let local = self.local_now(client);
        let actions = self.clients[client.0 as usize].handle(local, ClientInput::Read { object });
        let delivered = actions
            .iter()
            .any(|a| matches!(a, ClientAction::DeliverRead { .. }));
        self.apply_client_actions(client, actions);
        if !delivered {
            let read_id = self.next_read_id;
            self.next_read_id += 1;
            self.pending_reads.insert((client, object), read_id);
            let due = Due::ReadRetry(client, object, read_id, 0);
            self.schedule(self.now + self.cfg.retry_timeout, due);
        }
    }

    fn on_read_retry(&mut self, client: ClientId, object: ObjectId, read_id: u64, attempt: u32) {
        if self.pending_reads.get(&(client, object)) != Some(&read_id) {
            return; // completed, aborted, or superseded
        }
        let local = self.local_now(client);
        if let Some(data) = self.clients[client.0 as usize].complete_read(local, object) {
            self.pending_reads.remove(&(client, object));
            self.deliver_read(client, object, data, false);
            return;
        }
        if attempt >= self.cfg.max_retries {
            self.pending_reads.remove(&(client, object));
            self.report.reads_timed_out += 1;
            self.note(format!("read {client} {object}: timed out"));
            return;
        }
        self.clients[client.0 as usize].stats_mut().retries += 1;
        let actions = self.clients[client.0 as usize].handle(local, ClientInput::Read { object });
        self.apply_client_actions(client, actions);
        let due = Due::ReadRetry(client, object, read_id, attempt + 1);
        self.schedule(self.now + self.cfg.retry_timeout, due);
    }

    /// After any server message lands at `client`, complete whatever
    /// pending reads its leases now cover (the live driver's condvar).
    fn try_complete_reads(&mut self, client: ClientId) {
        let now = self.local_now(client);
        let candidates: Vec<ObjectId> = self
            .pending_reads
            .keys()
            .filter(|(c, _)| *c == client)
            .map(|&(_, o)| o)
            .collect();
        for object in candidates {
            if let Some(data) = self.clients[client.0 as usize].complete_read(now, object) {
                self.pending_reads.remove(&(client, object));
                self.deliver_read(client, object, data, false);
            }
        }
    }

    /// Invariant 1: data delivered under valid leases is the latest
    /// committed write.
    fn deliver_read(&mut self, client: ClientId, object: ObjectId, data: Bytes, local: bool) {
        self.report.reads_delivered += 1;
        self.report.local_reads += local as u64;
        self.report.invariant_checks += 1;
        let (version, committed) = &self.committed[&object];
        if &data != committed {
            let v = format!(
                "[{}] STALE READ: {client} read {object} = {data:?}, committed is {committed:?} (v{})",
                self.now, version.0
            );
            self.violate(v);
        } else {
            self.note(format!(
                "read {client} {object}: ok ({})",
                if local { "local" } else { "remote" }
            ));
        }
    }

    fn apply_server_actions(&mut self, actions: Vec<ServerAction>) {
        let now = self.now;
        for action in actions {
            match action {
                ServerAction::Send { to, msg } => self.route_to_client(to, msg),
                ServerAction::SetTimer { at, .. } => self.schedule(at.max(now), Due::Tick),
                ServerAction::Persist { state } => self.stable = Some(state),
                // The harness runs a single server; there is no peer to
                // deliver handoff traffic to.
                ServerAction::SendPeer { .. } => {}
                ServerAction::CompleteWrite { outcome } => {
                    let Some((object, data)) = self.pending_writes.pop_front() else {
                        self.violate(format!(
                            "[{now}] COMPLETION with no pending write: {outcome:?}"
                        ));
                        continue;
                    };
                    if outcome.object != object {
                        self.violate(format!(
                            "[{now}] COMPLETION names {}, the oldest pending write is to {object}",
                            outcome.object
                        ));
                    }
                    // Invariant 2: at commit, nobody still holds valid
                    // leases on the old version — every non-acked
                    // holder's min(object, volume) lease has expired.
                    // Each client judges validity on its *own* clock:
                    // that is exactly where an out-of-bound skew makes
                    // self-invalidation unsafe.
                    let old = self.committed[&object].0;
                    for i in 0..self.clients.len() {
                        let local = self.local_now(ClientId(i as u32));
                        let c = &self.clients[i];
                        self.report.invariant_checks += 1;
                        if c.holds_valid_leases(local, object)
                            && c.cached_version(object) != Some(outcome.version)
                        {
                            let v = format!(
                                "[{now}] EARLY WRITE: {object} committed v{} while {} holds valid leases on v{:?} (old v{})",
                                outcome.version.0,
                                c.config().client,
                                c.cached_version(object).map(|v| v.0),
                                old.0
                            );
                            self.violate(v);
                        }
                    }
                    self.committed.insert(object, (outcome.version, data));
                    self.report.writes_completed += 1;
                    self.report.invalidations_sent += outcome.invalidations_sent as u64;
                    self.report.max_write_delay = self.report.max_write_delay.max(outcome.delay);
                    self.note(format!(
                        "write {object} committed v{} after {} ({} invalidated, {} queued, {} waited out)",
                        outcome.version.0,
                        outcome.delay,
                        outcome.invalidations_sent,
                        outcome.queued,
                        outcome.waited_out
                    ));
                }
            }
        }
        if let Some(s) = &self.server {
            self.report.reconnections = self.crashed_reconnections + s.stats().reconnections;
        }
    }

    fn apply_client_actions(&mut self, client: ClientId, actions: Vec<ClientAction>) {
        for action in actions {
            match action {
                ClientAction::Send(msg) => self.route_to_server(client, msg),
                ClientAction::DeliverRead {
                    object,
                    data,
                    local,
                } => {
                    self.deliver_read(client, object, data, local);
                }
            }
        }
    }

    /// Whether a message to or from `client` is lost as it is sent: cut
    /// off by a partition, or, by the seeded chooser's draw, by chance.
    fn lost_in_sending(&mut self, client: ClientId) -> bool {
        let p = self.cfg.drop_prob;
        self.partitioned.contains(&client) || self.rng.as_mut().is_some_and(|r| r.gen_bool(p))
    }

    /// Puts a message sent now in flight on `ch`; a seeded run delivers
    /// it `latency` later.
    fn sent(&mut self, ch: Channel) {
        if self.rng.is_some() {
            self.schedule(self.now + self.cfg.latency, Due::Arrive(ch));
        }
    }

    fn lose(&mut self, line: String) {
        self.report.messages_dropped += 1;
        self.note(line);
    }

    fn route_to_client(&mut self, to: ClientId, msg: ServerMsg) {
        if self.lost_in_sending(to) {
            return self.lose(format!("drop server->{to} {msg:?}"));
        }
        match &msg {
            ServerMsg::ObjLease { expire, .. } | ServerMsg::VolLease { expire, .. } => {
                self.expiries.insert(*expire);
            }
            ServerMsg::InvalRenew { renew, .. } => {
                self.expiries.extend(renew.iter().map(|&(.., at)| at));
            }
            _ => {}
        }
        self.to_client[to.0 as usize].push_back((self.now, msg));
        self.sent(Channel::ToClient(to));
    }

    fn route_to_server(&mut self, from: ClientId, msg: ClientMsg) {
        if self.lost_in_sending(from) {
            return self.lose(format!("drop {from}->server {msg:?}"));
        }
        self.to_server[from.0 as usize].push_back((self.now, msg));
        self.sent(Channel::ToServer(from));
    }
}

/// The head message of a channel: taken off it, or a copy of it.
fn head<M: Clone>(channel: &mut VecDeque<(Timestamp, M)>, copy: bool) -> M {
    let msg = channel.front().map(|(_, msg)| msg.clone());
    if !copy {
        channel.pop_front();
    }
    msg.expect("a message is in flight on the chosen channel")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_run_has_no_faults_or_violations() {
        let mut cfg = FaultConfig::quiet(7);
        cfg.steps = 200;
        let r = run(&cfg);
        assert_eq!(r.steps, 200);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.messages_dropped, 0);
        assert_eq!(r.reads_timed_out, 0);
        assert!(r.reads_delivered > 0);
        assert!(r.writes_completed > 0);
        // With lossless delivery every write is either instant or
        // bounded by an ack round-trip, far under min(t, t_v).
        assert!(r.max_write_delay <= cfg.volume_lease.min(cfg.object_lease));
    }

    #[test]
    fn self_inval_quiet_run_is_silent_and_bounded() {
        let eps = Duration::from_secs(1);
        let mut cfg = FaultConfig::quiet(11);
        cfg.steps = 300;
        cfg.self_inval = Some(eps);
        let r = run(&cfg);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        // The whole point: zero invalidation traffic, ever.
        assert_eq!(r.invalidations_sent, 0);
        assert!(r.reads_delivered > 0 && r.writes_completed > 0);
        // Per-write commit wait is ≤ t + ε once a write reaches the
        // head of the queue, but the reported delay also counts time
        // queued behind earlier (serialized) writes — the exact t + ε
        // bound is cross-checked deterministically in machine_props.
        assert!(r.max_write_delay > Duration::ZERO);
    }

    #[test]
    fn self_inval_survives_chaos_while_skew_is_within_bound() {
        // Full hostile mix — drops, crashes, partitions — plus real
        // clock error up to ε. As long as the actual skew honors the
        // promised bound, the protocol must stay safe with no
        // invalidation messages at all.
        let eps = Duration::from_millis(800);
        for seed in [3, 17, 61] {
            let mut cfg = FaultConfig::havoc(seed);
            cfg.steps = 600;
            cfg.self_inval = Some(eps);
            cfg.clock_skew = eps;
            let r = run(&cfg);
            assert!(r.violations.is_empty(), "seed {seed}: {:?}", r.violations);
            assert_eq!(r.invalidations_sent, 0, "seed {seed}");
            assert!(r.writes_completed > 0, "seed {seed}");
        }
    }

    #[test]
    fn self_inval_out_of_bound_skew_breaks_consistency() {
        // The hazard the paper's volume-lease design avoids: if a clock
        // drifts further than the promised ε, a slow client keeps
        // serving its copy past the true deadline and the server's
        // padded wait no longer covers it. The harness must observe
        // real violations (stale reads and/or early writes).
        let eps = Duration::from_millis(100);
        let mut total_violations = 0;
        for seed in [1, 2, 5, 8] {
            let mut cfg = FaultConfig::quiet(seed);
            cfg.steps = 400;
            cfg.self_inval = Some(eps);
            // Actual skew up to 30× the bound the server pads by.
            cfg.clock_skew = Duration::from_secs(3);
            let r = run(&cfg);
            assert_eq!(r.invalidations_sent, 0, "seed {seed}");
            total_violations += r.violations.len();
        }
        assert!(
            total_violations > 0,
            "out-of-bound skew never produced a violation"
        );
    }

    #[test]
    fn clock_skew_zero_keeps_legacy_runs_identical() {
        // The knob must not disturb the RNG stream of existing seeds:
        // a zero-skew run is byte-identical to one from before the
        // field existed (same default config, same log).
        let cfg = FaultConfig::havoc(7);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.log, b.log);
        assert_eq!(a.violations, b.violations);
    }
}

#[cfg(test)]
mod explore {
    //! The second chooser: every sequence of choices from a start state,
    //! breadth first, so the first violation found has a shortest
    //! sequence. States already seen are pruned by a fingerprint read
    //! through the machines' sorted views.

    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashSet;
    use std::fmt::Write;
    use std::hash::Hasher;
    use std::time::Instant;
    use Channel::*;
    use Choice::*;

    impl World {
        /// Every choice that can be taken now. Time may not pass the latest
        /// arrival of a message in flight (`latency` after it was sent): a
        /// message that late must first arrive or be lost.
        fn enabled(&self) -> Vec<Choice> {
            let clients = (0..self.clients.len() as u32).map(ClientId);
            let objects = (0..self.cfg.objects as u64).map(ObjectId);
            let mut choices = Vec::new();
            for c in clients.clone() {
                let i = c.0 as usize;
                let busy = [
                    (Channel::ToServer(c), !self.to_server[i].is_empty()),
                    (Channel::ToClient(c), !self.to_client[i].is_empty()),
                ];
                for (ch, _) in busy.into_iter().filter(|&(_, busy)| busy) {
                    choices.extend([Choice::Deliver(ch), Choice::Drop(ch), Choice::Duplicate(ch)]);
                }
            }
            let waiting = !self.agenda.is_empty() || !self.expiries.is_empty();
            if waiting && self.arrivals().all(|at| at > self.now) {
                choices.push(Choice::Advance);
            }
            for c in clients.clone() {
                let idle = objects
                    .clone()
                    .filter(|&o| !self.pending_reads.contains_key(&(c, o)));
                choices.extend(idle.map(|o| Choice::Read(c, o)));
            }
            choices.extend(objects.map(Choice::Write));
            choices.extend(clients.clone().map(Choice::CrashClient));
            if self.server.is_some() {
                choices.push(Choice::CrashServer);
            }
            let connected = clients.filter(|c| !self.partitioned.contains(c));
            choices.extend(connected.map(Choice::Partition));
            choices
        }
    }

    /// How many choices of each kind one sequence may make beyond
    /// delivering messages and letting time pass: the small scope.
    #[derive(Clone, Copy, Debug)]
    struct Budget {
        reads: u8,
        writes: u8,
        drops: u8,
        duplicates: u8,
        crashes: u8,
        partitions: u8,
    }

    impl Budget {
        /// Pays for `choice`; `false` if the budget cannot.
        fn spend(&mut self, choice: Choice) -> bool {
            let left = match choice {
                Choice::Deliver(_) | Choice::Advance => return true,
                Choice::Drop(_) => &mut self.drops,
                Choice::Duplicate(_) => &mut self.duplicates,
                Choice::Read(..) => &mut self.reads,
                Choice::Write(_) => &mut self.writes,
                Choice::CrashClient(_) | Choice::CrashServer => &mut self.crashes,
                Choice::Partition(_) => &mut self.partitions,
            };
            let Some(rest) = left.checked_sub(1) else {
                return false;
            };
            *left = rest;
            true
        }
    }

    /// Everything that decides what `w` does next, and what `left` may
    /// still do, hashed. Read ids, write numbers and counters are left
    /// out: they name things, they decide nothing.
    fn fingerprint(w: &World, left: Budget) -> u64 {
        let mut s = String::new();
        let _ = write!(
            s,
            "{:?} {left:?} {:?} {:?} {:?} {:?}|",
            w.now, w.stable, w.committed, w.partitioned, w.pending_writes
        );
        match &w.server {
            Some(server) => server.fingerprint(&mut s),
            None => s.push_str("down"),
        }
        for c in &w.clients {
            s.push('|');
            c.fingerprint(&mut s);
        }
        let _ = write!(s, "|{:?} {:?} {:?}", w.to_server, w.to_client, w.expiries);
        let _ = write!(s, "|{:?}", w.pending_reads.keys().collect::<Vec<_>>());
        for (&(at, _), due) in &w.agenda {
            let _ = match due {
                Due::ReadRetry(client, object, read_id, attempt) => {
                    let live = w.pending_reads.get(&(*client, *object)) == Some(read_id);
                    write!(s, " {at:?} retry {client} {object} {live} {attempt}")
                }
                due => write!(s, " {at:?} {due:?}"),
            };
        }
        let mut h = DefaultHasher::new();
        h.write(s.as_bytes());
        h.finish()
    }

    /// What one search found: the distinct states it expanded, the
    /// transitions it took, and the first sequence that ends in a
    /// violation.
    struct Outcome {
        states: usize,
        transitions: u64,
        found: Option<Vec<Choice>>,
    }

    /// Breadth-first search from `root` to `depth` choices within
    /// `budget`. A state is kept as its parent and the choice that
    /// reached it, and rebuilt by replaying its path from `root`; the
    /// last level is only checked, so it is not fingerprinted.
    fn search(root: &World, budget: Budget, depth: usize) -> Outcome {
        let mut tree: Vec<(usize, Choice)> = vec![(0, Advance)];
        let mut seen = HashSet::from([fingerprint(root, budget)]);
        let (mut level, mut transitions) = (vec![0], 0);
        for remaining in (0..depth).rev() {
            let mut next = Vec::new();
            for &node in &level {
                let path = path_to(&tree, node);
                let (world, left) = replay(root, budget, &path);
                for choice in world.enabled() {
                    let mut left = left;
                    if !left.spend(choice) {
                        continue;
                    }
                    let mut w = world.clone();
                    w.apply(choice);
                    w.check();
                    transitions += 1;
                    if !w.report.violations.is_empty() {
                        let found = Some(path.iter().copied().chain([choice]).collect());
                        return Outcome {
                            states: seen.len(),
                            transitions,
                            found,
                        };
                    }
                    w.log.clear();
                    if remaining > 0 && seen.insert(fingerprint(&w, left)) {
                        tree.push((node, choice));
                        next.push(tree.len() - 1);
                    }
                }
            }
            level = next;
        }
        Outcome {
            states: seen.len(),
            transitions,
            found: None,
        }
    }

    fn path_to(tree: &[(usize, Choice)], mut node: usize) -> Vec<Choice> {
        let mut path = Vec::new();
        while node != 0 {
            let (parent, choice) = tree[node];
            path.push(choice);
            node = parent;
        }
        path.reverse();
        path
    }

    fn replay(root: &World, mut budget: Budget, path: &[Choice]) -> (World, Budget) {
        let mut w = root.clone();
        for &choice in path {
            budget.spend(choice);
            w.apply(choice);
        }
        w.log.clear();
        (w, budget)
    }

    const C0: ClientId = ClientId(0);
    const O0: ObjectId = ObjectId(0);
    const O1: ObjectId = ObjectId(1);

    /// The committed prefix every test here starts from. c0 reads o0 and
    /// o1; a write to o1 whose invalidation is lost waits c0 out, which
    /// puts c0 in the server's Unreachable set still holding o0 under a
    /// valid object lease. c0's next read then runs the reconnection
    /// exchange up to its last message: REQ_VOL_LEASE, MUST_RENEW_ALL,
    /// RENEW_OBJ_LEASES and INVAL_RENEW have landed, and c0's
    /// ACK_VOL_BATCH is in flight.
    ///
    /// From the bare waited-out state (the first 13 choices) the race
    /// below is 12 choices deep, and a search that deep visits 11
    /// million states: minutes, not seconds.
    const RECONNECTING: &[Choice] = &[
        Read(C0, O0),
        Deliver(ToServer(C0)),
        Deliver(ToServer(C0)),
        Deliver(ToClient(C0)),
        Deliver(ToClient(C0)),
        Read(C0, O1),
        Deliver(ToServer(C0)),
        Deliver(ToClient(C0)),
        Write(O1),
        Drop(ToClient(C0)),
        Advance,
        Advance,
        Advance,
        Read(C0, O0),
        Deliver(ToServer(C0)),
        Deliver(ToClient(C0)),
        Deliver(ToServer(C0)),
        Deliver(ToClient(C0)),
    ];

    /// The shortest violation the explorer finds from [`RECONNECTING`]:
    /// c0 asks for o1 (and so for a volume lease), o0 is written while
    /// c0's invalidation waits in its queued batch, and c0's one
    /// ACK_VOL_BATCH reaches the server twice. The first copy completes
    /// the reconnection with a grant carrying the batch; the second is
    /// taken for the ack of that grant and clears the batch, so the
    /// REQ_VOL_LEASE behind it is granted with nothing to invalidate.
    /// The first grant is lost, the second lands, and c0 reads its old
    /// o0 under valid leases.
    const RACE: &[Choice] = &[
        Read(C0, O1),
        Write(O0),
        Duplicate(ToServer(C0)),
        Deliver(ToServer(C0)),
        Deliver(ToServer(C0)),
        Drop(ToClient(C0)),
        Deliver(ToClient(C0)),
    ];

    /// At most one choice of each kind beyond delivering messages and
    /// letting time pass, seven choices deep.
    const BUDGET: Budget = Budget {
        reads: 1,
        writes: 1,
        drops: 1,
        duplicates: 1,
        crashes: 1,
        partitions: 1,
    };
    const DEPTH: usize = RACE.len();

    /// The scope: 2 clients × 2 objects × 1 volume, `havoc`'s lease
    /// terms and timeouts, and a message arriving at any point up to
    /// 30 ms after it was sent, as in `delays`.
    fn reconnecting() -> World {
        let cfg = FaultConfig {
            clients: 2,
            objects: 2,
            latency: Duration::from_millis(30),
            ..FaultConfig::quiet(0)
        };
        let mut w = World::new(&cfg, None);
        for &choice in RECONNECTING {
            w.apply(choice);
        }
        assert!(w.report.violations.is_empty(), "{:?}", w.report.violations);
        w.log.clear();
        w
    }

    fn explore(budget: Budget) -> Outcome {
        let started = Instant::now();
        let out = search(&reconnecting(), budget, DEPTH);
        println!(
            "{budget:?}, depth {DEPTH}: {} states, {} transitions in {:.1?}; found {:?}",
            out.states,
            out.transitions,
            started.elapsed(),
            out.found
        );
        out
    }

    #[test]
    fn explorer_finds_the_reconnection_race_with_one_drop() {
        assert_eq!(explore(BUDGET).found.as_deref(), Some(RACE));
    }

    #[test]
    fn explorer_finds_no_violation_without_drops() {
        let out = explore(Budget { drops: 0, ..BUDGET });
        assert_eq!(out.found, None);
    }

    #[test]
    fn replay_of_the_race_reads_stale() {
        let mut w = reconnecting();
        for &choice in RACE {
            w.apply(choice);
            w.check();
        }
        let stale = w
            .report
            .violations
            .iter()
            .any(|v| v.contains("STALE READ: c0 read o0"));
        assert!(stale, "{}", w.log.join("\n"));
    }

    #[test]
    #[should_panic(expected = "time moved backwards")]
    fn time_never_runs_backwards() {
        let mut w = reconnecting();
        w.apply(Advance);
        w.set_now(Timestamp::ZERO);
    }

    #[test]
    fn reconnections_outlive_a_server_reboot() {
        let mut w = reconnecting();
        w.apply(Deliver(ToServer(C0)));
        assert_eq!(w.report.reconnections, 1);
        w.apply(CrashServer);
        while w.server.is_none() {
            w.apply(Advance);
        }
        assert_eq!(w.report.reconnections, 1, "{}", w.log.join("\n"));
    }
}

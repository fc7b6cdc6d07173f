//! Deterministic fault-injection harness for the sans-io machines.
//!
//! Runs N [`ClientMachine`]s against one [`ServerMachine`] on a
//! [`VirtualClock`], with every message routed through a seeded fault
//! model: random drops, client partitions, client crashes (cache loss),
//! and server crashes with epoch recovery from the last
//! [`ServerAction::Persist`]. Because the machines are pure and every
//! random draw comes from one [`SimRng`], a run is a function of its
//! [`FaultConfig`] alone — the produced [`FaultReport::log`] is
//! byte-identical across reruns with the same seed. The four mixes the
//! CLI ships (`vl sim --chaos-profile`) are constructors here —
//! [`FaultConfig::havoc`], [`drops`](FaultConfig::drops),
//! [`delays`](FaultConfig::delays), [`partitions`](FaultConfig::partitions)
//! — so the test suite runs exactly what the CLI does.
//!
//! Two safety invariants from the paper are checked continuously:
//!
//! 1. **No stale read**: every read delivered by a client machine (which
//!    only happens under valid object *and* volume leases) must return
//!    the latest committed write of that object.
//! 2. **No early write**: at the instant a write commits, no client may
//!    still hold valid leases on the previous version — i.e. the server
//!    waited for every non-acked holder's `min(object, volume)` lease to
//!    expire (Figure 3).
//!
//! Violations are collected in [`FaultReport::violations`] rather than
//! panicking, so a failing property surfaces with its full event log.

use super::{
    ClientAction, ClientInput, ClientMachine, ClientMachineConfig, MachineConfig, ServerAction,
    ServerInput, ServerMachine, StableState,
};
use bytes::Bytes;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use vl_proto::{ClientMsg, ServerMsg};
use vl_sim::{EventQueue, SimRng, VirtualClock};
use vl_types::{ClientId, Clock, Duration, ObjectId, ServerId, Timestamp, Version};

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

enum Ev {
    Step,
    ToServer {
        from: ClientId,
        msg: ClientMsg,
    },
    ToClient {
        to: ClientId,
        msg: ServerMsg,
    },
    ReadRetry {
        client: ClientId,
        object: ObjectId,
        read_id: u64,
        attempt: u32,
    },
    Tick,
    ServerUp,
    Heal {
        client: ClientId,
    },
}

struct Harness {
    cfg: FaultConfig,
    clock: VirtualClock,
    queue: EventQueue<Ev>,
    rng: SimRng,
    server_cfg: MachineConfig,
    server: Option<ServerMachine>,
    stable: Option<StableState>,
    /// Authoritative committed state (the server's "disk"): what every
    /// read must observe once leases validate it.
    committed: BTreeMap<ObjectId, (Version, Bytes)>,
    clients: Vec<ClientMachine>,
    /// Per-client signed clock error, milliseconds. A client machine is
    /// always driven with its *local* time `true + offset`; the server
    /// and the event queue stay on true time.
    offsets: Vec<i64>,
    partitioned: BTreeSet<ClientId>,
    /// In-flight reads: (client, object) -> read id (stale retries of a
    /// finished or superseded read are ignored by id mismatch).
    pending_reads: BTreeMap<(ClientId, ObjectId), u64>,
    next_read_id: u64,
    /// FIFO mirror of the one hosted volume's write queue; CompleteWrite
    /// actions resolve these oldest-first and must name the same object.
    pending_writes: VecDeque<(ObjectId, Bytes)>,
    write_seq: u64,
    report: FaultReport,
    log: Vec<String>,
}

/// Runs one seeded fault schedule to completion and reports.
pub fn run(cfg: &FaultConfig) -> FaultReport {
    assert!(cfg.clients > 0 && cfg.objects > 0 && cfg.steps > 0);
    let mut server_cfg = MachineConfig::new(ServerId(0));
    server_cfg.object_lease = cfg.object_lease;
    server_cfg.volume_lease = cfg.volume_lease;
    server_cfg.inactive_discard = cfg.inactive_discard;
    server_cfg.self_inval = cfg.self_inval;
    let mut rng = SimRng::seeded(cfg.seed);
    // Draw clock errors only when the knob is on, so zero-skew runs
    // keep byte-identical RNG streams (and logs) with older seeds.
    let offsets: Vec<i64> = if cfg.clock_skew.is_zero() {
        vec![0; cfg.clients]
    } else {
        let s = cfg.clock_skew.as_millis() as i64;
        (0..cfg.clients)
            .map(|_| rng.gen_range(0..=(2 * s) as u64) as i64 - s)
            .collect()
    };
    let mut h = Harness {
        cfg: cfg.clone(),
        clock: VirtualClock::new(),
        queue: EventQueue::new(),
        rng,
        server_cfg,
        server: None,
        stable: None,
        committed: BTreeMap::new(),
        clients: (0..cfg.clients)
            .map(|i| {
                let mut mc = ClientMachineConfig::new(ClientId(i as u32), ServerId(0));
                mc.self_inval = cfg.self_inval.is_some();
                ClientMachine::new(mc)
            })
            .collect(),
        offsets,
        partitioned: BTreeSet::new(),
        pending_reads: BTreeMap::new(),
        next_read_id: 0,
        pending_writes: VecDeque::new(),
        write_seq: 0,
        report: FaultReport::default(),
        log: Vec::new(),
    };
    for o in 0..cfg.objects {
        let object = ObjectId(o as u64);
        h.committed
            .insert(object, (Version::FIRST, Bytes::from(format!("init-o{o}"))));
    }
    h.boot_server();
    h.queue.schedule(Timestamp::ZERO, Ev::Step);
    while let Some((at, ev)) = h.queue.pop() {
        h.clock.advance_to(at);
        h.dispatch(ev);
    }
    h.note(format!(
        "done: {} reads ({} local), {} writes committed, {} violations",
        h.report.reads_delivered,
        h.report.local_reads,
        h.report.writes_completed,
        h.report.violations.len()
    ));
    let mut report = h.report;
    report.log = h.log.join("\n");
    report
}

impl Harness {
    fn note(&mut self, line: String) {
        self.log.push(format!("[{}] {}", self.clock.now(), line));
    }

    /// What `client`'s own (possibly wrong) clock reads right now. All
    /// client-machine transitions are driven with this value: a fast
    /// clock drops deadlines early (safe), a slow one holds copies past
    /// their true deadline (the self-invalidation hazard).
    fn local_now(&self, client: ClientId) -> Timestamp {
        let now = self.clock.now();
        match self.offsets[client.0 as usize] {
            o if o >= 0 => now.saturating_add(Duration::from_millis(o as u64)),
            o => Timestamp::from_millis(now.as_millis().saturating_sub(o.unsigned_abs())),
        }
    }

    /// (Re)creates the server machine, recovering from the last
    /// persisted record and restoring committed objects at their
    /// committed versions (the driver's durable store).
    fn boot_server(&mut self) {
        let (machine, boot) = ServerMachine::new(self.server_cfg, self.stable);
        self.server = Some(machine);
        self.apply_server_actions(boot);
        let objects: Vec<(ObjectId, (Version, Bytes))> = self
            .committed
            .iter()
            .map(|(&o, v)| (o, v.clone()))
            .collect();
        let now = self.clock.now();
        for (object, (version, data)) in objects {
            let actions = self.server.as_mut().expect("just booted").handle(
                now,
                ServerInput::CreateObject {
                    object,
                    data,
                    version,
                },
            );
            self.apply_server_actions(actions);
        }
        let epoch = self.server.as_ref().expect("just booted").epoch();
        let gate = self.server.as_ref().expect("just booted").recovery_until();
        self.note(format!(
            "server up: epoch {epoch:?}, writes gated until {gate}"
        ));
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Step => self.on_step(),
            Ev::ToServer { from, msg } => {
                let now = self.clock.now();
                match self.server.as_mut() {
                    Some(s) => {
                        let actions = s.handle(now, ServerInput::Msg { from, msg });
                        self.apply_server_actions(actions);
                    }
                    None => {
                        self.report.messages_dropped += 1;
                        self.note(format!("drop {msg:?} from {from}: server down"));
                    }
                }
            }
            Ev::ToClient { to, msg } => {
                let now = self.local_now(to);
                let actions = self.clients[to.0 as usize].handle(now, ClientInput::Msg(msg));
                self.apply_client_actions(to, actions);
                self.try_complete_reads(to);
            }
            Ev::ReadRetry {
                client,
                object,
                read_id,
                attempt,
            } => self.on_read_retry(client, object, read_id, attempt),
            Ev::Tick => {
                if self.server.is_some() {
                    let now = self.clock.now();
                    let actions = self
                        .server
                        .as_mut()
                        .expect("checked above")
                        .handle(now, ServerInput::Tick);
                    self.apply_server_actions(actions);
                }
            }
            Ev::ServerUp => self.boot_server(),
            Ev::Heal { client } => {
                self.partitioned.remove(&client);
                self.note(format!("{client} healed"));
            }
        }
    }

    fn on_step(&mut self) {
        self.report.steps += 1;
        let now = self.clock.now();
        if self.report.steps < self.cfg.steps {
            self.queue.schedule(now + self.cfg.step_gap, Ev::Step);
        }
        let roll: f64 = self.rng.gen();
        let c = &self.cfg;
        if roll < c.server_crash_prob {
            self.crash_server();
        } else if roll < c.server_crash_prob + c.client_crash_prob {
            let victim = ClientId(self.rng.gen_range(0..c.clients) as u32);
            self.crash_client(victim);
        } else if roll < c.server_crash_prob + c.client_crash_prob + c.partition_prob {
            let victim = ClientId(self.rng.gen_range(0..c.clients) as u32);
            if self.partitioned.insert(victim) {
                self.report.partitions += 1;
                let heal = now + c.partition_for;
                self.queue.schedule(heal, Ev::Heal { client: victim });
                self.note(format!("{victim} partitioned until {heal}"));
            }
        } else if roll
            < c.server_crash_prob + c.client_crash_prob + c.partition_prob + c.write_fraction
        {
            let object = ObjectId(self.rng.gen_range(0..c.objects) as u64);
            self.start_write(object);
        } else {
            let client = ClientId(self.rng.gen_range(0..c.clients) as u32);
            let object = ObjectId(self.rng.gen_range(0..c.objects) as u64);
            self.start_read(client, object);
        }
    }

    fn crash_server(&mut self) {
        if self.server.is_none() {
            self.note("server crash: already down".to_string());
            return;
        }
        self.server = None;
        self.report.server_crashes += 1;
        self.report.writes_lost += self.pending_writes.len() as u64;
        self.pending_writes.clear();
        let up = self.clock.now() + self.cfg.server_down_for;
        self.queue.schedule(up, Ev::ServerUp);
        self.note(format!("server CRASH, back at {up}"));
    }

    fn crash_client(&mut self, victim: ClientId) {
        self.report.client_crashes += 1;
        // Keep the victim's config (notably the self_inval flag) — a
        // crash loses the cache, not the protocol mode.
        let mc = *self.clients[victim.0 as usize].config();
        self.clients[victim.0 as usize] = ClientMachine::new(mc);
        let aborted: Vec<(ClientId, ObjectId)> = self
            .pending_reads
            .keys()
            .filter(|(c, _)| *c == victim)
            .copied()
            .collect();
        self.report.reads_aborted += aborted.len() as u64;
        for key in aborted {
            self.pending_reads.remove(&key);
        }
        self.note(format!("{victim} CRASH (cache lost)"));
    }

    fn start_write(&mut self, object: ObjectId) {
        self.report.writes_enqueued += 1;
        self.write_seq += 1;
        let data = Bytes::from(format!("w{}-{}", self.write_seq, object));
        let now = self.clock.now();
        match self.server.is_some() {
            true => {
                self.pending_writes.push_back((object, data.clone()));
                self.note(format!("write {object} = w{}", self.write_seq));
                let actions = self
                    .server
                    .as_mut()
                    .expect("checked above")
                    .handle(now, ServerInput::Write { object, data });
                self.apply_server_actions(actions);
            }
            false => {
                self.report.writes_lost += 1;
                self.note(format!("write {object} lost: server down"));
            }
        }
    }

    fn start_read(&mut self, client: ClientId, object: ObjectId) {
        if self.pending_reads.contains_key(&(client, object)) {
            self.note(format!("read {client} {object}: coalesced with pending"));
            return;
        }
        let now = self.clock.now();
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
            self.queue.schedule(
                now + self.cfg.retry_timeout,
                Ev::ReadRetry {
                    client,
                    object,
                    read_id,
                    attempt: 0,
                },
            );
        }
    }

    fn on_read_retry(&mut self, client: ClientId, object: ObjectId, read_id: u64, attempt: u32) {
        if self.pending_reads.get(&(client, object)) != Some(&read_id) {
            return; // completed, aborted, or superseded
        }
        let now = self.clock.now();
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
        self.queue.schedule(
            now + self.cfg.retry_timeout,
            Ev::ReadRetry {
                client,
                object,
                read_id,
                attempt: attempt + 1,
            },
        );
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
        if local {
            self.report.local_reads += 1;
        }
        self.report.invariant_checks += 1;
        let (version, committed) = &self.committed[&object];
        if &data != committed {
            let v = format!(
                "[{}] STALE READ: {client} read {object} = {data:?}, committed is {committed:?} (v{})",
                self.clock.now(),
                version.0
            );
            self.log.push(v.clone());
            self.report.violations.push(v);
        } else {
            self.note(format!(
                "read {client} {object}: ok ({})",
                if local { "local" } else { "remote" }
            ));
        }
    }

    fn apply_server_actions(&mut self, actions: Vec<ServerAction>) {
        let now = self.clock.now();
        for action in actions {
            match action {
                ServerAction::Send { to, msg } => self.route_to_client(to, msg),
                ServerAction::SetTimer { at, .. } => {
                    self.queue.schedule(at.max(now), Ev::Tick);
                }
                ServerAction::Persist { state } => {
                    self.stable = Some(state);
                }
                // The harness runs a single server; there is no peer to
                // deliver handoff traffic to.
                ServerAction::SendPeer { .. } => {}
                ServerAction::CompleteWrite { outcome } => {
                    let Some((object, data)) = self.pending_writes.pop_front() else {
                        let v = format!("[{now}] COMPLETION with no pending write: {outcome:?}");
                        self.log.push(v.clone());
                        self.report.violations.push(v);
                        continue;
                    };
                    if outcome.object != object {
                        let v = format!(
                            "[{now}] COMPLETION names {}, the oldest pending write is to {object}",
                            outcome.object
                        );
                        self.log.push(v.clone());
                        self.report.violations.push(v);
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
                            self.log.push(v.clone());
                            self.report.violations.push(v);
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
            self.report.reconnections = s.stats().reconnections;
        }
    }

    fn route_to_client(&mut self, to: ClientId, msg: ServerMsg) {
        if self.partitioned.contains(&to) || self.rng.gen_bool(self.cfg.drop_prob) {
            self.report.messages_dropped += 1;
            self.note(format!("drop server->{to} {msg:?}"));
            return;
        }
        let at = self.clock.now() + self.cfg.latency;
        self.queue.schedule(at, Ev::ToClient { to, msg });
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

    fn route_to_server(&mut self, from: ClientId, msg: ClientMsg) {
        if self.partitioned.contains(&from) || self.rng.gen_bool(self.cfg.drop_prob) {
            self.report.messages_dropped += 1;
            self.note(format!("drop {from}->server {msg:?}"));
            return;
        }
        let at = self.clock.now() + self.cfg.latency;
        self.queue.schedule(at, Ev::ToServer { from, msg });
    }
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

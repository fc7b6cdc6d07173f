//! Workload `wire_scale`: the codec, the frame decoder and both protocol
//! machines at population scale, with no sockets and a virtual clock.
//!
//! 65 536 clients hold 16 leases each over 4 096 objects, laid out so
//! that every object has exactly 256 holders — lease tables and
//! invalidation fan-out that two loopback connections can never make.
//! Every message takes the whole wire path: `encode_client` → bytes →
//! the server's `FrameDecoder` → `decode_client` →
//! `ServerMachine::handle` → `encode_server` → the client's
//! `FrameDecoder` → `decode_server` → `ClientMachine::handle` → …
//! `vl-core::machine` and `vl-proto` do nearly all the work and the
//! kernel none, so machine-table and codec changes show here and should
//! leave `live_*` flat.
//!
//! Phase `renew`: seeded clients read a held object; the clock moves a
//! millisecond per read, so a client's volume lease has usually lapsed and an
//! object lease about half the time, and each read renews what lapsed.
//! Phase `write`: the 256 holders of a seeded object renew, the object
//! is written (256 invalidations → 256 acks → commit), and each holder
//! refetches and reads the new bytes.

use crate::harness::{steady_high, summarize_slices, Tracer};
use crate::report::{Args, Checks, Report};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration as StdDuration, Instant};
use vl_core::machine::{
    ClientAction, ClientInput, ClientMachine, ClientMachineConfig, MachineConfig, ServerAction,
    ServerInput, ServerMachine, WriteOutcome,
};
use vl_net::wire::FrameDecoder;
use vl_proto::{codec, ClientMsg, ServerMsg};
use vl_types::{ClientId, Duration, ObjectId, ServerId, Timestamp, Version};

/// Clients in the population.
pub const CLIENTS: usize = 65_536;
/// Objects each client holds.
pub const LEASES_PER_CLIENT: usize = 16;
/// Objects in the volume.
pub const OBJECTS: usize = 4_096;
/// Holders of every object.
pub const HOLDERS: usize = CLIENTS * LEASES_PER_CLIENT / OBJECTS;
/// Bytes of every object: small, because each of the million cached
/// copies is its own allocation once it has crossed the wire.
const PAYLOAD: usize = 64;
/// Object lease `t`, against a client revisiting one object about every
/// 1 000 virtual seconds of the renew phase.
const OBJECT_LEASE: Duration = Duration::from_secs(600);
/// Volume lease `t_v`.
const VOLUME_LEASE: Duration = Duration::from_secs(10);
/// Renew-phase reads per throughput sample.
const CHUNK: u64 = 8_192;

/// Span names of a traced pass.
pub const SPAN_NAMES: [&str; 5] = [
    "harness",
    "proto",
    "wire",
    "machine_server",
    "machine_client",
];
const SP_ROOT: u8 = 0;
const SP_PROTO: u8 = 1;
const SP_WIRE: u8 = 2;
const SP_SERVER: u8 = 3;
const SP_CLIENT: u8 = 4;

fn object_id(o: usize) -> ObjectId {
    ObjectId(o as u64 + 1)
}

/// The bytes object `o` holds at `version` under `seed`.
fn payload(seed: u64, o: usize, version: u64) -> Bytes {
    crate::harness::payload(PAYLOAD, seed, o, version)
}

/// Which object sits at each layout position: slot `j` of client `c` is
/// position `(16 c + j) mod 4096`, so a client's 16 slots are distinct
/// objects and every object fills exactly 256 slots.
pub fn layout(seed: u64) -> Vec<u32> {
    let mut at: Vec<u32> = (0..OBJECTS as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6C_61_79);
    for i in (1..at.len()).rev() {
        at.swap(i, rng.gen_range(0..=i));
    }
    at
}

/// A message on its way through the wire path.
enum Hop {
    ToServer(u32, ClientMsg),
    ToClient(u32, ServerMsg),
}

/// The population: one server machine, every client machine, and a
/// frame decoder at each end of each client's connection.
pub struct WireRig {
    seed: u64,
    server: ServerMachine,
    clients: Vec<ClientMachine>,
    server_dec: Vec<FrameDecoder>,
    client_dec: Vec<FrameDecoder>,
    /// Object at each layout position.
    at: Vec<u32>,
    /// Layout position of each object.
    pos: Vec<u32>,
    /// Committed version and bytes of each object.
    version: Vec<u64>,
    current: Vec<Bytes>,
    now: Timestamp,
    hops: VecDeque<Hop>,
    scratch: Vec<u8>,
    ops: StdRng,
    completed: Option<(WriteOutcome, Instant)>,
    delivered: Option<Bytes>,
    /// Client-to-server messages carried.
    pub c2s: u64,
    /// Server-to-client messages carried.
    pub s2c: u64,
    /// Inputs fed to either machine.
    pub inputs: u64,
    /// Actions either machine returned.
    pub actions: u64,
    /// Self-test hook: lose the next `AckInvalidate` on the wire.
    pub drop_next_ack: bool,
    /// Output checks made so far.
    pub checks: Checks,
}

impl WireRig {
    /// Builds the machines and grants every client its 16 leases through
    /// the wire path, checking each first read.
    pub fn setup(seed: u64) -> WireRig {
        WireRig::with_clients(seed, CLIENTS)
    }

    /// A population of `clients` (a multiple of 256, so that objects keep
    /// an equal number of holders).
    pub fn with_clients(seed: u64, clients: usize) -> WireRig {
        let at = layout(seed);
        let mut pos = vec![0u32; OBJECTS];
        for (p, &o) in at.iter().enumerate() {
            pos[o as usize] = p as u32;
        }
        let cfg = MachineConfig {
            object_lease: OBJECT_LEASE,
            volume_lease: VOLUME_LEASE,
            ..MachineConfig::new(ServerId(0))
        };
        let (mut server, _boot) = ServerMachine::new(cfg, None);
        let current: Vec<Bytes> = (0..OBJECTS).map(|o| payload(seed, o, 1)).collect();
        for (o, data) in current.iter().enumerate() {
            server.handle(
                Timestamp::ZERO,
                ServerInput::CreateObject {
                    object: object_id(o),
                    data: data.clone(),
                    version: Version::FIRST,
                },
            );
        }
        let mut rig = WireRig {
            seed,
            server,
            clients: (0..clients)
                .map(|c| {
                    ClientMachine::new(ClientMachineConfig::new(ClientId(c as u32), ServerId(0)))
                })
                .collect(),
            server_dec: (0..clients).map(|_| FrameDecoder::new()).collect(),
            client_dec: (0..clients).map(|_| FrameDecoder::new()).collect(),
            at,
            pos,
            version: vec![1; OBJECTS],
            current,
            now: Timestamp::ZERO,
            hops: VecDeque::new(),
            scratch: Vec::with_capacity(256),
            ops: StdRng::seed_from_u64(seed ^ 0x6F_70_73),
            completed: None,
            delivered: None,
            c2s: 0,
            s2c: 0,
            inputs: 0,
            actions: 0,
            drop_next_ack: false,
            checks: Checks::default(),
        };
        let tr = &mut crate::harness::NoTrace;
        for c in 0..clients {
            for j in 0..LEASES_PER_CLIENT {
                rig.read(tr, c, rig.object_of(c, j), 0);
            }
        }
        rig
    }

    /// The object in slot `j` of client `c`.
    fn object_of(&self, c: usize, j: usize) -> usize {
        self.at[(c * LEASES_PER_CLIENT + j) % OBJECTS] as usize
    }

    /// The clients holding object `o`, ascending.
    fn holders(&self, o: usize) -> impl Iterator<Item = usize> + use<> {
        let p = self.pos[o] as usize;
        let slots = self.clients.len() * LEASES_PER_CLIENT;
        (0..slots / OBJECTS).map(move |k| (p + OBJECTS * k) / LEASES_PER_CLIENT)
    }

    /// Holders each object has in this population.
    pub fn holders_per_object(&self) -> usize {
        self.clients.len() * LEASES_PER_CLIENT / OBJECTS
    }

    fn client_input<T: Tracer>(&mut self, tr: &mut T, c: usize, input: ClientInput, op: u32) {
        let m = tr.enter(SP_CLIENT, op);
        let actions = self.clients[c].handle(self.now, input);
        tr.exit(m);
        self.inputs += 1;
        self.actions += actions.len() as u64;
        for a in actions {
            match a {
                ClientAction::Send(msg) => self.hops.push_back(Hop::ToServer(c as u32, msg)),
                ClientAction::DeliverRead { data, .. } => self.delivered = Some(data),
            }
        }
    }

    fn server_actions(&mut self, actions: Vec<ServerAction>) {
        self.inputs += 1;
        self.actions += actions.len() as u64;
        for a in actions {
            match a {
                ServerAction::Send { to, msg } => self.hops.push_back(Hop::ToClient(to.raw(), msg)),
                ServerAction::CompleteWrite { outcome } => {
                    self.completed = Some((outcome, Instant::now()));
                }
                // No stable storage, and the virtual clock never lets a
                // lease lapse mid-write, so timers have nothing to do.
                ServerAction::Persist { .. } | ServerAction::SetTimer { .. } => {}
                ServerAction::SendPeer { to, msg } => self
                    .checks
                    .fail(format!("server sent peer message {} to {to}", msg.name())),
            }
        }
    }

    /// Frames `body` and carries it through `dec`, as a socket would.
    fn through_wire<T: Tracer>(
        scratch: &mut Vec<u8>,
        dec: &mut FrameDecoder,
        tr: &mut T,
        body: &Bytes,
        op: u32,
    ) -> Option<Bytes> {
        scratch.clear();
        scratch.extend_from_slice(&(body.len() as u32).to_le_bytes());
        scratch.extend_from_slice(body);
        let w = tr.enter(SP_WIRE, op);
        dec.feed(scratch);
        let frame = dec.next_frame();
        tr.exit(w);
        frame.ok().flatten()
    }

    /// Delivers every message in flight, and whatever those cause.
    fn pump<T: Tracer>(&mut self, tr: &mut T, op: u32) {
        while let Some(hop) = self.hops.pop_front() {
            match hop {
                Hop::ToServer(c, msg) => {
                    if self.drop_next_ack && matches!(msg, ClientMsg::AckInvalidate { .. }) {
                        self.drop_next_ack = false;
                        continue;
                    }
                    let p = tr.enter(SP_PROTO, op);
                    let body = codec::encode_client(&msg);
                    tr.exit(p);
                    let dec = &mut self.server_dec[c as usize];
                    let frame = WireRig::through_wire(&mut self.scratch, dec, tr, &body, op);
                    let p = tr.enter(SP_PROTO, op);
                    let decoded = frame.as_deref().map(codec::decode_client);
                    tr.exit(p);
                    let Some(Ok(msg)) = decoded else {
                        self.checks
                            .fail(format!("client {c}: message lost on the wire"));
                        continue;
                    };
                    self.c2s += 1;
                    let m = tr.enter(SP_SERVER, op);
                    let actions = self.server.handle(
                        self.now,
                        ServerInput::Msg {
                            from: ClientId(c),
                            msg,
                        },
                    );
                    tr.exit(m);
                    self.server_actions(actions);
                }
                Hop::ToClient(c, msg) => {
                    let p = tr.enter(SP_PROTO, op);
                    let body = codec::encode_server(&msg);
                    tr.exit(p);
                    let dec = &mut self.client_dec[c as usize];
                    let frame = WireRig::through_wire(&mut self.scratch, dec, tr, &body, op);
                    let p = tr.enter(SP_PROTO, op);
                    let decoded = frame.as_deref().map(codec::decode_server);
                    tr.exit(p);
                    let Some(Ok(msg)) = decoded else {
                        self.checks
                            .fail(format!("client {c}: reply lost on the wire"));
                        continue;
                    };
                    self.s2c += 1;
                    self.client_input(tr, c as usize, ClientInput::Msg(msg), op);
                }
            }
        }
    }

    /// Client `c` reads object `o`, renewing whatever lapsed, and the
    /// bytes it gets are checked against the last committed write.
    fn read<T: Tracer>(&mut self, tr: &mut T, c: usize, o: usize, op: u32) {
        self.delivered = None;
        self.client_input(
            tr,
            c,
            ClientInput::Read {
                object: object_id(o),
            },
            op,
        );
        self.pump(tr, op);
        let data = match self.delivered.take() {
            Some(d) => Some(d),
            None => self.clients[c].complete_read(self.now, object_id(o)),
        };
        let ok = data.as_ref() == Some(&self.current[o]);
        self.checks.check(ok, || {
            format!(
                "client {c} read object {o}: {} (committed v{})",
                if data.is_some() {
                    "stale or foreign bytes"
                } else {
                    "no valid leases"
                },
                self.version[o]
            )
        });
    }

    /// One read of the renew phase.
    fn renew_op<T: Tracer>(&mut self, tr: &mut T, op: u32) {
        let c = self.ops.gen_range(0..self.clients.len());
        let j = self.ops.gen_range(0..LEASES_PER_CLIENT);
        let root = tr.enter(SP_ROOT, op);
        self.read(tr, c, self.object_of(c, j), op);
        tr.exit(root);
        self.now = self.now.saturating_add(Duration::from_millis(1));
    }

    /// One write with its fan-out; returns `Write` input → `CompleteWrite`
    /// in nanoseconds, or `None` when the write did not complete.
    fn write_cycle<T: Tracer>(&mut self, tr: &mut T, op: u32) -> Option<u64> {
        let o = self.ops.gen_range(0..OBJECTS);
        let holders = self.holders_per_object();
        let root = tr.enter(SP_ROOT, op);
        for c in self.holders(o) {
            self.read(tr, c, o, op);
        }
        let data = payload(self.seed, o, self.version[o] + 1);
        self.completed = None;
        let t0 = Instant::now();
        let m = tr.enter(SP_SERVER, op);
        let actions = self.server.handle(
            self.now,
            ServerInput::Write {
                object: object_id(o),
                data: data.clone(),
            },
        );
        tr.exit(m);
        self.server_actions(actions);
        self.pump(tr, op);
        let Some((outcome, at)) = self.completed.take() else {
            self.checks
                .check(false, || format!("write of object {o} never completed"));
            tr.exit(root);
            return None;
        };
        self.version[o] += 1;
        self.current[o] = data;
        self.checks.check(
            outcome.invalidations_sent == holders
                && outcome.version == Version(self.version[o])
                && outcome.queued == 0
                && outcome.waited_out == 0,
            || format!("write of object {o} with {holders} holders: {outcome:?}"),
        );
        for c in self.holders(o) {
            self.read(tr, c, o, op);
        }
        tr.exit(root);
        self.now = self.now.saturating_add(Duration::from_millis(100));
        Some(at.duration_since(t0).as_nanos() as u64)
    }

    /// Renew phase: reads until `stop` says so (asked once per chunk of
    /// `chunk` reads). Returns client-to-server messages per second, one
    /// sample per chunk.
    pub fn renew_phase<T: Tracer>(
        &mut self,
        tr: &mut T,
        chunk: u64,
        mut stop: impl FnMut(u64) -> bool,
    ) -> Vec<f64> {
        let mut rates = Vec::new();
        let mut done = 0u64;
        while !stop(done) {
            let (t0, sent0) = (Instant::now(), self.c2s);
            for i in 0..chunk {
                self.renew_op(tr, (done + i) as u32);
            }
            done += chunk;
            rates.push((self.c2s - sent0) as f64 / t0.elapsed().as_secs_f64());
        }
        rates
    }

    /// Write phase: cycles until `stop` says so. Returns each commit's
    /// latency in nanoseconds with the instant it started.
    pub fn write_phase<T: Tracer>(
        &mut self,
        tr: &mut T,
        mut stop: impl FnMut(u64) -> bool,
    ) -> Vec<(Instant, u64)> {
        let mut commits = Vec::new();
        let mut done = 0u64;
        while !stop(done) {
            let started = Instant::now();
            if let Some(ns) = self.write_cycle(tr, done as u32) {
                commits.push((started, ns));
            }
            done += 1;
        }
        commits
    }

    /// Checks the harness's message counts against the server machine's.
    pub fn reconcile(&mut self) {
        let stats = self.server.stats();
        let (c2s, s2c) = (self.c2s, self.s2c);
        self.checks.check(stats.msgs_in == c2s, || {
            format!(
                "server counted {} messages in, the wire carried {c2s}",
                stats.msgs_in
            )
        });
        self.checks.check(stats.msgs_out == s2c, || {
            format!(
                "server counted {} messages out, the wire carried {s2c}",
                stats.msgs_out
            )
        });
    }
}

/// The fixed-count pass a traced run records spans over.
pub const SPAN_RENEW_OPS: u64 = 2_048;
/// Write cycles of the traced pass.
pub const SPAN_WRITES: u64 = 4;

/// Runs the fixed-count pass; returns how long it took.
pub fn span_pass<T: Tracer>(rig: &mut WireRig, tr: &mut T) -> StdDuration {
    let t0 = Instant::now();
    rig.renew_phase(tr, SPAN_RENEW_OPS, |done| done >= SPAN_RENEW_OPS);
    rig.write_phase(tr, |done| done >= SPAN_WRITES);
    t0.elapsed()
}

/// The untraced run: half the time renewing, half writing.
pub fn run(args: &Args, rig: &mut WireRig, report: &mut Report) {
    let tr = &mut crate::harness::NoTrace;
    let half = StdDuration::from_secs(args.seconds).div_f64(2.0);

    let t0 = Instant::now();
    let mut rates = rig.renew_phase(tr, CHUNK, |_| t0.elapsed() >= half);
    let t1 = Instant::now();
    let commits = rig.write_phase(tr, |_| t1.elapsed() >= half);
    let write_secs = t1.elapsed().as_secs_f64();
    rig.reconcile();

    // One-second slices: at about a hundred writes a second each holds
    // enough for a p90, and a run holds enough of them to choose among.
    let mut slices = vec![Vec::new(); half.as_secs().max(1) as usize];
    for &(started, ns) in &commits {
        let slice = started.duration_since(t1).as_secs() as usize;
        if let Some(s) = slices.get_mut(slice) {
            s.push(ns);
        }
    }
    let Some(lat) = summarize_slices(&mut slices, 0.9) else {
        report.checks.fail("write phase: no write completed".into());
        return;
    };
    report.info("renew_chunks", rates.len() as f64, "count");
    report.info("latency_samples", lat.samples as f64, "count");
    report.info("latency_slices", lat.slices as f64, "count");
    report.info("latency_tail_percentile", lat.tail_q * 100.0, "%");
    report.info(
        "wire_scale.writes_per_s",
        commits.len() as f64 / write_secs,
        "1/s",
    );
    report.metric("throughput_per_s", steady_high(&mut rates), "1/s");
    report.info("latency_tail_us", lat.tail_ns / 1e3, "us");
    report.metric("latency_p50_us", lat.p50_ns / 1e3, "us");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::NoTrace;

    #[test]
    fn layout_gives_every_object_the_same_holders() {
        let rig = WireRig::with_clients(3, 512);
        assert_eq!(rig.holders_per_object(), 2);
        let mut held = vec![0usize; OBJECTS];
        for c in 0..512 {
            let mut mine: Vec<usize> = (0..LEASES_PER_CLIENT)
                .map(|j| rig.object_of(c, j))
                .collect();
            for &o in &mine {
                held[o] += 1;
                assert!(rig.holders(o).any(|h| h == c));
            }
            mine.sort_unstable();
            mine.dedup();
            assert_eq!(
                mine.len(),
                LEASES_PER_CLIENT,
                "a client holds distinct objects"
            );
        }
        assert!(held.iter().all(|&n| n == 2));
        assert_eq!(layout(3), layout(3));
        assert_ne!(layout(3), layout(4));
        assert_eq!((rig.checks.attempted, rig.checks.failed), (512 * 16, 0));
    }

    #[test]
    fn a_small_population_renews_and_writes_cleanly() {
        let mut rig = WireRig::with_clients(5, 512);
        let rates = rig.renew_phase(&mut NoTrace, 256, |done| done >= 512);
        assert_eq!(rates.len(), 2);
        let commits = rig.write_phase(&mut NoTrace, |done| done >= 3);
        assert_eq!(commits.len(), 3);
        rig.reconcile();
        assert_eq!(rig.checks.failed, 0, "{:?}", rig.checks.first);
        assert!(rig.c2s > 0 && rig.s2c > 0 && rig.actions > 0);
    }

    #[test]
    fn same_seed_same_message_counts() {
        let run = |seed| {
            let mut rig = WireRig::with_clients(seed, 256);
            // Long enough on the virtual clock for leases to lapse, so
            // that which client reads when decides what is sent.
            rig.renew_phase(&mut NoTrace, 1_024, |done| done >= 40_960);
            rig.write_phase(&mut NoTrace, |done| done >= 2);
            (rig.c2s, rig.s2c, rig.inputs, rig.actions)
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn a_dropped_ack_fails_the_run() {
        let mut rig = WireRig::with_clients(5, 512);
        rig.drop_next_ack = true;
        let commits = rig.write_phase(&mut NoTrace, |done| done >= 1);
        assert!(commits.is_empty());
        assert!(rig.checks.failed > 0);
        assert!(
            rig.checks.first[0].contains("never completed"),
            "{:?}",
            rig.checks.first
        );
    }
}

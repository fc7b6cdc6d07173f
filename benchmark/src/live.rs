//! Workloads `live_renew` and `live_write`: the whole live stack in one
//! process, driven over loopback TCP by raw wire clients.
//!
//! The server side is exactly what `vl serve --reactors N` runs: a
//! [`ShardedNode`] (one reactor here) feeding a [`LeaseServer`]. The
//! client side is deliberately *not* `vl-client`: plain `TcpStream`s
//! that speak the hello + length-prefixed `vl-proto` frames, so the
//! generator's cost stays small and constant next to the server's three
//! threads on a two-core box. All harness threads block (in `sleep`,
//! `epoll_wait` or `ServerHandle::write`); none spins.
//!
//! * `live_renew` sends the smallest messages there are — half
//!   `ReqVolLease`, half `ReqObjLease` at the current version, ≈25-byte
//!   replies — so the per-message path epoll → `FrameDecoder` → inbox →
//!   forwarder → driver → machine → send queue dominates. First an open
//!   loop at a fixed rate (latency from each request's *due* time), then
//!   a closed loop with a deep fixed window (throughput).
//! * `live_write` uses the same stack the other way round: a writer
//!   thread calls `ServerHandle::write(obj, 4 KiB)` back to back while
//!   both clients hold every object, ack each `Invalidate`, refetch the
//!   new 4 KiB and keep a background renewal stream going.

use crate::harness::{sleep_until, steady_high, summarize_slices, LatencySummary, NoTrace, Tracer};
use crate::report::{Args, Checks, Report};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vl_epoll::{Interest, PollEvent, Poller};
use vl_net::poll::{encode_hello, LoopStats, PollConfig};
use vl_net::shard::ShardedNode;
use vl_net::tcp::{read_frame, write_frame};
use vl_net::wire::{FrameDecoder, QueueStats};
use vl_net::NodeId;
use vl_proto::{codec, ClientMsg, ServerMsg};
use vl_server::{LeaseServer, ServerConfig, ServerHandle, ServerStats, WallClock};
use vl_types::{ClientId, Epoch, ObjectId, ServerId, Version, VolumeId};

/// Objects every client holds.
pub const OBJECTS: usize = 64;
/// Bytes of every object.
pub const PAYLOAD: usize = 4096;
/// Open-loop tick: a burst is due on every connection each tick.
const TICK: Duration = Duration::from_millis(1);
/// `live_renew` open loop: 20 000 msgs/s in total.
const RENEW_RATE_PER_S: usize = 20_000;
/// `live_write` background stream: 10 000 msgs/s in total.
const BACKGROUND_RATE_PER_S: usize = 10_000;
/// Closed-loop window per connection. Deep on purpose: with 16 or 64 in
/// flight the rate depends on how the scheduler happens to interleave
/// five threads (±25 % from run to run); with 256 every thread always
/// finds a batch waiting and the rate repeats within a few percent.
const WINDOW: usize = 256;
/// Measurement slices per second of a phase. A quarter of a second holds
/// thousands of samples of either workload and is short enough that a
/// run has many slices for the steady-value estimate to choose among.
const SLICES_PER_S: u64 = 4;
const SLICE_NS: u64 = 1_000_000_000 / SLICES_PER_S;
/// Latency samples kept per slice: plenty for a p99, and a bound on the
/// harness's own memory, which must not grow with the server's speed or
/// a faster server would read as a larger `peak_rss_mib`.
const SLICE_SAMPLES: usize = 4096;
/// How long a phase may take to drain after its generators stop.
const GRACE: Duration = Duration::from_secs(5);
/// The one volume the server hosts.
const VOLUME: VolumeId = VolumeId(0);
/// Op-list entry meaning "renew the volume lease".
const OP_VOLUME: u16 = u16::MAX;
/// Seeded ops per connection; the list is cycled.
const OPS: usize = 1 << 16;

/// Span names of a traced live phase.
pub const SPAN_NAMES: [&str; 6] = [
    "harness",
    "server_wait",
    "wire",
    "proto",
    "gen_encode",
    "sock_write",
];
const SP_ROOT: u8 = 0;
const SP_SERVER_WAIT: u8 = 1;
const SP_WIRE: u8 = 2;
const SP_PROTO: u8 = 3;
const SP_GEN_ENCODE: u8 = 4;
const SP_SOCK_WRITE: u8 = 5;

/// TCP connections, i.e. clients: two, so that a write fans out to more
/// than one holder. Fixed rather than taken from the core count, which
/// reads 1 under the pinning run.sh applies.
const CONNECTIONS: usize = 2;

fn object_id(idx: usize) -> ObjectId {
    ObjectId(idx as u64 + 1)
}

fn object_index(object: ObjectId) -> Option<usize> {
    let idx = object.raw().checked_sub(1)? as usize;
    (idx < OBJECTS).then_some(idx)
}

/// The bytes object `idx` holds at `version` under `seed`.
pub fn payload(seed: u64, idx: usize, version: u64) -> Bytes {
    crate::harness::payload(PAYLOAD, seed, idx, version)
}

/// Connects to a listening node as client `id` and exchanges hellos;
/// returns the stream and the server's hello frame. Every blocking call
/// on the stream is bounded, so a wedged server fails a run instead of
/// hanging it.
pub fn dial(addr: SocketAddr, id: ClientId) -> io::Result<(TcpStream, Bytes)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(GRACE))?;
    stream.set_write_timeout(Some(GRACE))?;
    write_frame(&mut stream, &encode_hello(NodeId::Client(id)))?;
    let hello = read_frame(&mut stream)?;
    Ok((stream, hello))
}

/// The seeded op list of connection `conn`: which lease each background
/// request renews.
pub fn op_list(seed: u64, conn: usize) -> Vec<u16> {
    let mut rng = StdRng::seed_from_u64(seed ^ ((conn as u64 + 1) << 32));
    (0..OPS)
        .map(|_| {
            if rng.gen_bool(0.5) {
                OP_VOLUME
            } else {
                rng.gen_range(0..OBJECTS as u32) as u16
            }
        })
        .collect()
}

/// The seeded order in which the writer cycles through the objects.
pub fn write_order(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..OBJECTS).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x77_72_69_74_65);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// The renewal stream (open loop, closed loop or background).
    Background,
    /// The refetch that follows an `Invalidate`.
    Refetch,
}

/// A request awaiting its reply.
#[derive(Clone, Copy, Debug)]
struct Pending {
    kind: Kind,
    /// When the request was due, nanoseconds since the phase began.
    due_ns: u64,
    /// The version the request carried (object requests).
    sent_version: u64,
    /// The last write of the object acknowledged before the request was
    /// due: the reply may not be older.
    min_version: u64,
}

/// Per-connection client state shared by the threads that send on it.
/// The mutex also serializes writes, so frames never interleave.
struct ConnState {
    wbuf: Vec<u8>,
    /// Volume requests are answered in order among themselves.
    vol_q: VecDeque<Pending>,
    /// Requests for one object are answered in order (a write defers and
    /// replays them as a group), so replies match per-object queues.
    obj_q: Vec<VecDeque<Pending>>,
    /// Cached version per object; 0 while invalidated.
    version: [u64; OBJECTS],
    ops: Vec<u16>,
    cursor: usize,
    in_flight: usize,
    sent: u64,
}

impl ConnState {
    fn queue(&mut self, msg: &ClientMsg) {
        let body = codec::encode_client(msg);
        self.wbuf
            .extend_from_slice(&(body.len() as u32).to_le_bytes());
        self.wbuf.extend_from_slice(&body);
        self.sent += 1;
    }

    /// Queues the next request of the seeded renewal stream, due at
    /// `due_ns`.
    fn queue_background(&mut self, committed: &[AtomicU64], due_ns: u64) {
        let op = self.ops[self.cursor % OPS];
        self.cursor += 1;
        let mut pending = Pending {
            kind: Kind::Background,
            due_ns,
            sent_version: 0,
            min_version: 0,
        };
        // An object that is invalidated right now has no current version
        // to renew at; the slot renews the volume instead.
        if op != OP_VOLUME && self.version[op as usize] != 0 {
            let idx = op as usize;
            pending.sent_version = self.version[idx];
            pending.min_version = committed[idx].load(Ordering::Acquire);
            self.queue(&ClientMsg::ReqObjLease {
                object: object_id(idx),
                version: Version(pending.sent_version),
            });
            self.obj_q[idx].push_back(pending);
        } else {
            self.queue(&ClientMsg::ReqVolLease {
                volume: VOLUME,
                epoch: Epoch(0),
            });
            self.vol_q.push_back(pending);
        }
        self.in_flight += 1;
    }

    fn flush(&mut self, mut stream: &TcpStream) -> io::Result<()> {
        if self.wbuf.is_empty() {
            return Ok(());
        }
        let r = stream.write_all(&self.wbuf);
        self.wbuf.clear();
        r
    }
}

struct Conn {
    id: ClientId,
    stream: TcpStream,
    state: Mutex<ConnState>,
}

impl Conn {
    fn lock(&self) -> std::sync::MutexGuard<'_, ConnState> {
        self.state
            .lock()
            .expect("no harness thread panics holding a connection")
    }
}

/// Versions the writer and the clients agree on without messages.
struct Shared {
    /// Last version of each object whose write has returned.
    committed: Vec<AtomicU64>,
    /// Version each connection holds a lease on, per object; the writer
    /// only writes an object every connection holds at `committed`.
    held: Vec<Vec<AtomicU64>>,
}

/// A running server with its connected, warmed clients.
pub struct LiveRig {
    seed: u64,
    /// The in-process server; `None` only when a self-test points the
    /// clients at a fake one.
    server: Option<(ServerHandle, Arc<ShardedNode>)>,
    conns: Vec<Conn>,
    decoders: Vec<FrameDecoder>,
    poller: Poller,
    shared: Shared,
    /// Server-to-client messages received so far.
    received: u64,
    /// Threads the rig added to the process.
    pub threads: usize,
    /// Checks made by every phase so far.
    pub checks: Checks,
}

/// What one phase should do.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseSpec {
    /// Seconds the generators run (the phase then drains).
    pub seconds: u64,
    /// Open loop: requests per connection per tick (0 = no open loop).
    pub burst: usize,
    /// Closed loop: requests in flight per connection (0 = none).
    pub window: usize,
    /// Run the writer thread.
    pub writer: bool,
    /// Stop the closed loop after this many replies.
    pub max_replies: Option<u64>,
    /// Stop the writer after this many writes.
    pub max_writes: Option<u64>,
}

/// Records a latency sample of `slice`, up to [`SLICE_SAMPLES`] of them.
fn keep(slices: &mut [Vec<u64>], slice: usize, ns: u64) {
    if slices[slice].len() < SLICE_SAMPLES {
        slices[slice].push(ns);
    }
}

/// What one phase measured. Latencies are nanoseconds, grouped by the
/// slice of the phase they belong to.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Renewal-stream latency of an open loop: from due time to the
    /// reply in hand.
    pub renew_ns: Vec<Vec<u64>>,
    /// Renewal-stream replies by the slice they arrived in.
    pub replies: Vec<u64>,
    /// `ServerHandle::write` call to return.
    pub write_ns: Vec<Vec<u64>>,
    /// Writes by the slice they started in.
    pub writes_in: Vec<u64>,
    /// `Invalidate` received to the new payload in hand.
    pub refetch_ns: Vec<Vec<u64>>,
    /// How late the open-loop generator ran at worst.
    pub max_late_ns: u64,
    /// Times the writer found an object not yet refetched and waited.
    pub writer_waits: u64,
    /// Invalidations the server sent again before the ack reached it.
    pub repeated_invalidations: u64,
    /// Until the last reply was in hand.
    pub elapsed: Duration,
    /// Renewal-stream replies in total.
    pub background_replies: u64,
    /// Writes in total.
    pub writes: u64,
}

/// What the receiver must send after handling a batch of replies.
enum Followup {
    /// Closed loop: one reply in, one request out.
    Replace,
    /// `Invalidate` handled: acknowledge, then fetch the new version.
    AckAndRefetch { idx: usize, stale: u64 },
}

impl LiveRig {
    /// Listens, spawns the server, connects and identifies every client,
    /// creates the objects and fetches each once per client: after this
    /// the system serves renewals from warm state.
    pub fn setup(seed: u64) -> io::Result<LiveRig> {
        let threads_before = crate::harness::thread_count();
        let node = Arc::new(ShardedNode::listen(
            NodeId::Server(ServerId(0)),
            "127.0.0.1:0",
            1,
            PollConfig::default(),
        )?);
        let config = ServerConfig {
            object_lease: Duration::from_secs(3600),
            volume_lease: Duration::from_secs(10),
            ..ServerConfig::new(ServerId(0))
        };
        let server = LeaseServer::spawn(config, Arc::clone(&node), WallClock::new());
        for idx in 0..OBJECTS {
            server.create_object(object_id(idx), payload(seed, idx, 1));
        }
        let addr = node.local_addr();
        let mut rig = LiveRig::connect_all(seed, addr, Some((server, node)))?;
        rig.threads = crate::harness::thread_count().saturating_sub(threads_before);
        Ok(rig)
    }

    /// Connects and warms every client against the server at `addr`.
    fn connect_all(
        seed: u64,
        addr: SocketAddr,
        server: Option<(ServerHandle, Arc<ShardedNode>)>,
    ) -> io::Result<LiveRig> {
        let poller = Poller::new()?;
        let n = CONNECTIONS;
        let mut rig = LiveRig {
            seed,
            server,
            conns: Vec::with_capacity(n),
            decoders: (0..n).map(|_| FrameDecoder::new()).collect(),
            poller,
            shared: Shared {
                committed: (0..OBJECTS).map(|_| AtomicU64::new(1)).collect(),
                held: (0..n)
                    .map(|_| (0..OBJECTS).map(|_| AtomicU64::new(0)).collect())
                    .collect(),
            },
            received: 0,
            threads: 0,
            checks: Checks::default(),
        };
        for i in 0..n {
            rig.connect(i, addr)?;
        }
        Ok(rig)
    }

    /// Connects client `i`, exchanges hellos and warms its cache.
    fn connect(&mut self, i: usize, addr: SocketAddr) -> io::Result<()> {
        let id = ClientId(i as u32 + 1);
        let (mut stream, hello) = dial(addr, id)?;
        self.checks
            .check(hello == encode_hello(NodeId::Server(ServerId(0))), || {
                format!("client {i}: unexpected hello {hello:?}")
            });

        let mut state = ConnState {
            wbuf: Vec::with_capacity(64 * 1024),
            vol_q: VecDeque::new(),
            obj_q: (0..OBJECTS).map(|_| VecDeque::new()).collect(),
            version: [0; OBJECTS],
            ops: op_list(self.seed, i),
            cursor: 0,
            in_flight: 0,
            sent: 0,
        };
        state.queue(&ClientMsg::ReqVolLease {
            volume: VOLUME,
            epoch: Epoch(0),
        });
        for idx in 0..OBJECTS {
            state.queue(&ClientMsg::ReqObjLease {
                object: object_id(idx),
                version: Version::NONE,
            });
        }
        state.flush(&stream)?;
        let mut replies = 0;
        while replies < OBJECTS + 1 {
            let frame = read_frame(&mut stream)?;
            if frame.is_empty() {
                continue; // keepalive
            }
            replies += 1;
            self.received += 1;
            match codec::decode_server(&frame) {
                Ok(ServerMsg::VolLease { invalidate, .. }) => {
                    self.checks.check(invalidate.is_empty(), || {
                        "warm-up VolLease carried a batch".into()
                    });
                }
                Ok(ServerMsg::ObjLease {
                    object,
                    version,
                    data,
                    ..
                }) => {
                    let idx = object_index(object);
                    let want = idx.map(|idx| payload(self.seed, idx, 1));
                    self.checks.check(
                        version == Version(1) && data.is_some() && data == want,
                        || format!("warm-up fetch of {object} returned version {version:?}"),
                    );
                    if let Some(idx) = idx {
                        state.version[idx] = 1;
                        self.shared.held[i][idx].store(1, Ordering::Release);
                    }
                }
                other => self
                    .checks
                    .fail(format!("warm-up: unexpected reply {other:?}")),
            }
        }
        self.poller
            .add(stream.as_raw_fd(), i as u64, Interest::READ)?;
        self.conns.push(Conn {
            id,
            stream,
            state: Mutex::new(state),
        });
        Ok(())
    }

    fn in_process(&self) -> &(ServerHandle, Arc<ShardedNode>) {
        self.server.as_ref().expect("the rig runs its own server")
    }

    /// The server's own counters.
    pub fn server_stats(&self) -> ServerStats {
        self.in_process().0.stats()
    }

    /// Event-loop counters summed over the reactors.
    pub fn loop_stats(&self) -> LoopStats {
        self.in_process().1.loop_stats_total()
    }

    /// Send-queue counters summed over the reactors' peers.
    pub fn queue_totals(&self) -> QueueStats {
        let mut total = QueueStats::default();
        for shard in self.in_process().1.shard_stats() {
            total.absorb(shard.wire.queue_totals());
        }
        total
    }

    /// Checks the generator's message counts against the server's.
    pub fn reconcile(&mut self) -> ServerStats {
        let stats = self.server_stats();
        let sent: u64 = self.conns.iter().map(|c| c.lock().sent).sum();
        let received = self.received;
        self.checks.check(stats.msgs_in == sent, || {
            format!(
                "server counted {} messages in, clients sent {sent}",
                stats.msgs_in
            )
        });
        self.checks.check(stats.msgs_out == received, || {
            format!(
                "server counted {} messages out, clients received {received}",
                stats.msgs_out
            )
        });
        stats
    }

    /// Runs one phase without spans.
    pub fn phase(&mut self, spec: PhaseSpec) -> PhaseResult {
        self.phase_traced(spec, &mut NoTrace)
    }

    /// Runs one phase: the generators on their own threads, the receiver
    /// (the only thread that records spans) on this one.
    pub fn phase_traced<T: Tracer>(&mut self, spec: PhaseSpec, tracer: &mut T) -> PhaseResult {
        let slices = (spec.seconds.max(1) * SLICES_PER_S) as usize;
        let origin = Instant::now();
        let ticker_done = AtomicBool::new(spec.burst == 0);
        let writer_done = AtomicBool::new(!spec.writer);
        let mut result = PhaseResult {
            renew_ns: vec![Vec::new(); slices],
            replies: vec![0; slices],
            write_ns: vec![Vec::new(); slices],
            refetch_ns: vec![Vec::new(); slices],
            ..PhaseResult::default()
        };
        let mut checks = Checks::default();

        let LiveRig {
            seed,
            server,
            conns,
            decoders,
            poller,
            shared,
            received,
            ..
        } = self;
        let (seed, conns, shared) = (*seed, &*conns, &*shared);
        let server = server.as_ref().map(|(handle, _)| handle);

        std::thread::scope(|scope| {
            let ticker = (spec.burst > 0).then(|| {
                let done = &ticker_done;
                scope.spawn(move || {
                    let out = run_ticker(conns, shared, origin, spec);
                    done.store(true, Ordering::Release);
                    out
                })
            });
            let writer = spec.writer.then(|| {
                let done = &writer_done;
                let server = server.expect("a writer needs the in-process server");
                scope.spawn(move || {
                    let out = run_writer(server, shared, seed, origin, spec, slices);
                    done.store(true, Ordering::Release);
                    out
                })
            });

            let mut rx = Receiver {
                seed,
                conns,
                shared,
                decoders,
                poller,
                origin,
                spec,
                slices,
                checks: &mut checks,
                result: &mut result,
                received,
                inval_at: vec![[0u64; OBJECTS]; conns.len()],
                frames: Vec::new(),
                msgs: Vec::new(),
                followups: Vec::new(),
                rbuf: vec![0u8; 256 * 1024],
            };
            rx.run(tracer, &ticker_done, &writer_done);

            if let Some(t) = ticker {
                let (late, c) = t.join().expect("ticker thread");
                result.max_late_ns = late;
                checks.merge(c);
            }
            if let Some(w) = writer {
                let (per_slice, counts, waits, c) = w.join().expect("writer thread");
                result.writes = counts.iter().sum();
                result.write_ns = per_slice;
                result.writes_in = counts;
                result.writer_waits = waits;
                checks.merge(c);
            }
        });
        result.elapsed = origin.elapsed();
        self.checks.merge(checks);
        result
    }
}

impl Drop for LiveRig {
    fn drop(&mut self) {
        self.conns.clear(); // closes the sockets
        if let Some((server, node)) = self.server.take() {
            server.shutdown();
            // The server's forwarder thread lets go of the transport at
            // its next receive timeout; wait for that, so dropping the
            // last handle here joins the reactor threads and the rig
            // leaves nothing running behind it.
            let deadline = Instant::now() + Duration::from_secs(1);
            while Arc::strong_count(&node) > 1 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// The open-loop generator: every tick, `burst` requests per connection
/// are due; it sleeps until then and never skips a tick it is late for.
fn run_ticker(conns: &[Conn], shared: &Shared, origin: Instant, spec: PhaseSpec) -> (u64, Checks) {
    let mut checks = Checks::default();
    let mut max_late = 0u64;
    let ticks = spec.seconds * 1000;
    'ticks: for k in 0..ticks {
        let due = origin + TICK * k as u32;
        sleep_until(due);
        max_late = max_late.max(due.elapsed().as_nanos() as u64);
        let due_ns = (TICK * k as u32).as_nanos() as u64;
        for conn in conns {
            let mut st = conn.lock();
            for _ in 0..spec.burst {
                st.queue_background(&shared.committed, due_ns);
            }
            if let Err(e) = st.flush(&conn.stream) {
                checks.fail(format!("{}: send failed: {e}", conn.id));
                break 'ticks;
            }
        }
    }
    (max_late, checks)
}

/// The writer: one blocking `write` after another over the seeded object
/// order, each only once every client holds the object again.
fn run_writer(
    server: &ServerHandle,
    shared: &Shared,
    seed: u64,
    origin: Instant,
    spec: PhaseSpec,
    slices: usize,
) -> (Vec<Vec<u64>>, Vec<u64>, u64, Checks) {
    let mut checks = Checks::default();
    let mut per_slice = vec![Vec::new(); slices];
    let mut counts = vec![0u64; slices];
    let mut waits = 0u64;
    let order = write_order(seed);
    let run_for = Duration::from_secs(spec.seconds);
    let holders = shared.held.len();
    let mut k = 0u64;
    'writes: while origin.elapsed() < run_for && spec.max_writes.is_none_or(|m| k < m) {
        let idx = order[k as usize % OBJECTS];
        let current = shared.committed[idx].load(Ordering::Acquire);
        while shared
            .held
            .iter()
            .any(|h| h[idx].load(Ordering::Acquire) != current)
        {
            waits += 1;
            if origin.elapsed() > run_for + GRACE {
                checks.fail(format!(
                    "object {idx} was never refetched at version {current}"
                ));
                break 'writes;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        let data = payload(seed, idx, current + 1);
        let t0 = Instant::now();
        let outcome = server.write(object_id(idx), data);
        let took = t0.elapsed().as_nanos() as u64;
        shared.committed[idx].store(current + 1, Ordering::Release);
        checks.check(
            outcome.version == Version(current + 1)
                && outcome.invalidations_sent == holders
                && outcome.queued == 0
                && outcome.waited_out == 0
                && outcome.moved_to.is_none(),
            || {
                format!(
                    "write {k} of object {idx} (→ v{}, {holders} holders): {outcome:?}",
                    current + 1
                )
            },
        );
        let slice = (t0.duration_since(origin).as_nanos() as u64 / SLICE_NS) as usize;
        let slice = slice.min(slices - 1);
        keep(&mut per_slice, slice, took);
        counts[slice] += 1;
        k += 1;
    }
    (per_slice, counts, waits, checks)
}

/// The client side's read half: decodes whatever arrives, checks it,
/// matches it to its request and sends what it calls for.
struct Receiver<'a> {
    seed: u64,
    conns: &'a [Conn],
    shared: &'a Shared,
    decoders: &'a mut [FrameDecoder],
    poller: &'a Poller,
    origin: Instant,
    spec: PhaseSpec,
    slices: usize,
    checks: &'a mut Checks,
    result: &'a mut PhaseResult,
    received: &'a mut u64,
    /// When each object's `Invalidate` arrived, per connection.
    inval_at: Vec<[u64; OBJECTS]>,
    frames: Vec<Bytes>,
    msgs: Vec<ServerMsg>,
    followups: Vec<Followup>,
    rbuf: Vec<u8>,
}

impl Receiver<'_> {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn slice_of(&self, ns: u64) -> usize {
        ((ns / SLICE_NS) as usize).min(self.slices - 1)
    }

    fn closed_loop_open(&self) -> bool {
        self.spec.window > 0
            && self.now_ns() < self.spec.seconds * 1_000_000_000
            && self
                .spec
                .max_replies
                .is_none_or(|m| self.result.background_replies < m)
    }

    fn run<T: Tracer>(
        &mut self,
        tracer: &mut T,
        ticker_done: &AtomicBool,
        writer_done: &AtomicBool,
    ) {
        let root = tracer.enter(SP_ROOT, 0);
        if self.spec.window > 0 {
            for conn in self.conns {
                let g = tracer.enter(SP_GEN_ENCODE, 0);
                let mut st = conn.lock();
                let now = self.now_ns();
                for _ in 0..self.spec.window {
                    st.queue_background(&self.shared.committed, now);
                }
                tracer.exit(g);
                let s = tracer.enter(SP_SOCK_WRITE, 0);
                let sent = st.flush(&conn.stream);
                tracer.exit(s);
                if let Err(e) = sent {
                    self.checks.fail(format!("{}: send failed: {e}", conn.id));
                }
            }
        }
        let mut events: Vec<PollEvent> = Vec::new();
        let mut stopped_at: Option<Instant> = None;
        let mut wake = 0u32;
        loop {
            let generating = !ticker_done.load(Ordering::Acquire)
                || !writer_done.load(Ordering::Acquire)
                || self.closed_loop_open();
            if !generating {
                let in_flight: usize = self.conns.iter().map(|c| c.lock().in_flight).sum();
                if in_flight == 0 {
                    break;
                }
                let since = *stopped_at.get_or_insert_with(Instant::now);
                if since.elapsed() > GRACE {
                    for _ in 0..in_flight {
                        self.checks.check(false, || "request timed out".into());
                    }
                    break;
                }
            }
            wake += 1;
            let w = tracer.enter(SP_SERVER_WAIT, wake);
            let polled = self
                .poller
                .wait(&mut events, Some(Duration::from_millis(20)));
            tracer.exit(w);
            if let Err(e) = polled {
                self.checks.fail(format!("epoll_wait failed: {e}"));
                break;
            }
            for ev in &events {
                if !self.readable(tracer, ev.token as usize, wake) {
                    tracer.exit(root);
                    return;
                }
            }
        }
        tracer.exit(root);
    }

    /// Handles one readable connection; `false` ends the phase.
    fn readable<T: Tracer>(&mut self, tracer: &mut T, i: usize, op: u32) -> bool {
        let conn = &self.conns[i];
        let n = match (&conn.stream).read(&mut self.rbuf) {
            Ok(0) => {
                self.checks
                    .fail(format!("{}: server closed the connection", conn.id));
                return false;
            }
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                return true
            }
            Err(e) => {
                self.checks.fail(format!("{}: read failed: {e}", conn.id));
                return false;
            }
        };

        let w = tracer.enter(SP_WIRE, op);
        self.frames.clear();
        self.decoders[i].feed(&self.rbuf[..n]);
        loop {
            match self.decoders[i].next_frame() {
                // Zero-length frames are the transport's keepalives.
                Ok(Some(f)) if f.is_empty() => {}
                Ok(Some(f)) => self.frames.push(f),
                Ok(None) => break,
                Err(e) => {
                    self.checks.fail(format!("{}: {e}", conn.id));
                    break;
                }
            }
        }
        tracer.exit(w);

        let p = tracer.enter(SP_PROTO, op);
        self.msgs.clear();
        for f in &self.frames {
            match codec::decode_server(f) {
                Ok(m) => self.msgs.push(m),
                Err(e) => self
                    .checks
                    .fail(format!("{}: undecodable reply: {e}", conn.id)),
            }
        }
        tracer.exit(p);
        *self.received += self.msgs.len() as u64;

        let now = self.now_ns();
        let mut st = conn.lock();
        self.followups.clear();
        let msgs = std::mem::take(&mut self.msgs);
        for msg in &msgs {
            self.handle(i, &mut st, msg, now);
        }
        self.msgs = msgs;

        let g = tracer.enter(SP_GEN_ENCODE, op);
        for f in &self.followups {
            match *f {
                Followup::Replace => st.queue_background(&self.shared.committed, now),
                Followup::AckAndRefetch { idx, stale } => {
                    st.queue(&ClientMsg::AckInvalidate {
                        object: object_id(idx),
                    });
                    st.queue(&ClientMsg::ReqObjLease {
                        object: object_id(idx),
                        version: Version(stale),
                    });
                    st.obj_q[idx].push_back(Pending {
                        kind: Kind::Refetch,
                        due_ns: now,
                        sent_version: stale,
                        min_version: self.shared.committed[idx].load(Ordering::Acquire),
                    });
                    st.in_flight += 1;
                }
            }
        }
        tracer.exit(g);
        let s = tracer.enter(SP_SOCK_WRITE, op);
        let sent = st.flush(&conn.stream);
        tracer.exit(s);
        if let Err(e) = sent {
            self.checks.fail(format!("{}: send failed: {e}", conn.id));
            return false;
        }
        true
    }

    fn handle(&mut self, i: usize, st: &mut ConnState, msg: &ServerMsg, now: u64) {
        match msg {
            ServerMsg::VolLease {
                volume,
                epoch,
                invalidate,
                ..
            } => {
                let pending = st.vol_q.pop_front();
                self.checks.check(
                    pending.is_some()
                        && *volume == VOLUME
                        && *epoch == Epoch(0)
                        && invalidate.is_empty(),
                    || format!("client {i}: unexpected {msg:?}"),
                );
                if let Some(p) = pending {
                    st.in_flight -= 1;
                    self.background_reply(p, now);
                }
            }
            ServerMsg::ObjLease {
                object,
                version,
                data,
                ..
            } => {
                let Some(idx) = object_index(*object) else {
                    self.checks
                        .fail(format!("client {i}: lease on unknown {object}"));
                    return;
                };
                let Some(p) = st.obj_q[idx].pop_front() else {
                    self.checks
                        .fail(format!("client {i}: unrequested lease on {object}"));
                    return;
                };
                st.in_flight -= 1;
                let v = version.0;
                // Versions never go backwards, and never behind a write
                // that had been acknowledged when the request was due.
                self.checks.check(
                    v >= st.version[idx].max(p.sent_version) && v >= p.min_version,
                    || {
                        format!(
                            "client {i}: {object} at v{v}, but held v{} / sent v{} / committed v{}",
                            st.version[idx], p.sent_version, p.min_version
                        )
                    },
                );
                match data {
                    Some(bytes) => self.checks.check(*bytes == payload(self.seed, idx, v), || {
                        format!("client {i}: payload of {object} v{v} is not what was written")
                    }),
                    None => self.checks.check(v == p.sent_version, || {
                        format!(
                            "client {i}: no data for {object}, yet v{v} ≠ sent v{}",
                            p.sent_version
                        )
                    }),
                }
                st.version[idx] = v;
                self.shared.held[i][idx].store(v, Ordering::Release);
                match p.kind {
                    Kind::Background => self.background_reply(p, now),
                    Kind::Refetch => {
                        self.checks.check(data.is_some(), || {
                            format!("client {i}: refetch of {object} carried no data")
                        });
                        let since = self.inval_at[i][idx];
                        let slice = self.slice_of(since);
                        keep(
                            &mut self.result.refetch_ns,
                            slice,
                            now.saturating_sub(since),
                        );
                    }
                }
            }
            ServerMsg::Invalidate { object } => {
                let Some(idx) = object_index(*object) else {
                    self.checks
                        .fail(format!("client {i}: invalidation of unknown {object}"));
                    return;
                };
                // The server repeats an unacknowledged invalidation
                // whenever the client's next volume renewal reaches it
                // first. TCP lost nothing, so the first ack stands; a
                // second one would reach the server after the refetch
                // and revoke the lease that refetch was just granted.
                if st.version[idx] == 0 {
                    self.result.repeated_invalidations += 1;
                    return;
                }
                let stale = st.version[idx];
                st.version[idx] = 0;
                self.inval_at[i][idx] = now;
                self.followups.push(Followup::AckAndRefetch { idx, stale });
            }
            other => self
                .checks
                .fail(format!("client {i}: unexpected {other:?}")),
        }
    }

    fn background_reply(&mut self, p: Pending, now: u64) {
        // A closed loop is read for its rate only; its window-deep
        // round trips say nothing about latency and would fill memory in
        // proportion to how fast the run happened to be.
        if self.spec.burst > 0 {
            let slice = self.slice_of(p.due_ns);
            keep(
                &mut self.result.renew_ns,
                slice,
                now.saturating_sub(p.due_ns),
            );
        }
        let arrived = self.slice_of(now);
        self.result.replies[arrived] += 1;
        self.result.background_replies += 1;
        if self.closed_loop_open() {
            self.followups.push(Followup::Replace);
        }
    }
}

fn require(summary: Option<LatencySummary>, what: &str, report: &mut Report) -> LatencySummary {
    summary.unwrap_or_else(|| {
        report.checks.fail(format!("{what}: no samples"));
        LatencySummary {
            p50_ns: f64::NAN,
            tail_ns: f64::NAN,
            tail_q: 0.5,
            samples: 0,
            slices: 0,
        }
    })
}

/// The steady per-second rate of a per-slice count.
fn steady_rate(per_slice: &[u64]) -> f64 {
    let mut rates: Vec<f64> = per_slice
        .iter()
        .map(|&n| (n * SLICES_PER_S) as f64)
        .collect();
    steady_high(&mut rates)
}

fn latency_info(report: &mut Report, s: &LatencySummary) {
    report.info("latency_samples", s.samples as f64, "count");
    report.info("latency_slices", s.slices as f64, "count");
    report.info("latency_tail_percentile", s.tail_q * 100.0, "%");
}

/// `live_renew`, untraced: half the run open loop, half closed loop.
pub fn run_renew(args: &Args, rig: &mut LiveRig, report: &mut Report) {
    let half = (args.seconds / 2).max(1);
    let (open, max_late_ns) = renew_open_loop(rig, half);
    let closed = rig.phase(PhaseSpec {
        seconds: half,
        window: WINDOW,
        ..PhaseSpec::default()
    });
    rig.reconcile();
    let lat = require(open, "open loop", report);
    latency_info(report, &lat);
    report.info("open_loop_rate", RENEW_RATE_PER_S as f64, "1/s");
    report.info("gen.max_late_us", max_late_ns as f64 / 1e3, "us");
    report.metric("throughput_per_s", steady_rate(&closed.replies), "1/s");
    report.info("latency_tail_us", lat.tail_ns / 1e3, "us");
    report.metric("latency_p50_us", lat.p50_ns / 1e3, "us");
}

/// The open loop of `live_renew` for `seconds`, summarized.
pub fn renew_open_loop(rig: &mut LiveRig, seconds: u64) -> (Option<LatencySummary>, u64) {
    let per_tick = RENEW_RATE_PER_S / 1000 / rig.conns.len();
    let mut open = rig.phase(PhaseSpec {
        seconds,
        burst: per_tick,
        ..PhaseSpec::default()
    });
    (summarize_slices(&mut open.renew_ns, 0.99), open.max_late_ns)
}

/// The phase `live_write` measures.
fn write_spec(seconds: u64, conns: usize) -> PhaseSpec {
    PhaseSpec {
        seconds,
        burst: BACKGROUND_RATE_PER_S / 1000 / conns,
        writer: true,
        ..PhaseSpec::default()
    }
}

/// What a `live_write` phase measured.
pub struct WriteSummary {
    /// `ServerHandle::write` call → return.
    pub latency: LatencySummary,
    /// Steady writes per second.
    pub writes_per_s: f64,
    /// In microseconds, under their per-layer names: the write tail, and
    /// what the generic end-to-end names have no room for — the
    /// background renewals' latency from due time and `Invalidate`
    /// received → new payload in hand.
    pub detail: Vec<(&'static str, f64)>,
    /// The raw phase.
    pub phase: PhaseResult,
}

/// Runs `live_write` for `seconds`.
pub fn write_phase(rig: &mut LiveRig, seconds: u64, report: &mut Report) -> WriteSummary {
    let mut phase = rig.phase(write_spec(seconds, rig.conns.len()));
    rig.reconcile();
    let latency = require(summarize_slices(&mut phase.write_ns, 0.9), "writer", report);
    let mut detail = vec![("latency_tail_us", latency.tail_ns / 1e3)];
    if let Some(r) = summarize_slices(&mut phase.renew_ns, 0.99) {
        detail.push(("live_write.renew_p50_us", r.p50_ns / 1e3));
        detail.push(("live_write.renew_p99_us", r.tail_ns / 1e3));
    }
    if let Some(r) = summarize_slices(&mut phase.refetch_ns, 0.99) {
        detail.push(("live_write.refetch_p50_us", r.p50_ns / 1e3));
    }
    WriteSummary {
        latency,
        writes_per_s: steady_rate(&phase.writes_in),
        detail,
        phase,
    }
}

/// `live_write`, untraced.
pub fn run_write(args: &Args, rig: &mut LiveRig, report: &mut Report) {
    let w = write_phase(rig, args.seconds, report);
    latency_info(report, &w.latency);
    report.info("writer_waits", w.phase.writer_waits as f64, "count");
    report.info(
        "repeated_invalidations",
        w.phase.repeated_invalidations as f64,
        "count",
    );
    report.info("gen.max_late_us", w.phase.max_late_ns as f64 / 1e3, "us");
    for (name, us) in w.detail {
        report.info(name, us, "us");
    }
    report.metric("throughput_per_s", w.writes_per_s, "1/s");
    report.metric("latency_p50_us", w.latency.p50_ns / 1e3, "us");
}

/// The fixed-count phase a traced run records spans over, and repeats
/// without spans to price the tracing: a closed loop (`live_renew`), or
/// a fixed number of writes beside a small closed loop (`live_write`).
pub fn span_spec(write: bool) -> PhaseSpec {
    if write {
        PhaseSpec {
            seconds: 30,
            window: 8,
            writer: true,
            max_writes: Some(1_500),
            max_replies: Some(30_000),
            ..PhaseSpec::default()
        }
    } else {
        PhaseSpec {
            seconds: 30,
            window: WINDOW,
            max_replies: Some(60_000),
            ..PhaseSpec::default()
        }
    }
}

/// Operations a span-phase completed: what its duration is divided by.
pub fn span_ops(res: &PhaseResult) -> f64 {
    (res.background_replies + res.writes) as f64
}

/// One second each of open loop, closed loop and writes on a fresh rig:
/// the transport and server counters every traced run reports.
pub struct MiniLive {
    /// Closed-loop renewals per second.
    pub msgs_per_s: f64,
    /// Open-loop generator lateness at worst.
    pub max_late_ns: u64,
    /// Loop counters over the closed loop.
    pub loop_delta: LoopStats,
    /// Queue counters at the end.
    pub queues: QueueStats,
    /// The server's counters at the end.
    pub stats: ServerStats,
    /// Threads the rig added.
    pub threads: usize,
}

/// Runs [`MiniLive`]; its checks land in `report`.
pub fn mini(seed: u64, report: &mut Report) -> io::Result<MiniLive> {
    let mut rig = LiveRig::setup(seed)?;
    let per_tick = RENEW_RATE_PER_S / 1000 / rig.conns.len();
    let open = rig.phase(PhaseSpec {
        seconds: 1,
        burst: per_tick,
        ..PhaseSpec::default()
    });
    let before = rig.loop_stats();
    let closed = rig.phase(PhaseSpec {
        seconds: 1,
        window: WINDOW,
        ..PhaseSpec::default()
    });
    let after = rig.loop_stats();
    let writes = rig.phase(write_spec(1, rig.conns.len()));
    let stats = rig.reconcile();
    rig.checks.check(stats.writes == writes.writes, || {
        format!(
            "server counted {} writes, the writer made {}",
            stats.writes, writes.writes
        )
    });
    let out = MiniLive {
        msgs_per_s: closed.background_replies as f64 / closed.elapsed.as_secs_f64(),
        max_late_ns: open.max_late_ns,
        loop_delta: LoopStats {
            wakeups: after.wakeups - before.wakeups,
            timer_wakeups: after.timer_wakeups - before.timer_wakeups,
            io_events: after.io_events - before.io_events,
            commands: after.commands - before.commands,
            accepts: after.accepts - before.accepts,
            frames_in: after.frames_in - before.frames_in,
            frames_out: after.frames_out - before.frames_out,
        },
        queues: rig.queue_totals(),
        stats,
        threads: rig.threads,
    };
    report.checks.merge(std::mem::take(&mut rig.checks));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops_and_payloads() {
        assert_eq!(op_list(7, 0), op_list(7, 0));
        assert_ne!(op_list(7, 0), op_list(8, 0));
        assert_ne!(op_list(7, 0), op_list(7, 1));
        assert_eq!(write_order(7), write_order(7));
        assert_ne!(write_order(7), write_order(8));
        assert_eq!(payload(7, 3, 2), payload(7, 3, 2));
        assert_ne!(payload(7, 3, 2), payload(7, 3, 3));
        assert_ne!(payload(7, 3, 2), payload(8, 3, 2));
        assert_eq!(payload(7, 3, 2).len(), PAYLOAD);
    }

    /// A stand-in server: answers every request with a fresh lease, and
    /// on connection 0 stalls once, for `stall`, before its 300th reply.
    fn fake_server(seed: u64, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let serve = move |mut stream: TcpStream, stalls: bool| {
            let _ = read_frame(&mut stream);
            let _ = write_frame(&mut stream, &encode_hello(NodeId::Server(ServerId(0))));
            let expire = vl_types::Timestamp::from_millis(1 << 40);
            let mut served = 0u32;
            while let Ok(frame) = read_frame(&mut stream) {
                let reply = match codec::decode_client(&frame) {
                    Ok(ClientMsg::ReqVolLease { volume, epoch }) => ServerMsg::VolLease {
                        volume,
                        expire,
                        epoch,
                        invalidate: Vec::new(),
                    },
                    Ok(ClientMsg::ReqObjLease { object, version }) => ServerMsg::ObjLease {
                        object,
                        version: Version(1),
                        expire,
                        data: (version == Version::NONE)
                            .then(|| payload(seed, object_index(object).unwrap(), 1)),
                    },
                    _ => continue,
                };
                served += 1;
                if stalls && served == OBJECTS as u32 + 300 {
                    std::thread::sleep(stall);
                }
                if write_frame(&mut stream, &codec::encode_server(&reply)).is_err() {
                    return;
                }
            }
        };
        let handle = std::thread::spawn(move || {
            let workers: Vec<_> = (0..CONNECTIONS)
                .map(|i| {
                    let (stream, _) = listener.accept().unwrap();
                    std::thread::spawn(move || serve(stream, i == 0))
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_shows_in_every_request_that_was_due_during_it() {
        let stall = Duration::from_millis(50);
        let (addr, server) = fake_server(5, stall);
        let mut rig = LiveRig::connect_all(5, addr, None).unwrap();
        let res = rig.phase(PhaseSpec {
            seconds: 1,
            burst: 2,
            ..PhaseSpec::default()
        });
        assert_eq!(rig.checks.failed, 0, "{:?}", rig.checks.first);
        let all: Vec<u64> = res.renew_ns.iter().flatten().copied().collect();
        assert_eq!(all.len(), 2 * 1000 * CONNECTIONS);
        // Measured from send time, one request would be slow. Measured
        // from due time, so is every request the stalled connection owed
        // meanwhile: two a millisecond, late by what was left of the stall.
        let late = all.iter().filter(|&&ns| ns >= 10_000_000).count();
        assert!(late >= 40, "only {late} requests saw the stall");
        assert!(*all.iter().max().unwrap() >= 45_000_000);
        drop(rig);
        server.join().unwrap();
    }

    #[test]
    fn op_list_is_half_volume_half_object() {
        let ops = op_list(1, 0);
        let vol = ops.iter().filter(|&&o| o == OP_VOLUME).count();
        assert!((OPS * 45 / 100..OPS * 55 / 100).contains(&vol), "{vol}");
        assert!(ops
            .iter()
            .all(|&o| o == OP_VOLUME || (o as usize) < OBJECTS));
        let mut order = write_order(1);
        order.sort_unstable();
        assert_eq!(order, (0..OBJECTS).collect::<Vec<_>>());
    }
}

//! Seeded fault injection for live transports.
//!
//! [`ChaosNet`] wraps any [`Channel`] with a send-side fault layer:
//! drops, bounded delays, reorders, connection resets (a drop plus a
//! burst of follow-on drops, the shape a TCP RST leaves behind), and
//! one-way partition windows. All *decisions* come from one shared
//! seeded RNG, so two runs with the same seed and the same message
//! sequence draw a byte-identical fault schedule — the live-path
//! analogue of the deterministic machine fault harness
//! (`vl_core::machine::harness`).
//!
//! The wrapper injects faults on the **send** side only: wrapping each
//! node's endpoint is enough to perturb every link, and the receive
//! path stays a plain delegation so blocking semantics are untouched.
//! This holds for the readiness transport too: a wrapped `PollNode` or
//! `ShardedNode` still runs its own epoll loop untouched — chaos verdicts
//! apply *before* a frame is handed to the nonblocking send queue, so
//! drops/delays/resets compose with (rather than interfere with) the
//! loop's keepalives, re-dials, and backpressure accounting. The
//! delayed-release thread calls the inner channel's `send` later,
//! which is safe because the readiness transports' send path is a
//! thread-safe command enqueue.
//!
//! Determinism contract: the RNG verdict is drawn for *every* send, in
//! send order, before any wall-clock state (partition windows, reset
//! bursts) is consulted. Consequence drops from those mechanisms are
//! counted but never logged, so [`ChaosNet::schedule`] depends only on
//! `(seed, send sequence)` — never on timing.
//!
//! # Examples
//!
//! ```
//! use vl_net::chaos::{ChaosNet, ChaosProfile};
//! use vl_net::{Channel, InMemoryNetwork, NodeId};
//! use vl_types::{ClientId, ServerId};
//!
//! let net = InMemoryNetwork::new();
//! let chaos = ChaosNet::new(ChaosProfile::Drops.config(42));
//! let client = chaos.wrap(net.endpoint(NodeId::Client(ClientId(1))));
//! let server = net.endpoint(NodeId::Server(ServerId(0)));
//! for _ in 0..20 {
//!     client.send(NodeId::Server(ServerId(0)), bytes::Bytes::from_static(b"m")).unwrap();
//! }
//! chaos.stop(); // faults off; everything in flight flushes
//! # drop(server);
//! ```

use crate::{Channel, NetError, NetEvent, NodeId};
use bytes::Bytes;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

/// Named fault mixes for the CLI (`--chaos-profile`) and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosProfile {
    /// No faults — the wrapper is a pass-through.
    Off,
    /// Message loss only (10% drop).
    Drops,
    /// Latency only (25% of messages delayed up to 30 ms).
    Delays,
    /// Light loss plus one-way partition windows.
    Partitions,
    /// Everything at once: loss, delay, reorder, resets, partitions.
    Havoc,
}

impl ChaosProfile {
    /// The concrete fault mix for this profile with the given seed.
    pub fn config(self, seed: u64) -> ChaosConfig {
        let base = ChaosConfig {
            seed,
            ..ChaosConfig::default()
        };
        match self {
            ChaosProfile::Off => base,
            ChaosProfile::Drops => ChaosConfig {
                drop_prob: 0.10,
                ..base
            },
            ChaosProfile::Delays => ChaosConfig {
                delay_prob: 0.25,
                max_delay_ms: 30,
                ..base
            },
            ChaosProfile::Partitions => ChaosConfig {
                drop_prob: 0.02,
                partition_prob: 0.01,
                partition_for: StdDuration::from_millis(150),
                ..base
            },
            ChaosProfile::Havoc => ChaosConfig {
                drop_prob: 0.08,
                delay_prob: 0.15,
                max_delay_ms: 25,
                reorder_prob: 0.05,
                reset_prob: 0.02,
                reset_burst: 3,
                partition_prob: 0.005,
                partition_for: StdDuration::from_millis(120),
                ..base
            },
        }
    }
}

impl fmt::Display for ChaosProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ChaosProfile::Off => "off",
            ChaosProfile::Drops => "drops",
            ChaosProfile::Delays => "delays",
            ChaosProfile::Partitions => "partitions",
            ChaosProfile::Havoc => "havoc",
        })
    }
}

impl FromStr for ChaosProfile {
    type Err = String;

    fn from_str(s: &str) -> Result<ChaosProfile, String> {
        match s {
            "off" => Ok(ChaosProfile::Off),
            "drops" => Ok(ChaosProfile::Drops),
            "delays" => Ok(ChaosProfile::Delays),
            "partitions" => Ok(ChaosProfile::Partitions),
            "havoc" => Ok(ChaosProfile::Havoc),
            other => Err(format!(
                "unknown chaos profile {other:?} (expected off|drops|delays|partitions|havoc)"
            )),
        }
    }
}

/// Fault-mix parameters. Probabilities are per-send and evaluated in
/// order drop → delay → reorder → reset → partition; their sum should
/// stay below 1.0 (the remainder delivers cleanly).
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosConfig {
    /// RNG seed; same seed + same send sequence → same schedule.
    pub seed: u64,
    /// Probability a send is silently dropped.
    pub drop_prob: f64,
    /// Probability a send is held back before delivery.
    pub delay_prob: f64,
    /// Upper bound (inclusive, milliseconds) for injected delays.
    pub max_delay_ms: u64,
    /// Probability a send is held until a later send overtakes it.
    pub reorder_prob: f64,
    /// Probability of a connection reset: this send and in-flight
    /// traffic to the peer are lost, plus the next
    /// [`reset_burst`](ChaosConfig::reset_burst) sends on that link.
    pub reset_prob: f64,
    /// Follow-on sends lost after a reset verdict.
    pub reset_burst: u32,
    /// Probability a send opens a one-way partition window on its link.
    pub partition_prob: f64,
    /// Length of an injected partition window.
    pub partition_for: StdDuration,
}

impl Default for ChaosConfig {
    /// All fault probabilities zero (pass-through) with seed 0.
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0,
            drop_prob: 0.0,
            delay_prob: 0.0,
            max_delay_ms: 20,
            reorder_prob: 0.0,
            reset_prob: 0.0,
            reset_burst: 2,
            partition_prob: 0.0,
            partition_for: StdDuration::from_millis(100),
        }
    }
}

/// Counters for one chaos run, split into RNG verdicts and the
/// consequence drops those verdicts caused later (burst/partition).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosCounters {
    /// Sends that passed through the wrapper.
    pub sends: u64,
    /// Sends delivered immediately and untouched.
    pub delivered: u64,
    /// RNG-verdict drops.
    pub dropped: u64,
    /// RNG-verdict delays.
    pub delayed: u64,
    /// RNG-verdict reorder holds.
    pub reordered: u64,
    /// RNG-verdict connection resets.
    pub resets: u64,
    /// RNG-verdict partition windows opened.
    pub partitions: u64,
    /// Drops caused by an active reset burst or partition window.
    pub consequence_dropped: u64,
}

#[derive(Clone, Copy, Debug)]
enum Verdict {
    Deliver,
    Drop,
    Delay(u64),
    Reorder,
    Reset,
    Partition,
}

struct ChaosCore {
    cfg: ChaosConfig,
    rng: StdRng,
    seq: u64,
    active: bool,
    /// Fault schedule: one line per RNG-decided fault, in send order.
    log: Vec<String>,
    /// Remaining forced drops per directed link after a reset.
    bursts: HashMap<(NodeId, NodeId), u32>,
    /// One-way partition windows: directed link → expiry.
    windows: HashMap<(NodeId, NodeId), Instant>,
    counters: ChaosCounters,
}

impl ChaosCore {
    /// Draws the verdict for one send. Always consumes the RNG in the
    /// same pattern for a given verdict sequence, so the schedule is a
    /// pure function of `(seed, send order)`.
    fn verdict(&mut self, from: NodeId, to: NodeId) -> Verdict {
        let seq = self.seq;
        self.seq += 1;
        self.counters.sends += 1;
        if !self.active {
            self.counters.delivered += 1;
            return Verdict::Deliver;
        }
        let c = self.cfg.clone();
        let roll: f64 = self.rng.gen();
        let mut edge = c.drop_prob;
        let verdict = if roll < edge {
            Verdict::Drop
        } else if roll < {
            edge += c.delay_prob;
            edge
        } {
            Verdict::Delay(self.rng.gen_range(1..=c.max_delay_ms.max(1)))
        } else if roll < {
            edge += c.reorder_prob;
            edge
        } {
            Verdict::Reorder
        } else if roll < {
            edge += c.reset_prob;
            edge
        } {
            Verdict::Reset
        } else if roll < {
            edge += c.partition_prob;
            edge
        } {
            Verdict::Partition
        } else {
            Verdict::Deliver
        };
        match verdict {
            Verdict::Deliver => {}
            Verdict::Drop => {
                self.counters.dropped += 1;
                self.log.push(format!("{seq} drop"));
            }
            Verdict::Delay(ms) => {
                self.counters.delayed += 1;
                self.log.push(format!("{seq} delay {ms}"));
            }
            Verdict::Reorder => {
                self.counters.reordered += 1;
                self.log.push(format!("{seq} reorder"));
            }
            Verdict::Reset => {
                self.counters.resets += 1;
                self.log.push(format!("{seq} reset"));
                if c.reset_burst > 0 {
                    self.bursts.insert((from, to), c.reset_burst);
                }
            }
            Verdict::Partition => {
                self.counters.partitions += 1;
                self.log.push(format!("{seq} partition"));
                self.windows
                    .insert((from, to), Instant::now() + c.partition_for);
            }
        }
        verdict
    }

    /// Post-verdict overrides from earlier faults. Kept out of the log
    /// because burst progress and window expiry depend on timing.
    fn suppressed(&mut self, from: NodeId, to: NodeId) -> bool {
        if !self.active {
            return false;
        }
        if let Some(left) = self.bursts.get_mut(&(from, to)) {
            *left -= 1;
            if *left == 0 {
                self.bursts.remove(&(from, to));
            }
            self.counters.consequence_dropped += 1;
            return true;
        }
        match self.windows.get(&(from, to)) {
            Some(until) if Instant::now() < *until => {
                self.counters.consequence_dropped += 1;
                true
            }
            Some(_) => {
                self.windows.remove(&(from, to));
                false
            }
            None => false,
        }
    }
}

/// A shared fault injector. One `ChaosNet` [`wrap`](ChaosNet::wrap)s
/// any number of endpoints; all of them draw verdicts from the same
/// seeded schedule, in global send order.
#[derive(Clone)]
pub struct ChaosNet {
    core: Arc<Mutex<ChaosCore>>,
}

impl fmt::Debug for ChaosNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let core = self.core.lock();
        f.debug_struct("ChaosNet")
            .field("seed", &core.cfg.seed)
            .field("active", &core.active)
            .field("sends", &core.counters.sends)
            .finish()
    }
}

impl ChaosNet {
    /// Creates an injector with the given fault mix, initially active.
    pub fn new(cfg: ChaosConfig) -> ChaosNet {
        let rng = StdRng::seed_from_u64(cfg.seed);
        ChaosNet {
            core: Arc::new(Mutex::new(ChaosCore {
                cfg,
                rng,
                seq: 0,
                active: true,
                log: Vec::new(),
                bursts: HashMap::new(),
                windows: HashMap::new(),
                counters: ChaosCounters::default(),
            })),
        }
    }

    /// Wraps `inner` so every send draws a fault verdict first. The
    /// returned endpoint implements [`Channel`] and delegates receives
    /// untouched.
    pub fn wrap<C: Channel + 'static>(&self, inner: C) -> ChaosEndpoint {
        self.wrap_arc(Arc::new(inner))
    }

    /// [`wrap`](ChaosNet::wrap) for an already-shared channel.
    pub fn wrap_arc(&self, inner: Arc<dyn Channel>) -> ChaosEndpoint {
        let delayed: Arc<Mutex<Vec<Parked>>> = Arc::new(Mutex::new(Vec::new()));
        let held: Arc<Mutex<Option<Parked>>> = Arc::new(Mutex::new(None));
        let closed = Arc::new(AtomicBool::new(false));
        let pump = {
            let inner = Arc::clone(&inner);
            let delayed = Arc::clone(&delayed);
            let held = Arc::clone(&held);
            let closed = Arc::clone(&closed);
            let core = Arc::clone(&self.core);
            std::thread::Builder::new()
                .name(format!("chaos-pump-{}", inner.id()))
                .spawn(move || {
                    while !closed.load(Ordering::SeqCst) {
                        std::thread::sleep(PUMP_TICK);
                        let flush_all = !core.lock().active;
                        pump_once(&inner, &delayed, &held, flush_all);
                    }
                    // Final flush so no message is stranded at shutdown.
                    pump_once(&inner, &delayed, &held, true);
                })
                .expect("spawn chaos pump")
        };
        ChaosEndpoint {
            inner,
            core: Arc::clone(&self.core),
            delayed,
            held,
            closed,
            pump: Mutex::new(Some(pump)),
        }
    }

    /// Turns all fault injection off. In-flight delayed/held messages
    /// flush within one pump tick; burst and partition state clears, so
    /// the network delivers cleanly from here on — the "faults stop"
    /// half of a liveness test.
    pub fn stop(&self) {
        let mut core = self.core.lock();
        core.active = false;
        core.bursts.clear();
        core.windows.clear();
    }

    /// Explicitly opens a one-way partition window from `from` to `to`
    /// for `dur` — deterministic test hook, no RNG involved.
    pub fn partition_one_way(&self, from: NodeId, to: NodeId, dur: StdDuration) {
        self.core
            .lock()
            .windows
            .insert((from, to), Instant::now() + dur);
    }

    /// The RNG-decided fault schedule so far, one line per fault
    /// (`"<seq> drop"`, `"<seq> delay <ms>"`, …). Byte-identical for
    /// equal seeds and send sequences.
    pub fn schedule(&self) -> String {
        self.core.lock().log.join("\n")
    }

    /// Snapshot of fault counters.
    pub fn counters(&self) -> ChaosCounters {
        self.core.lock().counters
    }
}

/// A message parked by a delay or reorder verdict.
struct Parked {
    due: Instant,
    seq: u64,
    to: NodeId,
    bytes: Bytes,
}

const PUMP_TICK: StdDuration = StdDuration::from_millis(5);
/// How long a reorder hold lasts if no later send overtakes it.
const REORDER_HOLD: StdDuration = StdDuration::from_millis(25);

fn pump_once(
    inner: &Arc<dyn Channel>,
    delayed: &Mutex<Vec<Parked>>,
    held: &Mutex<Option<Parked>>,
    flush_all: bool,
) {
    let now = Instant::now();
    let due: Vec<Parked> = {
        let mut parked = delayed.lock();
        let mut due: Vec<Parked> = Vec::new();
        let mut keep: Vec<Parked> = Vec::new();
        for p in parked.drain(..) {
            if flush_all || p.due <= now {
                due.push(p);
            } else {
                keep.push(p);
            }
        }
        *parked = keep;
        due.sort_by_key(|p| (p.due, p.seq));
        due
    };
    for p in due {
        let _ = inner.send(p.to, p.bytes);
    }
    let release = {
        let mut h = held.lock();
        match h.as_ref() {
            Some(p) if flush_all || p.due <= now => h.take(),
            _ => None,
        }
    };
    if let Some(p) = release {
        let _ = inner.send(p.to, p.bytes);
    }
}

/// A fault-injecting view of an inner [`Channel`]. Created by
/// [`ChaosNet::wrap`]; drop it to stop its background pump.
pub struct ChaosEndpoint {
    inner: Arc<dyn Channel>,
    core: Arc<Mutex<ChaosCore>>,
    delayed: Arc<Mutex<Vec<Parked>>>,
    held: Arc<Mutex<Option<Parked>>>,
    closed: Arc<AtomicBool>,
    pump: Mutex<Option<JoinHandle<()>>>,
}

impl fmt::Debug for ChaosEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosEndpoint")
            .field("id", &self.inner.id())
            .field("delayed", &self.delayed.lock().len())
            .finish()
    }
}

impl Channel for ChaosEndpoint {
    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn send(&self, to: NodeId, bytes: Bytes) -> Result<(), NetError> {
        let from = self.inner.id();
        let (verdict, seq, suppressed) = {
            let mut core = self.core.lock();
            // Verdict is drawn unconditionally (RNG stream stays a pure
            // function of send order); overrides apply afterwards, and
            // only to verdicts that would otherwise deliver — a message
            // the verdict already dropped can't be dropped again.
            let v = core.verdict(from, to);
            let seq = core.seq - 1;
            let sup = matches!(v, Verdict::Deliver | Verdict::Delay(_) | Verdict::Reorder)
                && core.suppressed(from, to);
            (v, seq, sup)
        };
        if suppressed {
            return Ok(());
        }
        match verdict {
            Verdict::Deliver => {
                let out = self.inner.send(to, bytes);
                // A clean delivery overtakes any held (reordered)
                // message: release it now, out of order.
                let release = self.held.lock().take();
                if let Some(p) = release {
                    let _ = self.inner.send(p.to, p.bytes);
                }
                self.core.lock().counters.delivered += 1;
                out
            }
            Verdict::Drop | Verdict::Reset | Verdict::Partition => Ok(()),
            Verdict::Delay(ms) => {
                self.delayed.lock().push(Parked {
                    due: Instant::now() + StdDuration::from_millis(ms),
                    seq,
                    to,
                    bytes,
                });
                Ok(())
            }
            Verdict::Reorder => {
                let evicted = self.held.lock().replace(Parked {
                    due: Instant::now() + REORDER_HOLD,
                    seq,
                    to,
                    bytes,
                });
                if let Some(p) = evicted {
                    let _ = self.inner.send(p.to, p.bytes);
                }
                Ok(())
            }
        }
    }

    fn recv_event(&self, timeout: Option<StdDuration>) -> Result<NetEvent, NetError> {
        self.inner.recv_event(timeout)
    }

    fn wake(&self) {
        self.inner.wake()
    }

    fn wire_stats(&self) -> Option<crate::WireStats> {
        // Queue accounting describes the real transport underneath;
        // chaos drops happen before frames reach those queues.
        self.inner.wire_stats()
    }

    fn shard_stats(&self) -> Option<Vec<crate::shard::ShardStats>> {
        self.inner.shard_stats()
    }
}

impl Drop for ChaosEndpoint {
    fn drop(&mut self) {
        self.closed.store(true, Ordering::SeqCst);
        if let Some(h) = self.pump.lock().take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InMemoryNetwork;
    use vl_types::{ClientId, ServerId};

    fn c(n: u32) -> NodeId {
        NodeId::Client(ClientId(n))
    }
    fn s(n: u32) -> NodeId {
        NodeId::Server(ServerId(n))
    }

    #[test]
    fn off_profile_is_a_pass_through() {
        let net = InMemoryNetwork::new();
        let chaos = ChaosNet::new(ChaosProfile::Off.config(1));
        let a = chaos.wrap(net.endpoint(c(1)));
        let b = net.endpoint(s(0));
        for i in 0..10u32 {
            a.send(s(0), Bytes::from(i.to_le_bytes().to_vec())).unwrap();
        }
        for i in 0..10u32 {
            let (_, frame) = b.recv_timeout(StdDuration::from_secs(1)).unwrap();
            assert_eq!(&frame[..], &i.to_le_bytes());
        }
        assert_eq!(chaos.counters().delivered, 10);
        assert!(chaos.schedule().is_empty());
    }

    #[test]
    fn drops_lose_roughly_the_configured_fraction() {
        let net = InMemoryNetwork::new();
        let chaos = ChaosNet::new(ChaosConfig {
            seed: 7,
            drop_prob: 0.5,
            ..ChaosConfig::default()
        });
        let a = chaos.wrap(net.endpoint(c(1)));
        let _b = net.endpoint(s(0));
        for _ in 0..400 {
            a.send(s(0), Bytes::from_static(b"x")).unwrap();
        }
        let ctr = chaos.counters();
        assert!(
            ctr.dropped > 120 && ctr.dropped < 280,
            "dropped={}",
            ctr.dropped
        );
        assert_eq!(ctr.dropped + ctr.delivered, 400);
    }

    #[test]
    fn delayed_messages_arrive_after_faults_stop() {
        let net = InMemoryNetwork::new();
        let chaos = ChaosNet::new(ChaosConfig {
            seed: 3,
            delay_prob: 1.0,
            max_delay_ms: 50,
            ..ChaosConfig::default()
        });
        let a = chaos.wrap(net.endpoint(c(1)));
        let b = net.endpoint(s(0));
        for _ in 0..5 {
            a.send(s(0), Bytes::from_static(b"late")).unwrap();
        }
        chaos.stop();
        let mut got = 0;
        while b.recv_timeout(StdDuration::from_millis(500)).is_ok() {
            got += 1;
            if got == 5 {
                break;
            }
        }
        assert_eq!(got, 5, "stop() must flush all delayed messages");
    }

    #[test]
    fn reset_burst_drops_following_sends_on_the_link() {
        let net = InMemoryNetwork::new();
        let chaos = ChaosNet::new(ChaosConfig::default());
        let a = chaos.wrap(net.endpoint(c(1)));
        let b = net.endpoint(s(0));
        // Arm a burst as a Reset verdict would: the next two sends on
        // the link are lost, the third goes through.
        chaos.core.lock().bursts.insert((c(1), s(0)), 2);
        for i in 0..3u8 {
            a.send(s(0), Bytes::from(vec![i])).unwrap();
        }
        let ctr = chaos.counters();
        assert_eq!(ctr.consequence_dropped, 2, "burst ate the first two");
        assert_eq!(ctr.delivered, 1);
        let (_, frame) = b.recv_timeout(StdDuration::from_secs(1)).unwrap();
        assert_eq!(&frame[..], &[2u8], "only the post-burst send lands");
        assert!(b.recv_timeout(StdDuration::from_millis(50)).is_err());
    }

    #[test]
    fn explicit_one_way_partition_cuts_only_that_direction() {
        let net = InMemoryNetwork::new();
        let chaos = ChaosNet::new(ChaosProfile::Off.config(0));
        let a = chaos.wrap(net.endpoint(c(1)));
        let b = chaos.wrap(net.endpoint(s(0)));
        chaos.partition_one_way(c(1), s(0), StdDuration::from_secs(10));
        a.send(s(0), Bytes::from_static(b"cut")).unwrap();
        assert!(b.recv_timeout(StdDuration::from_millis(80)).is_err());
        b.send(c(1), Bytes::from_static(b"back")).unwrap();
        assert_eq!(
            &a.recv_timeout(StdDuration::from_secs(1)).unwrap().1[..],
            b"back",
            "reverse direction unaffected"
        );
    }

    #[test]
    fn same_seed_same_sends_byte_identical_schedule() {
        let run = |seed: u64| {
            let net = InMemoryNetwork::new();
            let chaos = ChaosNet::new(ChaosConfig {
                seed,
                drop_prob: 0.2,
                delay_prob: 0.2,
                max_delay_ms: 10,
                reorder_prob: 0.1,
                reset_prob: 0.05,
                // No partitions: window expiry is wall-clock and would
                // let timing shift which sends get suppressed (the log
                // itself would still match, but keep the runs fully
                // identical).
                ..ChaosConfig::default()
            });
            let a = chaos.wrap(net.endpoint(c(1)));
            let _b = net.endpoint(s(0));
            for i in 0..200u32 {
                a.send(s(0), Bytes::from(i.to_le_bytes().to_vec())).unwrap();
            }
            (chaos.schedule(), chaos.counters())
        };
        let (log1, ctr1) = run(42);
        let (log2, ctr2) = run(42);
        assert_eq!(log1, log2, "same seed must replay the same schedule");
        assert!(!log1.is_empty());
        assert_eq!(ctr1, ctr2);
        let (log3, _) = run(43);
        assert_ne!(log1, log3, "different seed, different schedule");
    }

    #[test]
    fn reorder_swaps_with_the_next_delivery() {
        let net = InMemoryNetwork::new();
        let chaos = ChaosNet::new(ChaosConfig::default());
        let a = chaos.wrap(net.endpoint(c(1)));
        let b = net.endpoint(s(0));
        // Drive the reorder path deterministically through the held
        // slot: hold "first" by hand, then a clean send releases it.
        a.held.lock().replace(Parked {
            due: Instant::now() + StdDuration::from_secs(5),
            seq: 0,
            to: s(0),
            bytes: Bytes::from_static(b"first"),
        });
        a.send(s(0), Bytes::from_static(b"second")).unwrap();
        let one = b.recv_timeout(StdDuration::from_secs(1)).unwrap().1;
        let two = b.recv_timeout(StdDuration::from_secs(1)).unwrap().1;
        assert_eq!(&one[..], b"second");
        assert_eq!(&two[..], b"first");
    }

    #[test]
    fn profile_parsing_roundtrips() {
        for p in [
            ChaosProfile::Off,
            ChaosProfile::Drops,
            ChaosProfile::Delays,
            ChaosProfile::Partitions,
            ChaosProfile::Havoc,
        ] {
            assert_eq!(p.to_string().parse::<ChaosProfile>().unwrap(), p);
        }
        assert!("frogs".parse::<ChaosProfile>().is_err());
    }
}

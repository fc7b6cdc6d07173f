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
//! node's endpoint is enough to perturb every link, and the frames it
//! receives are the inner channel's, untouched. It adds no thread. A
//! wrapped `PollNode` or `ShardedNode` still runs its own epoll loop,
//! and hosting the wrapper hosts the handler *there*, behind an
//! [`Outbox`] that draws each send's verdict before the frame reaches
//! the loop's queues — so a driver under chaos runs on the same path
//! as without, and drops/delays/resets compose with the loop's
//! keepalives, re-dials and backpressure accounting. A delayed or held
//! message is released from the hosted handler's deadline, or, on an
//! endpoint nobody hosts, by its own next `send` or `recv_event`;
//! [`ChaosNet::stop`] releases everything at once.
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

use crate::{lock, Channel, Handler, NetError, NetEvent, NodeId, Outbox};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Mutex, Weak};
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
    /// Every endpoint wrapped so far, for [`ChaosNet::stop`] to flush.
    wrapped: Vec<Weak<Wrapped>>,
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
        let core = lock(&self.core);
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
                wrapped: Vec::new(),
            })),
        }
    }

    /// Wraps `inner` so every send draws a fault verdict first. The
    /// returned endpoint implements [`Channel`]; it starts no thread.
    pub fn wrap<C: Channel>(&self, inner: C) -> ChaosEndpoint {
        let inner: Arc<dyn Channel> = Arc::new(inner);
        let wrapped = Arc::new(Wrapped {
            id: inner.id(),
            inner: Arc::downgrade(&inner),
            core: Arc::clone(&self.core),
            parked: Mutex::default(),
        });
        let mut core = lock(&self.core);
        core.wrapped.retain(|w| w.strong_count() > 0);
        core.wrapped.push(Arc::downgrade(&wrapped));
        ChaosEndpoint { inner, wrapped }
    }

    /// Turns all fault injection off and hands every delayed or held
    /// message to its endpoint's inner channel before returning; burst
    /// and partition state clears, so the network delivers cleanly from
    /// here on — the "faults stop" half of a liveness test.
    pub fn stop(&self) {
        let wrapped: Vec<Arc<Wrapped>> = {
            let mut core = lock(&self.core);
            core.active = false;
            core.bursts.clear();
            core.windows.clear();
            core.wrapped.iter().filter_map(Weak::upgrade).collect()
        };
        for w in wrapped {
            if let Some(inner) = w.inner.upgrade() {
                w.release(&mut &*inner, true);
            }
        }
    }

    /// Explicitly opens a one-way partition window from `from` to `to`
    /// for `dur` — deterministic test hook, no RNG involved.
    pub fn partition_one_way(&self, from: NodeId, to: NodeId, dur: StdDuration) {
        let until = Instant::now() + dur;
        lock(&self.core).windows.insert((from, to), until);
    }

    /// The RNG-decided fault schedule so far, one line per fault
    /// (`"<seq> drop"`, `"<seq> delay <ms>"`, …). Byte-identical for
    /// equal seeds and send sequences.
    pub fn schedule(&self) -> String {
        lock(&self.core).log.join("\n")
    }

    /// Snapshot of fault counters.
    pub fn counters(&self) -> ChaosCounters {
        lock(&self.core).counters
    }
}

/// A message held back by a delay or reorder verdict.
struct Held {
    due: Instant,
    to: NodeId,
    bytes: Bytes,
}

/// One endpoint's held-back messages.
#[derive(Default)]
struct Parked {
    /// Delay verdicts, in send order.
    delayed: Vec<Held>,
    /// The one reorder hold, released by the next clean delivery.
    held: Option<Held>,
}

/// What a wrapped endpoint shares with the handler it hosts and with
/// [`ChaosNet::stop`].
struct Wrapped {
    id: NodeId,
    /// Weak, so a hosted handler does not keep its own node alive.
    inner: Weak<dyn Channel>,
    core: Arc<Mutex<ChaosCore>>,
    parked: Mutex<Parked>,
}

/// How long a reorder hold lasts if no later send overtakes it.
const REORDER_HOLD: StdDuration = StdDuration::from_millis(25);

impl Wrapped {
    /// Draws the verdict for one send to `to` and carries it out
    /// through `out`; `Ok(true)` when the message was parked.
    fn send(&self, to: NodeId, bytes: Bytes, out: &mut dyn Outbox) -> Result<bool, NetError> {
        let (verdict, suppressed) = {
            let mut core = lock(&self.core);
            // Verdict is drawn unconditionally (RNG stream stays a pure
            // function of send order); overrides apply afterwards, and
            // only to verdicts that would otherwise deliver — a message
            // the verdict already dropped can't be dropped again.
            let v = core.verdict(self.id, to);
            let sup = matches!(v, Verdict::Deliver | Verdict::Delay(_) | Verdict::Reorder)
                && core.suppressed(self.id, to);
            core.counters.delivered += u64::from(matches!(v, Verdict::Deliver) && !sup);
            (v, sup)
        };
        let park = |hold, bytes| Held {
            due: Instant::now() + hold,
            to,
            bytes,
        };
        let mut parked = lock(&self.parked);
        match verdict {
            _ if suppressed => Ok(false),
            Verdict::Deliver => {
                let sent = out.send(to, bytes);
                // A clean delivery overtakes any held (reordered)
                // message: release it now, out of order.
                if let Some(p) = parked.held.take() {
                    let _ = out.send(p.to, p.bytes);
                }
                sent.map(|()| false)
            }
            Verdict::Drop | Verdict::Reset | Verdict::Partition => Ok(false),
            Verdict::Delay(ms) => {
                let held = park(StdDuration::from_millis(ms), bytes);
                parked.delayed.push(held);
                Ok(true)
            }
            Verdict::Reorder => {
                if let Some(p) = parked.held.replace(park(REORDER_HOLD, bytes)) {
                    let _ = out.send(p.to, p.bytes);
                }
                Ok(true)
            }
        }
    }

    /// Sends what is due (everything, with `all`) through `out`: the
    /// delays in due order, then the reorder hold.
    fn release(&self, out: &mut dyn Outbox, all: bool) {
        let now = Instant::now();
        let mut parked = lock(&self.parked);
        let mut due: Vec<Held> = (parked.delayed)
            .extract_if(.., |p| all || p.due <= now)
            .collect();
        due.sort_by_key(|p| p.due); // stable: send order among equals
        due.extend(parked.held.take_if(|p| all || p.due <= now));
        for p in due {
            let _ = out.send(p.to, p.bytes);
        }
    }

    /// When the next parked message falls due.
    fn next_due(&self) -> Option<Instant> {
        let parked = lock(&self.parked);
        let all = parked.delayed.iter().chain(&parked.held);
        all.map(|p| p.due).min()
    }
}

/// A fault-injecting view of an inner [`Channel`], created by
/// [`ChaosNet::wrap`]. Unhosted, it releases what it parked from its
/// own `send` and `recv_event`; hosted, from its handler's deadline.
/// Dropping it hands whatever is still parked to the inner channel.
pub struct ChaosEndpoint {
    inner: Arc<dyn Channel>,
    wrapped: Arc<Wrapped>,
}

impl fmt::Debug for ChaosEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosEndpoint")
            .field("id", &self.wrapped.id)
            .field("delayed", &lock(&self.wrapped.parked).delayed.len())
            .finish()
    }
}

impl Channel for ChaosEndpoint {
    fn id(&self) -> NodeId {
        self.wrapped.id
    }

    /// Wakes the inner channel when it parks the message: a hosted
    /// handler's deadline moved (an unhosted consumer sees a spurious
    /// [`NetEvent::Woken`]).
    fn send(&self, to: NodeId, bytes: Bytes) -> Result<(), NetError> {
        self.wrapped.release(&mut &*self.inner, false);
        if self.wrapped.send(to, bytes, &mut &*self.inner)? {
            self.inner.wake();
        }
        Ok(())
    }

    /// The inner receive, interrupted whenever a parked message falls
    /// due to release it.
    fn recv_event(&self, timeout: Option<StdDuration>) -> Result<NetEvent, NetError> {
        let until = timeout.map(|t| Instant::now() + t);
        loop {
            self.wrapped.release(&mut &*self.inner, false);
            let at = [until, self.wrapped.next_due()].into_iter().flatten().min();
            let wait = at.map(|at| at.saturating_duration_since(Instant::now()));
            match self.inner.recv_event(wait) {
                Err(NetError::Timeout) if until.is_none_or(|u| Instant::now() < u) => {}
                got => return got,
            }
        }
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

    /// On the inner channel's host, behind the same verdicts: the
    /// handler's sends go through a fault-injecting [`Outbox`], and its
    /// deadline includes the next parked message's.
    fn host(self: Arc<Self>, handler: Box<dyn Handler>) {
        let wrapped = Arc::clone(&self.wrapped);
        Arc::clone(&self.inner).host(Box::new(ChaosHandler { handler, wrapped }));
    }
}

impl Drop for ChaosEndpoint {
    fn drop(&mut self) {
        self.wrapped.release(&mut &*self.inner, true);
    }
}

/// A hosted handler behind a [`ChaosEndpoint`]: each call first
/// releases what is due, then lends the handler its host's outbox
/// behind the verdicts.
struct ChaosHandler {
    handler: Box<dyn Handler>,
    wrapped: Arc<Wrapped>,
}

impl Handler for ChaosHandler {
    fn on_event(&mut self, event: NetEvent, out: &mut dyn Outbox) -> bool {
        self.wrapped.release(out, false);
        let out = &mut ChaosOutbox(&self.wrapped, out);
        self.handler.on_event(event, out)
    }

    fn on_frame(&mut self, from: NodeId, frame: &[u8], out: &mut dyn Outbox) -> bool {
        self.wrapped.release(out, false);
        let out = &mut ChaosOutbox(&self.wrapped, out);
        self.handler.on_frame(from, frame, out)
    }

    fn next_deadline(&self) -> Option<Instant> {
        let own = self.handler.next_deadline();
        own.into_iter().chain(self.wrapped.next_due()).min()
    }
}

/// A hosted handler's sends, each drawing its verdict first.
struct ChaosOutbox<'a>(&'a Wrapped, &'a mut dyn Outbox);

impl Outbox for ChaosOutbox<'_> {
    fn send(&mut self, to: NodeId, bytes: Bytes) -> Result<(), NetError> {
        self.0.send(to, bytes, self.1).map(drop)
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
    fn sends_after_stop_count_once_as_delivered() {
        let net = InMemoryNetwork::new();
        let chaos = ChaosNet::new(ChaosProfile::Havoc.config(9));
        let a = chaos.wrap(net.endpoint(c(1)));
        let _b = net.endpoint(s(0));
        chaos.stop();
        let before = chaos.counters();
        for _ in 0..10 {
            a.send(s(0), Bytes::from_static(b"x")).unwrap();
        }
        let after = chaos.counters();
        assert_eq!(after.sends - before.sends, 10);
        assert_eq!(after.delivered - before.delivered, 10);
    }

    #[test]
    fn reset_burst_drops_following_sends_on_the_link() {
        let net = InMemoryNetwork::new();
        let chaos = ChaosNet::new(ChaosConfig::default());
        let a = chaos.wrap(net.endpoint(c(1)));
        let b = net.endpoint(s(0));
        // Arm a burst as a Reset verdict would: the next two sends on
        // the link are lost, the third goes through.
        lock(&chaos.core).bursts.insert((c(1), s(0)), 2);
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
        lock(&a.wrapped.parked).held.replace(Held {
            due: Instant::now() + StdDuration::from_secs(5),
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

//! Measurement infrastructure for consistency experiments.
//!
//! The paper evaluates algorithms along four axes (§5):
//!
//! 1. **network load** — messages (and bytes) exchanged between clients and
//!    servers (Figure 5);
//! 2. **server state** — average bytes of consistency metadata at a server,
//!    charged at 16 bytes per lease / callback / queued-message record
//!    (Figures 6–7);
//! 3. **bursts of load** — a cumulative histogram of 1-second periods in
//!    which a server sent or received at least *x* messages (Figures 8–9);
//! 4. **staleness** — the fraction of reads that returned stale data
//!    (only non-zero for the polling algorithms).
//!
//! [`Metrics`] is the single sink the protocol implementations write into.
//! State is accounted *exactly* (not sampled): every record contributes
//! `bytes × lifetime` to a per-server integral, so the reported average is
//! the true time-weighted mean.
//!
//! # Observability
//!
//! Beyond the aggregate counters, two modules support per-event tracing
//! and latency distributions:
//!
//! * [`trace`] — typed protocol [`Event`]s and the [`TraceSink`] trait
//!   ([`NullSink`], [`RingSink`], [`JsonlSink`]). A sink can be attached
//!   to a [`Metrics`] instance ([`Metrics::set_sink`]) or driven
//!   directly by the live drivers; JSONL files are what `vl report`
//!   summarizes.
//! * [`hist`] — HDR-style log-bucketed [`Histogram`]s (≤ 1/16 relative
//!   quantile error, exact min/max/count/sum) for read latency, renewal
//!   round-trips, write delays, and invalidation-batch sizes. Merging is
//!   lossless, so per-shard histograms from a parallel sweep combine
//!   into exactly the single-threaded result.
//!
//! # Layering
//!
//! Per DESIGN.md §7 this crate stays pure: recording is a method call,
//! sinks are passed in by the caller, and the only I/O ([`JsonlSink`])
//! is behind a `Write` the caller owns — so the same instrumentation
//! serves the simulator, the fault harness, and the live threads.
//!
//! # Examples
//!
//! ```
//! use vl_metrics::{Metrics, MessageKind};
//! use vl_types::{ClientId, ServerId, Timestamp};
//!
//! let mut m = Metrics::new();
//! m.count_msg(MessageKind::ObjLeaseRequest, ServerId(0), ClientId(3), 50, Timestamp::ZERO);
//! assert_eq!(m.total_messages(), 1);
//! assert_eq!(m.server_messages(ServerId(0)), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod counters;
pub mod hist;
mod load;
mod state;
pub mod trace;

pub use counters::{MessageCounters, MessageKind, StalenessCounters};
pub use hist::Histogram;
pub use load::{LoadHistogram, LoadTracker};
pub use state::StateIntegral;
pub use trace::{Event, EventKind, JsonlSink, NullSink, RingSink, TraceSink};

use vl_types::{ClientId, Duration, ServerId, Timestamp};

/// Nominal size in bytes of a control message (headers + ids); data
/// replies add the object payload on top.
pub const CONTROL_MSG_BYTES: u64 = 50;

/// The metrics sink for one simulation run.
#[derive(Default)]
pub struct Metrics {
    msgs: MessageCounters,
    staleness: StalenessCounters,
    per_server_msgs: Vec<u64>,
    per_client_msgs: Vec<u64>,
    state: StateIntegral,
    load: LoadTracker,
    write_delay_total: Duration,
    write_delay_max: Duration,
    writes_delayed: u64,
    obs: Observability,
    sink: Option<Box<dyn TraceSink>>,
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("msgs", &self.msgs)
            .field("staleness", &self.staleness)
            .field("writes_delayed", &self.writes_delayed)
            .field("tracing", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

/// The two observability histograms of a run, kept together so sweep
/// shards can be combined with one lossless [`Observability::merge`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Observability {
    /// Write delay in milliseconds (0 for undelayed writes).
    pub write_delay_ms: Histogram,
    /// Delivered invalidation-batch sizes (delayed invalidations).
    pub inval_batch: Histogram,
}

impl Observability {
    /// Merges another shard's histograms into this one; lossless, see
    /// [`Histogram::merge`].
    pub fn merge(&mut self, other: &Observability) {
        self.write_delay_ms.merge(&other.write_delay_ms);
        self.inval_batch.merge(&other.inval_batch);
    }
}

impl Metrics {
    /// Creates an empty sink tracking no servers' per-second load.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Creates a sink that additionally records per-second message counts
    /// for `servers` (Figures 8–9 need this only for the busiest server),
    /// sized for a run that ends at `end`.
    pub fn with_load_tracking(
        servers: impl IntoIterator<Item = ServerId>,
        end: Timestamp,
    ) -> Metrics {
        let mut load = LoadTracker::tracking(servers);
        load.reserve_until(end);
        Metrics {
            load,
            ..Metrics::default()
        }
    }

    /// Records one one-way message of `kind`, `bytes` long, between
    /// `server` and `client` at time `now`. Direction does not matter for
    /// the paper's metrics: both ends count it, and the server's
    /// per-second load counts messages "sent or received".
    pub fn count_msg(
        &mut self,
        kind: MessageKind,
        server: ServerId,
        client: ClientId,
        bytes: u64,
        now: Timestamp,
    ) {
        self.msgs.record(kind, bytes);
        bump(&mut self.per_server_msgs, server.raw() as usize, 1);
        bump(&mut self.per_client_msgs, client.raw() as usize, 1);
        self.load.record(server, now);
        if let Some(sink) = &mut self.sink {
            sink.record(&Event {
                msg: Some(kind),
                value: bytes,
                ..Event::new(now, EventKind::Message, server, client)
            });
        }
    }

    /// Records a request/reply pair between the same `server` and
    /// `client` at `now` in one pass over the per-server and per-client
    /// tallies. Observably identical to two [`count_msg`] calls — this
    /// exists because every lease renewal and fetch is such a pair, and
    /// the tally pass is a measurable slice of the simulator hot loop.
    ///
    /// [`count_msg`]: Metrics::count_msg
    #[allow(clippy::too_many_arguments)]
    pub fn count_msg_pair(
        &mut self,
        kind_a: MessageKind,
        bytes_a: u64,
        kind_b: MessageKind,
        bytes_b: u64,
        server: ServerId,
        client: ClientId,
        now: Timestamp,
    ) {
        self.msgs.record(kind_a, bytes_a);
        self.msgs.record(kind_b, bytes_b);
        bump(&mut self.per_server_msgs, server.raw() as usize, 2);
        bump(&mut self.per_client_msgs, client.raw() as usize, 2);
        self.load.record_n(server, now, 2);
        if let Some(sink) = &mut self.sink {
            for (kind, bytes) in [(kind_a, bytes_a), (kind_b, bytes_b)] {
                sink.record(&Event {
                    msg: Some(kind),
                    value: bytes,
                    ..Event::new(now, EventKind::Message, server, client)
                });
            }
        }
    }

    /// Records a client read: `stale` is whether the returned copy was
    /// outdated at read time.
    pub fn record_read(&mut self, stale: bool) {
        self.staleness.record_read(stale);
    }

    /// Adds `bytes` of server state held for `lifetime` at `server` —
    /// called once per record with its exact lifetime, making the state
    /// integral exact.
    pub fn state_held(&mut self, server: ServerId, bytes: u64, lifetime: Duration) {
        self.state.add(server, bytes, lifetime);
    }

    /// Records that a server write was delayed by `delay` waiting for
    /// acknowledgments or lease expiry. Every write (delayed or not)
    /// lands in the write-delay histogram; the mean/max counters keep
    /// their historical "delayed writes only" semantics.
    pub fn record_write_delay(&mut self, delay: Duration) {
        self.obs.write_delay_ms.record(delay.as_millis());
        if !delay.is_zero() {
            self.writes_delayed += 1;
            self.write_delay_total += delay;
            self.write_delay_max = self.write_delay_max.max(delay);
        }
    }

    /// Records the size of one delivered invalidation batch.
    pub fn record_inval_batch(&mut self, size: u64) {
        self.obs.inval_batch.record(size);
    }

    /// The run's observability histograms.
    pub fn observability(&self) -> &Observability {
        &self.obs
    }

    /// Attaches a trace sink; subsequent messages and protocol events
    /// are recorded into it.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Detaches and returns the trace sink, flushing it first.
    pub fn take_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        let mut sink = self.sink.take();
        if let Some(s) = &mut sink {
            s.flush();
        }
        sink
    }

    /// Whether a trace sink is attached.
    pub fn tracing(&self) -> bool {
        self.sink.is_some()
    }

    /// Forwards a run label to the sink, if any.
    pub fn begin_run(&mut self, label: &str) {
        if let Some(sink) = &mut self.sink {
            sink.begin_run(label);
        }
    }

    /// Records a typed protocol event into the sink, if any. One
    /// untaken branch when tracing is off — callers on hot paths may
    /// still want to guard event construction with [`tracing`].
    ///
    /// [`tracing`]: Metrics::tracing
    pub fn emit(&mut self, event: Event) {
        if let Some(sink) = &mut self.sink {
            sink.record(&event);
        }
    }

    /// Total one-way messages recorded.
    pub fn total_messages(&self) -> u64 {
        self.msgs.total()
    }

    /// Total bytes across all messages.
    pub fn total_bytes(&self) -> u64 {
        self.msgs.total_bytes()
    }

    /// Per-kind message counters.
    pub fn message_counters(&self) -> &MessageCounters {
        &self.msgs
    }

    /// Staleness counters.
    pub fn staleness(&self) -> &StalenessCounters {
        &self.staleness
    }

    /// Messages sent or received by `server`.
    pub fn server_messages(&self, server: ServerId) -> u64 {
        self.per_server_msgs
            .get(server.raw() as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Messages sent or received by `client`.
    pub fn client_messages(&self, client: ClientId) -> u64 {
        self.per_client_msgs
            .get(client.raw() as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Servers ranked by message traffic, busiest first.
    pub fn busiest_servers(&self) -> Vec<(ServerId, u64)> {
        let mut v: Vec<(ServerId, u64)> = self
            .per_server_msgs
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (ServerId(i as u32), n))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Average consistency-state bytes at `server` over a run of length
    /// `span` (the time-weighted mean).
    pub fn avg_state_bytes(&self, server: ServerId, span: Duration) -> f64 {
        self.state.average(server, span)
    }

    /// Exact state integral, for tests.
    pub fn state_integral(&self) -> &StateIntegral {
        &self.state
    }

    /// Finalized per-second load histogram for a tracked server, or `None`
    /// if the server was not tracked.
    pub fn load_histogram(&self, server: ServerId) -> Option<LoadHistogram> {
        self.load.histogram(server)
    }

    /// Mean write delay over delayed writes, if any were delayed.
    pub fn mean_write_delay(&self) -> Option<Duration> {
        (self.writes_delayed > 0).then(|| {
            Duration::from_millis(self.write_delay_total.as_millis() / self.writes_delayed)
        })
    }

    /// Largest single write delay observed.
    pub fn max_write_delay(&self) -> Duration {
        self.write_delay_max
    }

    /// Condensed run summary for reports and CSV output.
    pub fn summary(&self, span: Duration) -> Summary {
        Summary {
            messages: self.total_messages(),
            bytes: self.total_bytes(),
            reads: self.staleness.reads(),
            stale_reads: self.staleness.stale_reads(),
            stale_fraction: self.staleness.stale_fraction(),
            max_write_delay_secs: self.write_delay_max.as_secs_f64(),
            span_secs: span.as_secs_f64(),
        }
    }
}

/// A condensed, serializable run summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Total one-way messages.
    pub messages: u64,
    /// Total bytes.
    pub bytes: u64,
    /// Total client reads.
    pub reads: u64,
    /// Reads that returned stale data.
    pub stale_reads: u64,
    /// `stale_reads / reads`.
    pub stale_fraction: f64,
    /// Largest write delay in seconds.
    pub max_write_delay_secs: f64,
    /// Length of the simulated span in seconds.
    pub span_secs: f64,
}

fn bump(v: &mut Vec<u64>, idx: usize, by: u64) {
    if v.len() <= idx {
        v.resize(idx + 1, 0);
    }
    v[idx] += by;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_roll_up_per_party() {
        let mut m = Metrics::new();
        m.count_msg(
            MessageKind::Invalidate,
            ServerId(2),
            ClientId(5),
            50,
            Timestamp::ZERO,
        );
        m.count_msg(
            MessageKind::AckInvalidate,
            ServerId(2),
            ClientId(5),
            50,
            Timestamp::ZERO,
        );
        assert_eq!(m.total_messages(), 2);
        assert_eq!(m.total_bytes(), 100);
        assert_eq!(m.server_messages(ServerId(2)), 2);
        assert_eq!(m.server_messages(ServerId(0)), 0);
        assert_eq!(m.client_messages(ClientId(5)), 2);
        assert_eq!(m.busiest_servers(), vec![(ServerId(2), 2)]);
    }

    #[test]
    fn staleness_fraction() {
        let mut m = Metrics::new();
        m.record_read(false);
        m.record_read(true);
        m.record_read(false);
        m.record_read(false);
        assert_eq!(m.staleness().reads(), 4);
        assert_eq!(m.staleness().stale_reads(), 1);
        assert!((m.staleness().stale_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn write_delays_track_mean_and_max() {
        let mut m = Metrics::new();
        m.record_write_delay(Duration::ZERO); // not counted
        m.record_write_delay(Duration::from_secs(10));
        m.record_write_delay(Duration::from_secs(20));
        assert_eq!(m.mean_write_delay(), Some(Duration::from_secs(15)));
        assert_eq!(m.max_write_delay(), Duration::from_secs(20));
    }

    #[test]
    fn summary_serializes_essentials() {
        let mut m = Metrics::new();
        m.record_read(true);
        let s = m.summary(Duration::from_secs(100));
        assert_eq!(s.reads, 1);
        assert_eq!(s.stale_reads, 1);
        assert_eq!(s.span_secs, 100.0);
    }
}

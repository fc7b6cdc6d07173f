//! The trace-driven simulation engine.
//!
//! Mirrors the paper's simulator (§4.1): events are processed to
//! completion in timestamp order, caches are infinite, and consistency is
//! whole-file. The engine owns the authoritative version vector and
//! bumps it after each write event.

use crate::protocols::{
    Callback, DelayedInvalidation, ObjectLease, Poll, PollEachRead, Protocol, VolumeLease,
};
use crate::{Ctx, ProtocolKind};
use std::time::Instant;
use vl_metrics::{Metrics, Summary, TraceSink};
use vl_types::{Duration, ServerId, Version};
use vl_workload::{Op, Trace, Universe};

/// Builds the per-event [`Ctx`] once and hands it to `f` — the single
/// construction point for the engine's event loop and finalization.
fn with_ctx<R>(
    universe: &Universe,
    versions: &[Version],
    metrics: &mut Metrics,
    f: impl FnOnce(&mut Ctx<'_>) -> R,
) -> R {
    let mut ctx = Ctx {
        universe,
        versions,
        metrics,
    };
    f(&mut ctx)
}

/// How many events ahead [`drive`] issues prefetch hints: far enough
/// that a DRAM fetch (~100 ns) completes under the ~20–150 ns an event
/// takes to process, near enough that the lines are still resident when
/// their event arrives.
const LOOKAHEAD: usize = 8;

/// Runs the whole trace through `protocol` and finalizes it.
///
/// Monomorphized per protocol so every handler call inlines into the
/// loop. The loop walks the trace with a [`LOOKAHEAD`]-event prefetch
/// window: per-object bookkeeping lives in arrays indexed by dense
/// object id, so the upcoming event names exactly which lines the
/// handler will miss on, and warming them hides most of the random
/// DRAM latency that otherwise dominates the simulation.
fn drive<P: Protocol>(
    protocol: &mut P,
    trace: &Trace,
    versions: &mut [Version],
    metrics: &mut Metrics,
) {
    let universe = trace.universe();
    let events = trace.events();
    for (i, event) in events.iter().enumerate() {
        if let Some(ahead) = events.get(i + LOOKAHEAD) {
            let object = ahead.object();
            crate::mem::prefetch(&versions[object.raw() as usize]);
            protocol.warm(ahead.client(), object);
        }
        match event.op() {
            Op::Read { at, client, object } => {
                with_ctx(universe, versions, metrics, |ctx| {
                    protocol.on_read(at, client, object, ctx)
                });
            }
            Op::Write { at, object } => {
                with_ctx(universe, versions, metrics, |ctx| {
                    protocol.on_write(at, object, ctx)
                });
                let slot = &mut versions[object.raw() as usize];
                *slot = slot.next();
            }
        }
    }
    let end = trace.end_time();
    with_ctx(universe, versions, metrics, |ctx| {
        protocol.finalize(end, ctx)
    });
}

/// Configures and runs one simulation.
///
/// # Examples
///
/// ```
/// use vl_core::{ProtocolKind, SimulationBuilder};
/// use vl_types::Duration;
/// use vl_workload::{TraceGenerator, WorkloadConfig};
///
/// let trace = TraceGenerator::new(WorkloadConfig::smoke()).generate();
/// let lease = SimulationBuilder::new(ProtocolKind::Lease {
///         timeout: Duration::from_secs(100),
///     })
///     .run(&trace);
/// let callback = SimulationBuilder::new(ProtocolKind::Callback).run(&trace);
/// // Both are strongly consistent on the same trace.
/// assert_eq!(lease.summary.stale_reads + callback.summary.stale_reads, 0);
/// ```
#[derive(Clone, Debug)]
pub struct SimulationBuilder {
    kind: ProtocolKind,
    track_load: Vec<ServerId>,
}

impl SimulationBuilder {
    /// Creates a builder for `kind` with no per-second load tracking.
    pub fn new(kind: ProtocolKind) -> SimulationBuilder {
        SimulationBuilder {
            kind,
            track_load: Vec::new(),
        }
    }

    /// Additionally records per-second message counts at `servers`
    /// (needed for the burst-load histograms of Figures 8–9).
    #[must_use]
    pub fn track_load(mut self, servers: impl IntoIterator<Item = ServerId>) -> SimulationBuilder {
        self.track_load.extend(servers);
        self
    }

    /// Runs the protocol over `trace` and returns the full [`Report`].
    pub fn run(&self, trace: &Trace) -> Report {
        self.run_inner(trace, None).0
    }

    /// Like [`run`](SimulationBuilder::run), but records every message
    /// and protocol event into `sink`, prefixed by a run label naming
    /// the algorithm. The sink is flushed and handed back so several
    /// runs can share one trace file.
    pub fn run_traced(
        &self,
        trace: &Trace,
        sink: Box<dyn TraceSink>,
    ) -> (Report, Box<dyn TraceSink>) {
        let (report, sink) = self.run_inner(trace, Some(sink));
        (report, sink.expect("sink returned by traced run"))
    }

    fn run_inner(
        &self,
        trace: &Trace,
        sink: Option<Box<dyn TraceSink>>,
    ) -> (Report, Option<Box<dyn TraceSink>>) {
        let universe = trace.universe();
        let mut metrics = if self.track_load.is_empty() {
            Metrics::new()
        } else {
            Metrics::with_load_tracking(self.track_load.iter().copied())
        };
        if let Some(sink) = sink {
            metrics.set_sink(sink);
            metrics.begin_run(&self.kind.to_string());
        }
        let mut versions: Vec<Version> = vec![Version::FIRST; universe.object_count()];

        let started = Instant::now();
        // One monomorphized loop per algorithm: handler calls inline into
        // the loop instead of going through a vtable on every event.
        match self.kind {
            ProtocolKind::PollEachRead => {
                drive(&mut PollEachRead::new(), trace, &mut versions, &mut metrics)
            }
            ProtocolKind::Poll { timeout } => drive(
                &mut Poll::new(timeout, universe),
                trace,
                &mut versions,
                &mut metrics,
            ),
            ProtocolKind::Callback => drive(
                &mut Callback::new(universe),
                trace,
                &mut versions,
                &mut metrics,
            ),
            ProtocolKind::Lease { timeout } => drive(
                &mut ObjectLease::new(timeout, universe),
                trace,
                &mut versions,
                &mut metrics,
            ),
            ProtocolKind::WaitingLease { timeout } => drive(
                &mut ObjectLease::new_waiting(timeout, universe),
                trace,
                &mut versions,
                &mut metrics,
            ),
            ProtocolKind::VolumeLease {
                volume_timeout,
                object_timeout,
            } => drive(
                &mut VolumeLease::new(volume_timeout, object_timeout, universe),
                trace,
                &mut versions,
                &mut metrics,
            ),
            ProtocolKind::DelayedInvalidation {
                volume_timeout,
                object_timeout,
                inactive_discard,
            } => drive(
                &mut DelayedInvalidation::new(
                    volume_timeout,
                    object_timeout,
                    inactive_discard,
                    universe,
                ),
                trace,
                &mut versions,
                &mut metrics,
            ),
            ProtocolKind::SelfInval {
                timeout,
                skew_bound,
            } => drive(
                &mut ObjectLease::new_self_inval(timeout, skew_bound, universe),
                trace,
                &mut versions,
                &mut metrics,
            ),
        }
        let elapsed = started.elapsed();

        let span = trace.span();
        let sink = metrics.take_sink();
        let summary = metrics.summary(span);
        if self.kind.is_strongly_consistent() {
            assert_eq!(
                summary.stale_reads, 0,
                "{} is strongly consistent but served stale data",
                self.kind
            );
        }
        let report = Report {
            kind: self.kind,
            summary,
            span,
            metrics,
            events_processed: trace.events().len() as u64,
            elapsed,
        };
        (report, sink)
    }
}

/// The outcome of one simulation run.
#[derive(Debug)]
pub struct Report {
    /// The algorithm that ran.
    pub kind: ProtocolKind,
    /// Condensed totals.
    pub summary: Summary,
    /// Length of the simulated span.
    pub span: Duration,
    /// The full metrics sink (per-server counters, state integrals, load
    /// histograms).
    pub metrics: Metrics,
    /// Trace events driven through the protocol.
    pub events_processed: u64,
    /// Wall-clock time the event loop took (not part of the simulated
    /// results — two runs of the same trace differ here and nowhere else).
    pub elapsed: std::time::Duration,
}

impl Report {
    /// Simulation throughput in trace events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.events_processed as f64 / secs
        } else {
            0.0
        }
    }

    /// Average consistency state at `server`, in bytes (Figures 6–7).
    pub fn avg_state_bytes(&self, server: ServerId) -> f64 {
        self.metrics.avg_state_bytes(server, self.span)
    }

    /// Messages per read — the normalized network-load figure of merit.
    pub fn messages_per_read(&self) -> f64 {
        if self.summary.reads == 0 {
            0.0
        } else {
            self.summary.messages as f64 / self.summary.reads as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vl_workload::{TraceGenerator, WorkloadConfig};

    fn smoke_trace() -> Trace {
        TraceGenerator::new(WorkloadConfig::smoke()).generate()
    }

    fn all_kinds() -> Vec<ProtocolKind> {
        vec![
            ProtocolKind::PollEachRead,
            ProtocolKind::Poll {
                timeout: Duration::from_secs(1000),
            },
            ProtocolKind::Callback,
            ProtocolKind::Lease {
                timeout: Duration::from_secs(1000),
            },
            ProtocolKind::VolumeLease {
                volume_timeout: Duration::from_secs(10),
                object_timeout: Duration::from_secs(10_000),
            },
            ProtocolKind::DelayedInvalidation {
                volume_timeout: Duration::from_secs(10),
                object_timeout: Duration::from_secs(10_000),
                inactive_discard: Duration::MAX,
            },
            ProtocolKind::DelayedInvalidation {
                volume_timeout: Duration::from_secs(10),
                object_timeout: Duration::from_secs(10_000),
                inactive_discard: Duration::from_secs(3600),
            },
        ]
    }

    #[test]
    fn every_protocol_completes_the_smoke_trace() {
        let trace = smoke_trace();
        for kind in all_kinds() {
            let report = SimulationBuilder::new(kind).run(&trace);
            assert_eq!(report.summary.reads, trace.read_count(), "{kind}");
            assert!(report.summary.messages > 0, "{kind}");
        }
    }

    #[test]
    fn strong_protocols_never_serve_stale_data() {
        let trace = smoke_trace();
        for kind in all_kinds() {
            if kind.is_strongly_consistent() {
                let report = SimulationBuilder::new(kind).run(&trace);
                assert_eq!(report.summary.stale_reads, 0, "{kind}");
            }
        }
    }

    #[test]
    fn poll_with_long_timeout_serves_some_stale_reads() {
        let trace = smoke_trace();
        let report = SimulationBuilder::new(ProtocolKind::Poll {
            timeout: Duration::from_secs(200_000),
        })
        .run(&trace);
        assert!(
            report.summary.stale_reads > 0,
            "a day-long poll window across a 3-day trace with writes must go stale"
        );
    }

    #[test]
    fn poll_each_read_costs_two_messages_per_read() {
        let trace = smoke_trace();
        let report = SimulationBuilder::new(ProtocolKind::PollEachRead).run(&trace);
        assert_eq!(report.summary.messages, 2 * trace.read_count());
        assert!((report.messages_per_read() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn runs_are_deterministic() {
        let trace = smoke_trace();
        let kind = ProtocolKind::VolumeLease {
            volume_timeout: Duration::from_secs(10),
            object_timeout: Duration::from_secs(10_000),
        };
        let a = SimulationBuilder::new(kind).run(&trace);
        let b = SimulationBuilder::new(kind).run(&trace);
        assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn load_tracking_produces_histograms_only_for_tracked() {
        let trace = smoke_trace();
        let top = trace.servers_by_popularity()[0].0;
        let report = SimulationBuilder::new(ProtocolKind::Callback)
            .track_load([top])
            .run(&trace);
        let h = report.metrics.load_histogram(top).expect("tracked");
        assert!(h.busy_periods() > 0);
        let other = ServerId(top.raw() + 1);
        assert!(report.metrics.load_histogram(other).is_none());
    }

    #[test]
    fn delayed_invalidation_sends_no_more_messages_than_volume_lease() {
        // The paper's core claim at equal parameters (§3.2): delaying
        // invalidations can only remove or batch messages.
        let trace = smoke_trace();
        let tv = Duration::from_secs(10);
        let t = Duration::from_secs(10_000);
        let volume = SimulationBuilder::new(ProtocolKind::VolumeLease {
            volume_timeout: tv,
            object_timeout: t,
        })
        .run(&trace);
        let delay = SimulationBuilder::new(ProtocolKind::DelayedInvalidation {
            volume_timeout: tv,
            object_timeout: t,
            inactive_discard: Duration::MAX,
        })
        .run(&trace);
        assert!(
            delay.summary.messages <= volume.summary.messages,
            "Delay {} > Volume {}",
            delay.summary.messages,
            volume.summary.messages
        );
    }
}

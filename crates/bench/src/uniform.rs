//! Uniform synthetic workloads with analytically known costs.
//!
//! The paper validated its simulator "under simple synthetic workloads
//! for which we could analytically compute the expected results" (§4.1);
//! this module builds those workloads: `clients` clients read each of
//! `objects` objects on a fixed period, and each object is written on a
//! fixed period, all phase-staggered so events never collide.

use vl_types::{ClientId, Duration, ObjectId, ServerId, Timestamp};
use vl_workload::{Trace, TraceEvent, UniverseBuilder};

/// Configuration of a uniform workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UniformConfig {
    /// Number of clients; each reads every object.
    pub clients: u32,
    /// Number of objects, all in one volume on one server.
    pub objects: u64,
    /// Period between one client's successive reads of one object.
    pub read_period: Duration,
    /// Period between writes to one object (`None` = read-only).
    pub write_period: Option<Duration>,
    /// Total simulated span.
    pub span: Duration,
}

impl UniformConfig {
    /// The per-object, per-client read rate `R` in reads/second.
    pub fn object_read_rate(&self) -> f64 {
        1.0 / self.read_period.as_secs_f64()
    }

    /// The aggregate volume read rate `Σ R_o` for one client.
    pub fn volume_read_rate(&self) -> f64 {
        self.object_read_rate() * self.objects as f64
    }

    /// Total reads the trace will contain.
    pub fn total_reads(&self) -> u64 {
        let per_stream = self.span.as_millis() / self.read_period.as_millis();
        per_stream * u64::from(self.clients) * self.objects
    }
}

/// Builds the uniform trace for `cfg`.
///
/// Reads are staggered by client and object so that every (client,
/// object) stream ticks on its own phase; writes (if any) are offset by
/// half a write period so they interleave with reads rather than
/// coinciding.
///
/// # Panics
///
/// Panics if any period is zero or the span is empty.
pub fn uniform_trace(cfg: &UniformConfig) -> Trace {
    assert!(
        cfg.clients > 0 && cfg.objects > 0,
        "need clients and objects"
    );
    assert!(
        !cfg.read_period.is_zero() && !cfg.span.is_zero(),
        "periods and span must be positive"
    );
    let mut builder = UniverseBuilder::new();
    let volume = builder.add_volume(ServerId(0));
    let objects: Vec<ObjectId> = (0..cfg.objects)
        .map(|_| builder.add_object(volume, 1000))
        .collect();
    let universe = builder.build();

    let span_ms = cfg.span.as_millis();
    let read_ms = cfg.read_period.as_millis();
    let mut events = Vec::new();
    for c in 0..cfg.clients {
        for (oi, &object) in objects.iter().enumerate() {
            // Deterministic phase in [0, read_period).
            let phase = (u64::from(c).wrapping_mul(7919) + oi as u64 * 104_729) % read_ms;
            let mut t = phase;
            while t < span_ms {
                events.push(TraceEvent::read(
                    Timestamp::from_millis(t),
                    ClientId(c),
                    object,
                ));
                t += read_ms;
            }
        }
    }
    if let Some(wp) = cfg.write_period {
        assert!(!wp.is_zero(), "write period must be positive");
        let write_ms = wp.as_millis();
        for (oi, &object) in objects.iter().enumerate() {
            let phase = write_ms / 2 + (oi as u64 * 15_485_863) % (write_ms / 2).max(1);
            let mut t = phase;
            while t < span_ms {
                events.push(TraceEvent::write(Timestamp::from_millis(t), object));
                t += write_ms;
            }
        }
    }
    Trace::new(universe, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vl_analytic::{Algorithm, CostParams};
    use vl_core::{ProtocolKind, SimulationBuilder};

    fn cfg() -> UniformConfig {
        UniformConfig {
            clients: 4,
            objects: 5,
            read_period: Duration::from_secs(10),
            write_period: None,
            span: Duration::from_secs(10_000),
        }
    }

    #[test]
    fn trace_has_expected_event_counts() {
        let c = cfg();
        let trace = uniform_trace(&c);
        assert_eq!(trace.read_count(), c.total_reads());
        assert_eq!(trace.write_count(), 0);
        let with_writes = UniformConfig {
            write_period: Some(Duration::from_secs(100)),
            ..c
        };
        let trace = uniform_trace(&with_writes);
        // ~100 writes per object over 10,000 s.
        assert!((trace.write_count() as i64 - 500).abs() <= 5);
    }

    /// The paper's validation method: on a uniform read-only workload the
    /// simulated Lease(t) read cost must match 1/(R·t) round trips/read.
    #[test]
    fn lease_read_cost_matches_analytic() {
        let c = cfg();
        let trace = uniform_trace(&c);
        for t_secs in [20.0f64, 100.0, 500.0] {
            let report = SimulationBuilder::new(ProtocolKind::Lease {
                timeout: Duration::from_secs_f64(t_secs),
            })
            .run(&trace);
            let analytic = Algorithm::Lease.costs(&CostParams {
                object_timeout_secs: t_secs,
                volume_timeout_secs: 0.0,
                inactive_discard_secs: f64::INFINITY,
                object_read_rate: c.object_read_rate(),
                volume_read_rate: c.volume_read_rate(),
                clients_caching: u64::from(c.clients),
                clients_with_object_lease: u64::from(c.clients),
                clients_with_volume_lease: u64::from(c.clients),
                clients_recently_inactive: 0,
                clock_skew_bound_secs: 0.0,
            });
            let got = report.messages_per_read();
            let want = analytic.read_cost_messages();
            assert!(
                (got - want).abs() / want < 0.05,
                "t={t_secs}: simulated {got} vs analytic {want}"
            );
        }
    }

    /// Volume(t_v, t) on the same workload must match the two-term read
    /// cost 1/(ΣR_o·t_v) + 1/(R·t), in round trips per read.
    #[test]
    fn volume_read_cost_matches_analytic() {
        let c = cfg();
        let trace = uniform_trace(&c);
        let (tv_secs, t_secs) = (25.0f64, 400.0f64);
        let report = SimulationBuilder::new(ProtocolKind::VolumeLease {
            volume_timeout: Duration::from_secs_f64(tv_secs),
            object_timeout: Duration::from_secs_f64(t_secs),
        })
        .run(&trace);
        let analytic = Algorithm::VolumeLease.costs(&CostParams {
            object_timeout_secs: t_secs,
            volume_timeout_secs: tv_secs,
            inactive_discard_secs: f64::INFINITY,
            object_read_rate: c.object_read_rate(),
            volume_read_rate: c.volume_read_rate(),
            clients_caching: u64::from(c.clients),
            clients_with_object_lease: u64::from(c.clients),
            clients_with_volume_lease: u64::from(c.clients),
            clients_recently_inactive: 0,
            clock_skew_bound_secs: 0.0,
        });
        let got = report.messages_per_read();
        let want = analytic.read_cost_messages();
        assert!(
            (got - want).abs() / want < 0.10,
            "simulated {got} vs analytic {want}"
        );
    }

    /// Poll(t) with writes must go stale roughly (t/2)·W of the time
    /// while Lease(t) stays at zero — the consistency contrast of Table 1.
    #[test]
    fn poll_goes_stale_lease_does_not() {
        let c = UniformConfig {
            write_period: Some(Duration::from_secs(200)),
            ..cfg()
        };
        let trace = uniform_trace(&c);
        let poll = SimulationBuilder::new(ProtocolKind::Poll {
            timeout: Duration::from_secs(100),
        })
        .run(&trace);
        let lease = SimulationBuilder::new(ProtocolKind::Lease {
            timeout: Duration::from_secs(100),
        })
        .run(&trace);
        assert!(poll.summary.stale_reads > 0);
        assert_eq!(lease.summary.stale_reads, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_read_period_rejected() {
        let mut c = cfg();
        c.read_period = Duration::ZERO;
        let _ = uniform_trace(&c);
    }
}

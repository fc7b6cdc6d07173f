//! The client-driven baselines: *Poll Each Read* (§2.1) and *Poll(t)*
//! (§2.2).

use super::Protocol;
use crate::cache::ClientCaches;
use crate::Ctx;
use vl_metrics::MessageKind;
use vl_types::{ClientId, Duration, ObjectId, Timestamp};
use vl_workload::Universe;

/// *Poll Each Read*: validate with the server before every cache read.
///
/// Strongly consistent and never delays writes, but every read pays a
/// round trip — the paper's motivation for server-driven protocols.
#[derive(Debug, Default)]
pub struct PollEachRead {
    caches: ClientCaches,
}

impl PollEachRead {
    /// Creates the protocol.
    pub fn new() -> PollEachRead {
        PollEachRead::default()
    }
}

impl Protocol for PollEachRead {
    #[inline]
    fn warm(&self, client: Option<ClientId>, object: ObjectId) {
        if let Some(client) = client {
            self.caches.warm(client, object);
        }
    }

    fn on_read(&mut self, now: Timestamp, client: ClientId, object: ObjectId, ctx: &mut Ctx<'_>) {
        let current = ctx.version(object);
        let cached = self
            .caches
            .put_fetch(client, object, ctx.universe.volume_of(object), current);
        // The reply carries data only when the cached copy is out of date.
        let data = if cached == Some(current) {
            0
        } else {
            ctx.payload(object)
        };
        ctx.send_pair(
            MessageKind::PollRequest,
            0,
            MessageKind::PollReply,
            data,
            object,
            client,
            now,
        );
        ctx.read_done(now, client, object, false);
    }

    fn on_write(&mut self, _now: Timestamp, _object: ObjectId, ctx: &mut Ctx<'_>) {
        // Writes proceed immediately; no server consistency state exists.
        ctx.metrics.record_write_delay(Duration::ZERO);
    }

    fn finalize(&mut self, _end: Timestamp, _ctx: &mut Ctx<'_>) {}
}

/// *Poll(t)*: trust a validation for `timeout`, then re-validate.
///
/// The only algorithm in this workspace that can serve stale reads: a
/// write inside the trust window is invisible until the next validation.
#[derive(Debug)]
pub struct Poll {
    timeout: Duration,
    /// Each cache entry carries its last-validated stamp, so one probe
    /// answers both "do I have a copy?" and "is it still trusted?" and
    /// memory stays proportional to copies actually cached rather than
    /// the dense clients × objects matrix (which at 10x trace scale
    /// would dwarf the simulated state it models).
    caches: ClientCaches,
}

impl Poll {
    /// Creates the protocol with trust window `timeout`. A zero timeout
    /// degenerates to [`PollEachRead`], as in the paper.
    pub fn new(timeout: Duration, _universe: &Universe) -> Poll {
        Poll {
            timeout,
            caches: ClientCaches::stamped(),
        }
    }
}

impl Protocol for Poll {
    #[inline]
    fn warm(&self, client: Option<ClientId>, object: ObjectId) {
        if let Some(client) = client {
            self.caches.warm(client, object);
        }
    }

    fn on_read(&mut self, now: Timestamp, client: ClientId, object: ObjectId, ctx: &mut Ctx<'_>) {
        let current = ctx.version(object);
        let entry = self.caches.entry_of(client, object);
        let cached = entry.map(|(v, _)| v);
        if let Some((version, validated)) = entry {
            if now < validated.saturating_add(self.timeout) {
                // Serve from cache without contacting the server; this is
                // where staleness sneaks in.
                ctx.read_done(now, client, object, version != current);
                return;
            }
        }
        let data = if cached == Some(current) {
            0
        } else {
            ctx.payload(object)
        };
        ctx.send_pair(
            MessageKind::PollRequest,
            0,
            MessageKind::PollReply,
            data,
            object,
            client,
            now,
        );
        self.caches
            .put_validated(client, object, ctx.universe.volume_of(object), current, now);
        ctx.read_done(now, client, object, false);
    }

    fn on_write(&mut self, _now: Timestamp, _object: ObjectId, ctx: &mut Ctx<'_>) {
        ctx.metrics.record_write_delay(Duration::ZERO);
    }

    fn finalize(&mut self, _end: Timestamp, _ctx: &mut Ctx<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::testutil::{two_volume_universe, versions};
    use vl_metrics::Metrics;
    use vl_types::Version;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn poll_each_read_always_messages() {
        let u = two_volume_universe();
        let vers = versions(3);
        let mut m = Metrics::new();
        let mut p = PollEachRead::new();
        for s in 0..5 {
            let mut ctx = Ctx {
                universe: &u,
                versions: &vers,
                metrics: &mut m,
            };
            p.on_read(ts(s), ClientId(0), ObjectId(0), &mut ctx);
        }
        assert_eq!(m.total_messages(), 10); // 2 per read
        assert_eq!(m.staleness().stale_reads(), 0);
    }

    #[test]
    fn poll_each_read_sends_data_only_when_changed() {
        let u = two_volume_universe();
        let mut vers = versions(3);
        let mut m = Metrics::new();
        let mut p = PollEachRead::new();
        let mut ctx = Ctx {
            universe: &u,
            versions: &vers,
            metrics: &mut m,
        };
        p.on_read(ts(0), ClientId(0), ObjectId(0), &mut ctx);
        let first_fetch = m.total_bytes(); // 50 + 50 + 1000
        assert_eq!(first_fetch, 1100);
        let mut ctx = Ctx {
            universe: &u,
            versions: &vers,
            metrics: &mut m,
        };
        p.on_read(ts(1), ClientId(0), ObjectId(0), &mut ctx);
        assert_eq!(m.total_bytes(), 1200, "unchanged data is not resent");
        vers[0] = Version(2);
        let mut ctx = Ctx {
            universe: &u,
            versions: &vers,
            metrics: &mut m,
        };
        p.on_read(ts(2), ClientId(0), ObjectId(0), &mut ctx);
        assert_eq!(m.total_bytes(), 2300, "changed data is resent");
    }

    #[test]
    fn poll_caches_within_timeout() {
        let u = two_volume_universe();
        let vers = versions(3);
        let mut m = Metrics::new();
        let mut p = Poll::new(Duration::from_secs(10), &u);
        for s in [0u64, 3, 6, 9] {
            let mut ctx = Ctx {
                universe: &u,
                versions: &vers,
                metrics: &mut m,
            };
            p.on_read(ts(s), ClientId(0), ObjectId(0), &mut ctx);
        }
        assert_eq!(m.total_messages(), 2, "only the first read polls");
        // Past the window: revalidates.
        let mut ctx = Ctx {
            universe: &u,
            versions: &vers,
            metrics: &mut m,
        };
        p.on_read(ts(10), ClientId(0), ObjectId(0), &mut ctx);
        assert_eq!(m.total_messages(), 4);
    }

    #[test]
    fn poll_serves_stale_data_inside_window() {
        let u = two_volume_universe();
        let mut vers = versions(3);
        let mut m = Metrics::new();
        let mut p = Poll::new(Duration::from_secs(100), &u);
        let mut ctx = Ctx {
            universe: &u,
            versions: &vers,
            metrics: &mut m,
        };
        p.on_read(ts(0), ClientId(0), ObjectId(0), &mut ctx);
        // A write lands inside the trust window.
        vers[0] = Version(2);
        let mut ctx = Ctx {
            universe: &u,
            versions: &vers,
            metrics: &mut m,
        };
        p.on_read(ts(50), ClientId(0), ObjectId(0), &mut ctx);
        assert_eq!(m.staleness().stale_reads(), 1);
        // After expiry the client revalidates and sees the new version.
        let mut ctx = Ctx {
            universe: &u,
            versions: &vers,
            metrics: &mut m,
        };
        p.on_read(ts(100), ClientId(0), ObjectId(0), &mut ctx);
        assert_eq!(m.staleness().stale_reads(), 1);
        assert_eq!(m.staleness().reads(), 3);
    }

    #[test]
    fn poll_zero_timeout_equals_poll_each_read() {
        let u = two_volume_universe();
        let vers = versions(3);
        let mut m = Metrics::new();
        let mut p = Poll::new(Duration::ZERO, &u);
        for s in 0..4 {
            let mut ctx = Ctx {
                universe: &u,
                versions: &vers,
                metrics: &mut m,
            };
            p.on_read(ts(s), ClientId(0), ObjectId(0), &mut ctx);
        }
        assert_eq!(m.total_messages(), 8);
        assert_eq!(m.staleness().stale_reads(), 0);
    }

    #[test]
    fn writes_never_delay() {
        let u = two_volume_universe();
        let vers = versions(3);
        let mut m = Metrics::new();
        let mut p = Poll::new(Duration::from_secs(10), &u);
        let mut ctx = Ctx {
            universe: &u,
            versions: &vers,
            metrics: &mut m,
        };
        p.on_write(ts(0), ObjectId(0), &mut ctx);
        assert_eq!(m.total_messages(), 0);
        assert_eq!(m.max_write_delay(), Duration::ZERO);
    }
}

//! Figure 5: total client↔server messages vs. object timeout `t`.
//!
//! Seven lines, as in the paper: `Poll(t)`, `Callback` (flat in `t`),
//! `Lease(t)`, `Volume(10, t)`, `Volume(100, t)`, `Delay(10, t, ∞)`, and
//! `Delay(100, t, ∞)` — plus the `SelfInval(t, 1)` extension column —
//! swept over `t ∈ {10¹ … 10⁷}` seconds. The expected
//! shape: lease-family lines fall as `t` grows (fewer renewals), then
//! flatten/rise once invalidations dominate; `Delay` falls monotonically;
//! `Poll` falls monotonically but trades staleness for it.

use crate::output::Table;
use crate::{par, secs, SweepStats, TIMEOUT_SWEEP_SECS};
use vl_core::{ProtocolKind, SimulationBuilder};
use vl_types::Duration;
use vl_workload::Trace;

/// One plotted point.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// The line this point belongs to (e.g. `"Volume(10, t)"`).
    pub line: String,
    /// The swept object timeout, seconds.
    pub t_secs: u64,
    /// Total one-way messages over the whole trace.
    pub messages: u64,
    /// Total bytes (the §5.1 byte-traffic variant of the figure).
    pub bytes: u64,
    /// Fraction of reads served stale (non-zero only for Poll).
    pub stale_fraction: f64,
}

/// A named line family: label plus a constructor from the swept `t`.
pub type Line = (&'static str, Box<dyn Fn(Duration) -> ProtocolKind>);

/// The seven line families of Figure 5 plus the self-invalidation
/// extension, parameterized by the swept `t`.
pub fn lines() -> Vec<Line> {
    vec![
        (
            "Poll(t)",
            Box::new(|t| ProtocolKind::Poll { timeout: t })
                as Box<dyn Fn(Duration) -> ProtocolKind>,
        ),
        ("Callback", Box::new(|_| ProtocolKind::Callback)),
        ("Lease(t)", Box::new(|t| ProtocolKind::Lease { timeout: t })),
        (
            "SelfInval(t, 1)",
            Box::new(|t| ProtocolKind::SelfInval {
                timeout: t,
                skew_bound: secs(1),
            }),
        ),
        (
            "Volume(10, t)",
            Box::new(|t| ProtocolKind::VolumeLease {
                volume_timeout: secs(10),
                object_timeout: t,
            }),
        ),
        (
            "Volume(100, t)",
            Box::new(|t| ProtocolKind::VolumeLease {
                volume_timeout: secs(100),
                object_timeout: t,
            }),
        ),
        (
            "Delay(10, t, inf)",
            Box::new(|t| ProtocolKind::DelayedInvalidation {
                volume_timeout: secs(10),
                object_timeout: t,
                inactive_discard: Duration::MAX,
            }),
        ),
        (
            "Delay(100, t, inf)",
            Box::new(|t| ProtocolKind::DelayedInvalidation {
                volume_timeout: secs(100),
                object_timeout: t,
                inactive_discard: Duration::MAX,
            }),
        ),
    ]
}

/// Runs the full sweep over `trace` on up to `threads` workers.
///
/// Each (line, timeout) grid point is one independent simulation; the
/// grid is fanned out through [`par::map`] over the shared trace and
/// results come back in grid order, so the rows are identical for any
/// thread count.
pub fn run_on(trace: &Trace, timeouts: &[u64], threads: usize) -> Vec<Row> {
    let grid: Vec<(&'static str, u64, ProtocolKind)> = lines()
        .iter()
        .flat_map(|(name, kind_of)| timeouts.iter().map(|&t| (*name, t, kind_of(secs(t)))))
        .collect();
    par::map(&grid, threads, |&(name, t, kind)| {
        let report = SimulationBuilder::new(kind).run(trace);
        Row {
            line: name.to_owned(),
            t_secs: t,
            messages: report.summary.messages,
            bytes: report.summary.bytes,
            stale_fraction: report.summary.stale_fraction,
        }
    })
}

/// Runs the standard sweep over `trace`, reporting aggregate throughput
/// alongside the rows.
pub fn run(trace: &Trace, threads: usize) -> (Vec<Row>, SweepStats) {
    let started = std::time::Instant::now();
    let rows = run_on(trace, &TIMEOUT_SWEEP_SECS, threads);
    let stats = SweepStats::since(started, trace, rows.len(), threads);
    (rows, stats)
}

/// Formats rows as the printed figure table. `metric` orders the y
/// column first: `"messages"` (the paper's Figure 5) or `"bytes"`
/// (§5.1's byte-traffic variant); both are always emitted.
pub fn table(rows: &[Row], metric: &str) -> Table {
    let byte_first = metric == "bytes";
    let (a, b) = if byte_first {
        ("bytes", "messages")
    } else {
        ("messages", "bytes")
    };
    let mut t = Table::new(["line", "t_secs", a, b, "stale_frac"]);
    for r in rows {
        let (x, y) = if byte_first {
            (r.bytes, r.messages)
        } else {
            (r.messages, r.bytes)
        };
        t.push([
            r.line.clone(),
            r.t_secs.to_string(),
            x.to_string(),
            y.to_string(),
            format!("{:.4}", r.stale_fraction),
        ]);
    }
    t
}

/// The paper's headline comparisons (§5.1): given the sweep rows, returns
/// (volume_vs_lease, delay_vs_lease) message savings at the best
/// configuration whose write-delay bound is ≤ `bound_secs`.
///
/// For `Lease(t)` the bound forces `t = bound_secs`; the volume
/// algorithms may use any swept `t` because their bound is `t_v`.
pub fn savings_at_bound(rows: &[Row], bound_secs: u64) -> Option<(f64, f64)> {
    let lease = rows
        .iter()
        .find(|r| r.line == "Lease(t)" && r.t_secs == bound_secs)?
        .messages as f64;
    let volume_line = format!("Volume({bound_secs}, t)");
    let delay_line = format!("Delay({bound_secs}, t, inf)");
    let best = |line: &str| -> Option<u64> {
        rows.iter()
            .filter(|r| r.line == line)
            .map(|r| r.messages)
            .min()
    };
    let volume = best(&volume_line)? as f64;
    let delay = best(&delay_line)? as f64;
    Some((1.0 - volume / lease, 1.0 - delay / lease))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vl_workload::{TraceGenerator, WorkloadConfig};

    fn smoke_rows() -> Vec<Row> {
        let trace = TraceGenerator::new(WorkloadConfig::smoke()).generate();
        run_on(&trace, &[10, 1000, 100_000], 2)
    }

    #[test]
    fn produces_all_lines_and_timeouts() {
        let rows = smoke_rows();
        assert_eq!(rows.len(), 8 * 3);
        assert!(rows.iter().all(|r| r.messages > 0));
    }

    #[test]
    fn callback_is_flat_in_t() {
        let rows = smoke_rows();
        let cb: Vec<u64> = rows
            .iter()
            .filter(|r| r.line == "Callback")
            .map(|r| r.messages)
            .collect();
        assert!(cb.windows(2).all(|w| w[0] == w[1]), "{cb:?}");
    }

    #[test]
    fn lease_messages_fall_as_t_grows_initially() {
        let rows = smoke_rows();
        let lease: Vec<u64> = rows
            .iter()
            .filter(|r| r.line == "Lease(t)")
            .map(|r| r.messages)
            .collect();
        assert!(
            lease[0] > lease[1],
            "longer leases must cut renewals: {lease:?}"
        );
    }

    #[test]
    fn only_poll_is_ever_stale() {
        let rows = smoke_rows();
        for r in &rows {
            if r.line != "Poll(t)" {
                assert_eq!(r.stale_fraction, 0.0, "{}", r.line);
            }
        }
        assert!(
            rows.iter()
                .any(|r| r.line == "Poll(t)" && r.stale_fraction > 0.0),
            "long poll windows must serve stale data"
        );
    }

    #[test]
    fn volume_lease_costs_more_messages_than_plain_lease_at_same_t() {
        let rows = smoke_rows();
        for &t in &[1000u64, 100_000] {
            let get = |line: &str| {
                rows.iter()
                    .find(|r| r.line == line && r.t_secs == t)
                    .unwrap()
                    .messages
            };
            assert!(
                get("Volume(10, t)") >= get("Lease(t)"),
                "volume renewals are pure overhead at equal t"
            );
            assert!(
                get("Volume(10, t)") >= get("Volume(100, t)"),
                "shorter volume leases renew more"
            );
        }
    }

    #[test]
    fn savings_at_bound_computes() {
        let rows = smoke_rows();
        let (vol, delay) = savings_at_bound(&rows, 10).expect("lease(10) swept");
        // With a 10 s write-delay bound the volume algorithms beat
        // Lease(10) decisively (the paper reports 32% / 39%).
        assert!(vol > 0.0, "volume saving {vol}");
        assert!(
            delay >= vol,
            "delay {delay} at least as good as volume {vol}"
        );
    }

    #[test]
    fn table_renders_both_metrics() {
        let rows = smoke_rows();
        let t1 = table(&rows, "messages");
        let t2 = table(&rows, "bytes");
        assert_eq!(t1.len(), rows.len());
        assert_eq!(t2.len(), rows.len());
        assert!(t1.render().contains("Lease(t)"));
    }
}

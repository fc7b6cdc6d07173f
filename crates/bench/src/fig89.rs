//! Figures 8–9: bursts of load at the most heavily loaded server.
//!
//! A cumulative histogram: for each algorithm, how many 1-second periods
//! saw at least *x* messages sent or received at the busiest server.
//! Figure 8 uses the default write workload; Figure 9 the "bursty write"
//! variant (`k ~ Exp(10)` co-writes per write), which blows up the
//! invalidation bursts of `Callback` and `Volume` but not of `Delay`.
//!
//! Algorithm configurations follow §5.3: the polling/object-lease
//! baselines use *short* timeouts (their load is renewal bursts on
//! reads); `Callback`, `Volume`, and `Delay` use *long* object leases
//! (their load is invalidation bursts on writes — except `Delay`, which
//! defers them).

use crate::output::Table;
use crate::{delay, lease, par, secs, volume, SweepStats};
use vl_core::{ProtocolKind, SimulationBuilder};
use vl_metrics::LoadHistogram;
use vl_types::{Duration, ServerId};
use vl_workload::{Trace, WorkloadConfig};

/// Short timeout for the poll/lease baselines, seconds.
pub const SHORT_T_SECS: u64 = 100;
/// Long object-lease timeout for the server-driven algorithms, seconds.
pub const LONG_T_SECS: u64 = 1_000_000;

/// One algorithm's full cumulative curve.
#[derive(Clone, Debug, PartialEq)]
pub struct Curve {
    /// Line label.
    pub line: String,
    /// The measured (busiest) server.
    pub server: ServerId,
    /// `(load x, number of 1-second periods with load ≥ x)` points.
    pub points: Vec<(u64, u64)>,
    /// Peak 1-second load.
    pub peak: u64,
}

/// The algorithm configurations of §5.3.
pub fn lines() -> Vec<(&'static str, ProtocolKind)> {
    vec![
        (
            "Poll(100)",
            ProtocolKind::Poll {
                timeout: secs(SHORT_T_SECS),
            },
        ),
        ("Lease(100)", lease(SHORT_T_SECS)),
        ("Callback", ProtocolKind::Callback),
        ("Volume(10, 1e6)", volume(10, LONG_T_SECS)),
        ("Delay(10, 1e6, inf)", delay(10, LONG_T_SECS, Duration::MAX)),
        (
            "SelfInval(1e6, 1)",
            ProtocolKind::SelfInval {
                timeout: secs(LONG_T_SECS),
                skew_bound: secs(1),
            },
        ),
    ]
}

/// The Figure 9 workload: `cfg` with the bursty co-write model
/// (`k ~ Exp(10)` objects per volume write). Figure 8 replays the
/// presets' default write model, which has no bursts.
pub fn bursty(cfg: &WorkloadConfig) -> WorkloadConfig {
    let mut cfg = cfg.clone();
    cfg.writes.burst_mean = Some(10.0);
    cfg
}

/// Runs the experiment over `trace` on up to `threads` workers, one
/// worker per algorithm line, measuring the trace's busiest server.
pub fn run(trace: &Trace, threads: usize) -> (Vec<Curve>, SweepStats) {
    let busiest = trace.servers_by_popularity()[0].0;
    let grid = lines();
    let started = std::time::Instant::now();
    let curves = par::map(&grid, threads, |&(name, kind)| {
        let report = SimulationBuilder::new(kind)
            .track_load([busiest])
            .run(trace);
        let hist: LoadHistogram = report
            .metrics
            .load_histogram(busiest)
            .expect("busiest server is tracked");
        Curve {
            line: name.to_owned(),
            server: busiest,
            peak: hist.peak(),
            points: hist.cumulative_curve(),
        }
    });
    let stats = SweepStats::since(started, trace, curves.len(), threads);
    (curves, stats)
}

/// Formats the curves row-per-point for printing/CSV.
pub fn table(curves: &[Curve]) -> Table {
    let mut t = Table::new(["line", "server", "load_msgs_per_sec", "periods_at_least"]);
    for c in curves {
        for &(x, y) in &c.points {
            t.push([
                c.line.clone(),
                c.server.to_string(),
                x.to_string(),
                y.to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use vl_workload::TraceGenerator;

    fn smoke_curves(bursty_writes: bool) -> Vec<Curve> {
        let mut cfg = WorkloadConfig::smoke();
        if bursty_writes {
            cfg = bursty(&cfg);
        }
        run(&TraceGenerator::new(cfg).generate(), 2).0
    }

    #[test]
    fn produces_a_curve_per_line() {
        let curves = smoke_curves(false);
        assert_eq!(curves.len(), 6);
        for c in &curves {
            assert!(!c.points.is_empty(), "{} has an empty curve", c.line);
            assert!(c.peak > 0, "{}", c.line);
            // Cumulative curves are non-increasing in y.
            assert!(c.points.windows(2).all(|w| w[0].1 > w[1].1));
        }
    }

    #[test]
    fn delay_peak_no_higher_than_volume_peak() {
        let curves = smoke_curves(false);
        let peak = |line: &str| curves.iter().find(|c| c.line == line).unwrap().peak;
        assert!(
            peak("Delay(10, 1e6, inf)") <= peak("Volume(10, 1e6)"),
            "delaying invalidations cannot raise the write burst"
        );
    }

    #[test]
    fn bursty_writes_raise_volume_and_callback_peaks() {
        let normal = smoke_curves(false);
        let bursty = smoke_curves(true);
        let peak = |cs: &[Curve], line: &str| cs.iter().find(|c| c.line == line).unwrap().peak;
        // Co-written volumes multiply simultaneous invalidations.
        assert!(
            peak(&bursty, "Volume(10, 1e6)") >= peak(&normal, "Volume(10, 1e6)"),
            "bursty {} vs normal {}",
            peak(&bursty, "Volume(10, 1e6)"),
            peak(&normal, "Volume(10, 1e6)")
        );
        assert!(peak(&bursty, "Callback") >= peak(&normal, "Callback"));
    }

    #[test]
    fn self_inval_writes_produce_no_bursts() {
        // With no invalidation fan-out, the busiest server's peak under
        // self-invalidation cannot exceed the volume-lease peak, whose
        // load includes the same renewals plus write bursts.
        let curves = smoke_curves(true);
        let peak = |line: &str| curves.iter().find(|c| c.line == line).unwrap().peak;
        assert!(
            peak("SelfInval(1e6, 1)") <= peak("Volume(10, 1e6)"),
            "self-inval {} vs volume {}",
            peak("SelfInval(1e6, 1)"),
            peak("Volume(10, 1e6)")
        );
    }

    #[test]
    fn table_has_row_per_point() {
        let curves = smoke_curves(false);
        let total: usize = curves.iter().map(|c| c.points.len()).sum();
        assert_eq!(table(&curves).len(), total);
    }
}

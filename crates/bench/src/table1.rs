//! Table 1 validation: simulator vs. closed-form costs on uniform
//! workloads (the paper's §4.1 validation methodology).

use crate::output::Table;
use crate::par;
use crate::uniform::{uniform_trace, UniformConfig};
use crate::SweepStats;
use vl_analytic::{Algorithm, CostParams};
use vl_core::{ProtocolKind, SimulationBuilder};
use vl_types::Duration;

/// One algorithm's simulated-vs-analytic comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Table 1 row name.
    pub algorithm: String,
    /// Analytic read cost, one-way messages per read.
    pub analytic_read_msgs: f64,
    /// Simulated messages per read.
    pub simulated_read_msgs: f64,
    /// Relative error (0.0 = perfect agreement; NaN-free).
    pub relative_error: f64,
    /// Simulated stale-read fraction.
    pub stale_fraction: f64,
    /// Analytic expected stale seconds (Table 1 column 1).
    pub expected_stale_secs: f64,
}

/// The standard validation setup: read-only uniform workload (so the
/// read-cost column isolates renewal traffic), `t = 100 s`, `t_v = 25 s`.
pub fn default_config() -> UniformConfig {
    UniformConfig {
        clients: 8,
        objects: 10,
        read_period: Duration::from_secs(10),
        write_period: None,
        span: Duration::from_secs(20_000),
    }
}

/// Object / volume timeouts used by the validation.
pub const T_SECS: f64 = 100.0;
/// Volume timeout, seconds.
pub const TV_SECS: f64 = 25.0;
/// Clock-skew bound `ε` assumed for the self-invalidation row, seconds.
pub const SKEW_SECS: f64 = 1.0;

/// The protocol that simulates `alg` at the validation's timeouts.
pub fn kind_for(alg: Algorithm) -> ProtocolKind {
    match alg {
        Algorithm::PollEachRead => ProtocolKind::PollEachRead,
        Algorithm::Poll => ProtocolKind::Poll {
            timeout: Duration::from_secs_f64(T_SECS),
        },
        Algorithm::Callback => ProtocolKind::Callback,
        Algorithm::Lease => ProtocolKind::Lease {
            timeout: Duration::from_secs_f64(T_SECS),
        },
        Algorithm::WaitingLease => ProtocolKind::WaitingLease {
            timeout: Duration::from_secs_f64(T_SECS),
        },
        Algorithm::SelfInval => ProtocolKind::SelfInval {
            timeout: Duration::from_secs_f64(T_SECS),
            skew_bound: Duration::from_secs_f64(SKEW_SECS),
        },
        Algorithm::VolumeLease => ProtocolKind::VolumeLease {
            volume_timeout: Duration::from_secs_f64(TV_SECS),
            object_timeout: Duration::from_secs_f64(T_SECS),
        },
        Algorithm::DelayedInvalidation => ProtocolKind::DelayedInvalidation {
            volume_timeout: Duration::from_secs_f64(TV_SECS),
            object_timeout: Duration::from_secs_f64(T_SECS),
            inactive_discard: Duration::MAX,
        },
    }
}

/// Runs every algorithm over the uniform workload on up to `threads`
/// workers and compares each against its Table 1 row (plus the
/// waiting-lease extension).
pub fn run(cfg: &UniformConfig, threads: usize) -> (Vec<Row>, SweepStats) {
    let trace = uniform_trace(cfg);
    let params = CostParams {
        object_timeout_secs: T_SECS,
        volume_timeout_secs: TV_SECS,
        inactive_discard_secs: f64::INFINITY,
        object_read_rate: cfg.object_read_rate(),
        volume_read_rate: cfg.volume_read_rate(),
        clients_caching: u64::from(cfg.clients),
        clients_with_object_lease: u64::from(cfg.clients),
        clients_with_volume_lease: u64::from(cfg.clients),
        clients_recently_inactive: 0,
        clock_skew_bound_secs: SKEW_SECS,
    };
    let started = std::time::Instant::now();
    let rows = par::map(&Algorithm::ALL, threads, |&alg| {
        let costs = alg.costs(&params);
        let report = SimulationBuilder::new(kind_for(alg)).run(&trace);
        let simulated = report.messages_per_read();
        // Callback's fetch messages are start-up cost, not steady
        // state; its analytic read cost is 0, so compare absolutely.
        let analytic = costs.read_cost_messages();
        let relative_error = if analytic > 0.0 {
            (simulated - analytic).abs() / analytic
        } else {
            simulated
        };
        Row {
            algorithm: alg.to_string(),
            analytic_read_msgs: analytic,
            simulated_read_msgs: simulated,
            relative_error,
            stale_fraction: report.summary.stale_fraction,
            expected_stale_secs: costs.expected_stale_secs,
        }
    });
    let stats = SweepStats::since(started, &trace, rows.len(), threads);
    (rows, stats)
}

/// Formats the validation rows.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new([
        "algorithm",
        "analytic msgs/read",
        "simulated msgs/read",
        "rel err",
        "stale frac",
    ]);
    for r in rows {
        t.push([
            r.algorithm.clone(),
            format!("{:.4}", r.analytic_read_msgs),
            format!("{:.4}", r.simulated_read_msgs),
            format!("{:.4}", r.relative_error),
            format!("{:.4}", r.stale_fraction),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulator_agrees_with_analytic_model() {
        let rows = run(&default_config(), 2).0;
        assert_eq!(rows.len(), 8);
        for r in &rows {
            if r.algorithm == "Callback" {
                // Start-up fetches only: a few hundredths of a message
                // per read on a long trace.
                assert!(
                    r.simulated_read_msgs < 0.05,
                    "callback steady state ≈ 0: {}",
                    r.simulated_read_msgs
                );
            } else {
                // The self-inval column is the reproduction's own
                // extension, so it is held tighter than the rest.
                let bound = match r.algorithm.as_str() {
                    "Self-Inval" => 0.05,
                    _ => 0.08,
                };
                assert!(
                    r.relative_error <= bound,
                    "{}: analytic {} vs simulated {}",
                    r.algorithm,
                    r.analytic_read_msgs,
                    r.simulated_read_msgs
                );
            }
        }
    }

    #[test]
    fn read_only_workload_is_never_stale() {
        let rows = run(&default_config(), 2).0;
        assert!(rows.iter().all(|r| r.stale_fraction == 0.0));
    }

    #[test]
    fn table_renders_all_algorithms() {
        let rows = run(&default_config(), 2).0;
        let rendered = table(&rows).render();
        for name in [
            "Poll Each Read",
            "Callback",
            "Self-Inval",
            "Volume Leases",
            "Vol. Delay Inval",
        ] {
            assert!(rendered.contains(name), "{name} missing");
        }
    }
}

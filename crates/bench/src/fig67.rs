//! Figures 6–7: average consistency state (bytes) at a server vs. `t`.
//!
//! Figure 6 reports the trace's most popular server, Figure 7 the 10th
//! most popular. Lines: `Callback` (flat), `Lease(t)`, `SelfInval(t, 1)`
//! (same deadline records as `Lease`, no callback set), `Volume(10, t)`,
//! `Delay(10, t, ∞)` (queues never discarded) and `Delay(10, t, 1h)`
//! (short discard — the configuration the paper argues can use *less*
//! state than everything else).

use crate::fig5::{self, Line};
use crate::output::Table;
use crate::{par, secs, SweepStats, TIMEOUT_SWEEP_SECS};
use vl_core::{ProtocolKind, SimulationBuilder};
use vl_types::ServerId;
use vl_workload::Trace;

/// One plotted point.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Line label.
    pub line: String,
    /// Swept object timeout, seconds.
    pub t_secs: u64,
    /// Popularity rank of the measured server (1 = most popular).
    pub server_rank: usize,
    /// The measured server.
    pub server: ServerId,
    /// Time-weighted average consistency state, bytes.
    pub avg_state_bytes: f64,
}

/// The line families of Figures 6–7: Figure 5's callback and
/// server-driven lease lines at t_v = 10 s, in the same order, then
/// `Delay(10, t, 1h)`.
pub fn lines() -> Vec<Line> {
    const SHARED: [&str; 5] = [
        "Callback",
        "Lease(t)",
        "SelfInval(t, 1)",
        "Volume(10, t)",
        "Delay(10, t, inf)",
    ];
    let mut lines: Vec<Line> = fig5::lines()
        .into_iter()
        .filter(|(name, _)| SHARED.contains(name))
        .collect();
    lines.push((
        "Delay(10, t, 1h)",
        Box::new(|t| ProtocolKind::DelayedInvalidation {
            volume_timeout: secs(10),
            object_timeout: t,
            inactive_discard: secs(3600),
        }),
    ));
    lines
}

/// Runs the sweep measuring the server at popularity `rank`
/// (1 = most popular → Figure 6; 10 → Figure 7).
///
/// # Panics
///
/// Panics if the trace has fewer than `rank` active servers.
pub fn run_on(trace: &Trace, rank: usize, timeouts: &[u64], threads: usize) -> Vec<Row> {
    let ranked = trace.servers_by_popularity();
    assert!(
        ranked.len() >= rank && rank >= 1,
        "trace has only {} active servers, need rank {rank}",
        ranked.len()
    );
    let server = ranked[rank - 1].0;
    let grid: Vec<(&'static str, u64, ProtocolKind)> = lines()
        .iter()
        .flat_map(|(name, kind_of)| timeouts.iter().map(|&t| (*name, t, kind_of(secs(t)))))
        .collect();
    par::map(&grid, threads, |&(name, t, kind)| {
        let report = SimulationBuilder::new(kind).run(trace);
        Row {
            line: name.to_owned(),
            t_secs: t,
            server_rank: rank,
            server,
            avg_state_bytes: report.avg_state_bytes(server),
        }
    })
}

/// Runs the standard sweep over `trace` for the given rank, reporting
/// aggregate throughput alongside the rows.
pub fn run(trace: &Trace, rank: usize, threads: usize) -> (Vec<Row>, SweepStats) {
    let started = std::time::Instant::now();
    let rows = run_on(trace, rank, &TIMEOUT_SWEEP_SECS, threads);
    let stats = SweepStats::since(started, trace, rows.len(), threads);
    (rows, stats)
}

/// Formats rows for printing.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(["line", "t_secs", "server", "avg_state_bytes"]);
    for r in rows {
        t.push([
            r.line.clone(),
            r.t_secs.to_string(),
            r.server.to_string(),
            format!("{:.1}", r.avg_state_bytes),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use vl_workload::{TraceGenerator, WorkloadConfig};

    fn smoke_rows(rank: usize) -> Vec<Row> {
        let trace = TraceGenerator::new(WorkloadConfig::smoke()).generate();
        run_on(&trace, rank, &[10, 1000, 100_000], 2)
    }

    #[test]
    fn produces_rows_for_all_lines() {
        let rows = smoke_rows(1);
        assert_eq!(rows.len(), 6 * 3);
        assert!(rows.iter().all(|r| r.avg_state_bytes >= 0.0));
    }

    #[test]
    fn lease_state_grows_with_t() {
        let rows = smoke_rows(1);
        let lease: Vec<f64> = rows
            .iter()
            .filter(|r| r.line == "Lease(t)")
            .map(|r| r.avg_state_bytes)
            .collect();
        assert!(
            lease[0] < lease[2],
            "longer leases hold records longer: {lease:?}"
        );
    }

    #[test]
    fn short_leases_use_less_state_than_callback() {
        let rows = smoke_rows(1);
        let get = |line: &str, t: u64| {
            rows.iter()
                .find(|r| r.line == line && r.t_secs == t)
                .unwrap()
                .avg_state_bytes
        };
        assert!(
            get("Lease(t)", 10) < get("Callback", 10),
            "the paper's short-timeout state advantage"
        );
    }

    #[test]
    fn volume_adds_little_state_over_lease() {
        let rows = smoke_rows(1);
        let get = |line: &str, t: u64| {
            rows.iter()
                .find(|r| r.line == line && r.t_secs == t)
                .unwrap()
                .avg_state_bytes
        };
        let lease = get("Lease(t)", 100_000);
        let volume = get("Volume(10, t)", 100_000);
        assert!(volume >= lease);
        assert!(
            volume < lease * 1.5,
            "short volume leases are cheap: {volume} vs {lease}"
        );
    }

    #[test]
    fn tenth_server_has_less_state_than_first() {
        let r1 = smoke_rows(1);
        let r10 = smoke_rows(10);
        let sum = |rows: &[Row]| -> f64 { rows.iter().map(|r| r.avg_state_bytes).sum() };
        assert!(sum(&r10) < sum(&r1), "less popular ⇒ less lease state");
    }

    #[test]
    #[should_panic(expected = "need rank")]
    fn absurd_rank_panics() {
        let _ = smoke_rows(10_000);
    }

    #[test]
    fn table_renders() {
        let rows = smoke_rows(1);
        assert!(table(&rows).render().contains("avg_state_bytes"));
    }
}

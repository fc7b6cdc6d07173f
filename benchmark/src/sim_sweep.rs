//! Workload `sim_sweep`: the paper's own evaluation path.
//!
//! Generates a trace over the paper's universe for the seed, then runs
//! the Figure 5 grid (8 lines × 7 timeouts, self-invalidation included)
//! on one thread as many whole times as the run length allows. All the
//! work is in `vl-sim`, `vl-core::protocols` and `vl-metrics`; nothing of
//! the live path runs, so this is the bypass workload for every
//! live-path change.
//!
//! The universe is the paper preset's on purpose — 33 clients, 1 000
//! servers, 68 665 objects — because its lease tables do not fit in
//! cache and the simulator is less than half as fast on it as at smoke
//! scale. The span is 30 days instead of 120: a paper-length grid takes
//! ten seconds, which leaves one sample of each cell in a run, and on a
//! shared machine one sample is mostly the neighbours' load. A quarter
//! of the events lets every cell run several times, and the score is
//! built from each cell's steady time (`harness::STEADY_QUANTILE`).

use crate::harness::{quantile_sorted, steady_low, tail_quantile, Tracer};
use crate::report::{Args, Checks, Report};
use std::time::Instant;
use vl_bench::fig5::{self, Row};
use vl_bench::{secs, TIMEOUT_SWEEP_SECS};
use vl_core::SimulationBuilder;
use vl_workload::{Trace, TraceGenerator, WorkloadConfig};

/// Short metric-name suffix for each Figure 5 line, in `fig5::lines()`
/// order.
pub const LINE_KEYS: [&str; 8] = [
    "poll",
    "callback",
    "lease",
    "self_inval",
    "volume10",
    "volume100",
    "delay10",
    "delay100",
];

/// One line per protocol family, with its index in [`LINE_KEYS`]: the
/// lines timed per event. The `t_v = 10` lines stand for the volume and
/// delay families.
pub const PROTOCOL_LINES: [(&str, usize); 6] = [
    ("poll", 0),
    ("callback", 1),
    ("lease", 2),
    ("self_inval", 3),
    ("volume", 4),
    ("delay", 6),
];

/// Span names of the traced column: the root (the harness's own time),
/// then one per line.
pub const SPAN_NAMES: [&str; 9] = [
    "harness",
    "poll",
    "callback",
    "lease",
    "self_inval",
    "volume10",
    "volume100",
    "delay10",
    "delay100",
];

/// The timeout the per-line probes run at.
const PROBE_T_SECS: u64 = 100_000;

/// The trace for `seed`: the paper preset at a quarter of its span and
/// reads (the write model is a rate, so it scales with the span).
pub fn generate(seed: u64) -> Trace {
    let paper = WorkloadConfig::paper();
    TraceGenerator::new(WorkloadConfig {
        seed,
        days: paper.days / 4.0,
        target_reads: paper.target_reads / 4,
        ..paper
    })
    .generate()
}

/// One simulated cell of the grid with its wall time.
fn run_cell(trace: &Trace, name: &str, t: u64, kind: vl_core::ProtocolKind) -> (Row, u64) {
    let t0 = Instant::now();
    let report = SimulationBuilder::new(kind).run(trace);
    let ns = t0.elapsed().as_nanos() as u64;
    let row = Row {
        line: name.to_owned(),
        t_secs: t,
        messages: report.summary.messages,
        bytes: report.summary.bytes,
        stale_fraction: report.summary.stale_fraction,
    };
    (row, ns)
}

/// What one line of the `t = 10⁵` column cost.
pub struct ColumnCell {
    /// Wall nanoseconds per trace event.
    pub ns_per_event: f64,
    /// Messages the protocol sent over the whole trace (exact).
    pub messages: u64,
}

/// Runs every line once at `t = 10⁵`, one span per line under one root.
pub fn column<T: Tracer>(trace: &Trace, tracer: &mut T) -> Vec<ColumnCell> {
    let events = trace.events().len() as f64;
    let root = tracer.enter(0, 0);
    let cells = fig5::lines()
        .iter()
        .enumerate()
        .map(|(i, (name, kind_of))| {
            let span = tracer.enter(i as u8 + 1, i as u32);
            let (row, ns) = run_cell(trace, name, PROBE_T_SECS, kind_of(secs(PROBE_T_SECS)));
            tracer.exit(span);
            ColumnCell {
                ns_per_event: ns as f64 / events,
                messages: row.messages,
            }
        })
        .collect();
    tracer.exit(root);
    cells
}

/// Compares the rows with the golden file of this seed, when there is
/// one, or rewrites it under `--bless`.
fn check_golden(args: &Args, rows: &[Row], report: &mut Report) {
    let path = args
        .bench_dir
        .join("golden")
        .join(format!("sim_sweep.seed{}.csv", args.seed));
    let csv = fig5::table(rows, "messages").to_csv();
    if args.bless {
        match std::fs::write(&path, &csv) {
            Ok(()) => eprintln!("blessed {}", path.display()),
            Err(e) => report
                .checks
                .fail(format!("cannot write {}: {e}", path.display())),
        }
        return;
    }
    let Ok(golden) = std::fs::read_to_string(&path) else {
        // Seeds without a committed golden file are still held to the
        // sweep-to-sweep and staleness checks.
        report.info("golden_rows_checked", 0.0, "count");
        return;
    };
    let checked = compare_rows(
        &golden,
        &csv,
        &path.display().to_string(),
        &mut report.checks,
    );
    report.info("golden_rows_checked", checked as f64, "count");
}

/// Checks `csv` against `golden` row by row (a missing or extra row is a
/// failed row); returns the rows compared.
fn compare_rows(golden: &str, csv: &str, origin: &str, checks: &mut Checks) -> u64 {
    let (mut want, mut got) = (golden.lines(), csv.lines());
    let mut checked = 0u64;
    loop {
        match (want.next(), got.next()) {
            (None, None) => return checked,
            (w, g) => {
                checked += 1;
                checks.check(w == g, || {
                    format!("{origin}: golden row {w:?}, run produced {g:?}")
                });
            }
        }
    }
}

/// The untraced run: whole grids until the next would overrun the run
/// length. Each cell's time is its steady value over the grids; the
/// score is the grid's events over the sum of those.
pub fn run(args: &Args, trace: &Trace, report: &mut Report) {
    let lines = fig5::lines();
    let grid: Vec<_> = lines
        .iter()
        .flat_map(|(name, kind_of)| {
            TIMEOUT_SWEEP_SECS
                .iter()
                .map(|&t| (*name, t, kind_of(secs(t))))
        })
        .collect();
    let events_per_grid = (trace.events().len() * grid.len()) as f64;
    let budget = args.seconds as f64;
    let started = Instant::now();

    let mut first: Vec<Row> = Vec::new();
    let mut cell_ns: Vec<Vec<f64>> = vec![Vec::new(); grid.len()];
    let mut sweeps = 0u32;
    loop {
        let t0 = Instant::now();
        let mut rows = Vec::with_capacity(grid.len());
        for (samples, &(name, t, kind)) in cell_ns.iter_mut().zip(&grid) {
            let (row, ns) = run_cell(trace, name, t, kind);
            report
                .checks
                .check(row.line == "Poll(t)" || row.stale_fraction == 0.0, || {
                    format!("{} t={} served stale reads", row.line, row.t_secs)
                });
            rows.push(row);
            samples.push(ns as f64);
        }
        sweeps += 1;
        if first.is_empty() {
            first = rows;
        } else {
            for (a, b) in first.iter().zip(&rows) {
                report.checks.check(a == b, || {
                    format!("{} t={} differs between sweeps", a.line, a.t_secs)
                });
            }
        }
        if started.elapsed().as_secs_f64() + t0.elapsed().as_secs_f64() > budget {
            break;
        }
    }
    check_golden(args, &first, report);

    let mut typical: Vec<u64> = cell_ns.iter_mut().map(|s| steady_low(s) as u64).collect();
    let grid_ns: u64 = typical.iter().sum();
    typical.sort_unstable();
    // 56 cells: the quartile is the highest percentile with ten beyond.
    let tail_q = tail_quantile(typical.len(), 0.9);
    report.info("sweeps", f64::from(sweeps), "count");
    report.info("latency_samples", typical.len() as f64, "count");
    report.info("latency_tail_percentile", tail_q * 100.0, "%");
    report.metric(
        "throughput_per_s",
        events_per_grid / (grid_ns as f64 / 1e9),
        "1/s",
    );
    report.info(
        "latency_tail_us",
        quantile_sorted(&typical, tail_q) as f64 / 1e3,
        "us",
    );
    report.metric(
        "latency_p50_us",
        quantile_sorted(&typical, 0.5) as f64 / 1e3,
        "us",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const CSV: &str =
        "line,t_secs,messages,bytes,stale_frac\nPoll(t),10,5,50,0.0000\nCallback,10,7,70,0.0000\n";

    #[test]
    fn a_matching_golden_file_passes() {
        let mut checks = Checks::default();
        assert_eq!(compare_rows(CSV, CSV, "golden", &mut checks), 3);
        assert_eq!((checks.attempted, checks.failed), (3, 0));
    }

    #[test]
    fn one_corrupted_golden_row_fails_the_run() {
        let mut checks = Checks::default();
        compare_rows(
            &CSV.replace("Callback,10,7", "Callback,10,8"),
            CSV,
            "golden",
            &mut checks,
        );
        assert_eq!(checks.failed, 1);
        assert!(
            checks.first[0].contains("Callback,10,8"),
            "{:?}",
            checks.first
        );
    }

    #[test]
    fn a_missing_or_extra_row_fails_the_run() {
        let shorter = CSV.rsplit_once("Callback").unwrap().0;
        for (golden, csv) in [(shorter, CSV), (CSV, shorter)] {
            let mut checks = Checks::default();
            compare_rows(golden, csv, "golden", &mut checks);
            assert_eq!(checks.failed, 1);
        }
    }

    #[test]
    fn same_seed_same_trace() {
        let a = generate(3);
        assert_eq!(a.events(), generate(3).events());
        assert_ne!(a.events(), generate(4).events());
    }
}

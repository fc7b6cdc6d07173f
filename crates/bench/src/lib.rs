//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each experiment is a pure function from a [`vl_workload::Trace`]
//! (or a uniform synthetic workload, for Table 1) to a vector of typed
//! rows. The one binary, `vl-bench` (`src/main.rs`), names every figure,
//! prints the rows as aligned tables, writes them as CSV under
//! `--out DIR`, and times each sweep (the [`SweepStats`] line); with no
//! figure or workload named it regenerates the record in `results/`.
//!
//! | paper artifact | function | figure name |
//! |----------------|----------|-------------|
//! | Table 1 validation | [`table1::run`] | `table1` |
//! | Figure 5 (messages vs t) | [`fig5::run`] | `fig5` |
//! | Figures 6–7 (server state) | [`fig67::run`] | `fig6`, `fig7` |
//! | Figures 8–9 (load bursts) | [`fig89::run`] | `fig8`, `fig9` |
//! | t_v ablation (ours) | [`ablation::volume_timeout_sweep`] | `ablation_tv` |
//! | d ablation (ours) | [`ablation::inactive_discard_sweep`] | `ablation_d` |
//! | §2.4 waiting leases (ours) | [`ablation::waiting_lease_sweep`] | `ablation_wait` |
//! | §4.2 grouping (ours) | [`ablation::grouping_sweep`] | `ablation_grouping` |
//!
//! # Layering
//!
//! The harness sits entirely on the pure layers of DESIGN.md §7
//! (workload → simulator → metrics); the binary adds only argument
//! parsing, table rendering, and the optional `--trace-out` JSONL
//! protocol trace for `vl report` (see [`cli::write_trace`]).

pub mod ablation;
pub mod cli;
pub mod fig5;
pub mod fig67;
pub mod fig89;
pub mod output;
pub mod par;
pub mod table1;
pub mod uniform;

use std::time::Instant;
use vl_core::ProtocolKind;
use vl_types::Duration;
use vl_workload::Trace;

/// The object-timeout sweep used on the x-axis of Figures 5–7
/// (log scale, 10¹..10⁷ seconds).
pub const TIMEOUT_SWEEP_SECS: [u64; 7] = [10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Shorthand used throughout the harness.
pub fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
}

/// `Lease(t)`, `t` in seconds.
pub fn lease(t: u64) -> ProtocolKind {
    ProtocolKind::Lease { timeout: secs(t) }
}

/// `Volume(t_v, t)`, both in seconds.
pub fn volume(tv: u64, t: u64) -> ProtocolKind {
    ProtocolKind::VolumeLease {
        volume_timeout: secs(tv),
        object_timeout: secs(t),
    }
}

/// `Delay(t_v, t, d)`, `t_v` and `t` in seconds.
pub fn delay(tv: u64, t: u64, d: Duration) -> ProtocolKind {
    ProtocolKind::DelayedInvalidation {
        volume_timeout: secs(tv),
        object_timeout: secs(t),
        inactive_discard: d,
    }
}

/// Aggregate throughput of one sweep: how many simulations ran, the
/// trace events they processed in total (the sum of every run's
/// [`vl_core::Report::events_processed`] — each simulation replays the
/// whole trace), and the sweep's wall-clock. `vl-bench` prints this so
/// parallel speedups are visible in every run.
#[derive(Clone, Debug)]
pub struct SweepStats {
    /// Simulations executed.
    pub simulations: usize,
    /// Total trace events processed across all simulations.
    pub events_processed: u64,
    /// Wall-clock time for the whole sweep (trace generation excluded).
    pub elapsed: std::time::Duration,
    /// Worker threads the sweep fanned out over.
    pub threads: usize,
}

impl SweepStats {
    /// The stats of a sweep begun at `started` that replayed `trace`
    /// `simulations` times on `threads` workers.
    pub fn since(
        started: Instant,
        trace: &Trace,
        simulations: usize,
        threads: usize,
    ) -> SweepStats {
        SweepStats {
            simulations,
            events_processed: trace.events().len() as u64 * simulations as u64,
            elapsed: started.elapsed(),
            threads,
        }
    }

    /// One printable summary line, events per second included.
    pub fn summary(&self) -> String {
        let secs = self.elapsed.as_secs_f64();
        let per_sec = if secs > 0.0 {
            self.events_processed as f64 / secs
        } else {
            0.0
        };
        let mut line = format!(
            "{} simulations · {} events · {secs:.3}s wall · {per_sec:.0} events/s · {} thread(s)",
            self.simulations, self.events_processed, self.threads
        );
        if let Some(rss) = peak_rss_bytes() {
            line.push_str(&format!(
                " · {:.1} MiB peak rss",
                rss as f64 / (1 << 20) as f64
            ));
        }
        line
    }
}

/// The process's peak resident set size in bytes (Linux `VmHWM`), or
/// `None` where `/proc` is unavailable. Printed with every sweep so a
/// `--scale` run's memory needs no external profiler.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

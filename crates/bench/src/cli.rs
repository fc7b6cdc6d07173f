//! Minimal argument handling shared by the experiment binaries.
//!
//! Every binary accepts:
//!
//! ```text
//! --preset smoke|medium|paper   workload scale (default: medium;
//!                               `full` is an alias for `paper`)
//! --scale N                     multiply the preset's objects and
//!                               reads by N (10 ≈ a 10x BU-size trace)
//! --seed N                      override the workload seed
//! --csv PATH                    also write the rows as CSV
//! --threads N                   sweep worker threads (default: all
//!                               cores)
//! --trace-out PATH              additionally replay the figure's
//!                               representative configurations with event
//!                               tracing on, writing a JSONL protocol
//!                               trace for `vl report`
//! ```

use std::path::PathBuf;
use std::process::exit;
use vl_core::{ProtocolKind, SimulationBuilder};
use vl_metrics::{JsonlSink, TraceSink};
use vl_workload::{TraceGenerator, WorkloadConfig, WorkloadPreset};

/// Parsed common options.
#[derive(Clone, Debug)]
pub struct CommonArgs {
    /// The selected workload configuration.
    pub config: WorkloadConfig,
    /// Optional CSV output path.
    pub csv: Option<PathBuf>,
    /// Worker threads for parameter sweeps (resolved: `--threads`, then
    /// the machine's available parallelism).
    pub threads: usize,
    /// Optional JSONL protocol-trace output path (`--trace-out`).
    pub trace_out: Option<PathBuf>,
    /// Remaining unrecognized arguments (binary-specific flags).
    pub rest: Vec<String>,
}

/// Parses `std::env::args`, printing usage and exiting on `--help` or a
/// malformed invocation.
pub fn parse(binary: &str, extra_help: &str) -> CommonArgs {
    let mut preset = WorkloadPreset::Medium;
    let mut scale: u32 = 1;
    let mut seed: Option<u64> = None;
    let mut csv: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut rest = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!(
                    "usage: {binary} [--preset smoke|medium|paper|full] [--scale N] [--seed N] [--csv PATH] [--threads N] [--trace-out PATH]{extra_help}"
                );
                exit(0);
            }
            "--preset" => {
                let v = args.next().unwrap_or_default();
                preset = match v.as_str() {
                    "smoke" => WorkloadPreset::Smoke,
                    "medium" => WorkloadPreset::Medium,
                    // "full" reads better in benchmark scripts: the whole
                    // paper-scale workload, nothing held back.
                    "paper" | "full" => WorkloadPreset::Paper,
                    other => {
                        eprintln!("unknown preset '{other}' (want smoke|medium|paper|full)");
                        exit(2);
                    }
                };
            }
            "--scale" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => scale = n,
                _ => {
                    eprintln!("--scale needs a positive integer");
                    exit(2);
                }
            },
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = Some(s),
                None => {
                    eprintln!("--seed needs an integer");
                    exit(2);
                }
            },
            "--csv" => match args.next() {
                Some(p) => csv = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--csv needs a path");
                    exit(2);
                }
            },
            "--threads" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => threads = Some(n),
                _ => {
                    eprintln!("--threads needs a positive integer");
                    exit(2);
                }
            },
            "--trace-out" => match args.next() {
                Some(p) => trace_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--trace-out needs a path");
                    exit(2);
                }
            },
            other => rest.push(other.to_owned()),
        }
    }
    let mut config = WorkloadConfig::preset(preset).scaled(scale);
    if let Some(s) = seed {
        config.seed = s;
    }
    CommonArgs {
        config,
        csv,
        threads: crate::par::thread_count(threads),
        trace_out,
        rest,
    }
}

/// If `--trace-out` was given, replays each protocol in `kinds` over a
/// freshly generated trace for `args.config` with event tracing on,
/// appending every run to one JSONL file (one `{"run":...}` label line
/// per protocol, from the protocol's `Display`).
///
/// The replays run inline, in order, on one thread — tracing is for
/// inspection, not throughput, and this keeps the file byte-identical
/// for any `--threads` value.
pub fn write_trace(args: &CommonArgs, kinds: &[ProtocolKind]) {
    let Some(path) = &args.trace_out else { return };
    let file = match std::fs::File::create(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {}: {e}", path.display());
            exit(1);
        }
    };
    let trace = TraceGenerator::new(args.config.clone()).generate();
    let mut sink: Box<dyn TraceSink> = Box::new(JsonlSink::new(file));
    for &kind in kinds {
        let (_report, s) = SimulationBuilder::new(kind).run_traced(&trace, sink);
        sink = s;
    }
    sink.flush();
    println!(
        "(protocol trace written to {}: {} runs — inspect with `vl report --trace {}`)",
        path.display(),
        kinds.len(),
        path.display()
    );
}

/// Prints a table and optionally writes the CSV, with a standard banner.
pub fn emit(title: &str, table: &crate::output::Table, csv: Option<&PathBuf>) {
    println!("# {title}");
    println!("{}", table.render());
    if let Some(path) = csv {
        match table.write_csv(path) {
            Ok(()) => println!("(csv written to {})", path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
}

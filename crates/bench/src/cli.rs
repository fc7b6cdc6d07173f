//! Argument handling for `vl-bench`: [`USAGE`] is what `--help` prints,
//! and a malformed or unknown argument prints it to stderr and exits 2
//! before any simulation runs.

use std::path::PathBuf;
use std::process::exit;
use vl_core::{ProtocolKind, SimulationBuilder};
use vl_metrics::{JsonlSink, TraceSink};
use vl_workload::{TraceGenerator, WorkloadConfig, WorkloadPreset};

/// The command line `vl-bench` accepts.
pub const USAGE: &str = "\
usage: vl-bench [FIGURE...] [--preset smoke|medium|paper|full] [--scale N] [--seed N]
                [--threads N] [--out DIR] [--trace-out PATH]

  FIGURE            table1 fig5 fig6 fig7 fig8 fig9 ablation_tv ablation_d
                    ablation_wait ablation_grouping (default: every figure)
  --preset P        workload scale (`full` is an alias for `paper`)
  --scale N         multiply the preset's objects and reads by N
  --seed N          override the workload seed
  --threads N       sweep worker threads (default: all cores)
  --out DIR         write each figure's rows to DIR/FIGURE.csv
  --trace-out PATH  also replay each figure's representative configurations
                    with event tracing on, as one JSONL trace for `vl report`

With none of --preset, --scale and --seed, the figures run as the record in
results/ has them: at medium, seed 42 (Table 1 on its own uniform workload),
then Figures 5, 8 and 9 again at paper, written as FIGURE_paper.csv.
`vl-bench --out results` regenerates that record.";

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct CommonArgs {
    /// The figures named on the command line; empty means every figure.
    pub figures: Vec<String>,
    /// The workload: `--preset` (default medium) with `--scale` and
    /// `--seed` applied.
    pub config: WorkloadConfig,
    /// `true` when none of `--preset`, `--scale` and `--seed` was given:
    /// the figures run at the record's presets (see [`USAGE`]).
    pub record: bool,
    /// Directory each figure's CSV is written to (`--out`).
    pub out: Option<PathBuf>,
    /// Worker threads for parameter sweeps (resolved: `--threads`, then
    /// the machine's available parallelism).
    pub threads: usize,
    /// Optional JSONL protocol-trace output path (`--trace-out`).
    pub trace_out: Option<PathBuf>,
}

/// Prints `problem` and [`USAGE`] to stderr and exits 2.
fn usage_error(problem: &str) -> ! {
    eprintln!("{problem}\n\n{USAGE}");
    exit(2);
}

/// Parses `std::env::args`, accepting the names in `figures` as
/// positional arguments. Prints [`USAGE`] and exits 0 on `--help`.
pub fn parse(figures: &[&str]) -> CommonArgs {
    let mut preset = None;
    let mut scale = None;
    let mut seed = None;
    let mut named = Vec::new();
    let mut threads = None;
    let mut out = None;
    let mut trace_out = None;

    let positive = |v: Option<String>, flag: &str| match v.and_then(|s| s.parse::<u32>().ok()) {
        Some(n) if n >= 1 => n,
        _ => usage_error(&format!("{flag} needs a positive integer")),
    };
    let path = |v: Option<String>, flag: &str| {
        PathBuf::from(v.unwrap_or_else(|| usage_error(&format!("{flag} needs a path"))))
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            "--preset" => {
                preset = Some(match args.next().unwrap_or_default().as_str() {
                    "smoke" => WorkloadPreset::Smoke,
                    "medium" => WorkloadPreset::Medium,
                    // "full" reads better in benchmark scripts: the whole
                    // paper-scale workload, nothing held back.
                    "paper" | "full" => WorkloadPreset::Paper,
                    other => usage_error(&format!(
                        "unknown preset '{other}' (want smoke|medium|paper|full)"
                    )),
                });
            }
            "--scale" => scale = Some(positive(args.next(), "--scale")),
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = Some(s),
                None => usage_error("--seed needs an integer"),
            },
            "--threads" => threads = Some(positive(args.next(), "--threads") as usize),
            "--out" => out = Some(path(args.next(), "--out")),
            "--trace-out" => trace_out = Some(path(args.next(), "--trace-out")),
            name if figures.contains(&name) => named.push(arg),
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }
    let record = preset.is_none() && scale.is_none() && seed.is_none();
    let mut config =
        WorkloadConfig::preset(preset.unwrap_or(WorkloadPreset::Medium)).scaled(scale.unwrap_or(1));
    if let Some(s) = seed {
        config.seed = s;
    }
    CommonArgs {
        figures: named,
        config,
        record,
        out,
        threads: crate::par::thread_count(threads),
        trace_out,
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
    let file = std::fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {}: {e}", path.display());
        exit(1)
    });
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

/// Prints a table under a standard banner and, given a path, writes it
/// as CSV there; exits 1 if the file cannot be written.
pub fn emit(title: &str, table: &crate::output::Table, csv: Option<&PathBuf>) {
    println!("# {title}");
    println!("{}", table.render());
    if let Some(path) = csv {
        match table.write_csv(path) {
            Ok(()) => println!("(csv written to {})", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                exit(1);
            }
        }
    }
}

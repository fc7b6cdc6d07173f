//! `vl-bench`: regenerates the paper's Table 1, Figures 5–9 and the four
//! ablations, by name. `vl-bench --out results` writes the record in
//! `results/`; `vl-bench --help` prints the options ([`cli::USAGE`]).
//!
//! Each figure prints its table, the notes the paper's text compares it
//! with, and its throughput line; every figure run on one workload
//! shares that workload's trace, generated once.

use std::cell::OnceCell;
use vl_analytic::Algorithm;
use vl_bench::output::Table;
use vl_bench::{ablation, cli, delay, fig5, fig67, fig89, lease, secs, table1, volume, SweepStats};
use vl_core::ProtocolKind;
use vl_types::Duration;
use vl_workload::{Trace, TraceGenerator, WorkloadConfig};

/// One workload's traces, each generated on first use.
struct Workload {
    config: WorkloadConfig,
    plain: OnceCell<Trace>,
    bursty: OnceCell<Trace>,
}

impl Workload {
    /// The trace of the configured workload.
    fn plain(&self) -> &Trace {
        self.plain.get_or_init(|| generate(self.config.clone()))
    }

    /// The same workload under Figure 9's bursty co-write model.
    fn bursty(&self) -> &Trace {
        self.bursty
            .get_or_init(|| generate(fig89::bursty(&self.config)))
    }
}

/// Generates the trace of `config`, announcing it.
fn generate(config: WorkloadConfig) -> Trace {
    let bursty = config.writes.burst_mean.map_or("", |_| ", bursty writes");
    println!(
        "## trace: {} clients, {} servers, {} objects, {} reads, seed {}{bursty}\n",
        config.clients, config.servers, config.objects, config.target_reads, config.seed
    );
    TraceGenerator::new(config).generate()
}

/// What one figure run yields: the table `--out` writes, the lines
/// printed under it, and the sweep's throughput.
type Run = (Table, Vec<String>, SweepStats);

/// One figure of the record.
struct Figure {
    /// Its name on the command line and its file name under `--out`.
    name: &'static str,
    title: &'static str,
    run: fn(&Workload, usize) -> Run,
    /// The configurations `--trace-out` replays for it.
    traced: fn() -> Vec<ProtocolKind>,
}

/// The figures the record repeats at the paper preset.
const AT_PAPER: [&str; 3] = ["fig5", "fig8", "fig9"];

/// Figures 8 and 9: the table, then each line's peak 1-second load.
fn bursts(trace: &Trace, threads: usize) -> Run {
    let (curves, stats) = fig89::run(trace, threads);
    let peaks = curves
        .iter()
        .map(|c| format!("peak {:>6} msg/s  {}", c.peak, c.line))
        .collect();
    (fig89::table(&curves), peaks, stats)
}

static FIGURES: [Figure; 10] = [
    Figure {
        name: "table1",
        title: "Table 1 validation — analytic vs simulated read cost",
        run: |_, threads| {
            let (rows, stats) = table1::run(&table1::default_config(), threads);
            let worst = rows
                .iter()
                .filter(|r| r.algorithm != "Callback")
                .map(|r| r.relative_error)
                .fold(0.0f64, f64::max);
            let note = format!("worst relative error (excl. Callback start-up): {worst:.4}");
            (table1::table(&rows), vec![note], stats)
        },
        // The Table 1 algorithms at their analytic parameters, replayed
        // on the figure workload for inspection.
        traced: || Algorithm::ALL.into_iter().map(table1::kind_for).collect(),
    },
    Figure {
        name: "fig5",
        title: "Figure 5 — total messages (and bytes, §5.1) vs object timeout t",
        run: |w, threads| {
            let (rows, stats) = fig5::run(w.plain(), threads);
            let mut notes = vec![
                "# Figure 5, §5.1 byte-traffic variant".to_owned(),
                fig5::table(&rows, "bytes").render(),
            ];
            for bound in [10u64, 100] {
                if let Some((vol, delay)) = fig5::savings_at_bound(&rows, bound) {
                    notes.push(format!(
                        "write-delay bound {bound}s: Volume saves {:.0}%, Delay saves {:.0}% vs Lease({bound})",
                        vol * 100.0,
                        delay * 100.0
                    ));
                }
            }
            notes.push("(paper: 10s bound → 32% / 39%; 100s bound → 30% / 40%)".to_owned());
            (fig5::table(&rows, "messages"), notes, stats)
        },
        // One representative t per line family (t = 1000 s, mid-sweep).
        traced: || fig5::lines().iter().map(|(_, k)| k(secs(1000))).collect(),
    },
    Figure {
        name: "fig6",
        title: "Figure 6 — avg state (bytes) at the most popular server vs t",
        run: |w, threads| {
            let (rows, stats) = fig67::run(w.plain(), 1, threads);
            (fig67::table(&rows), Vec::new(), stats)
        },
        traced: || fig67::lines().iter().map(|(_, k)| k(secs(1000))).collect(),
    },
    Figure {
        name: "fig7",
        title: "Figure 7 — avg state (bytes) at the 10th most popular server vs t",
        run: |w, threads| {
            let (rows, stats) = fig67::run(w.plain(), 10, threads);
            (fig67::table(&rows), Vec::new(), stats)
        },
        traced: || fig67::lines().iter().map(|(_, k)| k(secs(1000))).collect(),
    },
    Figure {
        name: "fig8",
        title: "Figure 8 — periods of heavy server load (default workload)",
        run: |w, threads| bursts(w.plain(), threads),
        traced: || fig89::lines().into_iter().map(|(_, k)| k).collect(),
    },
    Figure {
        name: "fig9",
        title: "Figure 9 — periods of heavy server load (bursty-write workload)",
        run: |w, threads| bursts(w.bursty(), threads),
        traced: || fig89::lines().into_iter().map(|(_, k)| k).collect(),
    },
    Figure {
        name: "ablation_tv",
        title: "Ablation — volume lease length t_v (object lease fixed at 1e5 s)",
        run: |w, threads| {
            let tvs = [1, 10, 100, 1_000, 10_000];
            let (rows, stats) = ablation::volume_timeout_sweep(w.plain(), 100_000, &tvs, threads);
            (ablation::tv_table(&rows), Vec::new(), stats)
        },
        traced: || vec![lease(100_000), volume(10, 100_000), volume(1_000, 100_000)],
    },
    Figure {
        name: "ablation_d",
        title: "Ablation — Delay(10, 1e5, d): discard parameter d",
        run: |w, threads| {
            let ds = [Some(600), Some(3_600), Some(86_400), None];
            let (rows, stats) =
                ablation::inactive_discard_sweep(w.plain(), 10, 100_000, &ds, threads);
            (ablation::d_table(&rows), Vec::new(), stats)
        },
        traced: || {
            vec![
                delay(10, 100_000, secs(600)),
                delay(10, 100_000, Duration::MAX),
            ]
        },
    },
    Figure {
        name: "ablation_wait",
        title: "Ablation — Lease(t) vs WaitLease(t): messages vs write blocking",
        run: |w, threads| {
            let ts = [10, 100, 1_000, 10_000, 100_000];
            let (rows, stats) = ablation::waiting_lease_sweep(w.plain(), &ts, threads);
            (ablation::wait_table(&rows), Vec::new(), stats)
        },
        traced: || {
            vec![
                lease(1_000),
                ProtocolKind::WaitingLease {
                    timeout: secs(1_000),
                },
            ]
        },
    },
    Figure {
        name: "ablation_grouping",
        title: "Ablation — volume shards per server (t_v=10, t=1e5)",
        run: |w, threads| {
            let vps = [1, 2, 4, 8, 16];
            let (rows, stats) = ablation::grouping_sweep(w.plain(), 10, 100_000, &vps, threads);
            (ablation::grouping_table(&rows), Vec::new(), stats)
        },
        traced: || vec![volume(10, 100_000)],
    },
];

fn main() {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    let args = cli::parse(&names);
    let mut runs = vec![(args.config.clone(), "")];
    if args.record {
        runs.push((WorkloadConfig::paper(), "_paper"));
    }

    let mut traced = Vec::new();
    for (config, suffix) in runs {
        let workload = Workload {
            config,
            plain: OnceCell::new(),
            bursty: OnceCell::new(),
        };
        let chosen = |f: &&Figure| {
            (args.figures.is_empty() || args.figures.iter().any(|n| n == f.name))
                && (suffix.is_empty() || AT_PAPER.contains(&f.name))
        };
        for figure in FIGURES.iter().filter(chosen) {
            let (table, notes, stats) = (figure.run)(&workload, args.threads);
            let csv = args
                .out
                .as_ref()
                .map(|dir| dir.join(format!("{}{suffix}.csv", figure.name)));
            cli::emit(figure.title, &table, csv.as_ref());
            for note in notes {
                println!("{note}");
            }
            println!("{}\n", stats.summary());
            if suffix.is_empty() {
                traced.extend((figure.traced)());
            }
        }
    }
    cli::write_trace(&args, &traced);
}

//! The repo benchmark: four workloads, an end-to-end scoreboard and a
//! per-layer ledger. See `benchmark/README.md`; run through
//! `benchmark/run.sh`, which builds this with the root manifest's
//! release profile.
//!
//! ```text
//! vl-benchmark --workload W --seed N --seconds S --trace 0|1
//!              --bench-dir benchmark --out-dir DIR [--bless]
//! ```
//!
//! Prints `<workload> <metric> <value> <unit>` lines and, last, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1`. Exits non-zero when any output check failed or a metric
//! is missing.

mod harness;
mod live;
mod names;
mod probes;
mod report;
mod sim_sweep;
mod wire_scale;

use harness::{median, proc_status_mib, steady_low, NoTrace, SpanLog};
use report::{Args, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: harness::CountingAlloc = harness::CountingAlloc;

fn usage() -> ! {
    eprintln!(
        "usage: vl-benchmark --workload {} --seed N --seconds S --trace 0|1 \
         --bench-dir DIR --out-dir DIR [--bless]",
        names::WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25,
        trace: false,
        bless: false,
        bench_dir: PathBuf::from("benchmark"),
        out_dir: PathBuf::from("target/benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--bench-dir" => args.bench_dir = PathBuf::from(value()),
            "--out-dir" => args.out_dir = PathBuf::from(value()),
            "--bless" => args.bless = true,
            _ => usage(),
        }
    }
    if !names::WORKLOADS.contains(&args.workload.as_str()) || !(1..=60).contains(&args.seconds) {
        usage();
    }
    args
}

/// Builds the workload's rig `times` times, dropping each before the
/// next is built, and returns the last with the steady build time in
/// seconds: set-up is cheap next to a run, so one sample would be noise.
fn repeat_setup<T, E>(
    times: usize,
    mut build: impl FnMut() -> Result<T, E>,
) -> Result<(T, f64), E> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("times > 0"), steady_low(&mut secs)))
}

/// Times `pass` without spans and with them, `PAIRS` times alternately,
/// and returns the last span log with the tracing overhead: the median
/// traced cost over the median untraced cost, minus one. `pass` returns
/// its cost in seconds (per operation, where passes differ in length).
fn price_tracing(
    names: &'static [&'static str],
    capacity: usize,
    mut pass: impl FnMut(Option<&mut SpanLog>) -> f64,
) -> (SpanLog, f64) {
    const PAIRS: usize = 3;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut log = SpanLog::new(names, capacity);
    for _ in 0..PAIRS {
        plain.push(pass(None));
        log = SpanLog::new(names, capacity);
        traced.push(pass(Some(&mut log)));
    }
    (log, median(&mut traced) / median(&mut plain) - 1.0)
}

/// The tail of every untraced run: memory and set-up.
fn footer(report: &mut Report, setup_s: f64) {
    report.metric(
        "peak_rss_mib",
        proc_status_mib("VmHWM").unwrap_or(f64::NAN),
        "MiB",
    );
    report.metric("setup_s", setup_s, "s");
}

/// The tail of every traced run: writes the span file, reports each span
/// name's share under `share.<name>` (or `share.line.<name>` for a
/// Figure 5 line; 0 for the names this workload never opens), the cost
/// of tracing, and the workload's own `detail` (0 for what it lacks).
fn finish_traced(
    args: &Args,
    report: &mut Report,
    log: &SpanLog,
    overhead: f64,
    detail: &[(&'static str, f64)],
) {
    let path = args.out_dir.join(format!("trace.{}.jsonl", args.workload));
    if let Err(e) = log.write_jsonl(&path) {
        report
            .checks
            .fail(format!("cannot write {}: {e}", path.display()));
    }
    report.checks.check(log.dropped == 0, || {
        format!("span buffer overflowed by {}", log.dropped)
    });
    let shares = log.shares();
    let share_of = |key: &str| {
        shares
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |(_, s)| *s)
    };
    for key in names::SHARE_KEYS {
        report.metric(format!("share.{key}"), share_of(key), "share");
    }
    for key in sim_sweep::LINE_KEYS {
        report.metric(format!("share.line.{key}"), share_of(key), "share");
    }
    report.metric("trace.overhead_share", overhead, "share");
    report.metric("trace.spans", log.spans().len() as f64, "count");
    for (name, unit) in names::DETAIL {
        let v = detail
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0.0, |(_, v)| *v);
        report.metric(name, v, unit);
    }
}

fn run_sim(args: &Args, report: &mut Report) {
    let infallible = |seed| Ok::<_, std::convert::Infallible>(sim_sweep::generate(seed));
    if !args.trace {
        let Ok((trace, setup_s)) = repeat_setup(9, || infallible(args.seed));
        sim_sweep::run(args, &trace, report);
        footer(report, setup_s);
        return;
    }
    let Ok((trace, gen_s)) = repeat_setup(1, || infallible(args.seed));
    let mut column: Vec<sim_sweep::ColumnCell> = Vec::new();
    let (log, overhead) = price_tracing(&sim_sweep::SPAN_NAMES, 16, |log| {
        let t0 = Instant::now();
        let cells = match log {
            Some(log) => sim_sweep::column(&trace, log),
            None => sim_sweep::column(&trace, &mut NoTrace),
        };
        let secs = t0.elapsed().as_secs_f64();
        for (a, b) in column.iter().zip(&cells) {
            report.checks.check(a.messages == b.messages, || {
                "the column's output differs between passes".into()
            });
        }
        column = cells;
        secs
    });
    // Eight cells have no percentiles; the slowest stands in for the tail.
    let slowest_us = column.iter().map(|c| c.ns_per_event).fold(0.0, f64::max)
        * trace.events().len() as f64
        / 1e3;
    finish_traced(
        args,
        report,
        &log,
        overhead,
        &[("latency_tail_us", slowest_us)],
    );
    probes::run_all(args.seed, &trace, gen_s, &column, report);
}

/// The paper trace and its `t = 10⁵` column, for the probes of the
/// workloads that do not otherwise simulate.
fn probes_with_fresh_trace(args: &Args, report: &mut Report) {
    let t0 = Instant::now();
    let trace = sim_sweep::generate(args.seed);
    let gen_s = t0.elapsed().as_secs_f64();
    let column = sim_sweep::column(&trace, &mut NoTrace);
    probes::run_all(args.seed, &trace, gen_s, &column, report);
}

fn run_live(args: &Args, report: &mut Report) {
    let write = args.workload == "live_write";
    let times = if args.trace { 1 } else { 15 };
    let (mut rig, setup_s) = match repeat_setup(times, || live::LiveRig::setup(args.seed)) {
        Ok(ok) => ok,
        Err(e) => {
            report.checks.fail(format!("set-up failed: {e}"));
            return;
        }
    };
    if !args.trace {
        if write {
            live::run_write(args, &mut rig, report);
        } else {
            live::run_renew(args, &mut rig, report);
        }
        report.checks.merge(std::mem::take(&mut rig.checks));
        drop(rig);
        footer(report, setup_s);
        return;
    }

    let short = (args.seconds / 4).max(1);
    let detail = if write {
        live::write_phase(&mut rig, short, report).detail
    } else {
        let (open, _) = live::renew_open_loop(&mut rig, short);
        open.map(|lat| ("latency_tail_us", lat.tail_ns / 1e3))
            .into_iter()
            .collect()
    };
    let spec = live::span_spec(write);
    let (log, overhead) = price_tracing(&live::SPAN_NAMES, 1 << 20, |log| {
        let res = match log {
            Some(log) => rig.phase_traced(spec, log),
            None => rig.phase(spec),
        };
        res.elapsed.as_secs_f64() / live::span_ops(&res)
    });
    rig.reconcile();
    report.checks.merge(std::mem::take(&mut rig.checks));
    drop(rig);
    finish_traced(args, report, &log, overhead, &detail);
    probes_with_fresh_trace(args, report);
}

fn run_wire(args: &Args, report: &mut Report) {
    let times = if args.trace { 1 } else { 4 };
    let Ok((mut rig, setup_s)) = repeat_setup(times, || {
        Ok::<_, std::convert::Infallible>(wire_scale::WireRig::setup(args.seed))
    });
    if !args.trace {
        wire_scale::run(args, &mut rig, report);
        report.checks.merge(std::mem::take(&mut rig.checks));
        drop(rig);
        footer(report, setup_s);
        return;
    }
    let quarter = std::time::Duration::from_secs(args.seconds).div_f64(4.0);
    let t0 = Instant::now();
    let commits = rig.write_phase(&mut NoTrace, |_| t0.elapsed() >= quarter);
    let writes_per_s = commits.len() as f64 / t0.elapsed().as_secs_f64();
    let mut all = [commits.iter().map(|&(_, ns)| ns).collect::<Vec<u64>>()];
    let tail_us = harness::summarize_slices(&mut all, 0.9).map_or(0.0, |l| l.tail_ns / 1e3);
    let (log, overhead) = price_tracing(&wire_scale::SPAN_NAMES, 1 << 20, |log| match log {
        Some(log) => wire_scale::span_pass(&mut rig, log).as_secs_f64(),
        None => wire_scale::span_pass(&mut rig, &mut NoTrace).as_secs_f64(),
    });
    rig.reconcile();
    report.checks.merge(std::mem::take(&mut rig.checks));
    drop(rig);
    let detail = [
        ("latency_tail_us", tail_us),
        ("wire_scale.writes_per_s", writes_per_s),
    ];
    finish_traced(args, report, &log, overhead, &detail);
    probes_with_fresh_trace(args, report);
}

/// Holds the printed metrics to the registry: every name once, with its
/// unit, and a finite value.
fn check_names(args: &Args, report: &mut Report) {
    let expected: Vec<(String, &str)> = if args.trace {
        names::per_layer()
    } else {
        names::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u))
            .collect()
    };
    for (name, unit) in &expected {
        let found: Vec<_> = report.metrics.iter().filter(|m| m.name == *name).collect();
        let ok = found.len() == 1 && found[0].unit == *unit && found[0].value.is_finite();
        if !ok {
            report.checks.fail(format!(
                "metric {name} [{unit}] missing, repeated or not finite"
            ));
        }
    }
    let extra: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| !expected.iter().any(|(n, _)| *n == m.name))
        .map(|m| m.name.clone())
        .collect();
    for name in extra {
        report
            .checks
            .fail(format!("metric {name} is not in the registry"));
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut report = Report::default();
    match args.workload.as_str() {
        "sim_sweep" => run_sim(&args, &mut report),
        "live_renew" | "live_write" => run_live(&args, &mut report),
        _ => run_wire(&args, &mut report),
    }
    check_names(&args, &mut report);

    let w = &args.workload;
    for m in report.info.iter().chain(&report.metrics) {
        println!("{w} {} {} {}", m.name, m.value, m.unit);
    }
    let checks = &report.checks;
    for f in &checks.first {
        eprintln!("{w} FAILED: {f}");
    }
    let correct = checks.failed == 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| m.value.is_finite())
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Cross-crate integration: the qualitative claims of §5 checked
//! end-to-end on the smoke workload, the BU-parser → write-model →
//! simulation pipeline, and — reading the committed `results/*.csv`
//! that `vl-bench --out results` writes, with no simulation — every
//! shape sentence EXPERIMENTS.md states about them, one test each.

use std::collections::BTreeMap;
use vl_bench::{fig5, secs};
use vl_core::{ProtocolKind, SimulationBuilder};
use vl_types::Duration;
use vl_workload::{bu, Trace, TraceGenerator, WorkloadConfig, WriteModel, WriteModelConfig};

fn messages(trace: &Trace, kind: ProtocolKind) -> u64 {
    SimulationBuilder::new(kind).run(trace).summary.messages
}

fn smoke() -> Trace {
    TraceGenerator::new(WorkloadConfig::smoke()).generate()
}

/// §5.1's headline: with the write-delay bound fixed at t_v, the volume
/// algorithms beat the object-lease algorithm that must set t = t_v.
#[test]
fn volume_algorithms_beat_bounded_lease() {
    let trace = smoke();
    let bound = 10;
    let lease = messages(
        &trace,
        ProtocolKind::Lease {
            timeout: secs(bound),
        },
    );
    // The volume algorithms may stretch the object lease arbitrarily.
    let volume = (2..=6)
        .map(|p| {
            messages(
                &trace,
                ProtocolKind::VolumeLease {
                    volume_timeout: secs(bound),
                    object_timeout: secs(10u64.pow(p)),
                },
            )
        })
        .min()
        .unwrap();
    let delay = (2..=6)
        .map(|p| {
            messages(
                &trace,
                ProtocolKind::DelayedInvalidation {
                    volume_timeout: secs(bound),
                    object_timeout: secs(10u64.pow(p)),
                    inactive_discard: Duration::MAX,
                },
            )
        })
        .min()
        .unwrap();
    assert!(
        volume < lease,
        "Volume({bound}, best t) = {volume} must beat Lease({bound}) = {lease}"
    );
    assert!(
        delay <= volume,
        "Delay must beat basic volume leases: {delay} vs {volume}"
    );
    let savings = 1.0 - delay as f64 / lease as f64;
    assert!(
        savings > 0.15,
        "paper reports ≈39% message savings; got {:.0}%",
        savings * 100.0
    );
}

/// The Lease/Volume curves dip with growing t, then invalidations push
/// back (the U-ish shape of Figure 5); Delay declines monotonically-ish.
#[test]
fn figure5_shape_holds() {
    let trace = smoke();
    let sweep = [10u64, 1_000, 100_000];
    let lease: Vec<u64> = sweep
        .iter()
        .map(|&t| messages(&trace, ProtocolKind::Lease { timeout: secs(t) }))
        .collect();
    assert!(
        lease[0] > lease[1],
        "renewals dominate at small t: {lease:?}"
    );

    let delay: Vec<u64> = sweep
        .iter()
        .map(|&t| {
            messages(
                &trace,
                ProtocolKind::DelayedInvalidation {
                    volume_timeout: secs(10),
                    object_timeout: secs(t),
                    inactive_discard: Duration::MAX,
                },
            )
        })
        .collect();
    assert!(
        delay.windows(2).all(|w| w[0] >= w[1]),
        "Delay sends strictly fewer messages as t grows (§5.1): {delay:?}"
    );
}

/// Poll trades staleness for traffic: longer windows mean fewer messages
/// and more stale reads (the 1%-at-10⁵ / 5%-at-10⁶ effect, in miniature).
#[test]
fn poll_staleness_grows_with_window() {
    let trace = smoke();
    let run = |t: u64| {
        let r = SimulationBuilder::new(ProtocolKind::Poll { timeout: secs(t) }).run(&trace);
        (r.summary.messages, r.summary.stale_fraction)
    };
    let (m_short, s_short) = run(100);
    let (m_long, s_long) = run(100_000);
    assert!(m_long < m_short);
    assert!(s_long > s_short);
    assert!(
        s_long > 0.0,
        "a day-plus window across writes must go stale"
    );
}

/// BU-format text parses into a trace that runs through the write model
/// and every protocol.
#[test]
fn bu_pipeline_end_to_end() {
    // A synthetic log in the BU format: 3 machines, 2 servers, 5 URLs.
    let mut log = String::new();
    for i in 0..200 {
        let machine = ["cs20", "cs21", "cs22"][i % 3];
        let host = ["http://a.edu", "http://b.edu"][i % 2];
        let page = i % 5;
        let ts = 800_000_000.0 + i as f64 * 37.5;
        log.push_str(&format!(
            "{machine} {ts} {i} \"{host}/page{page}.html\" {} 0.2\n",
            1000 + i
        ));
    }
    let parsed = bu::parse_reader(log.as_bytes()).expect("parses");
    assert_eq!(parsed.trace.read_count(), 200);
    assert_eq!(parsed.skipped_lines, 0);

    // Synthesize writes over the parsed universe, as §4.2 does for the
    // real traces (high rates so the short span actually gets writes).
    let mut rank: Vec<vl_types::ObjectId> = (0..parsed.trace.universe().object_count() as u64)
        .map(vl_types::ObjectId)
        .collect();
    rank.sort();
    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(5)
    };
    let model = WriteModel::assign(
        &rank,
        WriteModelConfig {
            rates_per_day: [200.0, 400.0, 300.0, 250.0],
            ..WriteModelConfig::paper()
        },
        &mut rng,
    );
    let days = parsed.trace.span().as_secs_f64() / 86_400.0;
    let writes = model.generate(parsed.trace.universe(), days.max(0.01), &mut rng);
    assert!(!writes.is_empty(), "write synthesis produced nothing");
    let mut events = parsed.trace.events().to_vec();
    events.extend(writes);
    let trace = Trace::new(parsed.trace.universe().clone(), events);

    for kind in [
        ProtocolKind::Callback,
        ProtocolKind::VolumeLease {
            volume_timeout: secs(10),
            object_timeout: secs(10_000),
        },
    ] {
        let report = SimulationBuilder::new(kind).run(&trace);
        assert_eq!(report.summary.stale_reads, 0);
        assert!(report.summary.messages > 0);
    }
}

/// Server state ordering at short timeouts: Lease < Callback (§5.2).
#[test]
fn short_leases_save_server_memory() {
    let trace = smoke();
    let top = trace.servers_by_popularity()[0].0;
    let lease = SimulationBuilder::new(ProtocolKind::Lease { timeout: secs(10) }).run(&trace);
    let callback = SimulationBuilder::new(ProtocolKind::Callback).run(&trace);
    assert!(
        lease.avg_state_bytes(top) < callback.avg_state_bytes(top),
        "lease {} vs callback {}",
        lease.avg_state_bytes(top),
        callback.avg_state_bytes(top)
    );
}

// ---- The record: `results/*.csv`, as `vl-bench --out results` wrote it.

type Row = BTreeMap<String, String>;

/// `results/{name}.csv`, one map from column to cell per row.
fn record(name: &str) -> Vec<Row> {
    let path = format!("{}/results/{name}.csv", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut lines = text.lines().map(cells);
    let header = lines.next().expect("a header line");
    lines
        .map(|row| header.iter().cloned().zip(row).collect())
        .collect()
}

/// Splits one CSV line, undoing `Table::to_csv`'s quoting.
fn cells(line: &str) -> Vec<String> {
    let mut out = vec![String::new()];
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                chars.next();
                out.last_mut().unwrap().push('"');
            }
            '"' => quoted = !quoted,
            ',' if !quoted => out.push(String::new()),
            c => out.last_mut().unwrap().push(c),
        }
    }
    out
}

/// A numeric cell; `+10.1%` reads as 10.1.
fn num(row: &Row, column: &str) -> f64 {
    let cell = &row[column];
    cell.trim_end_matches('%')
        .parse()
        .unwrap_or_else(|_| panic!("{column} = {cell:?} is not a number"))
}

/// Figure 5–7 files: line → t → the `column` value, t ascending.
fn lines_of(name: &str, column: &str) -> BTreeMap<String, BTreeMap<u64, f64>> {
    let mut lines: BTreeMap<String, BTreeMap<u64, f64>> = BTreeMap::new();
    for row in record(name) {
        let t = num(&row, "t_secs") as u64;
        lines
            .entry(row["line"].clone())
            .or_default()
            .insert(t, num(&row, column));
    }
    lines
}

fn ys(line: &BTreeMap<u64, f64>) -> Vec<f64> {
    line.values().copied().collect()
}

/// Figure 5's file as the rows `vl-bench` computed its savings from.
fn fig5_rows(name: &str) -> Vec<fig5::Row> {
    record(name)
        .iter()
        .map(|r| fig5::Row {
            line: r["line"].clone(),
            t_secs: num(r, "t_secs") as u64,
            messages: num(r, "messages") as u64,
            bytes: num(r, "bytes") as u64,
            stale_fraction: num(r, "stale_frac"),
        })
        .collect()
}

/// Figures 8–9 files: each line's peak one-second load.
fn peaks(name: &str) -> BTreeMap<String, f64> {
    let mut peaks: BTreeMap<String, f64> = BTreeMap::new();
    for row in record(name) {
        let peak = peaks.entry(row["line"].clone()).or_default();
        *peak = peak.max(num(&row, "load_msgs_per_sec"));
    }
    peaks
}

/// Table 1: the simulator matches the closed forms exactly where the
/// formula counts every renewal; the two volume rows sit 3.5% under it
/// (a volume renewal rides on an object renewal when both lapse); and
/// Callback's steady-state read cost of 0 shows only start-up fetches.
#[test]
fn record_table1_agrees_with_the_closed_forms() {
    let rows = record("table1");
    assert_eq!(rows.len(), 8, "Table 1's seven rows plus Self-Inval");
    for row in &rows {
        let (analytic, simulated) = (
            num(row, "analytic msgs/read"),
            num(row, "simulated msgs/read"),
        );
        let error = num(row, "rel err");
        match row["algorithm"].as_str() {
            "Callback" => assert!(simulated < 0.01, "callback {simulated}"),
            "Volume Leases" | "Vol. Delay Inval" => {
                assert!(simulated < analytic && error < 0.05, "{row:?}")
            }
            _ => assert_eq!(error, 0.0, "{row:?}"),
        }
    }
}

/// Figure 5, claim 1 (paper preset): Lease(t) and Volume(10, t) fall
/// until t = 10⁶ s — one decade later than the paper's 10⁵ — then rise.
#[test]
fn record_fig5_lease_and_volume_fall_then_rise() {
    let lines = lines_of("fig5_paper", "messages");
    for name in ["Lease(t)", "Volume(10, t)"] {
        let line = &lines[name];
        let (&t_min, &min) = line
            .iter()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("a swept line");
        assert_eq!(t_min, 1_000_000, "{name}: {line:?}");
        assert!(
            ys(line)[..6].windows(2).all(|w| w[0] > w[1]),
            "{name}: {line:?}"
        );
        assert!(line[&10_000_000] > min, "{name} rises after its minimum");
    }
}

/// Figure 5, claims 2–3: Delay and Poll send strictly fewer messages as
/// t grows; Callback is flat in t.
#[test]
fn record_fig5_delay_and_poll_fall_and_callback_is_flat() {
    for name in ["fig5", "fig5_paper"] {
        let lines = lines_of(name, "messages");
        for line in ["Poll(t)", "Delay(10, t, inf)", "Delay(100, t, inf)"] {
            let y = ys(&lines[line]);
            assert!(y.windows(2).all(|w| w[0] > w[1]), "{name} {line}: {y:?}");
        }
        let callback = ys(&lines["Callback"]);
        assert!(
            callback.windows(2).all(|w| w[0] == w[1]),
            "{name}: {callback:?}"
        );
    }
}

/// Figure 5, claim 4 (§5.1's headline): at a fixed write-delay bound
/// both volume algorithms beat Lease(bound), Delay by more, each within
/// 15 points of the paper's saving at both presets.
#[test]
fn record_fig5_savings_match_the_papers_magnitude() {
    let paper = [(10, 0.32, 0.39), (100, 0.30, 0.40)];
    for name in ["fig5", "fig5_paper"] {
        let rows = fig5_rows(name);
        for (bound, paper_volume, paper_delay) in paper {
            let (volume, delay) = fig5::savings_at_bound(&rows, bound).expect("Lease(bound) swept");
            assert!(
                delay > volume && volume > 0.0,
                "{name} {bound}s: {volume} / {delay}"
            );
            assert!(
                (volume - paper_volume).abs() <= 0.15,
                "{name} {bound}s volume {volume}"
            );
            assert!(
                (delay - paper_delay).abs() <= 0.15,
                "{name} {bound}s delay {delay}"
            );
        }
    }
}

/// Figure 5, claim 5: Poll's stale fraction grows with t from 10⁵ s on,
/// staying under the paper's ≈1%, ≈5% and >35% (the synthetic workload
/// re-reads less often than the BU users did).
#[test]
fn record_fig5_poll_staleness_grows_with_t() {
    let stale = &lines_of("fig5_paper", "stale_frac")["Poll(t)"];
    let tail = [stale[&100_000], stale[&1_000_000], stale[&10_000_000]];
    assert!(
        tail[0] > 0.0 && tail.windows(2).all(|w| w[0] < w[1]),
        "{tail:?}"
    );
    assert!(
        tail[0] < 0.01 && tail[1] < 0.05 && tail[2] < 0.35,
        "{tail:?}"
    );
}

/// Figure 5, claim 6: Delay(100, t, ∞) at its best t sends fewer
/// messages than Callback while bounding writes by 100 s.
#[test]
fn record_fig5_delay_100_undercuts_callback() {
    for name in ["fig5", "fig5_paper"] {
        let lines = lines_of(name, "messages");
        let best = ys(&lines["Delay(100, t, inf)"])
            .into_iter()
            .fold(f64::MAX, f64::min);
        assert!(best < lines["Callback"][&10], "{name}: {best}");
    }
}

/// §5.1's byte traffic: against Poll, Delay(10, t, ∞) costs more by
/// messages than by bytes, and under 2% more bytes (medium, t = 10⁵).
#[test]
fn record_byte_traffic_narrows_the_gap_to_poll() {
    let ratio = |column: &str| {
        let lines = lines_of("fig5", column);
        lines["Delay(10, t, inf)"][&100_000] / lines["Poll(t)"][&100_000]
    };
    let (by_messages, by_bytes) = (ratio("messages"), ratio("bytes"));
    assert!(
        by_bytes < by_messages && by_bytes < 1.02,
        "{by_messages} / {by_bytes}"
    );
}

/// Figures 6–7: short leases hold far less state than Callback, and
/// lease state converges to Callback's as t → ∞.
#[test]
fn record_fig67_short_leases_save_state_and_converge_to_callback() {
    for name in ["fig6", "fig7"] {
        let lines = lines_of(name, "avg_state_bytes");
        let (lease, callback) = (&lines["Lease(t)"], lines["Callback"][&10]);
        assert!(lease[&10] * 100.0 < callback, "{name}: {lease:?}");
        assert!(
            (lease[&10_000_000] - callback).abs() <= 0.001 * callback,
            "{name}"
        );
    }
}

/// Figures 6–7: volume leases add little state over object leases,
/// because they are short.
#[test]
fn record_fig67_volume_leases_add_little_state() {
    for name in ["fig6", "fig7"] {
        let lines = lines_of(name, "avg_state_bytes");
        for (t, lease) in &lines["Lease(t)"] {
            let volume = lines["Volume(10, t)"][t];
            assert!(volume >= *lease && volume - lease <= 1.0, "{name} t={t}");
        }
    }
}

/// Figures 6–7: with a short discard (d = 1 h) Delay holds less state at
/// long t than every other line, Callback included.
#[test]
fn record_fig67_a_short_discard_caps_delay_state() {
    for name in ["fig6", "fig7"] {
        let lines = lines_of(name, "avg_state_bytes");
        let capped = lines["Delay(10, t, 1h)"][&10_000_000];
        for (line, ys) in &lines {
            if line != "Delay(10, t, 1h)" {
                assert!(capped * 3.0 < ys[&10_000_000], "{name}: {line}");
            }
        }
    }
}

/// Figure 7 repeats Figure 6's shape at the 10th most popular server,
/// several times smaller.
#[test]
fn record_fig7_is_several_times_smaller_than_fig6() {
    let (fig6, fig7) = (
        lines_of("fig6", "avg_state_bytes"),
        lines_of("fig7", "avg_state_bytes"),
    );
    assert!(fig7["Callback"][&10] * 3.0 < fig6["Callback"][&10]);
}

/// Figures 8–9: invalidation bursts (Callback, Volume with long leases)
/// peak above the short-timeout renewal bursts (Poll, Lease) on this
/// workload, and Callback's peak is about two messages per client (33).
#[test]
fn record_fig89_invalidation_bursts_outpeak_renewal_bursts() {
    for name in ["fig8", "fig9", "fig8_paper", "fig9_paper"] {
        let p = peaks(name);
        let renewal = p["Poll(100)"].max(p["Lease(100)"]);
        assert!(
            p["Callback"] > renewal && p["Volume(10, 1e6)"] > renewal,
            "{name}: {p:?}"
        );
    }
    for name in ["fig8", "fig8_paper"] {
        let callback = peaks(name)["Callback"];
        assert!(
            (1.5 * 33.0..=2.5 * 33.0).contains(&callback),
            "{name}: {callback}"
        );
    }
}

/// Figure 9: bursty writes raise the Callback and Volume peaks by half
/// or more, while Delay's barely moves.
#[test]
fn record_fig9_bursty_writes_raise_invalidation_peaks_only() {
    for (plain, bursty) in [("fig8", "fig9"), ("fig8_paper", "fig9_paper")] {
        let (before, after) = (peaks(plain), peaks(bursty));
        for line in ["Callback", "Volume(10, 1e6)"] {
            assert!(after[line] >= 1.5 * before[line], "{bursty} {line}");
        }
        let delay = "Delay(10, 1e6, inf)";
        assert!(
            (after[delay] - before[delay]).abs() <= 2.0,
            "{bursty}: {after:?}"
        );
    }
}

/// Figures 8–9: Delay flattens both kinds of burst — its peak stays
/// within a quarter of the renewal group's and under a quarter of
/// Volume's.
#[test]
fn record_fig89_delay_flattens_both_kinds_of_burst() {
    for name in ["fig8", "fig9", "fig8_paper", "fig9_paper"] {
        let p = peaks(name);
        let delay = p["Delay(10, 1e6, inf)"];
        assert!(delay <= 1.25 * p["Lease(100)"], "{name}: {p:?}");
        assert!(delay * 4.0 < p["Volume(10, 1e6)"], "{name}: {p:?}");
    }
}

/// t_v ablation (§3.1.3): overhead over Lease(10⁵) falls as t_v grows;
/// a 10 s volume lease costs about 10% extra traffic.
#[test]
fn record_ablation_tv_short_volume_leases_are_cheap() {
    let rows = record("ablation_tv");
    let overhead: Vec<f64> = rows.iter().map(|r| num(r, "overhead_vs_lease")).collect();
    assert!(overhead.windows(2).all(|w| w[0] > w[1]), "{overhead:?}");
    let at_10 = rows
        .iter()
        .find(|r| r["tv_secs"] == "10")
        .expect("t_v = 10 swept");
    assert!((5.0..15.0).contains(&num(at_10, "overhead_vs_lease")));
}

/// d ablation: reconnections barely move total traffic (d = 600 s sends
/// within 5% of d = ∞'s messages), and at t = 10⁵ the leases re-granted
/// at reconnection outweigh the discarded queues in busiest-server state.
#[test]
fn record_ablation_d_reconnections_pay_for_themselves() {
    let rows = record("ablation_d");
    let (short, inf) = (&rows[0], rows.last().expect("d = ∞ swept"));
    assert_eq!(
        (short["d_secs"].as_str(), inf["d_secs"].as_str()),
        ("600", "inf")
    );
    assert_eq!(num(inf, "reconnections"), 0.0);
    assert!(num(short, "reconnections") > 0.0);
    assert!((num(short, "messages") / num(inf, "messages") - 1.0).abs() < 0.05);
    assert!(num(short, "busiest_state_bytes") > num(inf, "busiest_state_bytes"));
}

/// §2.4's waiting leases: never messaging on writes saves under 2% of
/// traffic while writes block for hours at long t.
#[test]
fn record_ablation_wait_saves_little_and_blocks_writes_for_hours() {
    for row in record("ablation_wait") {
        let (lease, wait) = (num(&row, "lease_msgs"), num(&row, "wait_msgs"));
        assert!(wait <= lease && wait >= 0.98 * lease, "{row:?}");
        if num(&row, "t_secs") >= 10_000.0 {
            assert!(num(&row, "wait_max_delay_s") > 3_600.0, "{row:?}");
        }
    }
}

/// Grouping ablation (§4.2's future work): finer volumes cost more
/// messages under both algorithms — about 12% at 16 shards — so one
/// volume per server is the cheapest grouping.
#[test]
fn record_ablation_grouping_one_volume_per_server_is_cheapest() {
    let rows = record("ablation_grouping");
    for column in ["volume_msgs", "delay_msgs"] {
        let msgs: Vec<f64> = rows.iter().map(|r| num(r, column)).collect();
        assert!(msgs.windows(2).all(|w| w[0] < w[1]), "{column}: {msgs:?}");
        let finest = msgs[msgs.len() - 1] / msgs[0];
        assert!((1.08..1.2).contains(&finest), "{column}: {finest}");
    }
}

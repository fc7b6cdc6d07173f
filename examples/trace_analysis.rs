//! Replay a BU-format browser trace (or the embedded sample) and report
//! what each consistency algorithm would have cost.
//!
//! ```text
//! cargo run --release --example trace_analysis [path/to/bu.trace]
//! ```
//!
//! With a path argument the file is parsed as the Boston University
//! trace format (Cunha et al. 1995); without one, an embedded synthetic
//! sample in the same format is used. Writes are synthesized with the
//! paper's §4.2 mutability model, scaled to the trace's span.

use rand::SeedableRng;
use volume_leases::core::{ProtocolKind, SimulationBuilder};
use volume_leases::types::{Duration, ObjectId};
use volume_leases::workload::{bu, Trace, WriteModel, WriteModelConfig};

/// A tiny trace in BU format: 3 workstations browsing 2 sites.
fn embedded_sample() -> String {
    let mut log = String::new();
    let sites = ["http://cs-www.bu.edu", "http://www.ncsa.uiuc.edu"];
    for i in 0..600usize {
        let machine = ["cs20", "cs21", "cs22"][i % 3];
        let site = sites[(i / 7) % 2];
        let page = (i * 13 % 17) % 9;
        let ts = 791_131_220.0 + (i as f64) * 97.3;
        log.push_str(&format!(
            "{machine} {ts:.3} {} \"{site}/page{page}.html\" {} {:.2}\n",
            300 + i % 40,
            800 + (i * 37) % 9000,
            0.1 + (i % 10) as f64 / 20.0
        ));
    }
    log
}

fn main() {
    let parsed = match std::env::args().nth(1) {
        Some(path) => {
            let file = std::fs::File::open(&path).expect("open trace file");
            bu::parse_reader(std::io::BufReader::new(file)).expect("parse BU trace")
        }
        None => bu::parse_reader(embedded_sample().as_bytes()).expect("embedded sample parses"),
    };
    println!(
        "parsed {} reads from {} clients, {} servers, {} URLs ({} lines skipped)",
        parsed.trace.read_count(),
        parsed.clients.len(),
        parsed.servers.len(),
        parsed.urls.len(),
        parsed.skipped_lines
    );

    // Synthesize writes, scaling rates so a short trace still sees a
    // plausible number of updates.
    let days = (parsed.trace.span().as_secs_f64() / 86_400.0).max(0.001);
    let universe = parsed.trace.universe().clone();
    // Aim for roughly one write per ten reads, whatever the trace span:
    // the paper's absolute rates assume multi-month traces.
    let base_expected = universe.object_count() as f64 * 0.0269 * days;
    let scale = ((parsed.trace.read_count() as f64 / 10.0) / base_expected).clamp(1.0, 1e6);
    let mut rank: Vec<ObjectId> = universe.objects().map(|o| o.id).collect();
    // Rank by observed read counts.
    let mut counts = vec![0u64; universe.object_count()];
    for e in parsed.trace.events() {
        counts[e.object().raw() as usize] += 1;
    }
    rank.sort_by_key(|o| std::cmp::Reverse(counts[o.raw() as usize]));

    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let base = WriteModelConfig::paper();
    let model = WriteModel::assign(
        &rank,
        WriteModelConfig {
            rates_per_day: base.rates_per_day.map(|r| r * scale),
            ..base
        },
        &mut rng,
    );
    let writes = model.generate(&universe, days, &mut rng);
    println!(
        "synthesized {} writes over {days:.4} days (rate scale ×{scale:.0})\n",
        writes.len()
    );

    let mut events = parsed.trace.events().to_vec();
    events.extend(writes);
    let trace = Trace::new(universe, events);

    let tv = Duration::from_secs(10);
    let t = Duration::from_secs(10_000);
    println!(
        "{:<24} {:>9} {:>12} {:>9}",
        "algorithm", "messages", "bytes", "stale %"
    );
    for kind in [
        ProtocolKind::Poll { timeout: t },
        ProtocolKind::Callback,
        ProtocolKind::Lease { timeout: t },
        ProtocolKind::VolumeLease {
            volume_timeout: tv,
            object_timeout: t,
        },
        ProtocolKind::DelayedInvalidation {
            volume_timeout: tv,
            object_timeout: t,
            inactive_discard: Duration::MAX,
        },
    ] {
        let r = SimulationBuilder::new(kind).run(&trace);
        println!(
            "{:<24} {:>9} {:>12} {:>8.2}%",
            kind.to_string(),
            r.summary.messages,
            r.summary.bytes,
            r.summary.stale_fraction * 100.0
        );
    }
}

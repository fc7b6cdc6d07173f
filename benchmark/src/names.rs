//! The benchmark's vocabulary: every workload and metric name with its
//! unit, in one place. `BENCHMARK.json` must list exactly these (a
//! self-test compares them), and a run must print exactly these (the
//! binary checks before it prints its result).

use crate::probes::MESSAGE_KEYS;
use crate::sim_sweep::{LINE_KEYS, PROTOCOL_LINES};

/// The four workloads.
pub const WORKLOADS: [&str; 4] = ["sim_sweep", "live_renew", "live_write", "wire_scale"];

/// End-to-end metrics: `(name, unit)`. What each means on each workload
/// is tabulated in `benchmark/README.md`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Span names whose share of a traced pass is reported, over all
/// workloads; a span a workload never opens has share 0 there.
pub const SHARE_KEYS: [&str; 8] = [
    "harness",
    "proto",
    "wire",
    "machine_server",
    "machine_client",
    "gen_encode",
    "sock_write",
    "server_wait",
];

/// What a traced run measures on the workload itself, in a short
/// untraced pass: the tail latency (demoted from the end-to-end list, see
/// README), and the workload-specific detail the generic end-to-end names
/// have no room for, which is 0 on the workloads it does not belong to.
pub const DETAIL: [(&str, &str); 5] = [
    ("latency_tail_us", "us"),
    ("live_write.renew_p50_us", "us"),
    ("live_write.renew_p99_us", "us"),
    ("live_write.refetch_p50_us", "us"),
    ("wire_scale.writes_per_s", "1/s"),
];

/// Per-layer metrics with fixed names.
const PER_LAYER_FIXED: [(&str, &str); 37] = [
    ("workload.gen_s", "s"),
    ("workload.events", "count"),
    ("sim.queue_ns_per_event", "ns"),
    ("metrics.hist_record_ns", "ns"),
    ("types.lease_set_ns", "ns"),
    ("proto.allocs_per_msg", "count"),
    ("wire.ns_per_frame.mtu", "ns"),
    ("wire.ns_per_frame.byte1", "ns"),
    ("wire.mib_per_s.4k", "MiB/s"),
    ("machine.renew_ns", "ns"),
    ("machine.renew_live_ns", "ns"),
    ("machine.grant_ns", "ns"),
    ("machine.write_start_us", "us"),
    ("machine.ack_ns", "ns"),
    ("machine.client_ns", "ns"),
    ("machine.actions_per_input", "count"),
    ("machine.allocs_per_input", "count"),
    ("machine.bytes_per_lease", "B"),
    ("net.echo_msgs_per_s", "1/s"),
    ("net.frames_per_wakeup", "count"),
    ("net.io_events_per_frame", "count"),
    ("net.commands_per_frame_out", "count"),
    ("net.queue_peak", "count"),
    ("net.queue_drops", "count"),
    ("net.backpressure", "count"),
    ("net.connect_us", "us"),
    ("epoll.wake_us", "us"),
    ("server.hop_us", "us"),
    ("server.inmem_msgs_per_s", "1/s"),
    ("server.threads", "count"),
    ("server.msgs_in", "count"),
    ("server.msgs_out", "count"),
    ("server.writes", "count"),
    ("server.residual_ns_per_msg", "ns"),
    ("client.read_hit_ns", "ns"),
    ("client.read_miss_us", "us"),
    ("gen.max_late_us", "us"),
];

/// Every per-layer metric: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_owned(), u))
        .collect();
    for (k, _) in PROTOCOL_LINES {
        all.push((format!("protocols.ns_per_event.{k}"), "ns"));
    }
    for k in LINE_KEYS {
        all.push((format!("protocols.messages.{k}"), "count"));
        all.push((format!("share.line.{k}"), "share"));
    }
    for k in MESSAGE_KEYS {
        all.push((format!("proto.encode_ns.{k}"), "ns"));
        all.push((format!("proto.decode_ns.{k}"), "ns"));
    }
    for k in SHARE_KEYS {
        all.push((format!("share.{k}"), "share"));
    }
    all.push(("trace.overhead_share".to_owned(), "share"));
    all.push(("trace.spans".to_owned(), "count"));
    all.extend(DETAIL.iter().map(|&(n, u)| (n.to_owned(), u)));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The values of every `"name"` key inside the array that follows
    /// `"<section>":` in `json`. Enough of a parser for a file whose
    /// strings hold no brackets or escaped quotes, which the
    /// well-formedness test above guarantees for names.
    fn names_in(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let open = start + json[start..].find('[').expect("array opens");
        let close = open + json[open..].find(']').expect("array closes");
        json[open..close]
            .split("\"name\"")
            .skip(1)
            .map(|rest| {
                let q1 = rest.find('"').expect("value opens");
                let q2 = q1 + 1 + rest[q1 + 1..].find('"').expect("value closes");
                rest[q1 + 1..q2].to_owned()
            })
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<String> = WORKLOADS.iter().map(|s| s.to_string()).collect();
        all.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        all.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &all {
            assert!(well_formed(n), "{n}");
        }
        let count = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count, "a name is used twice");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(names_in(&json, "workloads"), WORKLOADS);
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_in(&json, "per_layer"), layers);
        for (name, unit) in END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u))
            .chain(per_layer())
        {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}

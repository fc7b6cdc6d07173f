//! `vl report` — summarize a JSONL protocol trace.
//!
//! Traces are produced by `--trace-out` on `vl-bench`, `vl sim`,
//! and `vl serve`. A file holds one or more runs, each introduced by a
//! `{"run":"..."}` label line followed by its events; this module folds
//! the events of each run into a compact per-algorithm summary: message
//! mix (count + bytes per wire message kind), read/stale-read counts,
//! write-delay percentiles, invalidation-batch sizes, and the hottest
//! volumes by event count.

use std::collections::BTreeMap;
use std::io::BufRead;
use vl_metrics::trace::{parse_line, TraceLine};
use vl_metrics::{Event, EventKind, Histogram};
use vl_types::Timestamp;

/// Everything `vl report` prints about one run.
#[derive(Clone, Debug, Default)]
pub struct RunSummary {
    /// The run label (the protocol's `Display`, e.g. `Delay(10, 1e5, inf)`).
    pub label: String,
    /// Total events in the run.
    pub events: u64,
    /// Timestamp of the last event.
    pub span: Timestamp,
    /// Per-message-kind `(count, bytes)` from `message` events, keyed by
    /// the wire-protocol message name.
    pub messages: BTreeMap<String, (u64, u64)>,
    /// Reads observed (from `read` events).
    pub reads: u64,
    /// Reads that returned stale data.
    pub stale_reads: u64,
    /// Write delays, milliseconds (from `write_committed` events).
    pub write_delay_ms: Histogram,
    /// Piggybacked-invalidation batch sizes (from `inval_batch` events).
    pub inval_batch: Histogram,
    /// Events per volume, keyed by raw volume id.
    pub volume_events: BTreeMap<u64, u64>,
    /// Transport send-queue depth samples (from `send_queue` events).
    pub queue_depth: Histogram,
    /// Worst send-queue peak depth seen for any peer.
    pub queue_peak: u64,
    /// Latest cumulative overflow-drop count per client (from
    /// `queue_drop` events; the counters are monotonic, so the last
    /// sample per peer is the total).
    pub queue_drops: BTreeMap<u64, u64>,
    /// Latest cumulative kernel-backpressure count per client.
    pub backpressure: BTreeMap<u64, u64>,
    /// Per-shard breakdown of the transport, present only when the
    /// trace came from a sharded server (`vl serve --reactors N`,
    /// N > 1). The shard tag is a reporting *dimension*: every
    /// shard-annotated event also folds into the run-wide totals
    /// above, so a sharded trace and a single-reactor trace of the
    /// same workload summarize identically outside this map.
    pub shards: BTreeMap<u32, ShardSummary>,
    /// Per-server breakdown, keyed by raw server id. Like the shard
    /// tag, the server is a *dimension*: every event also folds into
    /// the run-wide totals, and the section renders only when the
    /// trace interleaves more than one server (a multi-server run
    /// concatenates each server's `--trace-out` file).
    pub servers: BTreeMap<u32, ServerSummary>,
}

/// One server's slice of a multi-server run (see [`RunSummary::servers`]).
#[derive(Clone, Debug, Default)]
pub struct ServerSummary {
    /// Events attributed to this server.
    pub events: u64,
    /// `(count, bytes)` over this server's `message` events.
    pub messages: (u64, u64),
    /// Reads served by this server.
    pub reads: u64,
    /// Stale reads among them.
    pub stale_reads: u64,
    /// Write delays committed on this server, milliseconds.
    pub write_delay_ms: Histogram,
    /// Distinct volumes this server's events touched.
    pub volumes: std::collections::BTreeSet<u64>,
}

/// One shard's slice of the transport section (see [`RunSummary::shards`]).
#[derive(Clone, Debug, Default)]
pub struct ShardSummary {
    /// Send-queue depth samples for peers owned by this shard.
    pub queue_depth: Histogram,
    /// Worst send-queue peak for any peer on this shard.
    pub queue_peak: u64,
    /// Latest cumulative overflow drops per client on this shard.
    pub queue_drops: BTreeMap<u64, u64>,
    /// Latest cumulative kernel backpressure per client on this shard.
    pub backpressure: BTreeMap<u64, u64>,
    /// Latest cumulative inbound frame count (from `shard_sample`) —
    /// the shard's share of renewal throughput.
    pub frames_in: u64,
    /// Latest live connection count (from `shard_sample`).
    pub connected: u64,
}

impl RunSummary {
    fn fold(&mut self, ev: &Event) {
        self.events += 1;
        self.span = self.span.max(ev.at);
        let srv = self.servers.entry(ev.server.raw()).or_default();
        srv.events += 1;
        if let Some(v) = ev.volume {
            *self.volume_events.entry(u64::from(v.raw())).or_insert(0) += 1;
            srv.volumes.insert(u64::from(v.raw()));
        }
        match ev.kind {
            EventKind::Message => {
                srv.messages.0 += 1;
                srv.messages.1 += ev.value;
                let name = ev.msg.map_or("?", |m| m.name());
                let e = self.messages.entry(name.to_owned()).or_insert((0, 0));
                e.0 += 1;
                e.1 += ev.value;
            }
            EventKind::Read => {
                self.reads += 1;
                // Simulation `read` events carry staleness in `value`;
                // live-driver ones carry remote-vs-local in `extra` and
                // are never stale (leases guarantee it).
                self.stale_reads += ev.value;
                srv.reads += 1;
                srv.stale_reads += ev.value;
            }
            EventKind::WriteCommitted => {
                self.write_delay_ms.record(ev.value);
                srv.write_delay_ms.record(ev.value);
            }
            EventKind::InvalidationBatch => self.inval_batch.record(ev.value),
            EventKind::SendQueue => {
                self.queue_depth.record(ev.value);
                self.queue_peak = self.queue_peak.max(ev.extra);
                if let Some(shard) = ev.shard {
                    let s = self.shards.entry(shard).or_default();
                    s.queue_depth.record(ev.value);
                    s.queue_peak = s.queue_peak.max(ev.extra);
                }
            }
            EventKind::QueueDrop => {
                let client = u64::from(ev.client.raw());
                self.queue_drops.insert(client, ev.value);
                self.backpressure.insert(client, ev.extra);
                if let Some(shard) = ev.shard {
                    let s = self.shards.entry(shard).or_default();
                    s.queue_drops.insert(client, ev.value);
                    s.backpressure.insert(client, ev.extra);
                }
            }
            EventKind::ShardSample => {
                if let Some(shard) = ev.shard {
                    let s = self.shards.entry(shard).or_default();
                    // Cumulative gauges: the latest sample supersedes.
                    s.frames_in = ev.value;
                    s.connected = ev.extra;
                }
            }
            _ => {}
        }
    }

    /// The `top` busiest volumes as `(volume id, events)`, descending.
    pub fn hottest_volumes(&self, top: usize) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.volume_events.iter().map(|(&k, &n)| (k, n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(top);
        v
    }
}

/// Parses a JSONL trace into per-run summaries, in file order. Events
/// before the first `{"run":...}` line fall into an unnamed run labelled
/// `"(unlabelled)"` — the live drivers emit no label. Returns the
/// summaries plus the number of unparseable lines skipped.
pub fn summarize(reader: impl BufRead) -> std::io::Result<(Vec<RunSummary>, u64)> {
    let mut runs: Vec<RunSummary> = Vec::new();
    let mut skipped = 0u64;
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(&line) {
            Some(TraceLine::Run(label)) => runs.push(RunSummary {
                label,
                ..RunSummary::default()
            }),
            Some(TraceLine::Event(ev)) => {
                if runs.is_empty() {
                    runs.push(RunSummary {
                        label: "(unlabelled)".to_owned(),
                        ..RunSummary::default()
                    });
                }
                runs.last_mut().expect("non-empty").fold(&ev);
            }
            None => skipped += 1,
        }
    }
    Ok((runs, skipped))
}

/// Renders one summary in the `vl report` output format.
pub fn render(s: &RunSummary, top: usize) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "run: {}", s.label);
    let _ = writeln!(
        out,
        "  events: {} over {:.1}s of protocol time",
        s.events,
        s.span.as_secs_f64()
    );
    if !s.messages.is_empty() {
        let _ = writeln!(out, "  message mix:");
        let (mut tc, mut tb) = (0u64, 0u64);
        for (name, &(count, bytes)) in &s.messages {
            let _ = writeln!(out, "    {name:<18} {count:>10} msgs {bytes:>12} bytes");
            tc += count;
            tb += bytes;
        }
        let _ = writeln!(out, "    {:<18} {tc:>10} msgs {tb:>12} bytes", "total");
    }
    let _ = writeln!(out, "  reads: {} ({} stale)", s.reads, s.stale_reads);
    if !s.write_delay_ms.is_empty() {
        let _ = writeln!(
            out,
            "  write delay (ms): {}",
            s.write_delay_ms.summary_line()
        );
    }
    if !s.inval_batch.is_empty() {
        let _ = writeln!(
            out,
            "  invalidation batches: {} mean={:.1}",
            s.inval_batch.summary_line(),
            s.inval_batch.mean()
        );
    }
    if !s.queue_depth.is_empty() {
        let drops: u64 = s.queue_drops.values().sum();
        let bp: u64 = s.backpressure.values().sum();
        let _ = writeln!(
            out,
            "  transport queues: depth {} peak={} dropped={drops} backpressure={bp}",
            s.queue_depth.summary_line(),
            s.queue_peak
        );
    }
    if !s.shards.is_empty() {
        let _ = writeln!(out, "  per-shard:");
        for (shard, ss) in &s.shards {
            let drops: u64 = ss.queue_drops.values().sum();
            let bp: u64 = ss.backpressure.values().sum();
            let _ = writeln!(
                out,
                "    shard {shard}: conns={} frames_in={} queue depth {} \
                 peak={} dropped={drops} backpressure={bp}",
                ss.connected,
                ss.frames_in,
                ss.queue_depth.summary_line(),
                ss.queue_peak
            );
        }
    }
    // Only a genuinely multi-server trace gets the breakdown; a
    // single-server run would just repeat the totals above.
    if s.servers.len() > 1 {
        let _ = writeln!(out, "  per-server:");
        for (id, ss) in &s.servers {
            let _ = write!(
                out,
                "    server {id}: events={} msgs={} ({} bytes) reads={} ({} stale) \
                 volumes={}",
                ss.events,
                ss.messages.0,
                ss.messages.1,
                ss.reads,
                ss.stale_reads,
                ss.volumes.len()
            );
            if ss.write_delay_ms.is_empty() {
                let _ = writeln!(out);
            } else {
                let _ = writeln!(
                    out,
                    " write delay (ms) {}",
                    ss.write_delay_ms.summary_line()
                );
            }
        }
    }
    if !s.volume_events.is_empty() {
        let hot: Vec<String> = s
            .hottest_volumes(top)
            .into_iter()
            .map(|(v, n)| format!("v{v} ({n} events)"))
            .collect();
        let _ = writeln!(out, "  hottest volumes: {}", hot.join(", "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn summarize_groups_by_run_and_counts() {
        let jsonl = concat!(
            "{\"run\":\"Lease(100)\"}\n",
            "{\"at_ms\":5,\"kind\":\"message\",\"server\":0,\"client\":1,\"msg\":\"GET\",\"value\":20}\n",
            "{\"at_ms\":6,\"kind\":\"read\",\"server\":0,\"client\":1,\"object\":3}\n",
            "{\"at_ms\":7,\"kind\":\"read\",\"server\":0,\"client\":1,\"object\":3,\"value\":1}\n",
            "{\"at_ms\":9,\"kind\":\"write_committed\",\"server\":0,\"client\":0,\"volume\":2,\"value\":40}\n",
            "garbage line\n",
            "{\"run\":\"Callback\"}\n",
            "{\"at_ms\":8,\"kind\":\"inval_batch\",\"server\":0,\"client\":1,\"volume\":7,\"value\":3}\n",
        );
        let (runs, skipped) = summarize(Cursor::new(jsonl)).unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(runs.len(), 2);
        let lease = &runs[0];
        assert_eq!(lease.label, "Lease(100)");
        assert_eq!(lease.events, 4);
        assert_eq!(lease.reads, 2);
        assert_eq!(lease.stale_reads, 1);
        assert_eq!(lease.messages["GET"], (1, 20));
        assert_eq!(lease.write_delay_ms.max(), 40);
        assert_eq!(lease.volume_events[&2], 1);
        let cb = &runs[1];
        assert_eq!(cb.inval_batch.count(), 1);
        assert_eq!(cb.hottest_volumes(3), vec![(7, 1)]);
        let text = render(lease, 3);
        assert!(text.contains("run: Lease(100)"));
        assert!(text.contains("reads: 2 (1 stale)"));
    }

    #[test]
    fn transport_queue_events_fold_into_a_section() {
        let jsonl = concat!(
            "{\"at_ms\":1,\"kind\":\"send_queue\",\"server\":0,\"client\":1,\"value\":3,\"extra\":10}\n",
            "{\"at_ms\":1,\"kind\":\"queue_drop\",\"server\":0,\"client\":1,\"value\":2,\"extra\":5}\n",
            // Later sample for the same client: cumulative counters
            // supersede, not add.
            "{\"at_ms\":2,\"kind\":\"queue_drop\",\"server\":0,\"client\":1,\"value\":4,\"extra\":6}\n",
            "{\"at_ms\":2,\"kind\":\"queue_drop\",\"server\":0,\"client\":2,\"value\":1,\"extra\":0}\n",
        );
        let (runs, skipped) = summarize(Cursor::new(jsonl)).unwrap();
        assert_eq!(skipped, 0);
        let run = &runs[0];
        assert_eq!(run.queue_depth.count(), 1);
        assert_eq!(run.queue_peak, 10);
        assert_eq!(run.queue_drops.values().sum::<u64>(), 5);
        assert_eq!(run.backpressure.values().sum::<u64>(), 6);
        let text = render(run, 3);
        assert!(text.contains("transport queues:"), "{text}");
        assert!(text.contains("dropped=5 backpressure=6"), "{text}");
    }

    #[test]
    fn shard_annotated_events_break_down_without_changing_totals() {
        // The same transport events, once with the shard dimension
        // (what a `--reactors 4` server emits) and once without (the
        // single-reactor wrapper). The run-wide totals must be
        // identical — the shard tag only *adds* a breakdown.
        let sharded = concat!(
            "{\"at_ms\":1,\"kind\":\"send_queue\",\"server\":0,\"client\":1,\"shard\":0,\"value\":3,\"extra\":10}\n",
            "{\"at_ms\":1,\"kind\":\"send_queue\",\"server\":0,\"client\":2,\"shard\":1,\"value\":5,\"extra\":7}\n",
            "{\"at_ms\":1,\"kind\":\"queue_drop\",\"server\":0,\"client\":1,\"shard\":0,\"value\":2,\"extra\":5}\n",
            "{\"at_ms\":2,\"kind\":\"queue_drop\",\"server\":0,\"client\":1,\"shard\":0,\"value\":4,\"extra\":6}\n",
            "{\"at_ms\":2,\"kind\":\"shard_sample\",\"server\":0,\"client\":0,\"shard\":0,\"value\":100,\"extra\":25}\n",
            "{\"at_ms\":2,\"kind\":\"shard_sample\",\"server\":0,\"client\":0,\"shard\":1,\"value\":80,\"extra\":24}\n",
        );
        let flat = concat!(
            "{\"at_ms\":1,\"kind\":\"send_queue\",\"server\":0,\"client\":1,\"value\":3,\"extra\":10}\n",
            "{\"at_ms\":1,\"kind\":\"send_queue\",\"server\":0,\"client\":2,\"value\":5,\"extra\":7}\n",
            "{\"at_ms\":1,\"kind\":\"queue_drop\",\"server\":0,\"client\":1,\"value\":2,\"extra\":5}\n",
            "{\"at_ms\":2,\"kind\":\"queue_drop\",\"server\":0,\"client\":1,\"value\":4,\"extra\":6}\n",
        );
        let (srun, _) = summarize(Cursor::new(sharded)).unwrap();
        let (frun, _) = summarize(Cursor::new(flat)).unwrap();
        let (srun, frun) = (&srun[0], &frun[0]);

        // Determinism of the totals: same depth samples, same peak,
        // same superseding-cumulative drop/backpressure counts.
        assert_eq!(srun.queue_depth.count(), frun.queue_depth.count());
        assert_eq!(srun.queue_depth.mean(), frun.queue_depth.mean());
        assert_eq!(srun.queue_peak, frun.queue_peak);
        assert_eq!(
            srun.queue_drops.values().sum::<u64>(),
            frun.queue_drops.values().sum::<u64>()
        );
        assert_eq!(
            srun.backpressure.values().sum::<u64>(),
            frun.backpressure.values().sum::<u64>()
        );

        // The sharded run additionally exposes the breakdown.
        assert_eq!(srun.shards.len(), 2);
        assert_eq!(srun.shards[&0].connected, 25);
        assert_eq!(srun.shards[&0].frames_in, 100);
        assert_eq!(srun.shards[&0].queue_drops.values().sum::<u64>(), 4);
        assert_eq!(srun.shards[&1].queue_depth.count(), 1);
        assert!(frun.shards.is_empty());

        let text = render(srun, 3);
        assert!(text.contains("per-shard:"), "{text}");
        assert!(text.contains("shard 0: conns=25 frames_in=100"), "{text}");
        let flat_text = render(frun, 3);
        assert!(!flat_text.contains("per-shard:"), "{flat_text}");
    }

    #[test]
    fn multi_server_traces_break_down_per_server_without_changing_totals() {
        // Two servers' events interleaved, as a concatenation of each
        // server's --trace-out produces. The server is a dimension:
        // run-wide totals are the sums, and the per-server section
        // appears only because two distinct ids are present.
        let multi = concat!(
            "{\"at_ms\":1,\"kind\":\"message\",\"server\":0,\"client\":1,\"volume\":0,\"msg\":\"VOL_LEASE\",\"value\":10}\n",
            "{\"at_ms\":2,\"kind\":\"message\",\"server\":1,\"client\":1,\"volume\":7,\"msg\":\"VOL_LEASE\",\"value\":30}\n",
            "{\"at_ms\":3,\"kind\":\"read\",\"server\":0,\"client\":1,\"object\":3}\n",
            "{\"at_ms\":4,\"kind\":\"read\",\"server\":1,\"client\":2,\"object\":70,\"value\":1}\n",
            "{\"at_ms\":5,\"kind\":\"write_committed\",\"server\":1,\"client\":0,\"volume\":7,\"value\":40}\n",
        );
        let (runs, skipped) = summarize(Cursor::new(multi)).unwrap();
        assert_eq!(skipped, 0);
        let run = &runs[0];
        assert_eq!(run.events, 5);
        assert_eq!(run.reads, 2);
        assert_eq!(run.stale_reads, 1);
        assert_eq!(run.messages["VOL_LEASE"], (2, 40));
        assert_eq!(run.servers.len(), 2);
        let s0 = &run.servers[&0];
        assert_eq!((s0.events, s0.reads, s0.stale_reads), (2, 1, 0));
        assert_eq!(s0.messages, (1, 10));
        let s1 = &run.servers[&1];
        assert_eq!((s1.events, s1.reads, s1.stale_reads), (3, 1, 1));
        assert_eq!(s1.write_delay_ms.max(), 40);
        assert_eq!(s1.volumes.len(), 1);
        let text = render(run, 3);
        assert!(text.contains("per-server:"), "{text}");
        assert!(text.contains("server 1: events=3"), "{text}");

        // A single-server trace keeps today's output shape.
        let single = "{\"at_ms\":1,\"kind\":\"read\",\"server\":0,\"client\":1}\n";
        let (runs, _) = summarize(Cursor::new(single)).unwrap();
        assert!(!render(&runs[0], 3).contains("per-server:"));
    }

    #[test]
    fn events_before_any_label_get_a_placeholder_run() {
        let jsonl = "{\"at_ms\":1,\"kind\":\"read\",\"server\":0,\"client\":1}\n";
        let (runs, skipped) = summarize(Cursor::new(jsonl)).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].label, "(unlabelled)");
        assert_eq!(runs[0].reads, 1);
    }
}

//! The `--trace-out` path must be as deterministic as the rows: for the
//! same workload seed, the JSONL protocol trace is byte-identical no
//! matter how many worker threads the surrounding sweep used (traced
//! replays always run inline, in order, on one thread).

use vl_bench::{cli, fig5, secs};
use vl_core::ProtocolKind;
use vl_workload::{TraceGenerator, WorkloadConfig};

fn traced_kinds() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::Lease {
            timeout: secs(1_000),
        },
        ProtocolKind::VolumeLease {
            volume_timeout: secs(10),
            object_timeout: secs(1_000),
        },
        ProtocolKind::DelayedInvalidation {
            volume_timeout: secs(10),
            object_timeout: secs(1_000),
            inactive_discard: vl_types::Duration::MAX,
        },
        // Finite discard exercises the full delayed-invalidation arc —
        // queued batches, demotions, reconnections — whose grouped
        // deliveries must be as replay-stable as plain sends.
        ProtocolKind::DelayedInvalidation {
            volume_timeout: secs(10),
            object_timeout: secs(1_000),
            inactive_discard: secs(3_600),
        },
    ]
}

fn write_with_threads(threads: usize, tag: &str) -> Vec<u8> {
    let pid = std::process::id();
    let path = std::env::temp_dir().join(format!("vl-trace-det-{pid}-{tag}-{threads}.jsonl"));
    let args = cli::CommonArgs {
        figures: Vec::new(),
        config: WorkloadConfig::smoke(),
        record: false,
        out: None,
        threads,
        trace_out: Some(path.clone()),
    };
    // Run a real parallel sweep first so any cross-thread scheduling
    // noise had its chance to leak into process state.
    let trace = TraceGenerator::new(args.config.clone()).generate();
    let _rows = fig5::run_on(&trace, &[10, 1_000], threads);
    cli::write_trace(&args, &traced_kinds());
    let bytes = std::fs::read(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn jsonl_trace_is_byte_identical_across_thread_counts() {
    let serial = write_with_threads(1, "a");
    assert!(!serial.is_empty());
    let text = String::from_utf8(serial.clone()).expect("trace is utf8");
    assert!(
        text.starts_with("{\"run\":\"Lease(1000)\"}\n"),
        "run label first"
    );
    assert_eq!(
        text.lines().filter(|l| l.starts_with("{\"run\":")).count(),
        4,
        "one label line per traced protocol"
    );
    assert!(
        text.contains("\"inval_batch\""),
        "the delayed-invalidation runs must emit batched deliveries"
    );
    for threads in [2, 8] {
        let parallel = write_with_threads(threads, "b");
        assert_eq!(
            serial, parallel,
            "thread count {threads} changed the trace bytes"
        );
    }
}

#[test]
fn repeated_traced_replays_are_identical() {
    let a = write_with_threads(4, "r1");
    let b = write_with_threads(4, "r2");
    assert_eq!(a, b);
}

//! The parallel sweep executor must be invisible in the results: running
//! a figure's grid on one worker or many must produce exactly the same
//! rows in exactly the same order (the acceptance bar for `--threads`).

use vl_bench::{fig5, fig67, fig89, par, table1};
use vl_workload::{TraceGenerator, WorkloadConfig};

#[test]
fn fig5_rows_identical_across_thread_counts() {
    let trace = TraceGenerator::new(WorkloadConfig::smoke()).generate();
    let timeouts = [10u64, 1_000, 100_000];
    let serial = fig5::run_on(&trace, &timeouts, 1);
    for threads in [2, 4, 8] {
        let parallel = fig5::run_on(&trace, &timeouts, threads);
        assert_eq!(serial, parallel, "thread count {threads} changed the rows");
    }
}

#[test]
fn fig67_rows_identical_across_thread_counts() {
    let trace = TraceGenerator::new(WorkloadConfig::smoke()).generate();
    let serial = fig67::run_on(&trace, 1, &[10, 10_000], 1);
    let parallel = fig67::run_on(&trace, 1, &[10, 10_000], 4);
    assert_eq!(serial, parallel);
}

#[test]
fn fig89_curves_identical_across_thread_counts() {
    let trace = TraceGenerator::new(WorkloadConfig::smoke()).generate();
    let serial = fig89::run(&trace, 1).0;
    let parallel = fig89::run(&trace, 4).0;
    assert_eq!(serial, parallel);
}

#[test]
fn table1_rows_identical_across_thread_counts() {
    let cfg = table1::default_config();
    let serial = table1::run(&cfg, 1).0;
    let parallel = table1::run(&cfg, 4).0;
    assert_eq!(serial, parallel);
}

#[test]
fn executor_handles_more_threads_than_jobs() {
    let items: Vec<u32> = (0..3).collect();
    let out = par::map(&items, 64, |&x| x * x);
    assert_eq!(out, vec![0, 1, 4]);
}

//! Parallel fan-out of independent simulation jobs across OS threads.
//!
//! Every figure and table in the harness is a grid of *independent*
//! `SimulationBuilder::run` calls over one immutable [`vl_workload::Trace`]:
//! (line, parameter) pairs that never observe each other. The executor
//! here runs that grid on a scoped thread pool, sharing the trace by
//! reference (no per-job clone) and collecting results keyed by grid
//! index so output ordering — and therefore every rendered table and
//! CSV — is byte-identical to the serial sweep.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

// Sharing a `&Trace` across worker threads is the whole point; make the
// build fail loudly if `Trace` ever loses `Sync` (e.g. by growing
// interior mutability).
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<vl_workload::Trace>();
};

/// Resolves the worker count: an explicit request (CLI `--threads`)
/// wins, then [`std::thread::available_parallelism`]. Always at least 1.
pub fn thread_count(explicit: Option<usize>) -> usize {
    explicit.filter(|&n| n >= 1).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Runs `jobs` jobs on up to `threads` scoped workers and returns their
/// results in job-index order.
///
/// `job` is called with each index in `0..jobs` exactly once. Workers
/// claim indices from a shared atomic counter, so long and short jobs
/// pack tightly; results land in their index's slot, making the output
/// independent of scheduling. With `threads <= 1` (or a single job) no
/// threads are spawned at all — the jobs run inline, which keeps the
/// serial path allocation-identical to the pre-parallel harness.
pub fn run_indexed<T, F>(jobs: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.max(1).min(jobs);
    if workers <= 1 {
        return (0..jobs).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..jobs).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let out = job(i);
                results.lock().expect("no panics while holding results")[i] = Some(out);
            });
        }
    });
    results
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|r| r.expect("every index claimed exactly once"))
        .collect()
}

/// Convenience wrapper: maps `job` over `items` in parallel, preserving
/// input order.
pub fn map<I, T, F>(items: &[I], threads: usize, job: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    run_indexed(items.len(), threads, |i| job(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        for threads in [1, 2, 4, 7] {
            let out = run_indexed(17, threads, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn several_threads_run_the_jobs() {
        // Each job holds its worker long enough for the others to start,
        // so a sweep that silently ran on one worker is caught.
        let out = run_indexed(8, 4, |i| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            (i, std::thread::current().id())
        });
        let (order, threads): (Vec<_>, std::collections::HashSet<_>) = out.into_iter().unzip();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
        assert!(threads.len() >= 2, "8 jobs ran on {threads:?}");
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<u32> = run_indexed(0, 8, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn map_matches_serial_map() {
        let items = vec!["a", "bb", "ccc"];
        let out = map(&items, 3, |s| s.len());
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn explicit_thread_count_wins() {
        assert_eq!(thread_count(Some(3)), 3);
        assert!(thread_count(None) >= 1);
    }
}

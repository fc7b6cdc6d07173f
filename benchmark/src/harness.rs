//! Measurement plumbing shared by every workload: order statistics,
//! per-second slices, span tracing, an allocation counter and `/proc`
//! readers. Nothing here touches the program under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Allocation counting
// ---------------------------------------------------------------------

thread_local! {
    // Per thread, so the server's threads and the load generator never
    // bounce one cache line between cores; a probe reads its own
    // thread's delta around single-threaded work.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    // Net bytes this thread has allocated and not freed. Only meaningful
    // as a delta around single-threaded work.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread count of allocation calls.
pub struct CountingAlloc;

fn count_alloc(bytes: usize) {
    // `try_with`: an allocation made while a thread tears down must not
    // panic inside the allocator.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    count_bytes(bytes as i64);
}

fn count_bytes(delta: i64) {
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// thread-local integer and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        count_bytes(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls made by the calling thread so far.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes the calling thread has allocated minus bytes it has freed.
pub fn thread_live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

// ---------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------

/// Median of `values` (mean of the two middle elements for an even
/// count). Sorts in place.
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample or
/// has already reported the phase as failed.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The `q`-quantile of an ascending slice: the element of rank
/// `ceil(q * n)`, the same rank rule as `vl_metrics::Histogram` but
/// without its 6.25 % bucket error, a quarter of a bound.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 4] = [0.99, 0.9, 0.75, 0.5];

/// The highest percentile of [`TAIL_LADDER`], no higher than `cap`, that
/// still has at least ten of `n` samples beyond it. Each workload caps
/// it where its sample count is safely above the threshold, so that the
/// reported tail does not change meaning between two runs of slightly
/// different length.
pub fn tail_quantile(n: usize, cap: f64) -> f64 {
    for q in TAIL_LADDER.into_iter().filter(|&q| q <= cap) {
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        if n.saturating_sub(rank) >= 10 {
            return q;
        }
    }
    0.5
}

/// Which of a run's slices speak for it. The machines this runs on are
/// shared: neighbours slow a slice down by anything up to half, never
/// speed it up, and they are busy most of the time, so the median slice
/// is mostly a reading of the neighbours. Measured over eight runs of
/// `live_renew`, the slice median's latency varied by 11 % between runs,
/// the first quartile by 10 %, the 5th percentile by 8 % and the best
/// slice by 3 %. The 5th percentile of times (95th of rates) is the
/// value reported: the best slice when a run has twenty or fewer, the
/// third best of fifty, so that no single lucky slice decides a run.
pub const STEADY_QUANTILE: f64 = 0.05;

fn quantile_f64(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// The steady value of per-slice measurements where lower is better.
pub fn steady_low(values: &mut [f64]) -> f64 {
    quantile_f64(values, STEADY_QUANTILE)
}

/// The steady value of per-slice measurements where higher is better.
pub fn steady_high(values: &mut [f64]) -> f64 {
    quantile_f64(values, 1.0 - STEADY_QUANTILE)
}

/// Median and tail of a latency sample, each taken per slice and then
/// as the steady value over slices, so disturbed slices move neither.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Steady value over slices of the slice median, nanoseconds.
    pub p50_ns: f64,
    /// Steady value over slices of the slice's `tail_q` quantile,
    /// nanoseconds.
    pub tail_ns: f64,
    /// The tail percentile used: the highest one the *smallest* slice
    /// supports.
    pub tail_q: f64,
    /// Samples over all slices.
    pub samples: usize,
    /// Non-empty slices.
    pub slices: usize,
}

/// Summarizes per-slice samples; `None` when every slice is empty.
/// Slices holding less than half the median slice's samples — the one a
/// phase ends in, one the generator sat out — are left out: too few
/// samples would drag the tail percentile down for the whole run.
/// Sorts each slice in place.
pub fn summarize_slices(slices: &mut [Vec<u64>], tail_cap: f64) -> Option<LatencySummary> {
    let mut counts: Vec<f64> = slices
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| s.len() as f64)
        .collect();
    if counts.is_empty() {
        return None;
    }
    let full = (median(&mut counts) / 2.0) as usize;
    let mut kept: Vec<&mut Vec<u64>> = slices
        .iter_mut()
        .filter(|s| !s.is_empty() && s.len() >= full)
        .collect();
    let tail_q = tail_quantile(kept.iter().map(|s| s.len()).min()?, tail_cap);
    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    let mut samples = 0;
    for s in &mut kept {
        s.sort_unstable();
        samples += s.len();
        p50s.push(quantile_sorted(s, 0.5) as f64);
        tails.push(quantile_sorted(s, tail_q) as f64);
    }
    Some(LatencySummary {
        p50_ns: steady_low(&mut p50s),
        tail_ns: steady_low(&mut tails),
        tail_q,
        samples,
        slices: p50s.len(),
    })
}

/// Runs `batch` (which performs `iters` iterations of the work being
/// timed) `reps` times and returns the median nanoseconds per iteration.
pub fn time_per_iter(iters: u64, reps: usize, mut batch: impl FnMut()) -> f64 {
    let mut per = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        batch();
        per.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(&mut per)
}

// ---------------------------------------------------------------------
// Span tracing
// ---------------------------------------------------------------------

/// "No parent" / "span not recorded".
pub const NO_SPAN: u32 = u32::MAX;

/// One recorded interval around a call into a layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index into the log's name table.
    pub name: u8,
    /// Enclosing span, or [`NO_SPAN`] for a root.
    pub parent: u32,
    /// Identifier shared by the spans of one operation.
    pub op: u32,
    /// Nanoseconds since the log was created.
    pub start_ns: u64,
    /// Nanoseconds since the log was created.
    pub end_ns: u64,
}

/// What the workload pumps call around every layer boundary. The
/// untraced runs use [`NoTrace`], which compiles to nothing.
pub trait Tracer {
    /// Opens a span named `name` under the innermost open span.
    fn enter(&mut self, name: u8, op: u32) -> u32;
    /// Closes the span `enter` returned. Spans close innermost first.
    fn exit(&mut self, token: u32);
}

/// The tracer of every untraced run.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn enter(&mut self, _name: u8, _op: u32) -> u32 {
        NO_SPAN
    }
    #[inline(always)]
    fn exit(&mut self, _token: u32) {}
}

/// Spans kept in a preallocated buffer and written out at exit.
pub struct SpanLog {
    origin: Instant,
    names: &'static [&'static str],
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
}

impl SpanLog {
    /// A log with room for `capacity` spans, naming them from `names`.
    pub fn new(names: &'static [&'static str], capacity: usize) -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            names,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The recorded spans, in `enter` order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Share of the summed root-span time spent in each name's own code
    /// (span minus children), in name-table order.
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        let own = self_times(&self.spans);
        let mut per_name = vec![0u64; self.names.len()];
        let mut total = 0u64;
        for (span, own) in self.spans.iter().zip(own) {
            per_name[span.name as usize] += own;
            if span.parent == NO_SPAN {
                total += span.end_ns - span.start_ns;
            }
        }
        let share = |ns: u64| {
            if total == 0 {
                0.0
            } else {
                ns as f64 / total as f64
            }
        };
        self.names
            .iter()
            .copied()
            .zip(per_name.into_iter().map(share))
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                self.names[s.name as usize], s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

impl Tracer for SpanLog {
    fn enter(&mut self, name: u8, op: u32) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_SPAN;
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied().unwrap_or(NO_SPAN),
            op,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, token: u32) {
        if token == NO_SPAN {
            return;
        }
        let now = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(token), "spans close innermost first");
        self.spans[token as usize].end_ns = now;
    }
}

/// Self time of each span: its duration minus the part its children
/// cover. Children of one span never overlap (one thread records them in
/// sequence), so the covered part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_SPAN {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// The `len` bytes object `idx` holds at `version` under `seed`: a header
/// naming the object and version, then seeded noise. Writer, server
/// machine and clients each derive it, so a fetched payload can be
/// checked without sharing state.
pub fn payload(len: usize, seed: u64, idx: usize, version: u64) -> bytes::Bytes {
    use rand::{RngCore, SeedableRng};
    let mut v = vec![0u8; len];
    v[..8].copy_from_slice(&(idx as u64).to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    let mix = seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ version.rotate_left(32);
    rand::rngs::StdRng::seed_from_u64(mix).fill_bytes(&mut v[16..]);
    bytes::Bytes::from(v)
}

// ---------------------------------------------------------------------
// /proc readers
// ---------------------------------------------------------------------

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`) in MiB.
pub fn proc_status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| {
        l.strip_prefix(field)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Threads of this process right now.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

/// Sleeps until `deadline` (no-op when it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// `d` in microseconds.
pub fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The definition the fast paths must agree with: sort, take the
    /// element of rank `ceil(q n)`.
    fn oracle(samples: &[u64], q: f64) -> u64 {
        let mut v = samples.to_vec();
        v.sort_unstable();
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    #[test]
    fn quantiles_match_the_sorted_oracle() {
        let mut rng = StdRng::seed_from_u64(9);
        for n in [1usize, 2, 9, 10, 11, 100, 1000, 1001] {
            let samples: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..1_000_000)).collect();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.5, 0.75, 0.9, 0.99, 1.0] {
                assert_eq!(
                    quantile_sorted(&sorted, q),
                    oracle(&samples, q),
                    "n={n} q={q}"
                );
            }
        }
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // Oracle: count the samples strictly above the chosen rank.
        for n in 1..3000usize {
            let q = tail_quantile(n, 0.99);
            let beyond = |q: f64| n - ((q * n as f64).ceil() as usize).clamp(1, n);
            if n >= 20 {
                assert!(beyond(q) >= 10, "n={n} q={q}");
            }
            for higher in TAIL_LADDER.iter().filter(|&&h| h > q) {
                assert!(beyond(*higher) < 10, "n={n}: {higher} was available");
            }
        }
        assert_eq!(tail_quantile(1000, 0.99), 0.99);
        assert_eq!(tail_quantile(1000, 0.9), 0.9);
        assert_eq!(tail_quantile(999, 0.99), 0.9);
        assert_eq!(tail_quantile(100, 0.99), 0.9);
        assert_eq!(tail_quantile(56, 0.99), 0.75);
    }

    #[test]
    fn slice_summary_ignores_disturbed_slices() {
        let mut slices: Vec<Vec<u64>> = (0..9).map(|_| (100..1100u64).collect()).collect();
        slices.push((0..1000u64).map(|i| 50_000 + i).collect()); // a stalled slice
        slices.push(Vec::new()); // an empty one
        slices.push(vec![1; 30]); // and the sliver a phase ended in
        let s = summarize_slices(&mut slices, 0.99).unwrap();
        assert_eq!(s.slices, 10);
        assert_eq!(s.samples, 10_000);
        assert_eq!(s.tail_q, 0.99);
        assert_eq!(s.p50_ns, 599.0);
        assert_eq!(s.tail_ns, 1089.0);
        assert!(summarize_slices(&mut [Vec::new()], 0.99).is_none());
    }

    fn span(name: u8, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // root 0..100 { a 10..40 { c 15..25 }, b 40..70 (adjacent to a) }
        let spans = [
            span(0, NO_SPAN, 0, 100),
            span(1, 0, 10, 40),
            span(3, 1, 15, 25),
            span(2, 0, 40, 70),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 10, 30]);
        // Self times of a tree sum to its root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn span_log_nests_and_shares_sum_to_one() {
        static NAMES: [&str; 3] = ["root", "inner", "leaf"];
        let mut log = SpanLog::new(&NAMES, 8);
        let r = log.enter(0, 7);
        let i = log.enter(1, 7);
        let l = log.enter(2, 7);
        log.exit(l);
        log.exit(i);
        let i2 = log.enter(1, 7);
        log.exit(i2);
        log.exit(r);
        let s = log.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent, s[3].parent),
            (NO_SPAN, 0, 1, 0)
        );
        assert!(s.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        let total: f64 = log.shares().iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn a_full_span_log_drops_instead_of_growing() {
        static NAMES: [&str; 1] = ["x"];
        let mut log = SpanLog::new(&NAMES, 1);
        let a = log.enter(0, 0);
        let b = log.enter(0, 0);
        assert_eq!(b, NO_SPAN);
        log.exit(b);
        log.exit(a);
        assert_eq!((log.spans().len(), log.dropped), (1, 1));
    }

    #[test]
    fn allocation_counter_sees_this_threads_allocations() {
        let before = thread_allocs();
        let v: Vec<u64> = Vec::with_capacity(32);
        let live = thread_live_bytes();
        std::hint::black_box(&v);
        assert!(thread_allocs() > before);
        drop(v);
        assert_eq!(thread_live_bytes(), live - 32 * 8);
    }
}

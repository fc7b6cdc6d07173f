//! What a run was asked to do and what it found.

use std::path::PathBuf;

/// The driver's arguments plus the two directories run.sh supplies.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measurement time, seconds.
    pub seconds: u64,
    /// Print the per-layer ledger instead of the end-to-end metrics.
    pub trace: bool,
    /// Rewrite the golden file for this seed instead of checking it.
    pub bless: bool,
    /// The `benchmark/` directory (golden files live under it).
    pub bench_dir: PathBuf,
    /// Where span files are written.
    pub out_dir: PathBuf,
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Checks attempted and failed so far, with the first few failures kept
/// for the log. Each thread of a live workload fills its own and the
/// run merges them.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Operations and comparisons whose outcome was checked.
    pub attempted: u64,
    /// Those that failed, were refused, timed out or returned a wrong
    /// result.
    pub failed: u64,
    /// The first failures, for the log.
    pub first: Vec<String>,
}

impl Checks {
    /// Most failure messages kept.
    const KEPT: usize = 12;

    /// Records one checked outcome; `what` is only built on failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first.len() < Checks::KEPT {
                self.first.push(what());
            }
        }
    }

    /// Records an operation that failed.
    pub fn fail(&mut self, what: String) {
        self.check(false, || what);
    }

    /// Folds another thread's checks into this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.first {
            if self.first.len() < Checks::KEPT {
                self.first.push(f);
            }
        }
    }
}

/// Everything a run reports.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Output checks.
    pub checks: Checks,
    /// The metrics of the JSON result line.
    pub metrics: Vec<Metric>,
    /// Context printed for the reader but not part of the result: sample
    /// counts, the tail percentile in use, workload-specific detail.
    pub info: Vec<Metric>,
}

impl Report {
    /// Adds a result metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds a context line.
    pub fn info(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.info.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_and_keep_the_first_failures() {
        let mut c = Checks::default();
        c.check(true, || unreachable!("not built on success"));
        for i in 0..20 {
            c.check(false, || format!("bad {i}"));
        }
        assert_eq!((c.attempted, c.failed), (21, 20));
        assert_eq!(c.first.len(), Checks::KEPT);
        let mut d = Checks::default();
        d.check(false, || "other".into());
        d.merge(c);
        assert_eq!(
            (d.attempted, d.failed, d.first[0].as_str()),
            (22, 21, "other")
        );
    }
}
